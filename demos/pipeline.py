"""Drive every pipeline stage through the command-line entry point.

Runs the small reproducibility config, demos/small.cfg, through the same
main() the `uepo` console script uses, one stage at a time, into
./uepo_demo_run (or a directory given as the first argument). Each stage
leaves a manifest with the sha256 of everything it read and wrote;
rerunning the demo reproduces every artifact byte for byte.

Run:  python3 demos/pipeline.py [out_dir]
"""

import os
import sys

from uepo import cli

CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "small.cfg")

out = sys.argv[1] if len(sys.argv) > 1 else "uepo_demo_run"
for stage in cli.STAGES:
    print(f"$ uepo {stage} --config {CONFIG} --out {out}")
    code = cli.main([stage, "--config", CONFIG, "--out", out])
    if code != 0:
        print(f"stage {stage} failed with exit code {code}")
        sys.exit(code)
    print()

print("artifacts:")
for name in sorted(os.listdir(out)):
    if name.endswith(".time.txt"):  # wall times: their size varies from run to run
        print(f"  {name}")
        continue
    size = os.path.getsize(os.path.join(out, name))
    print(f"  {name:24s} {size:8d} bytes")
print(f"\nevery stage wrote a <stage>.manifest; rerun any stage with a")
print(f"different --seed or compare two runs' manifests to check them.")
