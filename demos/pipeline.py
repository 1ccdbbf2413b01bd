"""Drive every pipeline stage through the command-line entry point.

Writes a small config file, then calls the same main() the `uepo`
console script uses, one stage at a time, into ./uepo_demo_run (or a
directory given as the first argument). Each stage leaves a manifest
with the sha256 of everything it read and wrote; rerunning the demo
reproduces every artifact byte for byte.

Run:  python3 demos/pipeline.py [out_dir]
"""

import os
import sys

from uepo import cli

CONFIG = """\
# demo-scale settings: small nets, short training, one quick run
env.name = point_mass
env.sigma_env = 0.05
env.n_traj = 12
diffusion.T = 8
diffusion.widths = 32,32
diffusion.train_steps = 300
diffusion.beta_max = 0.2
ensemble.n = 3
ensemble.n_states = 2
filter.epsilon = 1.0
filter.max_attempts = 400
dynamics.epochs = 120
distill.pool = 80
distill.epochs = 150
ppo.iterations = 2
ppo.batch_episodes = 4
eval.episodes = 4
seed = 3
"""

out = sys.argv[1] if len(sys.argv) > 1 else "uepo_demo_run"
os.makedirs(out, exist_ok=True)
cfg_path = os.path.join(out, "demo.cfg")
with open(cfg_path, "w") as fh:
    fh.write(CONFIG + f"out = {out}\n")
print(f"config written to {cfg_path}\n")

for stage in cli.STAGES:
    print(f"$ uepo {stage} --config {cfg_path}")
    code = cli.main([stage, "--config", cfg_path])
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
