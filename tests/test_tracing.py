"""The benchmark's traced run looks functions up by name; a refactor that
renames or deletes one of them breaks ``bench/run.py --trace 1``."""

import importlib
import importlib.util
import os

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench", "spans.py")


def test_every_traced_name_is_a_uepo_function():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = list(spans.TRACED) + ["divergence.perturb"]
    missing = []
    for qual in names:
        mod_name, fn_name = qual.split(".")
        fn = getattr(importlib.import_module(f"uepo.{mod_name}"), fn_name, None)
        if not callable(fn):
            missing.append(qual)
    assert not missing, f"traced names with no uepo function: {missing}"
