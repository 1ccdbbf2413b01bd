"""The benchmark looks program names up by string. Its traced run finds
functions by name, so a refactor that renames or deletes one of them
breaks ``bench/run.py --trace 1``; and it reads config keys, so deleting
one loses the figures computed from it."""

import ast
import glob
import importlib
import importlib.util
import os

from uepo.config import SCHEMA

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
SPANS = os.path.join(BENCH, "spans.py")


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


def test_every_config_key_the_benchmark_reads_is_in_the_schema():
    # only the bench scripts: bench/uepo_ref is a frozen copy with its own schema
    read = set()
    for path in glob.glob(os.path.join(BENCH, "*.py")):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        read |= {node.slice.value for node in ast.walk(tree)
                 if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                 and node.value.id == "cfg" and isinstance(node.slice, ast.Constant)}
    assert "ppo.epochs_per_batch" in read and "diffusion.window_stride" in read
    missing = sorted(read - set(SCHEMA))
    assert not missing, f"config keys the benchmark reads that the schema lacks: {missing}"
