"""A refactor that renames or deletes a ``uepo`` name the demos use, or
changes a call form they rely on, would break them silently. Every demo is
parsed: every name it imports from ``uepo`` and every ``name.attr`` on such
an import must resolve. The two fast demos, ``kl_filter.py`` and
``pipeline.py``, are also run to completion in a temporary directory;
``bimodal_diffusion.py`` trains for about 15 s, so it is only parsed."""

import ast
import glob
import importlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def _uepo_paths(tree):
    """Dotted paths of the uepo names the demo imports or reaches as name.attr."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "uepo":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "uepo":
                    bound[alias.asname or alias.name] = alias.name
    paths = set(bound.values())
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            paths.add(f"{bound[node.value.id]}.{node.attr}")
    return paths


def _resolves(path):
    parts = path.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:  # a submodule not yet imported by its package
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            return False
    return True


def test_every_demo_is_found():
    assert {os.path.basename(p) for p in DEMOS} >= {"bimodal_diffusion.py", "kl_filter.py",
                                                    "pipeline.py"}


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_every_uepo_name_a_demo_uses_resolves(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    paths = _uepo_paths(tree)
    assert paths, f"{path} uses no uepo name"
    missing = sorted(p for p in paths if not _resolves(p))
    assert not missing, f"{os.path.basename(path)} uses names uepo lacks: {missing}"


@pytest.mark.parametrize("name", ["kl_filter.py", "pipeline.py"])
def test_fast_demo_runs(tmp_path, name):
    # pipeline.py writes its run directory under the working directory
    path = [os.path.join(ROOT, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    if name == "pipeline.py":
        # a timing file's size follows the digits of its wall time, so the
        # artifact listing names those files without a size
        listing = done.stdout.partition("artifacts:")[2].splitlines()
        timings = [line.split() for line in listing if ".time.txt" in line]
        assert timings and all(len(words) == 1 for words in timings), timings
