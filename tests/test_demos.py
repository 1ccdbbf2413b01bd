"""The demos are run by hand, not by the suite; a refactor that renames or
deletes a ``uepo`` name they use would break them silently. Each demo is
parsed, not run: every name it imports from ``uepo`` and every ``name.attr``
on such an import must resolve."""

import ast
import glob
import importlib
import os

import pytest

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                      "demos", "*.py")))


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
