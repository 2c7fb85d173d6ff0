"""The benchmark under ``perfbench/`` imports package names, private ones
included, and is frozen between benchmark changes: every
``from citygml2objv2_ray... import name`` in it must keep resolving, or a
rename in the package first shows up as a failed benchmark run."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _package_imports():
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                "citygml2objv2_ray"
            ):
                for alias in node.names:
                    yield path.name, node.module, alias.name


def _resolves(module: str, name: str) -> bool:
    if hasattr(importlib.import_module(module), name):
        return True
    try:  # a submodule: ``from citygml2objv2_ray import synth``
        importlib.import_module(f"{module}.{name}")
        return True
    except ModuleNotFoundError:
        return False


def test_every_perfbench_import_resolves():
    found = list(_package_imports())
    assert len(found) >= 20, found  # the parse really saw the benchmark
    missing = [f"{f}: from {m} import {n}" for f, m, n in found if not _resolves(m, n)]
    assert not missing, missing
