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


def _config_reads():
    """``<alias>.<name>`` reads in the benchmark, where ``<alias>`` is the
    name it imports ``DEFAULT_CONFIG`` or ``EngineConfig`` under."""
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        aliases = {
            a.asname or a.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "citygml2objv2_ray.config"
            for a in node.names
            if a.name in ("DEFAULT_CONFIG", "EngineConfig")
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                yield path.name, node.attr


def test_every_perfbench_config_read_is_a_field():
    import dataclasses

    from citygml2objv2_ray.config import EngineConfig

    fields = {f.name for f in dataclasses.fields(EngineConfig)}
    found = list(_config_reads())
    assert {"write_batch_size", "vertex_round_decimals"} <= {n for _, n in found}, found
    missing = sorted({f"{f}: CFG.{n}" for f, n in found if n not in fields})
    assert not missing, missing


def test_benchmark_smoke_runs():
    """The benchmark's own smoke, ``perfbench/smoke.py convert flagship``:
    each workload once untraced and once traced at a tiny size. The traced
    passes call package functions (the parse, the triangulator, the vertex
    intern, the join and decode stages) with fixed signatures and return
    shapes, so a change that keeps the names but breaks a call fails here
    and not only in a benchmark run."""
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "smoke.py"), "convert", "flagship"],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=1500,
    )
    assert proc.returncode == 0, (proc.stdout + proc.stderr)[-3000:]
