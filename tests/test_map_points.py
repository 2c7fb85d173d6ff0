"""Coordinate moves: ``arrow_utils.map_points`` is the one way to move the
points of a surfaces batch, holes included, and a lint keeps every other
module from replacing a ring column by hand."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pyarrow as pa
import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def holed_city():
    from citygml2objv2_ray import synth

    surfaces, _ = synth.make_city(4, seed=1, corruption=0.0)
    return surfaces


def _points(tab: pa.Table):
    from citygml2objv2_ray.arrow_utils import ring_column, rings_column

    return ring_column(tab["exterior"]), rings_column(tab["interiors"])


def _assert_moved(src: pa.Table, got: pa.Table, d: np.ndarray) -> None:
    """Every point of ``got`` is its ``src`` point minus ``d``; rows, rings
    and holes line up one to one."""
    (ep, eo), (hp, ho, hr) = _points(src)
    (gep, geo), (ghp, gho, ghr) = _points(got)
    assert len(hp), "the input has no hole"
    assert got.schema == src.schema
    assert got["poly_id"].to_pylist() == src["poly_id"].to_pylist()
    assert np.array_equal(eo, geo) and np.array_equal(ho, gho) and np.array_equal(hr, ghr)
    assert np.array_equal(gep, ep - d)
    assert np.array_equal(ghp, hp - d)


def test_map_points_keeps_types_offsets_and_chunks(holed_city):
    from citygml2objv2_ray.arrow_utils import map_points, ring_column

    d = np.array([12.5, -3.25, 7.0])
    # sliced chunks: the slice offsets of both list levels are kept
    src = pa.concat_tables([holed_city.slice(3, 10), holed_city.slice(20)])
    got = map_points(src, lambda p: p - d)
    assert got.column("exterior").num_chunks == 2
    _assert_moved(src, got, d)
    assert map_points(holed_city.schema.empty_table(), lambda p: p - d).num_rows == 0
    # a point list of another type is refused, not misread, by both
    untyped = pa.table({
        "exterior": pa.array([[[1.0, 2.0, 3.0]]], pa.list_(pa.list_(pa.float64()))),
        "interiors": pa.array([[]], src["interiors"].type),
    })
    with pytest.raises(TypeError, match="points must be"):
        map_points(untyped, lambda p: p)
    with pytest.raises(TypeError, match="points must be"):
        ring_column(untyped["exterior"])


def test_translate_surfaces_moves_holes(ray_session, holed_city):
    """``-t``: every exterior AND interior point moves by the same vector,
    with the same ring structure and row order."""
    import ray.data as rd

    from citygml2objv2_ray.pipelines.geometry import translate_surfaces

    d = np.array([12.5, -3.25, 7.0])
    got = translate_surfaces(rd.from_arrow(holed_city), d)
    batches = got.iter_batches(batch_format="pyarrow", batch_size=None)
    _assert_moved(holed_city, pa.concat_tables(batches), d)


# (file, outermost def or class) where a ring column may be replaced; "*"
# is the whole file. roof_tri2d empties the holes of its 2-D roofs.
RING_WRITES_ALLOWED = {
    "exterior": {("citygml2objv2_ray/arrow_utils.py", "*")},
    "interiors": {
        ("citygml2objv2_ray/arrow_utils.py", "*"),
        ("citygml2objv2_ray/pipelines/geometry.py", "roof_tri2d"),
    },
}
_REPLACERS = {"set_column", "add_column", "append_column", "assign"}


def _ring_column_writes(tree: ast.Module):
    """(column, outermost def or class, line) of every replacement of the
    ``exterior`` or ``interiors`` column: a ``set_column`` /
    ``add_column`` / ``append_column`` / ``assign`` call that names it,
    and a ``x["exterior"] = ...`` assignment."""
    for top in tree.body:
        scope = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(
                node.func, "attr", getattr(node.func, "id", None)
            ) in _REPLACERS:
                names = {a.value for a in node.args if isinstance(a, ast.Constant)}
                names |= {k.arg for k in node.keywords}
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {
                    t.slice.value
                    for t in targets
                    if isinstance(t, ast.Subscript) and isinstance(t.slice, ast.Constant)
                }
            else:
                continue
            for col in sorted(names & set(RING_WRITES_ALLOWED)):
                yield col, scope, node.lineno


def test_map_points_is_the_only_ring_rebuild():
    """Every coordinate move goes through ``arrow_utils.map_points``, which
    moves holes with their exteriors: no other module replaces a ring
    column."""
    paths = sorted((REPO / "citygml2objv2_ray").rglob("*.py")) + [REPO / "__ray_entry__.py"]
    found = [
        (str(p.relative_to(REPO)), col, scope, line)
        for p in paths
        for col, scope, line in _ring_column_writes(ast.parse(p.read_text(), str(p)))
    ]
    assert found, "the parse saw no ring column write, not even roof_tri2d's"
    stray = [
        f"{p}:{line} {col} in {scope}"
        for p, col, scope, line in found
        if not {(p, scope), (p, "*")} & RING_WRITES_ALLOWED[col]
    ]
    assert not stray, stray


@pytest.mark.parametrize(
    "src, want",
    [
        (
            # the per-row rebuild this lint replaced
            "def translate(surfaces, d):\n"
            "    def sub(batch):\n"
            "        pts, off = ring_column(batch['exterior'])\n"
            "        moved = pts - d\n"
            "        rings = [moved[off[i]:off[i + 1]] for i in range(batch.num_rows)]\n"
            "        i = batch.column_names.index('exterior')\n"
            "        return batch.set_column(i, 'exterior', rings_to_arrow(rings))\n"
            "    return surfaces.map_batches(sub)\n",
            [("exterior", "translate", 7)],
        ),
        ("t = t.append_column('interiors', holes)\n", [("interiors", None, 1)]),
        ("def f(df):\n    return df.assign(exterior=r, x=1)\n", [("exterior", "f", 2)]),
        ("class A:\n    def m(self, df):\n        df['interiors'] = []\n", [("interiors", "A", 3)]),
        ("def f(t):\n    return t.set_column(0, 'poly_id', ids), t['exterior']\n", []),
        ("rows.append(dict(exterior=r, interiors=h))\n", []),
    ],
    ids=["rowwise_rebuild", "append_column", "assign", "subscript", "other_column", "row_dict"],
)
def test_ring_lint_sees_each_pattern(src, want):
    assert list(_ring_column_writes(ast.parse(src))) == want
