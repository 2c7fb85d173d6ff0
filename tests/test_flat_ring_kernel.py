"""The flat-ring kernel (``stages.geometry.ring_kernel``) and everything
built on it, against the one-polygon-at-a-time references in
``tests/reference_oracle.py``: ``clean_validate`` column for column, the
Triangulator and ``roof_tri2d`` triangle for triangle, and the OBJ of both
convert modes vertex for vertex and face for face."""

from __future__ import annotations

import dataclasses

import numpy as np
import pyarrow as pa
import pytest

from citygml2objv2_ray.config import DEFAULT_CONFIG
from citygml2objv2_ray.schemas import SURFACES_SCHEMA
from reference_oracle import (
    clean_validate_rowwise,
    roof_tri2d_rowwise,
    sequential_obj_assembly,
    triangulate_rowwise,
)

DERIVED = ("area", "nx", "ny", "nz", "azimuth", "tilt")


def _surfaces(polys) -> pa.Table:
    """Surfaces table from (exterior, holes) pairs, one building each."""
    rows = [
        dict(
            doc_id="d", building_id=f"b{i}", building_seq=i, feature_id=f"f{i}",
            semantic="RoofSurface", is_opening=False, poly_id=f"p{i}", poly_seq=0,
            exterior=np.asarray(ext, float).tolist(),
            interiors=[np.asarray(h, float).tolist() for h in holes],
            attr_irradiation=0.0, truth_valid=True, truth_area=0.0,
        )
        for i, (ext, holes) in enumerate(polys)
    ]
    return pa.Table.from_pylist(rows, schema=SURFACES_SCHEMA)


def _circle(n, r=10.0, c=(100.0, 200.0, 5.0), tilt=0.3, closed=True):
    t = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    x, y = r * np.cos(t), r * np.sin(t)
    pts = np.column_stack([c[0] + x, c[1] + y, c[2] + tilt * x])
    return np.vstack([pts, pts[:1]]) if closed else pts


SQ = np.array([[0, 0, 0], [4, 0, 0], [4, 4, 0], [0, 4, 0], [0, 0, 0]], float)
A, B, C, D = SQ[:4]
CASES = [
    (SQ, []),                                                    # valid
    (SQ[[0, 1, 2, 0]], []),                                      # triangle
    ([[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 0, 0]], []),          # degenerate_normal
    ([[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0], [0, 0, 0]], []),  # zero normal, 4 pts: not_planar
    ([[0, 0, 0], [4, 0, 0], [4, 4, 1], [0, 4, 0], [0, 0, 0]], []),  # warped: not_planar
    (SQ[:4], []),                                                # not_closed
    (SQ[[0, 1, 0]], []),                                         # too_few_points
    (SQ[:1], []),                                                # too_few_points
    (np.zeros((0, 3)), []),                                      # too_few_points
    ([A, A + 1e-12, B, B, C, D, A], []),                         # rounded + exact dups
    ([A, B, C, D, A, A + 1e-12], []),                            # open, closed once cleaned
    ([A, B, C, D, A, A], []),                                    # repeated closure
    ([[0, 0, 0], [3, 0, 0], [0, 1, 0], [1, 2, 0], [0, 0, 0]], []),  # crosses itself
    (_circle(9), []),
    (_circle(20, tilt=-2.0), []),
    (_circle(200), [_circle(12, r=2.0), _circle(7, r=1.0, c=(105.0, 200.0, 5.0), closed=False)]),
    (_circle(130, tilt=0.0), [_circle(2, r=1.0, closed=False), _circle(40, r=3.0)]),
    (SQ, [SQ[[0, 1, 2, 0]] * 0.5 + 1.0]),
]


def _assert_matches_rowwise(batch, cfg=DEFAULT_CONFIG):
    from citygml2objv2_ray.arrow_utils import ring_column
    from citygml2objv2_ray.stages.geometry import clean_validate

    got, want = clean_validate(batch, cfg), clean_validate_rowwise(batch, cfg)
    assert got.schema == want.schema
    for c in got.column_names:
        if c not in DERIVED:
            assert got[c].equals(want[c]), c
    # Newell sums run in ring order; np.sum pairs terms from 8 points on,
    # so only those rings may differ from the reference, in the last bits
    _, off = ring_column(batch["exterior"])
    short = np.diff(off) <= 8
    for c in DERIVED:
        g, w = np.asarray(got[c]), np.asarray(want[c])
        assert np.array_equal(g[short], w[short]), c
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12, err_msg=c)
    return got


def test_clean_validate_matches_rowwise_on_city():
    from citygml2objv2_ray import synth

    surfaces, _ = synth.make_city(15, seed=42)  # default corruption mix
    got = _assert_matches_rowwise(surfaces)
    assert got["valid"].to_pylist() == surfaces["truth_valid"].to_pylist()
    # and a slice, whose Arrow offsets start past zero
    _assert_matches_rowwise(surfaces.slice(37, 50))


def test_clean_validate_matches_rowwise_on_edge_cases():
    batch = _surfaces(CASES)
    got = _assert_matches_rowwise(batch)
    reasons = set(got["invalid_reason"].to_pylist())
    assert reasons == {
        "", "too_few_points", "not_closed", "not_planar", "degenerate_normal"
    }
    for lo, n in ((5, 9), (6, 3), (0, 0)):  # sliced, all invalid, empty
        _assert_matches_rowwise(batch.slice(lo, n))
    strict = _assert_matches_rowwise(batch, dataclasses.replace(DEFAULT_CONFIG, strict_valid=True))
    assert "self_intersecting" in strict["invalid_reason"].to_pylist()


def test_repeated_consecutive_reason():
    """After the rounded clean, exact consecutive repeats can only survive
    when rounding itself yields NaN — decimals past the float64 range."""
    cfg = dataclasses.replace(DEFAULT_CONFIG, vertex_round_decimals=400)
    with np.errstate(all="ignore"):
        got = _assert_matches_rowwise(_surfaces([([A, B, B, C, D, A], [])]), cfg)
    assert got["invalid_reason"].to_pylist() == ["repeated_consecutive"]


def test_rounding_decimals_come_from_config():
    """A vertex 1e-7 from its neighbour is a duplicate at 6 decimals and a
    distinct vertex at 9."""
    batch = _surfaces([([A, B, B + 1e-7, C, D, A], [])])
    six = dataclasses.replace(DEFAULT_CONFIG, vertex_round_decimals=6)
    assert _assert_matches_rowwise(batch, six)["area"].to_pylist() == [16.0]
    _assert_matches_rowwise(batch)


def test_roof_tri2d_matches_rowwise():
    from citygml2objv2_ray import synth

    surfaces, _ = synth.make_city(15, seed=42)
    _assert_roof_tri2d_matches(surfaces)


def _assert_roof_tri2d_matches(surfaces, cfg=DEFAULT_CONFIG):
    from citygml2objv2_ray.pipelines.geometry import roof_tri2d

    got, want = roof_tri2d(surfaces, cfg), roof_tri2d_rowwise(surfaces, cfg)
    assert list(got) == list(want)
    for bid in want:
        assert got[bid].dtype == want[bid].dtype
        assert np.array_equal(got[bid], want[bid]), bid
    return got


def _assert_triangulator_matches(batch, cfg=DEFAULT_CONFIG):
    """Triangulator output == the row-wise oracle, row for row and triangle
    for triangle; returns the number of triangles per row."""
    from citygml2objv2_ray.stages.geometry import Triangulator

    got = Triangulator(cfg)(batch)
    rows, want = triangulate_rowwise(batch, cfg)
    ids = batch["poly_id"].to_pylist()
    assert got["poly_id"].to_pylist() == [ids[i] for i in rows]
    got_p = np.stack(
        [np.asarray(got[c].combine_chunks().flatten()).reshape(-1, 3) for c in ("p0", "p1", "p2")],
        axis=1,
    )
    assert np.array_equal(got_p, want)
    return np.bincount(rows, minlength=batch.num_rows)


@pytest.mark.parametrize("strict", [False, True])
def test_triangulator_matches_rowwise_on_edge_cases(strict):
    cfg = dataclasses.replace(DEFAULT_CONFIG, strict_valid=strict)
    batch = _surfaces(CASES)
    _assert_triangulator_matches(batch, cfg)
    _assert_triangulator_matches(batch.slice(5, 11), cfg)


def test_triangulator_matches_rowwise_on_city():
    from citygml2objv2_ray import synth

    surfaces, _ = synth.make_city(15, seed=42)
    _assert_triangulator_matches(surfaces)
    _assert_triangulator_matches(surfaces.slice(37, 50))


def _convert(surfaces, out, cfg, preserve):
    """``pipelines.convert.convert`` of ``surfaces`` written as one GML
    document; returns the surfaces parsed back and {class: OBJ path}."""
    from citygml2objv2_ray.pipelines.convert import convert
    from citygml2objv2_ray.sources.citygml import parse_citygml_document, surfaces_to_gml

    gml = surfaces_to_gml(surfaces)
    (out / "in").mkdir(parents=True)
    (out / "in" / "city.gml").write_bytes(gml)
    paths = convert(str(out / "in"), str(out / "obj"), preserve=preserve, cfg=cfg)
    parsed = pa.Table.from_pylist(parse_citygml_document(gml, "city"), schema=SURFACES_SCHEMA)
    return parsed, paths


def _ragged_obj(path):
    verts, faces = [], []
    for line in open(path):
        if line.startswith("v "):
            verts.append([float(x) for x in line.split()[1:]])
        elif line.startswith("f "):
            faces.append(tuple(int(x) for x in line.split()[1:]))
    return np.asarray(verts, dtype=np.float64), faces


def _assert_obj_matches_oracle(surfaces, paths, decimals, preserve):
    sdf = surfaces.to_pandas()
    for sem, path in paths.items():
        got_v, got_f = _ragged_obj(path)
        want_v, want_f = sequential_obj_assembly(sdf, sem, decimals, preserve=preserve)
        assert np.array_equal(got_v, np.asarray(want_v, dtype=np.float64)), sem
        assert got_f == want_f, sem
        for f in got_f:
            assert len(set(f)) == len(f), f"{sem}: repeated vertex in face {f}"
    return sdf


@pytest.mark.parametrize("decimals,perturb", [(9, False), (9, True), (6, True)])
def test_polypreserve_obj_matches_sequential_oracle(ray_session, tmp_path, decimals, perturb):
    """``-p`` OBJ == the sequential oracle, vertex for vertex and ragged face
    for face. The perturbed city gains, in one roof, a copy of a vertex that
    matches it to 6 decimals and not to 9."""
    from citygml2objv2_ray import synth

    surfaces, _ = synth.make_city(15, seed=42)
    if perturb:
        rows = surfaces.to_pylist()
        i = next(
            k for k, r in enumerate(rows) if r["semantic"] == "RoofSurface" and r["truth_valid"]
        )
        ext = rows[i]["exterior"]
        near = [round(ext[1][0], 6) + 2e-7] + ext[1][1:]
        rows[i]["exterior"] = ext[:2] + [near] + ext[2:]
        surfaces = pa.Table.from_pylist(rows, schema=SURFACES_SCHEMA)
    cfg = dataclasses.replace(DEFAULT_CONFIG, vertex_round_decimals=decimals)
    parsed, paths = _convert(surfaces, tmp_path, cfg, preserve=True)
    sdf = _assert_obj_matches_oracle(parsed, paths, decimals, preserve=True)
    assert set(paths) == set(sdf.semantic)


# rings that are open as input and closed once cleaned: the last point
# repeats the first one to 12 decimals
OPEN_CLOSING = [
    ([A, B, C, D, A, A + 1e-12], []),                                 # convex: fan
    ([[0, 0, 0], [2, 0, 0], [2, 1, 0], [1, 1, 0], [1, 2, 0], [0, 2, 0],
      [0, 0, 0], [1e-12, 0, 0]], []),                                 # L: ear clip
    ([A, B, C, D, A, A + 1e-12], [SQ[[0, 1, 2, 0]] * 0.5 + 1.0]),     # hole: ear clip
]


def test_open_ring_closed_by_cleaning_has_one_verdict(ray_session, tmp_path):
    """Every consumer of the kernel keeps these rings as valid polygons:
    ``clean_validate``, the Triangulator's fan and ear-clip rows,
    ``roof_tri2d`` and both convert modes."""
    batch = _surfaces(OPEN_CLOSING)
    assert _assert_matches_rowwise(batch)["valid"].to_pylist() == [True] * 3
    assert (_assert_triangulator_matches(batch) > 0).all()
    assert len(_assert_roof_tri2d_matches(batch)) == 3
    for preserve in (False, True):
        parsed, paths = _convert(batch, tmp_path / str(preserve), DEFAULT_CONFIG, preserve)
        _assert_obj_matches_oracle(parsed, paths, 9, preserve)
        _, faces = _ragged_obj(paths["RoofSurface"])
        assert (len(faces) == 3) if preserve else (len(faces) > 3)


def test_rounding_decimals_come_from_config_in_ear_clip_rows(ray_session, tmp_path):
    """At 6 decimals a hole vertex 2e-7 from its neighbour and an L corner
    1e-7 from its neighbour are duplicates: every ring of an ear-clip row is
    cleaned at the config's decimals, not at the default 9."""
    six = dataclasses.replace(DEFAULT_CONFIG, vertex_round_decimals=6)
    hole = SQ[[0, 1, 2, 0]] * 0.5 + 1.0
    hole = np.vstack([hole[:2], hole[1:2] + [2e-7, 0, 0], hole[2:]])
    L = np.array(
        [[0, 0, 0], [2, 0, 0], [2, 1, 0], [2, 1 + 1e-7, 0], [1, 1, 0], [1, 2, 0], [0, 2, 0],
         [0, 0, 0]]
    )
    batch = _surfaces([(SQ, [hole]), (L, [])])
    for cfg in (six, DEFAULT_CONFIG):
        assert (_assert_triangulator_matches(batch, cfg) > 0).all()
        dec = cfg.vertex_round_decimals
        parsed, paths = _convert(batch, tmp_path / str(dec), cfg, preserve=False)
        _assert_obj_matches_oracle(parsed, paths, dec, preserve=False)


def test_round3_is_python_round():
    from citygml2objv2_ray.stages.geometry import _round3

    # k/1000 + 0.0005 lands on exact half-integers after * 1000, where
    # np.round alone disagrees with round()
    x = np.concatenate([np.arange(360000) / 1000 + 0.0005, np.linspace(0, 360, 10007)])
    assert np.array_equal(_round3(x), np.array([round(float(v), 3) for v in x]))
