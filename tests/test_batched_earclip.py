"""The batched triangulation kernel (``geom.triangulate_flat`` and its
``_bridge`` / ``_earclip`` steps) against the per-polygon code it replaced,
kept verbatim in ``tests/reference_oracle.py``: the same index triples, the
same merged rings and the same triangles, in the same order, on fuzzed
polygons. The fuzz covers random star polygons, coordinates quantized to a
grid (collinear runs and repeated points, which reach the ear clip's stuck
branch), 1-3 holes, mirrored holes (equal distances, so bridge candidates
tie and bridge vertices repeat), rings of 4, 20, 130 and 400 points, all
three projection axes and CW input."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

import reference_oracle as ro
from citygml2objv2_ray import geom
from citygml2objv2_ray.schemas import SURFACES_SCHEMA

SIZES = (4, 20, 130, 400)


def _star(rng, n, r0, r1, c=(0.0, 0.0), q=None):
    """A CCW star polygon of ``n`` points around ``c``, optionally snapped
    to a grid of ``q``."""
    t = np.sort(rng.uniform(0.0, 2 * np.pi, n))
    r = rng.uniform(r0, r1, n)
    p = np.column_stack([c[0] + r * np.cos(t), c[1] + r * np.sin(t)])
    return p if q is None else np.round(p / q) * q


def _holes(rng, q):
    """1-3 CW holes inside a radius-6 star; later holes may mirror an
    earlier one's centre."""
    out = []
    for _ in range(int(rng.integers(1, 4))):
        cx, cy = rng.uniform(-2.5, 2.5, 2)
        if out and rng.random() < 0.4:
            cx = -cx
        n = int(rng.choice([3, 4, 6, 12]))
        out.append(_star(rng, n, 0.4, 1.2, (cx, cy), q and q / 4)[::-1])
    return out


def _flat(rings):
    return np.concatenate(rings), geom._offsets([len(r) for r in rings])


def _per_ring(ring, cols, off):
    """Split flat ``cols`` by ``ring`` into per-ring lists of local tuples."""
    out = [[] for _ in range(len(off) - 1)]
    for r, *idx in zip(ring, *cols):
        out[r].append(tuple(int(i - off[r]) for i in idx))
    return out


@pytest.mark.parametrize("seed", [0, 1])
def test_earclip_index_triples_equal_oracle(seed):
    rng = np.random.default_rng(seed)
    polys = [
        _star(rng, n, 6.0, 10.0, q=q)
        for n in SIZES
        for q in (None, 0.5, 1.0, 2.0)
        for _ in range(2 if n == 400 else 6)
    ]
    polys += [np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])]  # 3 points: emitted as is
    pts, off = _flat(polys)
    ring, i0, i1, i2 = geom._earclip(pts[:, 0], pts[:, 1], off)
    got = _per_ring(ring, (i0, i1, i2), off)
    for p, g in zip(polys, got):
        assert g == ro._earcut_simple(p)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bridge_equals_oracle(seed):
    rng = np.random.default_rng(seed)
    outers, holes, hpoly = [], [], []
    for i in range(60):
        q = rng.choice([None, 0.5, 1.0])
        outers.append(_star(rng, int(rng.choice(SIZES[:3])), 6.0, 10.0, q=q))
        hs = _holes(rng, q)
        holes += hs
        hpoly += [i] * len(hs)
    pts = np.concatenate(outers + holes)
    lx, ly = pts[:, 0], pts[:, 1]
    P = np.arange(sum(len(o) for o in outers))
    H = np.arange(len(P), len(pts))
    poff = geom._offsets([len(o) for o in outers])
    hoff = geom._offsets([len(h) for h in holes])
    P, poff = geom._bridge(lx, ly, P, poff, H, hoff, np.array(hpoly))
    for i, outer in enumerate(outers):
        want, _ = ro._bridge_holes(outer, [h for h, p in zip(holes, hpoly) if p == i])
        got = pts[P[poff[i] : poff[i + 1]]]
        assert np.array_equal(got, want), i


def _embed(p2, axis):
    """A 2-D ring placed on a plane projecting to XY, XZ or YZ."""
    x, y = p2[:, 0], p2[:, 1]
    if axis == geom.AXIS_XY:
        return np.column_stack([x + 100, y + 200, 5 + 0.3 * x])
    if axis == geom.AXIS_XZ:
        return np.column_stack([x + 100, 50 + 0.05 * x, y + 10])
    return np.column_stack([np.full_like(x, 7.0), x + 30, y + 10])


def _polygons(rng, count):
    """Closed 3-D (exterior, holes) pairs: 0-3 holes, quantized or not,
    any axis, either winding."""
    out = []
    close = lambda a: np.vstack([a, a[:1]])  # noqa: E731
    for _ in range(count):
        q = rng.choice([None, 0.5, 1.0, 2.0])
        n = int(rng.choice(SIZES, p=[0.35, 0.4, 0.2, 0.05]))
        ext, hs = _star(rng, n, 6.0, 10.0, q=q), _holes(rng, q) if rng.random() < 0.6 else []
        axis = int(rng.integers(0, 3))
        flip = lambda r: r[::-1] if rng.random() < 0.5 else r  # noqa: E731
        out.append((close(flip(_embed(ext, axis))), [close(flip(_embed(h, axis))) for h in hs]))
    return out


@pytest.mark.parametrize("seed", [0, 1])
def test_triangulation_equals_oracle(seed):
    """The Triangulator's front end over the rows of the components rule
    (cleaned length incl. closure > 4, non-zero normal) and the
    Triangulator's table equal the per-polygon ``triangulate_clean``
    triangle for triangle."""
    from citygml2objv2_ray.stages.geometry import Triangulator, ring_kernel, triangulate_rows

    polys = _polygons(np.random.default_rng(seed), 120)
    batch = pa.Table.from_pylist(
        [
            dict(
                doc_id="d", building_id=f"b{i}", building_seq=i, feature_id="f",
                semantic="WallSurface", is_opening=False, poly_id=f"p{i}", poly_seq=0,
                exterior=ext.tolist(), interiors=[h.tolist() for h in hs],
                attr_irradiation=0.0, truth_valid=True, truth_area=0.0,
            )
            for i, (ext, hs) in enumerate(polys)
        ],
        schema=SURFACES_SCHEMA,
    )
    k = ring_kernel(batch)
    full = np.flatnonzero((np.diff(k.boff) + 1 > 4) & k.normal.any(axis=1))
    assert len(full) > 100  # the others take the quad fast path
    rows, got = triangulate_rows(k, full, batch["interiors"])
    for i in full:
        ext, hs = polys[i]
        want = ro.triangulate_clean(geom.clean_ring(ext), [geom.clean_ring(h) for h in hs])
        assert np.array_equal(got[rows == i], want), i
    assert np.isin(rows, full).all()

    table = Triangulator()(batch)
    rows, want = ro.triangulate_rowwise(batch)
    assert table["poly_id"].to_pylist() == [f"p{i}" for i in rows]
    p = [np.asarray(table[c].combine_chunks().flatten()).reshape(-1, 3) for c in ("p0", "p1", "p2")]
    assert np.array_equal(np.stack(p, axis=1), want)
