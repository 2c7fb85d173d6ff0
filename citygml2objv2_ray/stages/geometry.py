"""Geometry stages for ``map_batches`` — the Ray-native forms of the
reference's per-polygon loop (``CityGML2OBJs.py:99-193``).

Both stages are stateless batch functions (task pools) over ONE flat-ring
kernel, ``ring_kernel``: ring clean (B1), closure test, validity reasons
(B2), Newell normal (B9) and planarity for every polygon of a batch in one
segment-vectorized pass over the ``ring_column`` points and offsets.
``clean_validate`` projects the kernel to per-polygon columns;
``Triangulator`` hands the kernel's cleaned valid rings to
``triangulate_rows``, the one front end of the batched
``geom.triangulate_flat`` (convex fan, else hole bridging and ear clip).
``pipelines.geometry.roof_tri2d``, the ``-p`` convert path and
``pipelines.components`` use the same kernel.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import geom
from ..arrow_utils import ring_column, rings_column
from ..config import DEFAULT_CONFIG, EngineConfig
from ..schemas import TRIANGLES_SCHEMA

# invalid_reason per kernel reason code; 0 = valid (geom.is_valid_ring's
# reasons, in the order it tests them)
REASONS = (
    "", "too_few_points", "not_closed", "repeated_consecutive", "not_planar",
    "degenerate_normal", "self_intersecting",
)


def clean_rings(pts: np.ndarray, off: np.ndarray, decimals: int):
    """``geom.clean_ring`` over every ring of a flat ``ring_column`` at once.

    Returns ``(body, boff, closed)``: row i's cleaned ring minus its last
    point is ``body[boff[i]:boff[i+1]]``, and ``closed[i]`` says whether the
    cleaned ring ends on its first point. On a closed ring that last point
    is the closure, so ``body`` is the open ring that ``-p`` faces and the
    fan triangulation take."""
    R = len(off) - 1
    counts = np.diff(off)
    rowid = np.repeat(np.arange(R), counts)
    first, last = off[:-1], off[1:] - 1
    has = np.flatnonzero(counts > 0)
    closed = np.zeros(R, bool)
    closed[has] = (counts[has] >= 2) & np.all(pts[first[has]] == pts[last[has]], axis=1)
    keep = np.ones(len(pts), bool)
    if len(pts) > 1:
        rr = np.round(pts, decimals)
        keep[1:] = np.any(rr[1:] != rr[:-1], axis=1)
    keep[first[has]] = True
    keep[last[closed]] = False  # the input closure point
    # an open input ring: its last kept point ends the cleaned ring, which
    # is closed when that point repeats the first one exactly
    kept = np.flatnonzero(keep)
    kc = np.bincount(rowid[kept], minlength=R)
    tail_rows = np.flatnonzero(~closed & (kc > 0))
    tail = kept[np.cumsum(kc)[tail_rows] - 1]
    closed[tail_rows] = (kc[tail_rows] >= 2) & np.all(
        pts[tail] == pts[first[tail_rows]], axis=1
    )
    keep[tail] = False
    boff = np.zeros(R + 1, np.int64)
    np.cumsum(np.bincount(rowid[keep], minlength=R), out=boff[1:])
    return pts[keep], boff, closed


def _norm(v: np.ndarray) -> np.ndarray:
    """Row norms of (R,3), bit-equal to ``np.linalg.norm`` of each row (its
    BLAS dot rounds differently from ``sqrt(x*x + y*y + z*z)``)."""
    return np.sqrt((v[:, None, :] @ v[:, :, None]).ravel())


def _ring_next(off: np.ndarray):
    """For flat rings with offsets ``off``: the ring of each point and the
    index of the next point around its ring."""
    row = np.repeat(np.arange(len(off) - 1), np.diff(off))
    idx = np.arange(off[-1])
    return row, np.where(idx + 1 < off[1:][row], idx + 1, off[:-1][row])


def _ring_areas(P: np.ndarray, off: np.ndarray) -> np.ndarray:
    """``geom.ring_area_3d`` of every ring ``P[off[i]:off[i+1]]``, open or
    closed: a closure point adds only the exact zero p × p, and rings of
    fewer than 3 points sum to exactly zero, so neither needs a branch."""
    row, nxt = _ring_next(off)
    c = np.cross(P, P[nxt])
    s = np.column_stack([np.bincount(row, c[:, k], len(off) - 1) for k in range(3)])
    return 0.5 * _norm(s)


class FlatRings(NamedTuple):
    """``ring_kernel`` output for a batch of R polygons."""

    body: np.ndarray    # (n,3) cleaned open exterior rings, row-major
    boff: np.ndarray    # (R+1,) row i's ring is body[boff[i]:boff[i+1]]
    brow: np.ndarray    # (n,) row of each body point
    nxt: np.ndarray     # (n,) index of the next point around its ring
    normal: np.ndarray  # (R,3) unit Newell normal, zeros when degenerate
    reason: np.ndarray  # (R,) index into REASONS, 0 = valid

    @property
    def valid(self) -> np.ndarray:
        return self.reason == 0


def ring_kernel(batch: pa.Table, cfg: EngineConfig = DEFAULT_CONFIG) -> FlatRings:
    """Clean (B1) + validity predicate (B2) + Newell normal (B9) for every
    exterior ring of ``batch``, equal row for row to ``geom.clean_ring``
    followed by ``geom.is_valid_ring``. Newell sums accumulate in ring
    order, where ``np.sum`` pairs terms up from 8 points on, so a normal of
    a ring with 8+ points can differ from ``geom.newell_normal`` in the
    last bit."""
    pts, off = ring_column(batch["exterior"])
    body, boff, closed = clean_rings(pts, off, cfg.vertex_round_decimals)
    R = len(boff) - 1
    bc = np.diff(boff)
    brow, nxt = _ring_next(boff)
    P, Pn = body, body[nxt]
    raw = np.column_stack([
        np.bincount(brow, (P[:, 1] - Pn[:, 1]) * (P[:, 2] + Pn[:, 2]), R),
        np.bincount(brow, (P[:, 2] - Pn[:, 2]) * (P[:, 0] + Pn[:, 0]), R),
        np.bincount(brow, (P[:, 0] - Pn[:, 0]) * (P[:, 1] + Pn[:, 1]), R),
    ])
    mag = _norm(raw)
    normal = raw / np.where(mag > 0, mag, 1.0)[:, None]

    # planarity: max |(p - centroid) . unit normal| per ring <= eps
    c = np.column_stack([np.bincount(brow, P[:, k], R) for k in range(3)])
    c = c / np.maximum(bc, 1)[:, None]
    nb, cb = normal[brow], c[brow]
    d = np.abs(
        (P[:, 0] - cb[:, 0]) * nb[:, 0]
        + (P[:, 1] - cb[:, 1]) * nb[:, 1]
        + (P[:, 2] - cb[:, 2]) * nb[:, 2]
    )
    dmax = np.zeros(R)
    ne = bc > 0
    if ne.any():
        dmax[ne] = np.maximum.reduceat(d, boff[:-1][ne])
    rep = np.zeros(R, bool)
    if len(body) > 1:
        same = np.all(body[1:] == body[:-1], axis=1) & (brow[1:] == brow[:-1])
        rep[brow[1:][same]] = True

    reason = np.select(
        [
            bc < 3,
            ~closed,
            rep,
            (bc >= 4) & ((mag == 0) | (dmax > cfg.planarity_eps)),
            mag == 0,
        ],
        [1, 2, 3, 4, 5],
        0,
    ).astype(np.int8)
    if cfg.strict_valid:
        # the opt-in self-intersection clause stays per ring (O(n^2) pairs)
        for i in np.flatnonzero(reason == 0):
            ring = body[boff[i] : boff[i + 1]]
            if geom.ring_self_intersects(np.vstack([ring, ring[:1]])):
                reason[i] = 6
    return FlatRings(body, boff, brow, nxt, normal, reason)


def _round3(x: np.ndarray) -> np.ndarray:
    """Python's ``round(v, 3)`` elementwise. ``np.round`` differs from it
    only where ``v * 1000`` rounds to an exact half-integer; those values
    are re-rounded in Python."""
    out = np.round(x, 3)
    p = x * 1000.0
    tie = np.flatnonzero(p - np.floor(p) == 0.5)
    out[tie] = [round(float(v), 3) for v in x[tie]]
    return out


def clean_validate(batch: pa.Table, cfg: EngineConfig = DEFAULT_CONFIG) -> pa.Table:
    """Ring clean (B1) + validity predicate (B2) + per-polygon derived
    columns: area minus hole areas (B10), Newell normal (B9), azimuth/tilt
    (B11) — a column projection of ``ring_kernel``.

    Invalid polygons are kept, flagged ``valid=False`` with a reason and
    zeros in the derived columns — the filter+metrics decision happens
    downstream (the reference prints and skips, CityGML2OBJs.py:163-170)."""
    k = ring_kernel(batch, cfg)
    valid = k.valid
    R = len(valid)
    area = np.where(valid, _ring_areas(k.body, k.boff), 0.0)
    # holes are subtracted unclean, one at a time (geom.gml_area)
    hpts, hoff, hrow_off = rings_column(batch["interiors"])
    hole_area = _ring_areas(hpts, hoff)
    nholes = np.diff(hrow_off)
    for j in range(int(nholes.max(initial=0))):
        rows = np.flatnonzero(valid & (nholes > j))
        area[rows] -= hole_area[hrow_off[rows] + j]

    normal = np.where(valid[:, None], k.normal, 0.0)
    azimuth, tilt = np.zeros(R), np.zeros(R)
    if valid.any():
        n = normal[valid] / _norm(normal[valid])[:, None]
        azimuth[valid] = _round3(np.degrees(np.arctan2(n[:, 0], n[:, 1])) % 360.0)
        tilt[valid] = _round3(np.degrees(np.arccos(np.clip(n[:, 2], -1.0, 1.0))))
    reasons = pa.array(REASONS, pa.string()).take(pa.array(k.reason.astype(np.int64)))
    return (
        batch.append_column("valid", pa.array(valid))
        .append_column("invalid_reason", reasons)
        .append_column("area", pa.array(area))
        .append_column("nx", pa.array(normal[:, 0]))
        .append_column("ny", pa.array(normal[:, 1]))
        .append_column("nz", pa.array(normal[:, 2]))
        .append_column("azimuth", pa.array(azimuth))
        .append_column("tilt", pa.array(tilt))
    )


class Triangulator:
    """Triangulation stage (C1, polygon3dmodule.py:551-716).

    Per batch it explodes each valid polygon row into one row per triangle
    (TRIANGLES_SCHEMA). Invalid polygons triangulate to zero rows
    (silent-empty parity, polygon3dmodule.py:679-687); ``clean_validate``
    over the same rows gives the reasons. There is no per-polygon Python:
    ``ring_kernel`` cleans, validates and takes the normals of every
    exterior, ``clean_rings`` cleans every hole, and one
    ``geom.triangulate_flat`` call fans the strictly convex rows and ear
    clips all the others of the batch together.
    """

    def __init__(self, cfg: EngineConfig = DEFAULT_CONFIG):
        self.cfg = cfg

    def __call__(self, batch: pa.Table) -> pa.Table:
        trow, allt = self._triangulate_rows(batch)
        # per-row metadata via vectorized take/repeat (rows ascending,
        # triangles per row in emission order)
        tseq_counts = np.bincount(trow, minlength=batch.num_rows)
        cum = np.zeros(batch.num_rows + 1, np.int64)
        np.cumsum(tseq_counts, out=cum[1:])
        out_tseq = np.arange(len(trow)) - cum[trow]
        take = pa.array(trow, pa.int64())
        meta = {
            c: pc.take(batch[c], take).cast(TRIANGLES_SCHEMA.field(c).type)
            for c in ("doc_id", "building_id", "poly_id", "semantic", "building_seq", "poly_seq")
        }
        tn = np.cross(allt[:, 1] - allt[:, 0], allt[:, 2] - allt[:, 0])
        areas = 0.5 * np.linalg.norm(tn, axis=1)

        def fsl(col: np.ndarray) -> pa.Array:
            return pa.FixedSizeListArray.from_arrays(
                pa.array(np.ascontiguousarray(col).ravel(), pa.float64()), 3
            )

        return pa.table(
            {
                **meta,
                "tri_seq": pa.array(out_tseq.astype(np.int32), pa.int32()),
                "p0": fsl(allt[:, 0]),
                "p1": fsl(allt[:, 1]),
                "p2": fsl(allt[:, 2]),
                "area": pa.array(areas, pa.float64()),
            }
        )

    def _triangulate_rows(self, batch: pa.Table):
        """Returns (row index per triangle, (T,3,3) triangles) of the
        kernel-valid rows, rows ascending and each row's triangles in
        emission order; equal triangle for triangle to the per-polygon
        ``tests/reference_oracle.triangulate_clean``."""
        k = ring_kernel(batch, self.cfg)
        return triangulate_rows(k, np.flatnonzero(k.valid), batch["interiors"], self.cfg)


def triangulate_rows(k: FlatRings, rows: np.ndarray, interiors, cfg: EngineConfig = DEFAULT_CONFIG):
    """The Triangulator's front end over the selected ``rows`` of a
    ``ring_kernel`` batch (each of 3+ cleaned points with a non-zero
    normal): their kernel-cleaned exteriors, kernel normals and projection
    axes (``geom.projection_axis``, vectorized), and their
    ``clean_rings``-cleaned holes from the ``interiors`` column go to ONE
    ``geom.triangulate_flat`` call. Returns (row index per triangle,
    (T,3,3) triangles), rows ascending."""
    g, boff = geom.take_segments(k.boff, rows)
    body = k.body[g]
    normal = k.normal[rows]
    # ---- projection axis (geom.projection_axis, vectorized) ----
    ptp_x = np.zeros(len(rows))
    if len(rows):
        ptp_x = np.maximum.reduceat(body[:, 0], boff[:-1]) - np.minimum.reduceat(
            body[:, 0], boff[:-1]
        )
    axis = np.where(
        np.abs(normal[:, 2]) >= cfg.vertical_nz_tol,
        geom.AXIS_XY,
        np.where(ptp_x < 1e-12, geom.AXIS_YZ, geom.AXIS_XZ),
    )
    hpts, hoff, hrow_off = rings_column(interiors)
    hbody, hboff, _ = clean_rings(hpts, hoff, cfg.vertex_round_decimals)
    rings, hroff = geom.take_segments(hrow_off, rows)
    hg, hboff = geom.take_segments(hboff, rings)
    trow, tris = geom.triangulate_flat(body, boff, normal, axis, hbody[hg], hboff, hroff)
    return rows[trow], tris
