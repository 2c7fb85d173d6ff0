"""Straight-line sequential oracles (SURVEY.md §5.2 item 3), with NO Ray
machinery and no batch vectorization — the references the engine's batch
kernels must reproduce EXACTLY:

- ``sequential_obj_assembly``: the reference's OBJ assembly semantics as
  the reference does it — one process, document order, dict-based
  first-appearance vertex interning with building-local scope merged into
  a global list with offset shift (CityGML2OBJs.py:68-77,156,188,767-770);
  with ``preserve=True`` each valid polygon is one n-gon face (``-p``,
  CityGML2OBJs.py:137-141).
- ``triangulate_rowwise``: the Triangulator's triangles, one polygon at
  a time (``triangulate_row``: clean every ring, validate, ear clip).
- ``clean_validate_rowwise``: ring clean + validity + derived columns, one
  polygon at a time through the ``geom`` scalar kernels.
- ``roof_tri2d_rowwise``: per-building 2-D Roof/Ground triangles, one
  polygon at a time.
- ``coverage_mask_gemm``: the per-pixel clip the row-interval kernel
  replaced (``stages/images.py`` before it): every pixel centre of the
  building bbox against every edge of every triangle in one f32 GEMM, with
  an exact f64 re-test of the pixels near an edge.
- ``decode_clip_rowwise``: ``DecodeClip``'s output columns, one image at a
  time: decode, f64 phash, and the clip through ``coverage_mask_gemm``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pyarrow as pa

from citygml2objv2_ray import codecs, geom
from citygml2objv2_ray.arrow_utils import ring_column, rings_column
from citygml2objv2_ray.config import DEFAULT_CONFIG


def triangulate_row(ext, holes, cfg=DEFAULT_CONFIG) -> np.ndarray:
    """One polygon: clean every ring at ``cfg``'s decimals, skip it if the
    exterior is invalid, else ear clip. Returns (T,3,3)."""
    dec = cfg.vertex_round_decimals
    ext = geom.clean_ring(np.asarray(ext, dtype=np.float64), dec)
    if not geom.is_valid_ring(ext, cfg)[0]:
        return np.zeros((0, 3, 3))
    holes = [geom.clean_ring(np.asarray(h, dtype=np.float64), dec) for h in holes]
    return geom.triangulate_polygon(ext, holes, cfg)


def triangulate_rowwise(batch: pa.Table, cfg=DEFAULT_CONFIG):
    """``stages.geometry.Triangulator``, one polygon at a time: returns
    (row index per triangle, (T,3,3) triangles) in row order."""
    pts, off = ring_column(batch["exterior"])
    ipts, iring_off, irow_off = rings_column(batch["interiors"])
    rows, tris = [np.zeros(0, np.int64)], [np.zeros((0, 3, 3))]
    for i in range(batch.num_rows):
        holes = [
            ipts[iring_off[r] : iring_off[r + 1]] for r in range(irow_off[i], irow_off[i + 1])
        ]
        t = triangulate_row(pts[off[i] : off[i + 1]], holes, cfg)
        rows.append(np.full(len(t), i, np.int64))
        tris.append(t)
    return np.concatenate(rows), np.concatenate(tris)


def sequential_obj_assembly(
    surfaces_df, semantic: str, decimals: int = 9, preserve: bool = False
):
    """Returns (vertices list, faces list of 1-based index tuples) for one
    semantic class, in strict document order. Faces are triangles, or with
    ``preserve`` one ragged face per valid polygon over its cleaned ring
    minus the closure point."""
    cfg = dataclasses.replace(DEFAULT_CONFIG, vertex_round_decimals=decimals)
    vertices: list[tuple] = []
    faces: list[tuple[int, ...]] = []
    df = surfaces_df[surfaces_df.semantic == semantic].sort_values(
        ["building_seq", "poly_seq"], kind="stable"
    )
    for _, g in df.groupby("building_seq", sort=True):
        local: dict[str, int] = {}          # building-local first-appearance
        local_verts: list[tuple] = []
        shift = len(vertices)               # global offset (':767-770')
        for _, row in g.iterrows():
            ext = np.asarray([list(p) for p in row.exterior], dtype=np.float64)
            if preserve:
                ext = geom.clean_ring(ext, decimals)
                polys = [ext[:-1]] if geom.is_valid_ring(ext, cfg)[0] else []
            else:
                holes = [np.asarray([list(p) for p in h], dtype=np.float64) for h in row.interiors]
                polys = triangulate_row(ext, holes, cfg)
            for t in polys:
                idxs = []
                for p in t:
                    key = "|".join(map(repr, np.round(p, decimals) + 0.0))
                    if key not in local:            # get_index (':68-77')
                        local[key] = len(local_verts)
                        local_verts.append(tuple(p))
                    idxs.append(local[key] + shift + 1)  # 1-based + shift
                faces.append(tuple(idxs))
        vertices.extend(local_verts)
    return vertices, faces


def clean_validate_rowwise(batch: pa.Table, cfg=DEFAULT_CONFIG) -> pa.Table:
    """``stages.geometry.clean_validate``, one polygon at a time."""
    pts, off = ring_column(batch["exterior"])
    ipts, iring_off, irow_off = rings_column(batch["interiors"])
    n = batch.num_rows
    valid = np.zeros(n, dtype=bool)
    reason = np.empty(n, dtype=object)
    area = np.zeros(n, dtype=np.float64)
    normal = np.zeros((n, 3), dtype=np.float64)
    azimuth = np.zeros(n, dtype=np.float64)
    tilt = np.zeros(n, dtype=np.float64)
    for i in range(n):
        ext = geom.clean_ring(pts[off[i] : off[i + 1]], cfg.vertex_round_decimals)
        holes = [
            ipts[iring_off[r] : iring_off[r + 1]]
            for r in range(irow_off[i], irow_off[i + 1])
        ]
        ok, why = geom.is_valid_ring(ext, cfg)
        valid[i], reason[i] = ok, why
        if ok:
            area[i] = geom.gml_area(ext, holes)
            nrm = geom.newell_normal(ext)
            normal[i] = nrm
            azimuth[i], tilt[i] = geom.azimuth_tilt(nrm)
    return (
        batch.append_column("valid", pa.array(valid))
        .append_column("invalid_reason", pa.array(reason, pa.string()))
        .append_column("area", pa.array(area))
        .append_column("nx", pa.array(normal[:, 0]))
        .append_column("ny", pa.array(normal[:, 1]))
        .append_column("nz", pa.array(normal[:, 2]))
        .append_column("azimuth", pa.array(azimuth))
        .append_column("tilt", pa.array(tilt))
    )


def roof_tri2d_rowwise(surfaces: pa.Table, cfg=DEFAULT_CONFIG) -> dict[str, np.ndarray]:
    """``pipelines.geometry.roof_tri2d``, one polygon at a time: the
    exterior rings of valid Roof/Ground polygons (holes ignored)
    triangulated, z dropped, concatenated per building in row order."""
    out: dict[str, list[np.ndarray]] = {}
    sem = surfaces["semantic"].to_pylist()
    bids = surfaces["building_id"].to_pylist()
    pts, off = ring_column(surfaces["exterior"])
    for i in range(surfaces.num_rows):
        if sem[i] in ("RoofSurface", "GroundSurface"):
            tris = triangulate_row(pts[off[i] : off[i + 1]], [], cfg)
            if len(tris):
                out.setdefault(bids[i], []).append(tris[:, :, :2])
    return {b: np.concatenate(v) for b, v in out.items()}


# ---------------------------------------------------------------------------
# raster clip: the per-pixel edge GEMM (verbatim from stages/images.py
# before the row-interval kernel)
# ---------------------------------------------------------------------------

PIXEL_SIZE = 0.25


def edge_entry(tris: np.ndarray):
    """Precompute the per-building edge-function form of a (T, 3, 2)
    triangle set: one float32 coefficient matrix E (3, 3T) such that
    ``[px, py, 1] @ E`` gives all 3 edge functions of all T triangles in a
    single GEMM. Coordinates are CENTERED on the triangle bbox first so
    float32 keeps ~1e-4 absolute precision at the pixel scale."""
    lo = tris.min(axis=(0, 1))
    hi = tris.max(axis=(0, 1))
    center = (lo + hi) / 2.0
    t = (tris - center).astype(np.float64)
    a, b, c = t[:, 0], t[:, 1], t[:, 2]  # (T,2) each
    T = len(t)
    E = np.empty((3, 3 * T), dtype=np.float64)
    for k, (p, q) in enumerate(((a, b), (b, c), (c, a))):
        # d = (px - q0)*(p1 - q1) - (p0 - q0)*(py - q1)
        A = p[:, 1] - q[:, 1]
        B = -(p[:, 0] - q[:, 0])
        C = -q[:, 0] * A - B * q[:, 1]
        E[0, k::3] = A
        E[1, k::3] = B
        E[2, k::3] = C
    # keep the exact f64 coefficients alongside the GEMM-fast f32 copy:
    # borderline pixels are re-tested in f64 (see _coverage_mask_entry)
    return E.astype(np.float32), center.astype(np.float64), lo, hi, T, E


# f32 edge values carry ~1e-4 absolute error at these (centered) coordinate
# magnitudes; anything inside this band gets an exact f64 re-test so the
# inclusion decision never depends on f32 rounding (or BLAS config)
_F32_EDGE_TOL = 1e-2


def _inside_any_multi(pt_blocks: list, entry) -> list:
    """Point-in-any-triangle test for SEVERAL point sets sharing one
    ``edge_entry``: the sets concatenate into ONE f32 GEMM + border f64
    re-test, then split back. Each block is a (P_i, 2) float64 array of
    CENTERED pixel coordinates; returns one (P_i,) bool array per block."""
    E, center, lo, hi, T, E64 = entry
    sizes = [len(p) for p in pt_blocks]
    P = int(sum(sizes))
    if P == 0:
        return [np.zeros(0, dtype=bool) for _ in pt_blocks]
    pts = pt_blocks[0] if len(pt_blocks) == 1 else np.concatenate(pt_blocks)
    inside_any = np.empty(P, dtype=bool)
    slab = max(1024, (1 << 19) // max(3 * T, 1))  # ≈0.5M f32 elements
    for s0 in range(0, P, slab):
        s1 = min(P, s0 + slab)
        hom = np.empty((s1 - s0, 3), dtype=np.float32)
        hom[:, :2] = pts[s0:s1]
        hom[:, 2] = 1.0
        D = (hom @ E).reshape(s1 - s0, T, 3)
        neg = (D < 0).any(axis=2)
        pos = (D > 0).any(axis=2)
        inside_any[s0:s1] = (~(neg & pos)).any(axis=1)
        border = np.flatnonzero((np.abs(D) < _F32_EDGE_TOL).any(axis=(1, 2)))
        if len(border):
            hom64 = np.empty((len(border), 3), dtype=np.float64)
            hom64[:, :2] = pts[s0:s1][border]
            hom64[:, 2] = 1.0
            D64 = (hom64 @ E64).reshape(len(border), T, 3)
            neg64 = (D64 < 0).any(axis=2)
            pos64 = (D64 > 0).any(axis=2)
            inside_any[s0 + border] = (~(neg64 & pos64)).any(axis=1)
    out = []
    off = 0
    for s in sizes:
        out.append(inside_any[off : off + s])
        off += s
    return out


def _grid_points(xs: np.ndarray, ys: np.ndarray, entry):
    """Bbox-pruned, centered pixel-center point set of one image grid:
    returns (points (P,2) f64, mx, my) — ``P`` may be 0 when the grid
    misses the building bbox entirely."""
    _, center, lo, hi, _, _ = entry
    mx = (xs >= lo[0]) & (xs <= hi[0])
    my = (ys >= lo[1]) & (ys <= hi[1])
    if not mx.any() or not my.any():
        return np.zeros((0, 2), dtype=np.float64), mx, my
    gx, gy = np.meshgrid((xs[mx] - center[0]), (ys[my] - center[1]))
    pts = np.empty((gx.size, 2), dtype=np.float64)
    pts[:, 0] = gx.ravel()
    pts[:, 1] = gy.ravel()
    return pts, mx, my


def _coverage_mask_entry(xs: np.ndarray, ys: np.ndarray, entry) -> np.ndarray:
    """(len(ys), len(xs)) bool mask of pixel centers covered by any
    triangle, from a precomputed ``edge_entry``. The bulk test is one f32
    GEMM; pixels with any edge value inside ``_F32_EDGE_TOL`` are re-tested
    in f64, making the mask exact."""
    full = np.zeros((len(ys), len(xs)), dtype=bool)
    pts, mx, my = _grid_points(xs, ys, entry)
    if not len(pts):
        return full
    inside_any = _inside_any_multi([pts], entry)[0]
    sub = inside_any.reshape(int(my.sum()), int(mx.sum()))
    full[np.ix_(my, mx)] = sub
    return full


def coverage_mask_gemm(xs: np.ndarray, ys: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """The per-pixel GEMM clip of one image grid against (T, 3, 2) ``tris``."""
    return _coverage_mask_entry(xs, ys, edge_entry(tris))


def decode_clip_rowwise(batch: pa.Table, tri2d: dict) -> pa.Table:
    """``DecodeClip``'s ``pixel_ok``, ``mean_intensity``, ``roof_coverage``
    and ``masked_mean`` columns, one image at a time: decode, f64
    ``phash64``, ``coverage_mask_gemm`` on the image's pixel-centre grid."""
    n = batch.num_rows
    ok = np.zeros(n, dtype=bool)
    mean_i = np.zeros(n)
    cov = np.zeros(n)
    masked = np.full(n, np.nan)
    rows = batch.select(["bytes", "fmt", "phash", "building_id", "cx", "cy"]).to_pylist()
    for i, r in enumerate(rows):
        try:
            rgb = codecs.decode_image(r["bytes"], r["fmt"])
        except (ValueError, NotImplementedError):
            continue
        ok[i] = codecs.phash64(rgb) == r["phash"]
        mean_i[i] = float(rgb.mean())
        tris = tri2d.get(r["building_id"]) if r["building_id"] is not None else None
        if tris is None or not len(tris):
            continue
        h, w = rgb.shape[:2]
        xs = r["cx"] - w * PIXEL_SIZE / 2 + (np.arange(w) + 0.5) * PIXEL_SIZE
        ys = r["cy"] - h * PIXEL_SIZE / 2 + (np.arange(h) + 0.5) * PIXEL_SIZE
        mask = coverage_mask_gemm(xs, ys, tris)
        cov[i] = float(mask.mean())
        if mask.any():
            masked[i] = float(rgb[mask].mean())
    return pa.table(
        {"pixel_ok": ok, "mean_intensity": mean_i, "roof_coverage": cov, "masked_mean": masked}
    )
