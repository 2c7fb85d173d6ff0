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
  a time (``triangulate_row``: clean every ring, validate, then
  ``triangulate_clean``).
- ``triangulate_clean``: the per-polygon triangulation the batched kernel
  ``geom.triangulate_flat`` replaced (``geom.py`` before it): convex fan
  (``convex_fan``) or O(n^2) ear clip (``_earcut_simple``) after hole
  bridging (``_bridge_holes``, ``triangulate_2d``), nearest-vertex lift
  and winding fix.
- ``clean_validate_rowwise``: ring clean + validity + derived columns, one
  polygon at a time through the ``geom`` scalar kernels.
- ``roof_tri2d_rowwise``: per-building 2-D Roof/Ground triangles, one
  polygon at a time.
- ``separate_components_rowwise``: the ``-sepC`` component rows, one
  building and one polygon at a time (``geom.clean_ring``, the quad fast
  path, ``triangulate_clean``), with the corner markers and translation
  of the per-building loop it replaced.
- ``coverage_mask_gemm``: the per-pixel clip the row-interval kernel
  replaced (``stages/images.py`` before it): every pixel centre of the
  building bbox against every edge of every triangle in one f32 GEMM, with
  an exact f64 re-test of the pixels near an edge.
- ``decode_clip_rowwise``: ``DecodeClip``'s output columns, one image at a
  time: decode, f64 phash, and the clip through ``coverage_mask_gemm``.
- ``char_shingles`` / ``word_ngram_list`` / ``word_ngram_ids`` /
  ``simhash64``: the per-doc char shingles, word n-grams, their ids and
  the SimHash the batch kernels of ``dedup`` replaced, tokenized one doc
  at a time: ``str.lower``, then a Python regex split on RE2's whitespace
  class (tab, newline, form feed, carriage return, space), empty pieces
  dropped; hashed with this module's own FNV-1a and md5 helpers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import re

import numpy as np
import pyarrow as pa

from citygml2objv2_ray import codecs, geom
from citygml2objv2_ray.arrow_utils import ring_column, rings_column
from citygml2objv2_ray.config import DEFAULT_CONFIG, EngineConfig
from citygml2objv2_ray.geom import AXIS_XY, AXIS_XZ, newell_normal, point_in_ring_2d, projection_axis


# ---------------------------------------------------------------------------
# triangulation: one polygon at a time (verbatim from geom.py before the
# batched kernel)
# ---------------------------------------------------------------------------


def project_ring(ring: np.ndarray, axis: int) -> np.ndarray:
    pts = np.asarray(ring, dtype=np.float64)
    if axis == AXIS_XY:
        return pts[:, [0, 1]]
    if axis == AXIS_XZ:
        return pts[:, [0, 2]]
    return pts[:, [1, 2]]


def _signed_area_2d(pts: np.ndarray) -> float:
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _pts_in_tri(p: np.ndarray, a, b, c, eps=1e-12) -> np.ndarray:
    """Which of points p (M,2) lie strictly inside triangle abc."""
    d1 = (p[:, 0] - b[0]) * (a[1] - b[1]) - (a[0] - b[0]) * (p[:, 1] - b[1])
    d2 = (p[:, 0] - c[0]) * (b[1] - c[1]) - (b[0] - c[0]) * (p[:, 1] - c[1])
    d3 = (p[:, 0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (p[:, 1] - a[1])
    has_neg = (d1 < -eps) | (d2 < -eps) | (d3 < -eps)
    has_pos = (d1 > eps) | (d2 > eps) | (d3 > eps)
    return ~(has_neg & has_pos)


def _earcut_simple(poly: np.ndarray) -> list[tuple[int, int, int]]:
    """O(n^2) ear clipping of a simple CCW 2-D polygon (open ring).
    Returns index triples into ``poly``."""
    n = len(poly)
    if n < 3:
        return []
    if n == 3:
        return [(0, 1, 2)]
    idx = list(range(n))
    tris: list[tuple[int, int, int]] = []
    guard = 0
    while len(idx) > 3 and guard < 2 * n * n:
        guard += 1
        m = len(idx)
        clipped = False
        for k in range(m):
            i0, i1, i2 = idx[k - 1], idx[k], idx[(k + 1) % m]
            a, b, c = poly[i0], poly[i1], poly[i2]
            cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            if cross <= 1e-14:  # reflex or degenerate
                continue
            others = np.array(
                [poly[j] for j in idx if j not in (i0, i1, i2)], dtype=np.float64
            )
            if len(others):
                # bridge construction duplicates vertices: a point that
                # coincides with a triangle corner must not block the ear
                corner = (
                    (np.sum((others - a) ** 2, axis=1) < 1e-24)
                    | (np.sum((others - b) ** 2, axis=1) < 1e-24)
                    | (np.sum((others - c) ** 2, axis=1) < 1e-24)
                )
                others = others[~corner]
            if len(others) and np.any(_pts_in_tri(others, a, b, c)):
                continue
            tris.append((i0, i1, i2))
            del idx[k]
            clipped = True
            break
        if not clipped:
            # numerically stuck (collinear runs): clip the least-degenerate ear
            best_k, best_cross = -1, -np.inf
            for k in range(m):
                i0, i1, i2 = idx[k - 1], idx[k], idx[(k + 1) % m]
                a, b, c = poly[i0], poly[i1], poly[i2]
                cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
                if cross > best_cross:
                    best_cross, best_k = cross, k
            if best_k < 0:
                break
            k = best_k
            i0, i1, i2 = idx[k - 1], idx[k], idx[(k + 1) % m]
            if best_cross > 1e-14:
                tris.append((i0, i1, i2))
            del idx[k]
    if len(idx) == 3:
        a, b, c = poly[idx[0]], poly[idx[1]], poly[idx[2]]
        cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if cross > 1e-14:
            tris.append((idx[0], idx[1], idx[2]))
    return tris


def _bridge_holes(
    outer: np.ndarray, holes: list[np.ndarray]
) -> tuple[np.ndarray, None]:
    """Merge holes into the outer ring via bridges (the standard
    eliminate-hole construction used by mapbox-earcut): connect each hole's
    rightmost vertex to a visible outer vertex, splicing the hole (with two
    duplicated bridge vertices) into the outer loop. Outer must be CCW,
    holes CW, all open rings. Returns the combined simple polygon."""
    outer = list(map(np.asarray, outer))
    poly = [np.asarray(p, dtype=np.float64) for p in outer]
    for hole in sorted(holes, key=lambda h: -float(np.max(h[:, 0]))):
        hi = int(np.argmax(hole[:, 0]))
        hp = hole[hi]
        # find visible outer vertex: the one minimizing distance among those
        # where the segment hp->v crosses no outer edge "in front"; simple
        # robust heuristic: nearest outer vertex with x >= hp.x, falling back
        # to nearest overall, validated by midpoint-in-polygon minus holes.
        P = np.array(poly)
        d2 = np.sum((P - hp) ** 2, axis=1)
        order = np.argsort(d2)
        bridge_j = int(order[0])
        for j in order:
            mid = (P[j] + hp) / 2.0
            if point_in_ring_2d(mid[None, :], np.array(poly))[0] and not point_in_ring_2d(
                mid[None, :], hole
            )[0]:
                bridge_j = int(j)
                break
        rolled = np.roll(hole, -hi, axis=0)
        spliced = (
            poly[: bridge_j + 1]
            + [rolled[k] for k in range(len(rolled))]
            + [rolled[0], P[bridge_j]]
            + poly[bridge_j + 1 :]
        )
        poly = spliced
    return np.array(poly, dtype=np.float64), None


def triangulate_2d(
    exterior2d: np.ndarray, holes2d: list[np.ndarray] | None = None
) -> np.ndarray:
    """Triangulate a 2-D polygon (closed or open rings) with optional holes.
    Returns (T,3,2) triangle coordinate array (not indices — bridging
    duplicates vertices)."""
    ext = np.asarray(exterior2d, dtype=np.float64)
    if len(ext) > 1 and np.all(ext[0] == ext[-1]):
        ext = ext[:-1]
    if len(ext) < 3:
        return np.zeros((0, 3, 2))
    if _signed_area_2d(ext) < 0:
        ext = ext[::-1]
    holes = []
    for h in holes2d or []:
        h = np.asarray(h, dtype=np.float64)
        if len(h) > 1 and np.all(h[0] == h[-1]):
            h = h[:-1]
        if len(h) < 3:
            continue
        if _signed_area_2d(h) > 0:
            h = h[::-1]
        holes.append(h)
    if holes:
        poly, _ = _bridge_holes(ext, holes)
    else:
        poly = ext
    tris = _earcut_simple(poly)
    return np.array([[poly[a], poly[b], poly[c]] for a, b, c in tris]).reshape(-1, 3, 2)


_FAN_EPS = 1e-6  # strict-convexity margin, far above earcut's 1e-12/1e-14


def convex_fan(body3d: np.ndarray, axis: int) -> np.ndarray | None:
    """Fast path for STRICTLY convex hole-free polygons: the ear-clip loop
    on a strictly convex CCW ring always clips at k=0, producing the fan
    (n-1, 0, 1), (n-1, 1, 2), ..., ending with the tuple (n-3, n-2, n-1)
    — so the fan IS the ear-clip output, emitted here without the O(n^2)
    scan, the 2-D lift, or any per-ear allocation. Returns None (caller
    falls through to the full ear clip) unless every turning cross AND
    every fan-triangle cross clears ``_FAN_EPS`` — margins 10^6 above the
    ear clip's decision epsilons, so in the disagreement band both
    algorithms produce identical triangles anyway.

    ``body3d`` is the cleaned OPEN exterior ring (n >= 3)."""
    uv = project_ring(body3d, axis)
    u, v = uv[:, 0], uv[:, 1]
    un, vn = np.roll(u, -1), np.roll(v, -1)
    area2 = float(np.sum(u * vn - un * v))
    if area2 == 0.0:
        return None
    if area2 < 0:
        body3d = body3d[::-1]
        uv = uv[::-1]
        u, v = uv[:, 0], uv[:, 1]
        un, vn = np.roll(u, -1), np.roll(v, -1)
    up, vp = np.roll(u, 1), np.roll(v, 1)
    tc = (u - up) * (vn - v) - (v - vp) * (un - u)
    if not np.all(tc > _FAN_EPS):
        return None
    fu, fv = u - u[-1], v - v[-1]
    g = fu[:-1] * fv[1:] - fu[1:] * fv[:-1]
    if len(g) > 1:
        g = g[:-1]  # last entry is the degenerate (n-2, n-1) pair
    if not np.all(g > _FAN_EPS):
        return None
    n = len(u)
    tris = np.empty((n - 2, 3, 3), dtype=np.float64)
    tris[:, 0] = body3d[n - 1]
    tris[:, 1] = body3d[0 : n - 2]
    tris[:, 2] = body3d[1 : n - 1]
    tris[-1] = body3d[[n - 3, n - 2, n - 1]]
    return tris


def triangulate_clean(
    ext: np.ndarray, holes: list[np.ndarray], cfg: EngineConfig = DEFAULT_CONFIG
) -> np.ndarray:
    """``triangulate_polygon`` of rings that are already ``clean_ring``
    output (the Triangulator's fallback takes its exteriors from the
    flat-ring kernel)."""
    try:
        if len(ext) < 4:
            return np.zeros((0, 3, 3))
        normal = newell_normal(ext)
        if not normal.any():
            return np.zeros((0, 3, 3))
        axis = projection_axis(normal, ext, cfg)
        holes3d = [h for h in holes if len(h) >= 4]

        if not holes3d:
            fan = convex_fan(ext[:-1], axis)
            if fan is not None:
                tri_n = np.cross(fan[:, 1] - fan[:, 0], fan[:, 2] - fan[:, 0])
                flip = tri_n @ normal < 0
                fan[flip] = fan[flip][:, ::-1, :]
                return fan

        # map each projected 2-D vertex back to its 3-D original
        all3d = [ext[:-1]] + [h[:-1] for h in holes3d]
        all2d = [project_ring(r, axis) for r in all3d]
        lookup3d = np.vstack(all3d)
        lookup2d = np.vstack(all2d)

        tris2d = triangulate_2d(all2d[0], all2d[1:])
        if len(tris2d) == 0:
            return np.zeros((0, 3, 3))

        flat2d = tris2d.reshape(-1, 2)
        # exact nearest-vertex lift (ear clipping reuses input vertices)
        d2 = np.sum((flat2d[:, None, :] - lookup2d[None, :, :]) ** 2, axis=2)
        nearest = np.argmin(d2, axis=1)
        tris3d = lookup3d[nearest].reshape(-1, 3, 3)

        # orient windings to the parent Newell normal (polygon3dmodule.py:707-715)
        tri_n = np.cross(tris3d[:, 1] - tris3d[:, 0], tris3d[:, 2] - tris3d[:, 0])
        flip = tri_n @ normal < 0
        tris3d[flip] = tris3d[flip][:, ::-1, :]
        return tris3d
    except Exception:
        return np.zeros((0, 3, 3))  # silent-empty parity (polygon3dmodule.py:679-687)


def triangulate_row(ext, holes, cfg=DEFAULT_CONFIG) -> np.ndarray:
    """One polygon: clean every ring at ``cfg``'s decimals, skip it if the
    exterior is invalid, else ear clip. Returns (T,3,3)."""
    dec = cfg.vertex_round_decimals
    ext = geom.clean_ring(np.asarray(ext, dtype=np.float64), dec)
    if not geom.is_valid_ring(ext, cfg)[0]:
        return np.zeros((0, 3, 3))
    holes = [geom.clean_ring(np.asarray(h, dtype=np.float64), dec) for h in holes]
    return triangulate_clean(ext, holes, cfg)


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
# component separation: one building, one polygon at a time (the
# per-building loop of pipelines/components.py before the super-group pass)
# ---------------------------------------------------------------------------


def _component_obj(tris: np.ndarray) -> str:
    lines = [f"v {p[0]!r} {p[1]!r} {p[2]!r}" for t in tris for p in t]
    lines += [f"f {3 * i + 1} {3 * i + 2} {3 * i + 3}" for i in range(len(tris))]
    return "\n".join(lines) + "\n"


def _corner_marker_triangles(points: np.ndarray, buffer: float, side: float = 1.0) -> np.ndarray:
    """8 side-1 xy triangles at the corners of the buffered bbox of
    ``points`` (componentseparationmodule.py:13-33)."""
    lo, hi = points.min(axis=0) - buffer, points.max(axis=0) + buffer
    corners = [[x, y, z] for x in (lo[0], hi[0]) for y in (lo[1], hi[1]) for z in (lo[2], hi[2])]
    tris = np.empty((8, 3, 3))
    for i, p in enumerate(np.array(corners)):
        tris[i] = np.array([p, p + np.array([side, 0, 0]), p + np.array([0, side, 0])])
    return tris


def _building_components(g, cfg, approx_windows, corner_markers) -> list[dict]:
    from citygml2objv2_ray.hull import approx_window_hull

    g = g.sort_values("poly_seq", kind="stable")
    ring = lambda r: np.asarray([list(p) for p in r], dtype=np.float64).reshape(-1, 3)  # noqa: E731
    all_pts = np.concatenate([ring(ext) for ext in g.exterior])
    lo, hi = all_pts.min(axis=0) - cfg.bbox_buffer, all_pts.max(axis=0) + cfg.bbox_buffer
    trans = (lo + hi) / 2  # the mean of the 8 buffered corners (D7)
    dec = cfg.vertex_round_decimals
    rows = []
    for cseq, r in enumerate(g.itertuples()):
        ext = geom.clean_ring(ring(r.exterior), dec)
        if r.is_opening and approx_windows:
            tris = approx_window_hull(ext[:-1] if len(ext) > 1 else ext, seed_key=str(r.poly_id))
        elif len(ext) < 4:  # <3 distinct points → empty (:734-736)
            tris = np.zeros((0, 3, 3))
        elif len(ext) == 4:  # quad fast-path: first 3 points (:731-733)
            tris = ext[None, :3, :]
        else:  # full triangulation (:727-729)
            tris = triangulate_clean(ext, [geom.clean_ring(ring(h), dec) for h in r.interiors], cfg)
        tris = tris - trans
        blo = tris.reshape(-1, 3).min(axis=0) if len(tris) else np.zeros(3)
        bhi = tris.reshape(-1, 3).max(axis=0) if len(tris) else np.zeros(3)
        rows.append(
            dict(
                doc_id=r.doc_id, building_id=r.building_id, building_seq=int(r.building_seq),
                component_seq=cseq, feature_id=r.feature_id, semantic=r.semantic,
                is_opening=bool(r.is_opening), n_tri=len(tris),
                xmin=blo[0], ymin=blo[1], zmin=blo[2], xmax=bhi[0], ymax=bhi[1], zmax=bhi[2],
                tx=trans[0], ty=trans[1], tz=trans[2], obj_text=_component_obj(tris),
            )
        )
    if corner_markers:
        tris = _corner_marker_triangles(all_pts, cfg.bbox_buffer) - trans
        rows.append(
            dict(
                doc_id=g.doc_id.iloc[0], building_id=g.building_id.iloc[0],
                building_seq=int(g.building_seq.iloc[0]), component_seq=len(g),
                feature_id="corner_markers", semantic="Marker", is_opening=False, n_tri=len(tris),
                xmin=0.0, ymin=0.0, zmin=0.0, xmax=0.0, ymax=0.0, zmax=0.0,
                tx=trans[0], ty=trans[1], tz=trans[2], obj_text=_component_obj(tris),
            )
        )
    return rows


def separate_components_rowwise(
    surfaces, cfg=DEFAULT_CONFIG, approx_windows: bool = False, corner_markers: bool = False
):
    """``pipelines.components.separate_components`` over a pandas
    surfaces frame, one building and one polygon at a time: the rows in
    (doc_id, building_seq, component_seq) order."""
    import pandas as pd

    rows = []
    for _, g in surfaces.groupby(["doc_id", "building_seq"], sort=True):
        rows += _building_components(g, cfg, approx_windows, corner_markers)
    return pd.DataFrame(rows)


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


# ---------------------------------------------------------------------------
# text: one document at a time (from dedup.py before the batch kernels)
# ---------------------------------------------------------------------------


# FNV-1a 64 with the engine's offset basis: 1469598103934665603, the
# standard basis (14695981039346656037) short of its last digit
_FNV_OFFSET = 1469598103934665603
_FNV_PRIME = 1099511628211


def _fnv1a64(b: bytes) -> int:
    h = _FNV_OFFSET
    for c in b:
        h = ((h ^ c) * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def _md5_64(s: str) -> int:
    return int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "big")


def _words(text: str) -> list[str]:
    return [w for w in re.split(r"[\t\n\f\r ]+", text.lower()) if w]


def char_shingles(text: str, k: int = 5) -> np.ndarray:
    """Sorted-unique FNV-1a ids of the k-byte windows of the words joined
    by ``" "``, space-padded to k bytes."""
    data = " ".join(_words(text)).encode().ljust(k)
    return np.unique(
        np.array([_fnv1a64(data[i : i + k]) for i in range(len(data) - k + 1)], dtype=np.uint64)
    )


def word_ngram_list(text: str, n: int = 3) -> list[str]:
    """Distinct word n-grams in first-appearance order; empty for docs
    shorter than n words."""
    toks = _words(text)
    seen: set[str] = set()
    out: list[str] = []
    for i in range(len(toks) - n + 1):
        g = " ".join(toks[i : i + n])
        if g not in seen:
            seen.add(g)
            out.append(g)
    return out


def word_ngram_ids(text: str, n: int = 3) -> np.ndarray:
    """Sorted-unique uint64 FNV ids of the distinct word n-grams."""
    return np.unique(
        np.array([_fnv1a64(g.encode()) for g in word_ngram_list(text, n)], dtype=np.uint64)
    )


def simhash64(text: str) -> int:
    """SimHash: signed bit-vote over md5 token hashes (unique tokens
    hashed once, votes weighted by count)."""
    toks = _words(text)
    if not toks:
        return 0
    uniq, counts = np.unique(np.array(toks, dtype=object), return_counts=True)
    ids = np.array([_md5_64(t) for t in uniq], dtype=np.uint64)
    bits = ((ids[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(
        np.int64
    )
    votes = (counts[:, None] * (2 * bits - 1)).sum(axis=0)
    v = 0
    for k in np.flatnonzero(votes > 0):
        v |= 1 << int(k)
    return v - (1 << 64) if v >= 1 << 63 else v
