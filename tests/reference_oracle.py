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
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pyarrow as pa

from citygml2objv2_ray import geom
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
