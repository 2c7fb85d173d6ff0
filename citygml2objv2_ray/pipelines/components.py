"""Component separation (SURVEY.md §3.3 — ``-sepC`` mode,
componentseparationmodule.py:596-756): one OBJ artifact per building
component (each semantic feature, each opening), with optional
building-wise translation, approximated window hulls (``-appW``), corner
marker triangles, and the index/bbox sidecars as METRICS ROWS (the
reference's read-modify-write JSON sidecars E3/E4 become append-only
lineage-style tables — SURVEY.md §1.2).

Ray-native shape: groupby(building_id).map_groups over the surfaces table;
each group emits one row per component: (ids, counts, bbox, obj_text).
The global ``overall_counter`` file numbering of the reference
(componentseparationmodule.py:616-617) is replaced by the deterministic
(building_seq, component_seq) key — execution-order-free.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from .. import geom
from ..config import DEFAULT_CONFIG, EngineConfig
from ..hull import approx_window_hull, corner_marker_triangles


def _component_obj(tris: np.ndarray) -> str:
    """Flat v/f triplet OBJ text, no dedup — parity with the reference's
    per-component writer (componentseparationmodule.py:295-306)."""
    lines = []
    for t in tris:
        for p in t:
            lines.append(f"v {p[0]!r} {p[1]!r} {p[2]!r}")
    for i in range(len(tris)):
        b = 3 * i
        lines.append(f"f {b + 1} {b + 2} {b + 3}")
    return "\n".join(lines) + "\n"


def separate_components(
    surfaces: rd.Dataset,
    cfg: EngineConfig = DEFAULT_CONFIG,
    translate_per_building: bool = True,
    approx_windows: bool = False,
    corner_markers: bool = False,
) -> rd.Dataset:
    """surfaces → one row per component:
    (building_id, building_seq, component_seq, feature_id, semantic,
    is_opening, n_tri, xmin..zmax, tx/ty/tz, obj_text).

    Per-building semantics (componentseparationmodule.py:596-756):
    - translation params = mean of the 8 buffered-bbox corner points (D7)
    - quad fast-path: 4-point rings (incl. closure) emit the single
      triangle of their first 3 points (:731-733); >4 full triangulation
      (:727-729); <3 empty (:734-736)
    - openings: exact triangulation, or perturbed-hull approximation
      (``-appW``, :534-544)
    - optional 8 corner-marker triangles appended as their own component
    """

    def per_building(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("poly_seq", kind="stable")
        all_pts = np.concatenate(
            [np.asarray([list(p) for p in ext], dtype=np.float64) for ext in g.exterior]
        )
        bbox = geom.buffered_bbox(all_pts, cfg.bbox_buffer)
        # mean of the 8 buffered corners == buffered-bbox center; computed
        # as (lo + hi) / 2 so the DuckDB twin can reproduce it bitwise
        # (pairwise-summation np.mean is not SQL-expressible)
        trans = (bbox[:3] + bbox[3:]) / 2 if translate_per_building else np.zeros(3)

        dec = cfg.vertex_round_decimals
        recs = list(g.itertuples())
        exts = [
            geom.clean_ring(np.asarray([list(p) for p in r.exterior], dtype=np.float64), dec)
            for r in recs
        ]
        approx = [bool(r.is_opening and approx_windows) for r in recs]
        # every polygon past the quad fast path: one batched triangulation
        full = [i for i, e in enumerate(exts) if len(e) > 4 and not approx[i]]
        holes = [
            [np.asarray([list(p) for p in h], dtype=np.float64) for h in recs[i].interiors]
            for i in full
        ]
        full_tris = dict(zip(full, geom.triangulate_polygons([exts[i] for i in full], holes, cfg)))
        rows = []
        for cseq, (r, ext) in enumerate(zip(recs, exts)):
            if approx[cseq]:
                tris = approx_window_hull(ext[:-1] if len(ext) > 1 else ext, seed_key=str(r.poly_id))
            elif len(ext) < 4:  # <3 distinct points → empty (:734-736)
                tris = np.zeros((0, 3, 3))
            elif len(ext) == 4:  # quad fast-path: first 3 points (:731-733)
                tris = ext[None, :3, :]
            else:  # full triangulation (:727-729)
                tris = full_tris[cseq]
            tris = tris - trans
            lo = tris.reshape(-1, 3).min(axis=0) if len(tris) else np.zeros(3)
            hi = tris.reshape(-1, 3).max(axis=0) if len(tris) else np.zeros(3)
            rows.append(
                dict(
                    building_id=r.building_id,
                    building_seq=int(r.building_seq),
                    component_seq=cseq,
                    feature_id=r.feature_id,
                    semantic=r.semantic,
                    is_opening=bool(r.is_opening),
                    n_tri=len(tris),
                    xmin=lo[0], ymin=lo[1], zmin=lo[2],
                    xmax=hi[0], ymax=hi[1], zmax=hi[2],
                    tx=trans[0], ty=trans[1], tz=trans[2],
                    obj_text=_component_obj(tris),
                )
            )
        if corner_markers:
            tris = corner_marker_triangles(all_pts, cfg.bbox_buffer) - trans
            rows.append(
                dict(
                    building_id=g.building_id.iloc[0],
                    building_seq=int(g.building_seq.iloc[0]),
                    component_seq=len(recs),
                    feature_id="corner_markers",
                    semantic="Marker",
                    is_opening=False,
                    n_tri=len(tris),
                    xmin=0.0, ymin=0.0, zmin=0.0, xmax=0.0, ymax=0.0, zmax=0.0,
                    tx=trans[0], ty=trans[1], tz=trans[2],
                    obj_text=_component_obj(tris),
                )
            )
        return pd.DataFrame(rows)

    return surfaces.groupby("building_id").map_groups(per_building, batch_format="pandas")


def component_sidecars(components: rd.Dataset) -> pd.DataFrame:
    """The E3/E4 sidecar content as one table: filename-equivalent key →
    tag/parent/gml id + bbox + translation params (the reference appends
    these to index.json / bbox JSON per component,
    componentseparationmodule.py:137-185,245-275)."""
    cols = [
        "building_id", "building_seq", "component_seq", "feature_id",
        "semantic", "n_tri", "xmin", "ymin", "zmin", "xmax", "ymax", "zmax",
        "tx", "ty", "tz",
    ]
    df = components.select_columns(cols).to_pandas()
    return df.sort_values(["building_seq", "component_seq"]).reset_index(drop=True)
