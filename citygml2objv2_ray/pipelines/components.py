"""Component separation (SURVEY.md §3.3 — ``-sepC`` mode,
componentseparationmodule.py:596-756): one OBJ artifact per building
component (each semantic feature, each opening), translated by its
building's bbox centre, with optional approximated window hulls
(``-appW``), corner marker triangles (``-addBB``), and the index/bbox
sidecars as METRICS ROWS (the reference's read-modify-write JSON sidecars
E3/E4 become append-only lineage-style tables — SURVEY.md §1.2).

Ray-native shape: ONE ``ops.shuffle_groups`` pass keyed on (doc_id,
building_seq) — ``building_seq`` restarts in every document — whose
super-groups each run array passes over all their buildings:
``building_extents`` for the translations, ``ring_kernel`` for the ring
clean, one ``triangulate_rows`` call for every polygon past the quad fast
path, and array ops for the per-component bboxes. Only the OBJ text and
the opt-in hulls are built per component. The global ``overall_counter``
file numbering of the reference (componentseparationmodule.py:616-617) is
replaced by the deterministic (doc_id, building_seq, component_seq) key —
execution-order-free.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from ..arrow_utils import ring_column
from ..config import DEFAULT_CONFIG, EngineConfig
from ..hull import approx_window_hull, corner_marker_triangles
from ..ops import shuffle_groups
from ..schemas import SURFACES_SCHEMA
from ..stages.geometry import ring_kernel, triangulate_rows
from .geometry import BBOX, BUILDING, building_extents

_RINGS = pa.schema([SURFACES_SCHEMA.field("exterior"), SURFACES_SCHEMA.field("interiors")])


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


def _rows(ids: pd.DataFrame, seq, tris: np.ndarray, row: np.ndarray, trans: np.ndarray, **cols):
    """One component row per row of ``ids``: its triangles are
    ``tris[row == i]``, already translated; the bbox is of those
    triangles, zeros when there are none."""
    n_tri = np.bincount(row, minlength=len(ids))
    lo, hi = np.zeros((len(ids), 3)), np.zeros((len(ids), 3))
    has = np.flatnonzero(n_tri)
    if len(has):
        start = 3 * (np.cumsum(n_tri) - n_tri)[has]
        lo[has] = np.minimum.reduceat(tris.reshape(-1, 3), start)
        hi[has] = np.maximum.reduceat(tris.reshape(-1, 3), start)
    cut = np.cumsum(n_tri)[:-1]
    return ids.assign(
        component_seq=seq,
        **cols,
        n_tri=n_tri,
        **dict(zip(BBOX, np.hstack([lo, hi, trans]).T)),
        obj_text=[_component_obj(t) for t in np.split(tris, cut)],
    )


def separate_components(
    surfaces: rd.Dataset,
    cfg: EngineConfig = DEFAULT_CONFIG,
    approx_windows: bool = False,
    corner_markers: bool = False,
) -> rd.Dataset:
    """surfaces → one row per component:
    (doc_id, building_id, building_seq, component_seq, feature_id,
    semantic, is_opening, n_tri, xmin..zmax, tx/ty/tz, obj_text).

    Per-building semantics (componentseparationmodule.py:596-756), equal
    frame for frame to ``tests/reference_oracle.separate_components_rowwise``:
    - translation = mean of the 8 buffered-bbox corners (D7)
    - rings are cleaned at ``cfg.vertex_round_decimals`` and not
      validated: a cleaned ring of 4 points incl. closure emits the single
      triangle of its first 3 points (:731-733), fewer → empty (:734-736),
      more → full triangulation (:727-729), empty on a zero normal
    - openings: exact triangulation, or perturbed-hull approximation
      (``-appW``, :534-544)
    - optional 8 corner-marker triangles appended as their own component,
      numbered after the building's polygons
    """

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(BUILDING + ["poly_seq"], kind="stable", ignore_index=True)
        t = pa.Table.from_pandas(g[_RINGS.names], schema=_RINGS, preserve_index=False)
        pts, off = ring_column(t["exterior"])
        code, b = building_extents(g, pts, off, cfg.bbox_buffer)
        trans = b[BBOX[6:]].to_numpy()
        k = ring_kernel(t, cfg)
        n = np.diff(k.boff) + 1  # cleaned length incl. closure, as geom.clean_ring's
        approx = g.is_opening.to_numpy(bool) & approx_windows
        full = np.flatnonzero((n > 4) & k.normal.any(axis=1) & ~approx)
        quad = np.flatnonzero((n == 4) & ~approx)
        row, tris = triangulate_rows(k, full, t["interiors"], cfg)
        parts = [(row, tris), (quad, k.body[k.boff[quad][:, None] + np.arange(3)])]
        for i in np.flatnonzero(approx):
            hull = approx_window_hull(k.body[k.boff[i] : k.boff[i + 1]], seed_key=str(g.poly_id[i]))
            parts.append((np.full(len(hull), i), hull))
        row = np.concatenate([p[0] for p in parts])
        o = np.argsort(row, kind="stable")
        row, tris = row[o], np.concatenate([p[1] for p in parts])[o]
        first = np.searchsorted(code, np.arange(len(b)))
        out = _rows(
            g[["doc_id", "building_id", "building_seq"]], np.arange(len(g)) - first[code],
            tris - trans[code[row]][:, None, :], row, trans[code],
            feature_id=g.feature_id, semantic=g.semantic, is_opening=g.is_opening.astype(bool),
        )
        if corner_markers:
            lo, hi = b[BBOX[:3]].to_numpy(), b[BBOX[3:6]].to_numpy()
            tris = (corner_marker_triangles(lo, hi) - trans[:, None, None, :]).reshape(-1, 3, 3)
            markers = _rows(
                b[["doc_id", "building_id", "building_seq"]], np.bincount(code),
                tris, np.repeat(np.arange(len(b)), 8), trans,
                feature_id="corner_markers", semantic="Marker", is_opening=False,
            )
            markers[BBOX[:6]] = 0.0
            out = pd.concat([out, markers], ignore_index=True)
        return out.astype({"building_seq": np.int64})

    return shuffle_groups("components", [surfaces], BUILDING, per_group, None)


def component_sidecars(components: rd.Dataset) -> pd.DataFrame:
    """The E3/E4 sidecar content as one table: filename-equivalent key →
    tag/parent/gml id + bbox + translation params (the reference appends
    these to index.json / bbox JSON per component,
    componentseparationmodule.py:137-185,245-275)."""
    cols = [
        "doc_id", "building_id", "building_seq", "component_seq", "feature_id",
        "semantic", "n_tri", *BBOX,
    ]
    df = components.select_columns(cols).to_pandas()
    return df.sort_values(BUILDING + ["component_seq"]).reset_index(drop=True)
