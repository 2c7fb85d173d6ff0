"""Geometry pipelines — the reference's conversion lifecycle (SURVEY.md §3)
as streaming Dataset transforms.

``triangulate_surfaces`` is the §3.1 main path: one ``Triangulator``
stage (clean → validate → triangulate over the flat-ring kernel of
``stages.geometry``) turns surfaces into triangle rows, which
``sinks.obj.write_obj_per_class`` fans out per semantic class
(CityGML2OBJs.py:544-580,807-822).

``opening_anti_join`` is D4: exclude each document's Window/Door polygons
from its wall/roof processing via a broadcast key-set filter on
(``doc_id``, ``poly_id``) instead of the reference's identity scan
(CityGML2OBJs.py:755-765).

``building_extents`` is C3/D7, the per-building buffered bbox +
translation params of a batch in one array pass; ``dataset_extents``
aggregates it over a dataset (for ``building_bboxes`` and
``exact.translation_params``), and ``pipelines.components`` translates
each building by it.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from ..arrow_utils import map_points, ring_column
from ..config import DEFAULT_CONFIG, OPENING_CLASSES, EngineConfig
from ..ops import broadcast_semi_anti_filter, supergroup_agg
from ..schemas import SURFACES_SCHEMA
from ..stages.geometry import Triangulator


def surfaces_dataset(table: pa.Table) -> rd.Dataset:
    """In-memory surfaces table → Dataset split into enough blocks to
    parallelize downstream stages (``rd.from_arrow`` yields ONE block,
    which would serialize the whole triangulation — measured 9s -> 2s on
    the sf0.1 convert)."""
    return rd.from_arrow(table).repartition(max(8, min(64, table.num_rows // 256 or 1)))


def triangulate_surfaces(surfaces: rd.Dataset, cfg: EngineConfig = DEFAULT_CONFIG) -> rd.Dataset:
    """surfaces → exploded triangles of the valid polygons (one row per
    triangle), as a TASK pool: the triangulator's only state is the config
    dataclass, and task pools beat actor pools for cheap state."""
    return surfaces.map_batches(
        Triangulator(cfg), batch_format="pyarrow", batch_size=cfg.geometry_batch_size
    )


# a polygon: ``poly_id`` names it inside its document
DOC_POLY = ["doc_id", "poly_id"]


def opening_anti_join(
    surfaces: rd.Dataset, cfg: EngineConfig = DEFAULT_CONFIG
) -> rd.Dataset:
    """D4 per document: drop every polygon whose (``doc_id``, ``poly_id``)
    is an opening's (Window/Door) of its own document, as the reference
    drops one document's openings from that document's walls by identity
    (CityGML2OBJs.py:755-765). The opening keys are collected as Arrow (a
    vectorized batch filter) and broadcast as one value set. ``surfaces``
    is read twice, keys then filter: pass a materialized Dataset, as
    ``convert_surfaces`` does, so the document is parsed once."""
    import pyarrow.compute as pc

    def openings(batch: pa.Table) -> pa.Table:
        mask = pc.or_(
            pc.is_in(batch["semantic"], value_set=pa.array(list(OPENING_CLASSES))),
            batch["is_opening"].combine_chunks(),
        )
        return batch.filter(mask).select(DOC_POLY)

    keys = surfaces.map_batches(openings, batch_format="pyarrow")
    keys = pa.concat_tables(
        [SURFACES_SCHEMA.empty_table().select(DOC_POLY)]
        + list(keys.iter_batches(batch_format="pyarrow", batch_size=None))
    )
    return broadcast_semi_anti_filter(surfaces, DOC_POLY, keys, anti=True)


# a building: ``building_seq`` restarts in every parsed document
BUILDING = ["doc_id", "building_seq"]
BBOX = ["xmin", "ymin", "zmin", "xmax", "ymax", "zmax", "tx", "ty", "tz"]


def building_extents(df: pd.DataFrame, pts: np.ndarray, off: np.ndarray, buffer: float):
    """The C3/D7 rule for every building of ``df`` at once. Row i of
    ``df`` (``doc_id``, ``building_seq``, ``building_id``) owns the points
    ``pts[off[i]:off[i+1]]``; each building's bbox is buffered by
    ``buffer`` on every side (componentseparationmodule.py:63-121) and its
    translation is the mean of the 8 buffered corners (D7), computed as
    ``(lo + hi) / 2`` so the DuckDB twins reproduce it bitwise.

    Returns each row's building and one row per building, in first
    appearance: its keys, its first row's ``building_id`` and ``BBOX``."""
    code = df.groupby(BUILDING, sort=False).ngroup().to_numpy()
    first = np.unique(code, return_index=True)[1]
    lo = np.full((len(first), 3), np.inf)
    hi = -lo
    pcode = np.repeat(code, np.diff(off))
    np.minimum.at(lo, pcode, pts)
    np.maximum.at(hi, pcode, pts)
    lo, hi = lo - buffer, hi + buffer
    out = df.iloc[first][BUILDING + ["building_id"]].reset_index(drop=True)
    out[BBOX] = np.hstack([lo, hi, (lo + hi) / 2])
    return code, out


def dataset_extents(site: str, surfaces: rd.Dataset, buffer: float) -> pd.DataFrame:
    """``building_extents`` over a Dataset: a grouped aggregate on
    ``BUILDING`` whose partial and merge are both ``building_extents``,
    over each batch's rings buffered by ``buffer``, then over the
    partials' corners with no buffer (subtracting the buffer commutes with
    the min, so no bit changes). A building with no exterior point has no
    extent and no row. One row per building, sorted by ``building_id``
    then ``BUILDING``; no surfaces give a zero-row frame with the same
    columns."""
    import pyarrow.compute as pc

    def batch_extents(batch: pa.Table) -> pd.DataFrame:
        batch = batch.filter(pc.greater(pc.list_value_length(batch["exterior"]), 0))
        pts, off = ring_column(batch["exterior"])
        keys = batch.select(BUILDING + ["building_id"]).to_pandas()
        return building_extents(keys, pts, off, buffer)[1]

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        # a batch without rings, or no batch at all, names no columns
        df = df.reindex(columns=BUILDING + ["building_id"] + BBOX)
        corners = df[BBOX[:6]].to_numpy(np.float64).reshape(-1, 3)
        return building_extents(df, corners, np.arange(0, len(corners) + 1, 2), 0.0)[1]

    ext = surfaces.map_batches(batch_extents, batch_format="pyarrow")
    df = supergroup_agg(site, ext, BUILDING, merge, merge)
    return df.sort_values(["building_id"] + BUILDING).reset_index(drop=True)


def building_bboxes(
    surfaces: rd.Dataset, cfg: EngineConfig = DEFAULT_CONFIG
) -> pd.DataFrame:
    """Per-building buffered bbox (C3) + translation params (D7): the
    extents of each (doc_id, building_seq) buffered by ``cfg.bbox_buffer``.
    One row per building, sorted by ``building_id``."""
    return dataset_extents("building_bboxes", surfaces, cfg.bbox_buffer)[["building_id"] + BBOX]


def roof_tri2d(surfaces: pa.Table, cfg: EngineConfig = DEFAULT_CONFIG) -> dict[str, np.ndarray]:
    """Small-side prep for the raster clip stages: per-building 2-D (z
    dropped) triangles of the valid Roof+Ground exterior rings (holes
    ignored) → {building_id: (T,3,2)}, in row order.

    One in-process ``Triangulator`` call over the whole table: the
    flat-ring kernel takes under 0.1 s at 4,000 buildings, less than a Ray
    stage's scheduling cost. The dict is the decode stage's broadcast side."""
    import pyarrow.compute as pc

    roofs = surfaces.filter(
        pc.is_in(surfaces["semantic"], value_set=pa.array(["RoofSurface", "GroundSurface"]))
    )
    no_holes = pa.ListArray.from_arrays(
        pa.array(np.zeros(roofs.num_rows + 1, np.int32)),
        pa.array([], roofs.schema.field("interiors").type.value_type),
    )
    roofs = roofs.set_column(roofs.column_names.index("interiors"), "interiors", no_holes)
    df = Triangulator(cfg)(roofs).select(["building_id", "p0", "p1", "p2"]).to_pandas()
    if df.empty:
        return {}
    xy = np.stack([np.stack(df[c].to_numpy())[:, :2] for c in ("p0", "p1", "p2")], axis=1)
    codes, bids = pd.factorize(df.building_id)  # first-appearance order
    order = np.argsort(codes, kind="stable")
    return dict(zip(bids, np.split(xy[order], np.cumsum(np.bincount(codes))[:-1])))


def global_min_vertex(surfaces: rd.Dataset) -> np.ndarray:
    """Lexicographic global min vertex (D5 — the ``-t`` translate,
    CityGML2OBJs.py:789-805 + polygon3dmodule.py:307-314). Per-batch
    lexicographic min, then a driver-side reduce over the tiny partials
    (order-insensitive per-axis min would NOT match the reference)."""

    def batch_min(batch: pa.Table) -> pd.DataFrame:
        pts, _ = ring_column(batch["exterior"])
        if not len(pts):
            return pd.DataFrame(columns=["x", "y", "z"])
        k = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))[0]
        return pd.DataFrame([dict(x=pts[k, 0], y=pts[k, 1], z=pts[k, 2])])

    partials = surfaces.map_batches(batch_min, batch_format="pyarrow").to_pandas()
    arr = partials.to_numpy()
    k = np.lexsort((arr[:, 2], arr[:, 1], arr[:, 0]))[0]
    return arr[k]


def translate_surfaces(surfaces: rd.Dataset, delta: np.ndarray) -> rd.Dataset:
    """Subtract a translation vector from every vertex, holes included
    (B20/B22 — CityGML2OBJs.py:789-805, componentseparationmodule.py:36-61).
    Exactness note (B21): the reference uses decimal-string arithmetic for
    UTM-scale coordinates; on float64 columns, subtracting a representable
    vector is the Arrow-native equivalent and is exactly invertible for the
    fixture coordinate ranges."""
    delta = np.asarray(delta, dtype=np.float64)
    return surfaces.map_batches(
        lambda b: map_points(b, lambda p: p - delta), batch_format="pyarrow"
    )
