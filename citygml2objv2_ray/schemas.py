"""Fixed pyarrow schemas for every engine table (SURVEY.md §1.2).

The reference infers structure at runtime from the DOM
(``markup3dmodule.py:122-148``); here every table has a pinned
``pyarrow.Schema`` so blocks never drift (Ray Data warns on per-block schema
changes — observed with ``list<null>`` vs ``list<list<double>>`` interiors).
"""

from __future__ import annotations

import pyarrow as pa

# a 3-D point is list<double,3>; a ring is a list of points; interiors a list of rings
POINT = pa.list_(pa.float64(), 3)
RING = pa.list_(POINT)
RINGS = pa.list_(RING)

# primary fact table — authoritative shape from BASELINE.json:input_hint
IMAGES_SCHEMA = pa.schema(
    [
        ("image_id", pa.string()),
        ("bytes", pa.binary()),
        ("w", pa.int32()),
        ("h", pa.int32()),
        ("fmt", pa.string()),
        ("caption", pa.string()),
        ("phash", pa.int64()),
        # placement ground truth (FIXTURES.md §1) — engine must reproduce, never read
        ("cx", pa.float64()),
        ("cy", pa.float64()),
        ("truth_building_id", pa.string()),
        ("truth_cell", pa.int64()),
    ]
)

# polygon table mirroring the reference's exploded DOM hierarchy (FIXTURES.md §2)
SURFACES_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("building_id", pa.string()),
        ("building_seq", pa.int32()),
        ("feature_id", pa.string()),
        ("semantic", pa.string()),
        ("is_opening", pa.bool_()),
        ("poly_id", pa.string()),
        ("poly_seq", pa.int32()),
        ("exterior", RING),
        ("interiors", RINGS),
        ("attr_irradiation", pa.float64()),
        ("truth_valid", pa.bool_()),
        ("truth_area", pa.float64()),
    ]
)

# small join side (FIXTURES.md §3)
FOOTPRINTS_SCHEMA = pa.schema(
    [
        ("building_id", pa.string()),
        ("footprint", pa.list_(pa.list_(pa.float64(), 2))),
        ("xmin", pa.float64()),
        ("ymin", pa.float64()),
        ("xmax", pa.float64()),
        ("ymax", pa.float64()),
        ("cell", pa.int64()),
    ]
)

# triangulated output (exploded, one row per triangle)
TRIANGLES_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("building_id", pa.string()),
        ("poly_id", pa.string()),
        ("semantic", pa.string()),
        ("building_seq", pa.int32()),
        ("poly_seq", pa.int32()),
        ("tri_seq", pa.int32()),
        ("p0", POINT),
        ("p1", POINT),
        ("p2", POINT),
        ("area", pa.float64()),
    ]
)

# checkpoint / lineage log (north rule: per-partition lineage + metrics)
LINEAGE_SCHEMA = pa.schema(
    [
        ("run_id", pa.string()),
        ("stage", pa.string()),
        ("partition_id", pa.string()),
        ("rows_in", pa.int64()),
        ("rows_out", pa.int64()),
        ("checksum", pa.int64()),
        ("wall_sec", pa.float64()),
    ]
)
