"""Engine configuration.

The reference keeps run state in mutable module globals
(``config.py:1-7``, ``CityGML2OBJs.py:544-580``); here every tolerance and
knob is one immutable dataclass passed explicitly into stages / actor
constructors, so parallel workers can never observe torn state.

Tolerances mirror the reference's scattered constants
(SURVEY.md §7.4): planarity eps 0.01 (``polygon3dmodule.py:115``),
vertical-polygon test |n_z| < 0.1 (``polygon3dmodule.py:603``), bbox
buffer 3.0 m (``componentseparationmodule.py:103-109``).
"""

from __future__ import annotations

from dataclasses import dataclass


# The 11 semantic surface classes of CityGML LOD2+ (CityGML2OBJs.py:559-562)
SEMANTIC_CLASSES: tuple[str, ...] = (
    "GroundSurface",
    "WallSurface",
    "RoofSurface",
    "ClosureSurface",
    "CeilingSurface",
    "InteriorWallSurface",
    "FloorSurface",
    "OuterCeilingSurface",
    "OuterFloorSurface",
    "Door",
    "Window",
)
OPENING_CLASSES: tuple[str, ...] = ("Door", "Window")

# Classes whose exterior points feed the buffered bbox
# (componentseparationmodule.py:74-101: Ground/Wall/Roof/Closure/OuterCeiling)
BBOX_CLASSES: tuple[str, ...] = (
    "GroundSurface",
    "WallSurface",
    "RoofSurface",
    "ClosureSurface",
    "OuterCeilingSurface",
)


@dataclass(frozen=True)
class EngineConfig:
    # geometry tolerances (reference parity)
    planarity_eps: float = 0.01          # polygon3dmodule.py:115
    vertical_nz_tol: float = 0.1         # polygon3dmodule.py:603
    bbox_buffer: float = 3.0             # componentseparationmodule.py:103-109
    vertex_round_decimals: int = 9       # exact-dedup key rounding for float64 xyz
    # opt-in CORRECT self-intersection clause (the reference's isPolySimple
    # is disabled dead code, polygon3dmodule.py:98-101/126-204; default
    # False = bug-for-bug parity)
    strict_valid: bool = False

    # spatial grid (H3/S2 stand-in: integer lat/lng-style grid, SURVEY §2.F)
    cell_size: float = 64.0              # world units per cell at the join resolution
    knn_k: int = 3                       # kNN neighbours per image
    knn_max_ring: int = 4                # max grid rings searched for neighbours

    # batching. write_batch_size is the most rows a flagship process +
    # write task takes (on average, in the fused plan). The flagship
    # reads, processes and writes in ONE fused operator, one task per CPU
    # or per write_batch_size footer rows when that is more
    # (ops.fused_read_tasks); input files holding more than
    # write_batch_size rows each are split by Ray instead, and process +
    # write then take join_batch_size / write_batch_size row bundles.
    # join_batch_size is the slice a task joins and decodes at a time,
    # which bounds its decoded tiles.
    geometry_batch_size: int = 2048
    join_batch_size: int = 1024          # small is fine: per-cell kNN sets cached
    write_batch_size: int = 8192         # most rows per flagship process+write task
    n_output_parts: int = 16             # output partition fan-out (resume unit)

    # mtl bucketize (CityGML2OBJs.py:383-411): 101 bins over [min, max]
    mtl_bins: int = 101


DEFAULT_CONFIG = EngineConfig()
