"""End-to-end CityGML → OBJ conversion — the reference's CLI lifecycle
(SURVEY.md §3.1/§3.2) as one streaming pipeline. A CityGML2OBJv2 user's
``python CityGML2OBJs.py -i dir -o dir [-s 1] [-t 1] [-g 1] [-v 1]``
becomes ``convert(in_dir, out_dir, semantics=True, translate=True, ...)``.

    read_citygml(*.gml)               # A1-A12 (exploded per-polygon rows)
    → [opening anti-join]             # D4 when semantics off: drop each
                                      #   document's openings
    → [global min / translate]        # -t: B20/D5, exact fixed point
    → Triangulator                    # B1/B2/C1: flat-ring kernel + fan/ear clip
      (-p: flat-ring kernel → valid)  #   B1/B2 only, polygons stay n-gons
    → OBJ per semantic class (+MTL)   # C4/D1/E1/E8

``convert`` reads a directory; ``convert_surfaces`` is everything after
the read, so the CLI converts the one surfaces Dataset it already holds
(translated by ``-tC``) instead of parsing its input again. From a shell:
``python -m citygml2objv2_ray.cli -i IN_DIR -o OUT_DIR``.
"""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import ray.data as rd

from ..config import DEFAULT_CONFIG, EngineConfig
from ..sinks.obj import write_mtl, write_obj_per_class
from ..sources.citygml import read_citygml
from ..stages.geometry import ring_kernel
from .geometry import (
    global_min_vertex,
    opening_anti_join,
    translate_surfaces,
    triangulate_surfaces,
)


def input_paths(in_dir: str) -> list[str]:
    """The sorted ``.gml``/``.xml`` files under ``in_dir``; a document is
    named by its index in this list."""
    paths = sorted(
        glob.glob(os.path.join(in_dir, "*.gml")) + glob.glob(os.path.join(in_dir, "*.xml"))
    )
    if not paths:
        raise FileNotFoundError(f"no .gml/.xml files under {in_dir}")
    return paths


def convert(
    in_dir: str,
    out_dir: str,
    name: str = "model",
    semantics: bool = True,
    translate: bool = False,
    preserve: bool = False,
    group_markers: bool = True,
    cfg: EngineConfig = DEFAULT_CONFIG,
) -> dict[str, str]:
    """Convert every ``.gml``/``.xml`` under ``in_dir`` to per-class OBJ
    files under ``out_dir``. Returns {semantic_class: path}."""
    return convert_surfaces(
        read_citygml(input_paths(in_dir)), out_dir, name=name, semantics=semantics,
        translate=translate, preserve=preserve, group_markers=group_markers, cfg=cfg,
    )


def convert_surfaces(
    surfaces: rd.Dataset,
    out_dir: str,
    name: str = "model",
    semantics: bool = True,
    translate: bool = False,
    preserve: bool = False,
    group_markers: bool = True,
    cfg: EngineConfig = DEFAULT_CONFIG,
) -> dict[str, str]:
    """A surfaces Dataset → per-class OBJ files under ``out_dir``. Returns
    {semantic_class: path}.

    semantics=False mirrors the reference's default mode: each document's
    openings (Window/Door) are folded away via the anti-join and everything
    lands in per-class files anyway (the reference concatenates all classes
    when ``-s 0``; keeping per-class files is a superset — ``cat`` them for
    the single-file equivalent)."""
    if translate or not semantics:
        # the dataset-level pre-passes and the conversion read one parse
        surfaces = surfaces.materialize()
    if not semantics:
        surfaces = opening_anti_join(surfaces, cfg)
    if translate:
        surfaces = translate_surfaces(surfaces, global_min_vertex(surfaces))
    if preserve:
        # -p / SKIPTRI (CityGML2OBJs.py:137-141): keep the valid polygons
        # as n-gon faces, no triangulation
        rows = surfaces.map_batches(
            lambda b: b.filter(pa.array(ring_kernel(b, cfg).valid)),
            batch_format="pyarrow",
            batch_size=cfg.geometry_batch_size,
        )
        out = write_obj_per_class(
            rows, out_dir, name=name, cfg=cfg, preserve=True, group_markers=group_markers
        )
    else:
        tris = triangulate_surfaces(surfaces, cfg)
        out = write_obj_per_class(
            tris, out_dir, name=name, cfg=cfg, group_markers=group_markers
        )
    write_mtl(os.path.join(out_dir, "colormap.mtl"), cfg.mtl_bins)
    # E9 legend artifact for the colormap (plotcolorbar.py:31-77) —
    # closed-form PNG, no matplotlib
    from ..sinks.colorbar import write_colorbar

    write_colorbar(os.path.join(out_dir, "colorbar.png"), bins=cfg.mtl_bins)
    return out
