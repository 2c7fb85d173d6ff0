"""Conformance: the per-class OBJ assembly (``write_obj_per_class``)
reproduces the sequential reference-semantics oracle EXACTLY (vertices,
order, 1-based face indices)."""

from __future__ import annotations

import numpy as np
import pyarrow.compute as pc
import pytest

import ray.data as rd

from reference_oracle import sequential_obj_assembly

from citygml2objv2_ray.sinks.obj import write_obj_per_class


def assemble_obj_class(tris: rd.Dataset) -> str:
    """One semantic class's triangle rows as OBJ text: the
    ``write_obj_per_class`` file of that class."""
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        paths = write_obj_per_class(tris, d)
        if not paths:
            return "# empty\n"
        (path,) = paths.values()
        with open(path) as f:
            return f.read()


@pytest.fixture(scope="module")
def city(ray_session):
    from citygml2objv2_ray import synth

    return synth.make_city(15, seed=42)  # default corruption mix included


def test_obj_assembly_matches_sequential_oracle(city):
    from citygml2objv2_ray.pipelines.geometry import triangulate_surfaces
    from citygml2objv2_ray.sinks.obj import parse_obj

    surfaces, _ = city
    sdf = surfaces.to_pandas()
    tris = triangulate_surfaces(rd.from_arrow(surfaces))
    for semantic in ("WallSurface", "RoofSurface", "GroundSurface"):
        sub = tris.map_batches(
            lambda b, s=semantic: b.filter(pc.equal(b["semantic"], s)),
            batch_format="pyarrow",
        )
        text = assemble_obj_class(sub)
        got_v, got_f = parse_obj(text)
        want_v, want_f = sequential_obj_assembly(sdf, semantic)
        want_v = np.asarray(want_v, dtype=np.float64)
        want_f = np.asarray(want_f, dtype=np.int64) - 1
        assert len(got_v) == len(want_v), semantic
        assert np.array_equal(got_v, want_v), f"{semantic}: vertex order/dedup differs"
        # triangulation order within a polygon is deterministic in both
        # paths (same kernel); face index streams must agree exactly
        assert np.array_equal(got_f, want_f), f"{semantic}: face indices differ"


def test_invalid_polygons_excluded_in_both(city):
    from citygml2objv2_ray.pipelines.geometry import triangulate_surfaces

    surfaces, _ = city
    sdf = surfaces.to_pandas()
    n_invalid = (~sdf.truth_valid).sum()
    assert n_invalid > 0  # corruption mix present
    tris = triangulate_surfaces(rd.from_arrow(surfaces)).to_pandas()
    assert not set(sdf[~sdf.truth_valid].poly_id) & set(tris.poly_id)
