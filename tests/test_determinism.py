"""Determinism invariants (SURVEY.md §5.2 item 6): identical sorted outputs
across runs and across execution granularities, plus hypothesis property
tests for the geometry kernel."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ray.data as rd

from citygml2objv2_ray import geom
from test_geom import triangulate


@pytest.fixture(scope="module")
def world(ray_session, tmp_path_factory):
    from citygml2objv2_ray import synth

    out = tmp_path_factory.mktemp("dworld")
    return synth.generate_world(str(out), 0.0005, parallelism=2)


class TestRunDeterminism:
    def test_flagship_two_runs_identical(self, world, tmp_path):
        import pyarrow.parquet as pq

        from citygml2objv2_ray.config import EngineConfig
        from citygml2objv2_ray.pipelines.flagship import run_flagship

        surfaces = pq.read_table(world["surfaces"])
        footprints = pq.read_table(world["footprints"])
        outs = []
        # the read plan on each of its sides over the 500-row, 16-file
        # world: one fused task per CPU (the default), one per 64 footer
        # rows, and the split plan (the files hold more than 16 rows each)
        for i, cfg in enumerate(
            [
                EngineConfig(), EngineConfig(join_batch_size=256),
                EngineConfig(write_batch_size=64), EngineConfig(write_batch_size=16),
            ]
        ):
            res = run_flagship(
                world["images"], surfaces, footprints, str(tmp_path / f"o{i}"),
                cfg=cfg, resume=False,
            )
            df = res.assignments().to_pandas().sort_values("image_id").reset_index(drop=True)
            df["nn_ids"] = df.nn_ids.map(tuple)
            df["nn_dist"] = df.nn_dist.map(tuple)
            outs.append(df[sorted(df.columns)])
        # identical despite different batch granularities and task counts
        # (execution-order free)
        for other in outs[1:]:
            pd.testing.assert_frame_equal(outs[0], other)

    def test_obj_output_byte_identical_across_runs(self, ray_session, tmp_path):
        from citygml2objv2_ray import synth
        from citygml2objv2_ray.pipelines.geometry import triangulate_surfaces
        from citygml2objv2_ray.sinks.obj import write_obj_per_class

        surfaces, _ = synth.make_city(8, seed=42, corruption=0.0)
        texts = []
        for i in range(2):
            out = write_obj_per_class(
                triangulate_surfaces(rd.from_arrow(surfaces)), str(tmp_path / f"r{i}"), name="m"
            )
            texts.append({cl: open(p).read() for cl, p in out.items()})
        assert texts[0] == texts[1]  # byte-identical


# -- hypothesis property tests -----------------------------------------------

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)


@st.composite
def convex_polygon_3d(draw):
    """Random convex planar polygon embedded in a random 3-D plane."""
    k = draw(st.integers(min_value=3, max_value=10))
    angles = sorted(
        draw(
            st.lists(
                st.floats(0.01, 2 * np.pi - 0.01, allow_nan=False),
                min_size=k, max_size=k, unique=True,
            )
        )
    )
    r = draw(st.floats(0.5, 50.0, allow_nan=False))
    a = draw(st.floats(0, np.pi, allow_nan=False))
    b = draw(st.floats(0, np.pi, allow_nan=False))
    pts2 = np.column_stack([r * np.cos(angles), r * np.sin(angles)])
    R = np.array(
        [
            [np.cos(a), -np.sin(a) * np.cos(b), np.sin(a) * np.sin(b)],
            [np.sin(a), np.cos(a) * np.cos(b), -np.cos(a) * np.sin(b)],
            [0, np.sin(b), np.cos(b)],
        ]
    )
    off = np.array([draw(finite), draw(finite), draw(finite)]) * 0  # keep local
    pts3 = np.column_stack([pts2, np.zeros(k)]) @ R.T + off
    return np.vstack([pts3, pts3[:1]])


@settings(max_examples=40, deadline=None)
@given(ring=convex_polygon_3d())
def test_triangle_area_sums_to_polygon_area(ring):
    tris = triangulate(ring)
    n = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
    tri_area = 0.5 * np.linalg.norm(n, axis=1).sum()
    assert tri_area == pytest.approx(geom.ring_area_3d(ring), rel=1e-6)


@settings(max_examples=40, deadline=None)
@given(ring=convex_polygon_3d())
def test_winding_agrees_with_newell(ring):
    normal = geom.newell_normal(ring)
    tris = triangulate(ring)
    tn = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
    assert np.all(tn @ normal > 0)


@settings(max_examples=40, deadline=None)
@given(ring=convex_polygon_3d())
def test_clean_ring_idempotent(ring):
    once = geom.clean_ring(ring)
    assert np.array_equal(once, geom.clean_ring(once))


@settings(max_examples=30, deadline=None)
@given(
    xs=st.lists(st.floats(-1e5, 1e5, allow_nan=False), min_size=3, max_size=40),
    ys=st.lists(st.floats(-1e5, 1e5, allow_nan=False), min_size=3, max_size=40),
)
def test_hull_contains_all_points(xs, ys):
    from citygml2objv2_ray.hull import convex_hull_2d

    k = min(len(xs), len(ys))
    pts = np.column_stack([xs[:k], ys[:k]])
    h = convex_hull_2d(pts)
    if len(h) < 3:
        return
    # every input point inside the hull or within eps of a hull edge
    inside = geom.point_in_ring_2d(pts, h)
    edge_a = h
    edge_b = np.roll(h, -1, axis=0)
    d = edge_b - edge_a  # (E,2)
    lens2 = np.maximum((d * d).sum(axis=1), 1e-300)
    near_edge = np.zeros(len(pts), dtype=bool)
    for i, p in enumerate(pts):
        t = np.clip(((p - edge_a) * d).sum(axis=1) / lens2, 0, 1)
        proj = edge_a + t[:, None] * d
        dist = np.hypot(*(p - proj).T)
        near_edge[i] = dist.min() < 1e-6 * max(1.0, np.abs(p).max())
    assert np.all(inside | near_edge)


@settings(max_examples=30, deadline=None)
@given(
    vals=st.lists(st.floats(-1e8, 1e8, allow_nan=False), min_size=1, max_size=50),
    delta=st.integers(min_value=-10**7, max_value=10**7),
)
def test_fixed_point_translation_invertible(vals, delta):
    from citygml2objv2_ray.exact import SCALE, from_fixed, to_fixed

    v = np.asarray(vals, dtype=np.float64)
    f = to_fixed(v)
    moved = f + delta * SCALE
    back = moved - delta * SCALE
    assert np.array_equal(f, back)
    # decode→encode stability
    assert np.array_equal(to_fixed(from_fixed(f)), f)
