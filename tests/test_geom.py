"""Analytic goldens for the geometry kernel (SURVEY.md §5.2 item 1)."""

from __future__ import annotations

import numpy as np
import pytest

from citygml2objv2_ray import geom
from citygml2objv2_ray.config import DEFAULT_CONFIG

SQ = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0, 0, 0]], dtype=float)
HOLE = np.array(
    [[0.25, 0.25, 0], [0.75, 0.25, 0], [0.75, 0.75, 0], [0.25, 0.75, 0], [0.25, 0.25, 0]],
    dtype=float,
)
WALL_XZ = np.array([[0, 0, 0], [2, 0, 0], [2, 0, 3], [0, 0, 3], [0, 0, 0]], dtype=float)
WALL_YZ = np.array([[5, 0, 0], [5, 2, 0], [5, 2, 3], [5, 0, 3], [5, 0, 0]], dtype=float)


def triangulate(ext, holes=()) -> np.ndarray:
    """One polygon through the Triangulator: its (T,3,3) triangles."""
    import pyarrow as pa

    from citygml2objv2_ray.schemas import SURFACES_SCHEMA
    from citygml2objv2_ray.stages.geometry import Triangulator

    row = dict(
        doc_id="d", building_id="b", building_seq=0, feature_id="f", semantic="WallSurface",
        is_opening=False, poly_id="p", poly_seq=0, exterior=np.asarray(ext, float).tolist(),
        interiors=[np.asarray(h, float).tolist() for h in holes], attr_irradiation=0.0,
        truth_valid=True, truth_area=0.0,
    )
    table = Triangulator()(pa.Table.from_pylist([row], schema=SURFACES_SCHEMA))
    p = [np.asarray(table[c].combine_chunks().flatten()).reshape(-1, 3) for c in ("p0", "p1", "p2")]
    return np.stack(p, axis=1)


def tri_area_sum(tris: np.ndarray) -> float:
    if len(tris) == 0:
        return 0.0
    n = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
    return float(0.5 * np.linalg.norm(n, axis=1).sum())


class TestCleanRing:
    def test_removes_consecutive_dups_keeps_closure(self):
        ring = np.array(
            [[0, 0, 0], [1, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0, 0, 0]], float
        )
        out = geom.clean_ring(ring)
        assert len(out) == 5
        assert np.all(out[0] == out[-1])

    def test_idempotent(self):
        once = geom.clean_ring(SQ)
        twice = geom.clean_ring(once)
        assert np.array_equal(once, twice)


class TestValidity:
    def test_valid_square(self):
        ok, why = geom.is_valid_ring(SQ)
        assert ok and why == ""

    def test_open_ring(self):
        ok, why = geom.is_valid_ring(SQ[:-1])
        assert not ok and why == "not_closed"

    def test_too_few_points(self):
        ok, why = geom.is_valid_ring(np.array([[0, 0, 0], [1, 0, 0], [0, 0, 0]], float))
        assert not ok and why == "too_few_points"

    def test_repeated_consecutive(self):
        ring = np.array([[0, 0, 0], [1, 0, 0], [1, 0, 0], [1, 1, 0], [0, 0, 0]], float)
        ok, why = geom.is_valid_ring(ring)
        assert not ok and why == "repeated_consecutive"

    def test_non_planar(self):
        warped = SQ.copy()
        warped[2, 2] = 0.5  # way over eps 0.01 (polygon3dmodule.py:115)
        ok, why = geom.is_valid_ring(warped)
        assert not ok and why == "not_planar"


class TestNormalAreaAngles:
    def test_newell_up(self):
        assert np.allclose(geom.newell_normal(SQ), [0, 0, 1])

    def test_newell_wall(self):
        assert np.allclose(geom.newell_normal(WALL_XZ), [0, -1, 0])

    def test_area_square(self):
        assert geom.ring_area_3d(SQ) == pytest.approx(1.0)

    def test_area_wall(self):
        assert geom.ring_area_3d(WALL_XZ) == pytest.approx(6.0)

    def test_gml_area_with_hole(self):
        assert geom.gml_area(SQ, [HOLE]) == pytest.approx(0.75)

    def test_area_2d_zeroes_z(self):
        tilted = np.array([[0, 0, 5], [1, 0, 7], [1, 1, 9], [0, 1, 7], [0, 0, 5]], float)
        assert geom.ring_area_2d(tilted) == pytest.approx(1.0)

    def test_azimuth_tilt(self):
        az, tilt = geom.azimuth_tilt(np.array([0, 0, 1.0]))
        assert tilt == 0.0
        az, tilt = geom.azimuth_tilt(np.array([0, 1.0, 0]))  # facing north
        assert az == 0.0 and tilt == 90.0
        az, tilt = geom.azimuth_tilt(np.array([1.0, 0, 0]))  # facing east
        assert az == 90.0 and tilt == 90.0

    def test_plane_fit(self):
        rng = np.random.default_rng(42)
        pts2 = rng.uniform(size=(50, 2))
        # plane z = 2x + 3y + 1 → normal ∝ (2,3,-1)
        pts = np.column_stack([pts2, 2 * pts2[:, 0] + 3 * pts2[:, 1] + 1])
        c, n = geom.fit_plane(pts)
        expect = np.array([2.0, 3.0, -1.0])
        expect /= np.linalg.norm(expect)
        assert np.allclose(np.abs(n @ expect), 1.0, atol=1e-9)


class TestProjectionAxis:
    def test_horizontal_xy(self):
        assert geom.projection_axis(geom.newell_normal(SQ), SQ) == geom.AXIS_XY

    def test_vertical_xz(self):
        assert geom.projection_axis(geom.newell_normal(WALL_XZ), WALL_XZ) == geom.AXIS_XZ

    def test_vertical_yz_parallel(self):
        assert geom.projection_axis(geom.newell_normal(WALL_YZ), WALL_YZ) == geom.AXIS_YZ


class TestTriangulation:
    def test_square_two_triangles(self):
        tris = triangulate(SQ)
        assert tris.shape == (2, 3, 3)
        assert tri_area_sum(tris) == pytest.approx(1.0)

    def test_square_with_hole(self):
        tris = triangulate(SQ, [HOLE])
        assert len(tris) >= 6
        assert tri_area_sum(tris) == pytest.approx(0.75, abs=1e-9)
        # no triangle centroid may sit inside the hole
        cts = tris.mean(axis=1)[:, :2]
        assert not geom.point_in_ring_2d(cts, HOLE[:, :2]).any()

    def test_vertical_wall(self):
        tris = triangulate(WALL_XZ)
        assert tri_area_sum(tris) == pytest.approx(6.0)

    def test_yz_parallel_wall(self):
        tris = triangulate(WALL_YZ)
        assert tri_area_sum(tris) == pytest.approx(6.0)

    def test_winding_matches_parent_normal(self):
        for ring in (SQ, WALL_XZ, WALL_YZ, SQ[::-1]):
            n = geom.newell_normal(ring)
            tris = triangulate(ring)
            tn = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
            assert np.all(tn @ n > 0)

    def test_concave_polygon(self):
        # L-shape, area 3
        L = np.array(
            [[0, 0, 0], [2, 0, 0], [2, 1, 0], [1, 1, 0], [1, 2, 0], [0, 2, 0], [0, 0, 0]],
            float,
        )
        tris = triangulate(L)
        assert tri_area_sum(tris) == pytest.approx(3.0)
        # every triangle centroid inside the L
        cts = tris.mean(axis=1)[:, :2]
        assert geom.point_in_ring_2d(cts, L[:, :2]).all()

    def test_degenerate_collinear_silent_empty(self):
        bad = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0], [0, 0, 0]], float)
        tris = triangulate(bad)
        assert len(tris) == 0  # polygon3dmodule.py:679-687 parity

    def test_duplicate_vertex_fallback(self):
        dup = np.array([[0, 0, 0], [1, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0, 0, 0]], float)
        tris = triangulate(dup)
        assert tri_area_sum(tris) == pytest.approx(1.0)

    def test_triangle_vertices_are_input_vertices(self):
        tris = triangulate(SQ)
        body = {tuple(p) for p in SQ[:-1]}
        for t in tris.reshape(-1, 3):
            assert tuple(t) in body


class TestPIPBBoxMisc:
    def test_point_in_ring(self):
        pts = np.array([[0.5, 0.5], [1.5, 0.5], [-0.1, 0.2]])
        inside = geom.point_in_ring_2d(pts, SQ[:, :2])
        assert inside.tolist() == [True, False, False]

    def test_buffered_bbox(self):
        import pandas as pd

        from citygml2objv2_ray.hull import corner_marker_triangles
        from citygml2objv2_ray.pipelines.geometry import building_extents

        keys = pd.DataFrame({"doc_id": ["d"], "building_seq": [0], "building_id": ["b"]})
        code, bb = building_extents(keys, SQ[:-1], np.array([0, 4]), buffer=3.0)
        assert code.tolist() == [0]
        assert bb.iloc[0].tolist()[3:] == [-3, -3, -3, 4, 4, 3, 0.5, 0.5, 0]
        corners = corner_marker_triangles(bb[["xmin", "ymin", "zmin"]].to_numpy(),
                                          bb[["xmax", "ymax", "zmax"]].to_numpy())[0, :, 0]
        assert corners.shape == (8, 3)
        assert {tuple(c) for c in corners} == {(x, y, z) for x in (-3, 4) for y in (-3, 4) for z in (-3, 3)}

    def test_mtl_bucketize(self):
        v = np.array([0.0, 50.0, 100.0, 101.0, -5.0])
        out = geom.mtl_bucketize(v, 0.0, 100.0)
        assert np.allclose(out, [0.0, 0.5, 1.0, 1.0, 0.0])
        # snapping: 101 levels → step 0.01
        out2 = geom.mtl_bucketize(np.array([0.123]), 0.0, 1.0)
        assert out2[0] == pytest.approx(0.12)

    def test_vertex_key_folds_negzero(self):
        k = geom.vertex_key(np.array([[0.0, -0.0, 1.0], [0.0, 0.0, 1.0]]))
        assert k[0] == k[1]


class TestPropertyInvariants:
    def test_tri_area_equals_poly_area_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            # random convex polygon in a random plane
            k = rng.integers(4, 10)
            ang = np.sort(rng.uniform(0, 2 * np.pi, k))
            r = rng.uniform(1, 3)
            pts2 = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
            # random rotation into 3-D
            a, b = rng.uniform(0, np.pi, 2)
            R = np.array(
                [
                    [np.cos(a), -np.sin(a) * np.cos(b), np.sin(a) * np.sin(b)],
                    [np.sin(a), np.cos(a) * np.cos(b), -np.cos(a) * np.sin(b)],
                    [0, np.sin(b), np.cos(b)],
                ]
            )
            pts3 = np.column_stack([pts2, np.zeros(k)]) @ R.T
            ring = np.vstack([pts3, pts3[:1]])
            tris = triangulate(ring)
            assert tri_area_sum(tris) == pytest.approx(geom.ring_area_3d(ring), rel=1e-7)


class TestStrictValid:
    """Opt-in self-intersection clause (EngineConfig.strict_valid) — the
    reference's isPolySimple is disabled dead code
    (polygon3dmodule.py:98-101); default behavior must stay bug-for-bug
    identical, strict mode must reject crossing rings."""

    BOWTIE = np.array(  # proper figure-eight crossing in the XY plane
        [[0, 0, 0], [2, 2, 0], [2, 0, 0], [0, 2, 0], [0, 0, 0]], dtype=float
    )
    SQUARE = np.array(
        [[0, 0, 0], [2, 0, 0], [2, 2, 0], [0, 2, 0], [0, 0, 0]], dtype=float
    )
    # vertical bowtie (XZ plane) — exercises the dominant-axis projection
    BOWTIE_XZ = np.array(
        [[0, 0, 0], [2, 0, 2], [2, 0, 0], [0, 0, 2], [0, 0, 0]], dtype=float
    )
    # concave but simple (L shape)
    LSHAPE = np.array(
        [[0, 0, 0], [2, 0, 0], [2, 1, 0], [1, 1, 0], [1, 2, 0], [0, 2, 0], [0, 0, 0]],
        dtype=float,
    )

    def test_detector_truth_table(self):
        assert geom.ring_self_intersects(self.BOWTIE)
        assert geom.ring_self_intersects(self.BOWTIE_XZ)
        assert not geom.ring_self_intersects(self.SQUARE)
        assert not geom.ring_self_intersects(self.LSHAPE)
        tri = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 0]], dtype=float)
        assert not geom.ring_self_intersects(tri)

    # asymmetric crossing ring with NONZERO net area (a symmetric bowtie's
    # lobes cancel to a degenerate Newell normal, which the live
    # degenerate_normal clause already rejects in both engines)
    SPIRAL = np.array(
        [[0, 0, 0], [3, 0, 0], [0, 1, 0], [1, 2, 0], [0, 0, 0]], dtype=float
    )

    def test_default_parity_strict_rejects(self):
        import dataclasses

        from citygml2objv2_ray.config import DEFAULT_CONFIG

        assert geom.ring_self_intersects(self.SPIRAL)
        ok_default, _ = geom.is_valid_ring(self.SPIRAL, DEFAULT_CONFIG)
        assert ok_default  # parity: the reference accepts it (clause disabled)
        strict = dataclasses.replace(DEFAULT_CONFIG, strict_valid=True)
        ok_strict, why = geom.is_valid_ring(self.SPIRAL, strict)
        assert not ok_strict and why == "self_intersecting"
        ok_sq, _ = geom.is_valid_ring(self.SQUARE, strict)
        assert ok_sq
        ok_l, _ = geom.is_valid_ring(self.LSHAPE, strict)
        assert ok_l


class TestColorbar:
    def test_colorbar_pixels(self, tmp_path):
        """E9 artifact: afmhot ramp ends + decodable PNG + rendered labels
        (black pixels in the label strip), no matplotlib."""
        from citygml2objv2_ray.codecs import png_decode
        from citygml2objv2_ray.sinks.colorbar import write_colorbar
        from citygml2objv2_ray.sinks.obj import afmhot

        p = write_colorbar(str(tmp_path / "colorbar.png"), vmin=350, vmax=1300)
        img = png_decode(open(p, "rb").read())
        want_lo = (afmhot(np.array([0.0])) * 255 + 0.5).astype(np.uint8)[0]
        want_hi = (afmhot(np.array([1.0])) * 255 + 0.5).astype(np.uint8)[0]
        assert (img[0, 0] == want_lo).all()
        assert (img[0, -1] == want_hi).all()
        label_strip = img[46:, :, :]
        assert (label_strip == 0).all(axis=2).sum() > 50  # rendered digits


class TestBatchedTriangulatorParity:
    def test_batch_equals_rowwise_on_world(self, ray_session):
        """The segment-vectorized Triangulator fast path must emit exactly
        the triangles the per-polygon kernel emits, row for row, vertex
        for vertex, over the whole world surfaces table (convex fans are
        the ear-clip output on gated rows; everything else falls back)."""
        import numpy as np

        from citygml2objv2_ray import worlds
        from citygml2objv2_ray.stages.geometry import Triangulator
        from reference_oracle import triangulate_rowwise

        _, surfaces, _ = worlds.load_world(worlds.sf_of_dir("/root/testdata/sf0.001"))
        got = Triangulator()(surfaces)
        want_rows, want_tris = triangulate_rowwise(surfaces)
        assert got.num_rows == len(want_rows) > 0
        ids = surfaces["poly_id"].to_pylist()
        assert got["poly_id"].to_pylist() == [ids[i] for i in want_rows]
        got_p = np.stack(
            [
                np.asarray(got["p0"].combine_chunks().flatten()).reshape(-1, 3),
                np.asarray(got["p1"].combine_chunks().flatten()).reshape(-1, 3),
                np.asarray(got["p2"].combine_chunks().flatten()).reshape(-1, 3),
            ],
            axis=1,
        )
        assert np.array_equal(got_p, want_tris)
