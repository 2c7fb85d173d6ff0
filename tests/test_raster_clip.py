"""Exactness of the row-interval raster clip (``stages.images._clip_masks``).

Every mask must EQUAL, pixel for pixel, both the per-pixel GEMM clip it
replaced (``reference_oracle.coverage_mask_gemm``) and a brute-force f64
point-in-any-triangle test ``[x, y, 1] @ E`` over every pixel of the
triangle bbox. Pixel centres of the fixed grids below are binary fractions,
so edge values of triangles with vertices on pixel centres are exact and
"on the edge" means an edge value of exactly 0.
"""

from __future__ import annotations

import numpy as np
import pytest

from citygml2objv2_ray.stages.images import PIXEL_SIZE, _clip_masks, edge_entry
from reference_oracle import coverage_mask_gemm


def _coverage_mask(xs: np.ndarray, ys: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """(len(ys), len(xs)) bool mask of one image's pixel centres covered by
    any of the (T, 3, 2) triangles ``tris``."""
    return _clip_masks(edge_entry(tris), xs[None], ys[None])[0]


def _grid(cx: float, cy: float, w: int, h: int):
    xs = cx - w * PIXEL_SIZE / 2 + (np.arange(w) + 0.5) * PIXEL_SIZE
    ys = cy - h * PIXEL_SIZE / 2 + (np.arange(h) + 0.5) * PIXEL_SIZE
    return xs, ys


def _brute_force(xs: np.ndarray, ys: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Every pixel of the bbox through the exact f64 edge test."""
    lo = tris.min(axis=(0, 1))
    hi = tris.max(axis=(0, 1))
    center = (lo + hi) / 2.0
    gx, gy = np.meshgrid(xs - center[0], ys - center[1])
    hom = np.stack([gx.ravel(), gy.ravel(), np.ones(gx.size)], axis=1)
    D = (hom @ edge_entry(tris).E).reshape(gx.size, len(tris), 3)
    inside = (~((D < 0).any(axis=2) & (D > 0).any(axis=2))).any(axis=1)
    in_bbox = ((xs >= lo[0]) & (xs <= hi[0]))[None, :] & ((ys >= lo[1]) & (ys <= hi[1]))[:, None]
    return inside.reshape(gx.shape) & in_bbox


def _check(xs, ys, tris) -> np.ndarray:
    tris = np.asarray(tris, dtype=np.float64)
    got = _coverage_mask(xs, ys, tris)
    assert got.shape == (len(ys), len(xs))
    np.testing.assert_array_equal(got, coverage_mask_gemm(xs, ys, tris))
    np.testing.assert_array_equal(got, _brute_force(xs, ys, tris))
    return got


# a 32x32 grid centred at (8, 8): pixel centres at 4.125 + 0.25 * j
XS, YS = _grid(8.0, 8.0, 32, 32)


def _px(j: float) -> float:
    return float(XS[0] + PIXEL_SIZE * j)


CASES = {
    "vertices_on_pixel_centres": [[(_px(2), _px(3)), (_px(20), _px(3)), (_px(9), _px(25))]],
    "diagonal_edges_through_centres": [[(_px(0), _px(0)), (_px(31), _px(31)), (_px(0), _px(31))]],
    "axis_aligned_right_triangle": [[(_px(4), _px(4)), (_px(24), _px(4)), (_px(4), _px(28))]],
    "axis_aligned_off_centre": [[(4.2, 4.3), (11.7, 4.3), (4.2, 11.9)]],
    "two_triangles_share_diagonal": [
        [(_px(3), _px(3)), (_px(20), _px(3)), (_px(20), _px(20))],
        [(_px(3), _px(3)), (_px(20), _px(20)), (_px(3), _px(20))],
    ],
    "overlapping": [
        [(5.0, 5.0), (11.0, 5.5), (7.0, 11.0)],
        [(6.0, 4.0), (12.0, 9.0), (4.5, 10.0)],
        [(8.0, 8.0), (9.0, 8.2), (8.4, 9.1)],
    ],
    "collinear_diagonal": [[(_px(1), _px(1)), (_px(10), _px(10)), (_px(20), _px(20))]],
    "collinear_horizontal_on_row": [[(_px(2), _px(7)), (_px(9), _px(7)), (_px(30), _px(7))]],
    "collinear_vertical_on_column": [[(_px(5), _px(2)), (_px(5), _px(29)), (_px(5), _px(11))]],
    "repeated_vertex": [[(_px(2), _px(4)), (_px(2), _px(4)), (_px(17), _px(19))]],
    "point_triangle_alone": [[(_px(6), _px(6))] * 3],
    "point_triangle_widens_nothing": [
        [(_px(6), _px(6))] * 3,
        [(_px(2), _px(2)), (_px(26), _px(5)), (_px(12), _px(27))],
    ],
    "sliver": [[(4.3, 4.3), (11.9, 11.9), (11.9, 11.9 + 1e-3)]],
    # twice the area 0.02 and 0.05, either side of the 4 * tol cut below
    # which a triangle is tested in both orientations
    "sliver_below_flat_cut": [[(4.3, 4.3), (11.9, 11.9), (11.9, 11.9 + 0.02 / 7.6)]],
    "sliver_above_flat_cut": [[(4.3, 4.3), (11.9, 11.9), (11.9, 11.9 + 0.05 / 7.6)]],
    "sliver_off_centre": [[(4.3, 6.1), (11.9, 6.1 + 1e-9), (8.0, 6.1 + 3e-9)]],
    "near_horizontal_edge": [[(4.2, _px(9)), (11.8, _px(9) + 1e-7), (8.1, 11.5)]],
    "sub_pixel_holding_a_centre": [[(_px(7) - 0.05, _px(7) - 0.05), (_px(7) + 0.06, _px(7)), (_px(7), _px(7) + 0.07)]],
    "sub_pixel_between_centres": [[(_px(7) + 0.05, _px(7) + 0.05), (_px(7) + 0.1, _px(7) + 0.06), (_px(7) + 0.07, _px(7) + 0.1)]],
    "bbox_covers_grid": [[(-50.0, -50.0), (60.0, -40.0), (5.0, 70.0)]],
    "bbox_partly_outside_grid": [[(7.0, 7.0), (25.0, 9.0), (10.0, 30.0)]],
    "bbox_outside_grid": [[(40.0, 40.0), (50.0, 41.0), (45.0, 52.0)]],
}


@pytest.mark.parametrize("winding", ["ccw_as_listed", "reversed"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_mask_equals_gemm_and_brute_force(name, winding):
    tris = np.asarray(CASES[name], dtype=np.float64)
    if winding == "reversed":
        tris = tris[:, ::-1]
    _check(XS, YS, tris)


def test_cases_touch_what_they_name():
    """The fixed cases really exercise edges, vertices and the bbox."""
    on_edge = np.asarray(CASES["vertices_on_pixel_centres"], dtype=np.float64)
    assert _check(XS, YS, on_edge)[3, 2]  # a vertex pixel is covered
    assert _check(XS, YS, CASES["collinear_horizontal_on_row"])[7, 2:31].all()
    assert _check(XS, YS, CASES["point_triangle_alone"]).sum() == 1
    assert _check(XS, YS, CASES["sub_pixel_holding_a_centre"]).sum() == 1
    assert not _check(XS, YS, CASES["sub_pixel_between_centres"]).any()
    assert _check(XS, YS, CASES["bbox_covers_grid"]).all()
    assert not _check(XS, YS, CASES["bbox_outside_grid"]).any()
    # a point triangle covers its building's whole bbox (all edge values 0)
    wide = _check(XS, YS, CASES["point_triangle_widens_nothing"])
    assert wide[2:28, 2:27].all()


@pytest.mark.parametrize("w,h", [(32, 32), (64, 64), (13, 21), (1, 7), (7, 1), (40, 24)])
@pytest.mark.parametrize("seed", range(6))
def test_random_triangles_on_grids(w, h, seed):
    """Random triangle sets, half of their vertices snapped to pixel
    centres, over grids of several shapes."""
    rng = np.random.default_rng([seed, w, h])
    xs, ys = _grid(10.0, -3.0, w, h)
    for _ in range(8):
        T = int(rng.integers(1, 9))
        span = rng.choice([0.3, 3.0, 12.0])
        tris = rng.uniform(-span, span, size=(T, 3, 2)) + (10.0, -3.0)
        snap = rng.random((T, 3)) < 0.5
        tris[..., 0] = np.where(snap, xs[0] + PIXEL_SIZE * np.round((tris[..., 0] - xs[0]) / PIXEL_SIZE), tris[..., 0])
        tris[..., 1] = np.where(snap, ys[0] + PIXEL_SIZE * np.round((tris[..., 1] - ys[0]) / PIXEL_SIZE), tris[..., 1])
        if rng.random() < 0.3:  # a degenerate triangle among them
            tris[0, 2] = tris[0, 0] + rng.choice([0.0, 0.5]) * (tris[0, 1] - tris[0, 0])
        _check(xs, ys, tris)


def test_many_images_across_slabs():
    """One call over many images (several slabs) equals one call per image."""
    rng = np.random.default_rng(7)
    tris = rng.uniform(0, 20, size=(50, 3, 2))
    tris[:5] = np.round(tris[:5] * 4) / 4  # a few on the quarter grid
    cx = rng.uniform(-4, 24, size=90)
    cy = rng.uniform(-4, 24, size=90)
    grids = [_grid(x, y, 64, 64) for x, y in zip(cx, cy)]
    xs = np.stack([g[0] for g in grids])
    ys = np.stack([g[1] for g in grids])
    masks = _clip_masks(edge_entry(tris), xs, ys)
    assert masks.any() and not masks.all()
    for k in range(len(grids)):
        np.testing.assert_array_equal(masks[k], coverage_mask_gemm(xs[k], ys[k], tris))
