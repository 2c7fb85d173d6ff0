"""Convex hulls + window approximation (C2/B23/B25 — no scipy/open3d here).

- 2-D convex hull: Andrew's monotone chain (pure numpy).
- 3-D convex hull: incremental gift-wrapping via the 2-D hull of the
  dominant projection planes — sufficient for the reference's use case
  (``-appW`` approximated windows, componentseparationmodule.py:420-450:
  open3d hull of a *perturbed, nearly-planar* window polygon cloud; the
  result it consumes is just a watertight triangle fan around the points).
  We reproduce the SEMANTICS (triangle soup covering the hull of the
  perturbed cloud) with: seeded perturbation (B23, made deterministic per
  row — the reference uses unseeded np.random at
  componentseparationmodule.py:278-292), PCA plane projection, 2-D hull,
  fan triangulation, lifted back with the per-point plane offsets.
- corner markers (B25, componentseparationmodule.py:13-33): 8 small
  triangles, one at each buffered-bbox corner.
"""

from __future__ import annotations

import numpy as np

from .geom import fit_plane


def convex_hull_2d(points: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain. Input (N,2) → hull vertices CCW (H,2)."""
    pts = np.unique(np.asarray(points, dtype=np.float64), axis=0)
    if len(pts) <= 2:
        return pts
    # lexicographic sort by (x, y)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[np.ndarray] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[np.ndarray] = []
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1])


def perturb_points(points: np.ndarray, seed_key: str, eps: float = 1e-6) -> np.ndarray:
    """±eps uniform jitter to avoid degenerate hulls — SEEDED per row key
    (hash of ``seed_key``) for replayable runs, unlike the reference's
    unseeded np.random.uniform (componentseparationmodule.py:290;
    SURVEY.md §7.4)."""
    h = np.frombuffer(seed_key.encode().ljust(8, b"\0")[:8], dtype=np.uint64)[0]
    rng = np.random.default_rng(np.random.SeedSequence([42, int(h)]))
    pts = np.asarray(points, dtype=np.float64)
    return pts + rng.uniform(-eps, eps, size=pts.shape)


def approx_window_hull(points: np.ndarray, seed_key: str = "w") -> np.ndarray:
    """Approximated-window triangle soup (componentseparationmodule.py:
    420-450,534-544): perturb → PCA plane → project → 2-D hull → fan
    triangulation → lift. Returns (T,3,3)."""
    pts = perturb_points(points, seed_key)
    if len(pts) < 3:
        return np.zeros((0, 3, 3))
    c, n = fit_plane(pts)
    # orthonormal in-plane basis
    a = np.array([1.0, 0.0, 0.0])
    if abs(n @ a) > 0.9:
        a = np.array([0.0, 1.0, 0.0])
    u = np.cross(n, a)
    u /= np.linalg.norm(u)
    v = np.cross(n, u)
    rel = pts - c
    plane2d = np.column_stack([rel @ u, rel @ v])
    hull2d = convex_hull_2d(plane2d)
    if len(hull2d) < 3:
        return np.zeros((0, 3, 3))
    hull3d = c + hull2d[:, 0][:, None] * u + hull2d[:, 1][:, None] * v
    tris = [
        np.stack([hull3d[0], hull3d[i], hull3d[i + 1]])
        for i in range(1, len(hull3d) - 1)
    ]
    return np.stack(tris)


def corner_marker_triangles(lo: np.ndarray, hi: np.ndarray, side: float = 1.0) -> np.ndarray:
    """8 small marker triangles at the corners of each buffered bbox
    ``lo``/``hi`` (B,3) (componentseparationmodule.py:13-33: side-1
    triangles in the xy plane of each corner, corners in x, y, z order of
    (min, max)). Returns (B,8,3,3)."""
    sel = (np.arange(8)[:, None] >> np.array([2, 1, 0])) & 1  # corner c: x, y, z pick hi
    p = np.where(sel, hi[:, None, :], lo[:, None, :])
    dx, dy = p.copy(), p.copy()
    dx[..., 0] += side
    dy[..., 1] += side
    return np.stack([p, dx, dy], axis=2)
