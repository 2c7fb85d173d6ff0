"""Pure-NumPy geometry kernel.

Re-implements the reference's geometry vocabulary (SURVEY.md §2.B/§2.C) as
vectorized batch functions with no external geometry deps (no shapely /
scipy / triangle / open3d in this environment):

- ring cleaning                      (CityGML2OBJs.py:87-96)
- validity predicate                 (polygon3dmodule.py:70-102)
- planarity test                     (polygon3dmodule.py:105-123)
- Newell polygon normal              (polygon3dmodule.py:509-548)
- 3-D / 2-D / GML polygon area       (polygon3dmodule.py:41-66,245-269)
- azimuth + tilt from normal         (polygon3dmodule.py:272-292)
- PCA plane fit                      (polygon3dmodule.py:370-399, sans sklearn)
- projection-axis selection          (polygon3dmodule.py:603-636)
- ear-clipping triangulation w/holes (polygon3dmodule.py:551-716 — the
  reference uses constrained Delaunay via the C `triangle` lib; ear clipping
  is triangulation-equivalent for conformance because we compare triangle
  SETS and summed areas, not triangle order — SURVEY.md §7.4)
- winding orientation fix            (polygon3dmodule.py:416-439,707-715)
- buffered bbox                      (componentseparationmodule.py:63-121)
- centroid / weighted centroid       (polygon3dmodule.py:338-358,449-471)
- mtl bucketize                      (CityGML2OBJs.py:383-411)
- point-in-polygon (ray cast, vectorized) — new, for the spatial join

All functions take/return plain numpy arrays so they can run inside
``map_batches`` kernels with zero object overhead.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_CONFIG, EngineConfig

# ---------------------------------------------------------------------------
# ring utilities
# ---------------------------------------------------------------------------


def clean_ring(
    ring: np.ndarray, decimals: int = DEFAULT_CONFIG.vertex_round_decimals
) -> np.ndarray:
    """Remove *consecutive* duplicate vertices, preserving the closure point.

    Parity: ``remove_reccuring`` (CityGML2OBJs.py:87-96) drops repeats while
    keeping the last==first closure; operates on an (N,3) float array.
    """
    ring = np.asarray(ring, dtype=np.float64)
    if len(ring) < 2:
        return ring
    closed = bool(np.all(ring[0] == ring[-1]))
    body = ring[:-1] if closed else ring
    if len(body) == 0:
        return ring
    keep = np.ones(len(body), dtype=bool)
    keep[1:] = np.any(
        np.round(body[1:], decimals) != np.round(body[:-1], decimals), axis=1
    )
    body = body[keep]
    if closed:
        return np.vstack([body, body[:1]])
    return body


def ring_is_closed(ring: np.ndarray) -> bool:
    ring = np.asarray(ring, dtype=np.float64)
    return len(ring) >= 2 and bool(np.all(ring[0] == ring[-1]))


def newell_normal(ring: np.ndarray) -> np.ndarray:
    """Robust polygon normal via Newell's method (polygon3dmodule.py:509-548).

    Input ring may be open or closed; output is unit-length (zeros for
    degenerate input).
    """
    pts = np.asarray(ring, dtype=np.float64)
    if ring_is_closed(pts):
        pts = pts[:-1]
    if len(pts) < 3:
        return np.zeros(3)
    nxt = np.roll(pts, -1, axis=0)
    n = np.array(
        [
            np.sum((pts[:, 1] - nxt[:, 1]) * (pts[:, 2] + nxt[:, 2])),
            np.sum((pts[:, 2] - nxt[:, 2]) * (pts[:, 0] + nxt[:, 0])),
            np.sum((pts[:, 0] - nxt[:, 0]) * (pts[:, 1] + nxt[:, 1])),
        ]
    )
    mag = np.linalg.norm(n)
    if mag == 0.0:
        return np.zeros(3)
    return n / mag


def is_planar(ring: np.ndarray, eps: float = DEFAULT_CONFIG.planarity_eps) -> bool:
    """All points within ``eps`` of the best-fit plane.

    The reference tests distance to the plane of the *first three* points
    (polygon3dmodule.py:105-123); we use the Newell/centroid plane, which is
    strictly more tolerant of a bad first triple but agrees on the fixtures
    (both accept planar rings and reject > eps warps).
    """
    pts = np.asarray(ring, dtype=np.float64)
    if ring_is_closed(pts):
        pts = pts[:-1]
    if len(pts) < 4:
        return True
    n = newell_normal(pts)
    if not n.any():
        return False
    d = (pts - pts.mean(axis=0)) @ n
    return bool(np.max(np.abs(d)) <= eps)


def ring_self_intersects(ring: np.ndarray) -> bool:
    """CORRECT 2-D projected self-intersection test — the clause the
    reference INTENDED with its disabled ``isPolySimple``
    (polygon3dmodule.py:126-204; its ``intersection`` helper only tested
    segment non-parallelism, which is why the clause was turned off at
    :98-101). Projects to the dominant plane (drop the largest |normal|
    axis — generalizes the reference's vertical XZ/YZ special cases) and
    tests every non-adjacent edge pair for PROPER crossing with exact
    orientation signs, vectorized over all pairs."""
    pts = np.asarray(ring, dtype=np.float64)
    if ring_is_closed(pts):
        pts = pts[:-1]
    E = len(pts)
    if E < 4:  # a triangle cannot properly self-intersect
        return False
    n = newell_normal(pts)
    if n.any():
        ax = int(np.argmax(np.abs(n)))
    else:
        # figure-eights have ZERO net Newell normal (the lobes cancel) —
        # project by dropping the flattest coordinate axis instead
        ax = int(np.argmin(np.ptp(pts, axis=0)))
    keep = [i for i in range(3) if i != ax]
    p = pts[:, keep]
    q = np.roll(p, -1, axis=0)
    i, j = np.triu_indices(E, k=2)
    adjacent = (i == 0) & (j == E - 1)  # first and last edge share a vertex
    i, j = i[~adjacent], j[~adjacent]

    def orient(a, b, c):
        return (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
            c[:, 0] - a[:, 0]
        )

    a, b = p[i], q[i]
    c, d = p[j], q[j]
    cross = (
        (orient(a, b, c) * orient(a, b, d) < 0)
        & (orient(c, d, a) * orient(c, d, b) < 0)
    )
    return bool(cross.any())


def is_valid_ring(
    ring: np.ndarray, cfg: EngineConfig = DEFAULT_CONFIG
) -> tuple[bool, str]:
    """Validity predicate — the four live clauses of ``isPolyValid``
    (polygon3dmodule.py:70-102): ring closed; >= 4 points incl. closure;
    no identical consecutive points; planar within eps. (The
    self-intersection clause is disabled in the reference at
    polygon3dmodule.py:98-101 and therefore off by DEFAULT here too;
    ``cfg.strict_valid`` opts into a correct implementation of it —
    ``ring_self_intersects``.)

    Returns (valid, reason) with reason "" when valid.
    """
    pts = np.asarray(ring, dtype=np.float64)
    if len(pts) < 4:
        return False, "too_few_points"
    if not ring_is_closed(pts):
        return False, "not_closed"
    body = pts[:-1]
    if len(body) < 3:
        return False, "too_few_points"
    if np.any(np.all(body[1:] == body[:-1], axis=1)):
        return False, "repeated_consecutive"
    if not is_planar(pts, cfg.planarity_eps):
        return False, "not_planar"
    if not newell_normal(pts).any():
        return False, "degenerate_normal"
    if getattr(cfg, "strict_valid", False) and ring_self_intersects(pts):
        return False, "self_intersecting"
    return True, ""


# ---------------------------------------------------------------------------
# areas, angles, planes
# ---------------------------------------------------------------------------


def ring_area_3d(ring: np.ndarray) -> float:
    """Planar polygon area = 0.5 * |sum of successive cross products|
    (polygon3dmodule.py:245-258)."""
    pts = np.asarray(ring, dtype=np.float64)
    if ring_is_closed(pts):
        pts = pts[:-1]
    if len(pts) < 3:
        return 0.0
    nxt = np.roll(pts, -1, axis=0)
    s = np.cross(pts, nxt).sum(axis=0)
    return float(0.5 * np.linalg.norm(s))


def ring_area_2d(ring: np.ndarray) -> float:
    """2-D variant: z zeroed first (polygon3dmodule.py:261-269)."""
    pts = np.asarray(ring, dtype=np.float64).copy()
    if pts.shape[1] >= 3:
        pts[:, 2] = 0.0
    return ring_area_3d(pts)


def gml_area(exterior: np.ndarray, interiors: list[np.ndarray]) -> float:
    """GML polygon area = exterior − Σ interiors (polygon3dmodule.py:41-66)."""
    a = ring_area_3d(exterior)
    for hole in interiors:
        a -= ring_area_3d(hole)
    return a


def azimuth_tilt(normal: np.ndarray) -> tuple[float, float]:
    """Normal → (azimuth, tilt) in degrees rounded to 3
    (polygon3dmodule.py:272-292): azimuth from north (+y), clockwise;
    tilt from vertical (0 = horizontal-up face... i.e. angle between the
    normal and +z)."""
    n = np.asarray(normal, dtype=np.float64)
    mag = np.linalg.norm(n)
    if mag == 0:
        return 0.0, 0.0
    n = n / mag
    az = np.degrees(np.arctan2(n[0], n[1])) % 360.0
    tilt = np.degrees(np.arccos(np.clip(n[2], -1.0, 1.0)))
    return round(float(az), 3), round(float(tilt), 3)


def fit_plane(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """PCA least-squares plane fit via SVD (polygon3dmodule.py:361-399's
    ``planeAdjusted`` without sklearn). Returns (centroid, unit normal)."""
    pts = np.asarray(points, dtype=np.float64)
    c = pts.mean(axis=0)
    _, _, vh = np.linalg.svd(pts - c, full_matrices=False)
    return c, vh[-1]


def centroid(ring: np.ndarray) -> np.ndarray:
    """Arithmetic-mean centroid of the ring body (polygon3dmodule.py:338-346)."""
    pts = np.asarray(ring, dtype=np.float64)
    if ring_is_closed(pts):
        pts = pts[:-1]
    return pts.mean(axis=0)


def interior_point_2d(ring2d: np.ndarray) -> np.ndarray:
    """A point strictly inside a simple 2-D ring — hole-seed for
    triangulation (polygon3dmodule.py:574-586 uses the hole centroid; for
    non-convex holes we fall back to an ear midpoint)."""
    pts = np.asarray(ring2d, dtype=np.float64)
    body = pts[:-1] if len(pts) > 1 and np.all(pts[0] == pts[-1]) else pts
    c = body.mean(axis=0)
    if point_in_ring_2d(c[None, :], body)[0]:
        return c
    # fallback: centroid of the first valid ear
    n = len(body)
    for i in range(n):
        tri = body[[i, (i + 1) % n, (i + 2) % n]]
        c = tri.mean(axis=0)
        if point_in_ring_2d(c[None, :], body)[0]:
            return c
    return body.mean(axis=0)


# ---------------------------------------------------------------------------
# 2-D projection choice (triangulation pre-step)
# ---------------------------------------------------------------------------

AXIS_XY, AXIS_XZ, AXIS_YZ = 0, 1, 2


def projection_axis(
    normal: np.ndarray, ring: np.ndarray, cfg: EngineConfig = DEFAULT_CONFIG
) -> int:
    """Pick the 2-D projection plane exactly as the reference does
    (polygon3dmodule.py:603-636): near-vertical polygons (|n_z| < 0.1)
    project to XZ, unless the polygon is parallel to the YZ plane
    (degenerate x-extent) in which case YZ; otherwise XY."""
    n = np.asarray(normal, dtype=np.float64)
    if abs(n[2]) >= cfg.vertical_nz_tol:
        return AXIS_XY
    pts = np.asarray(ring, dtype=np.float64)
    if np.ptp(pts[:, 0]) < 1e-12:  # wall exactly parallel to YZ
        return AXIS_YZ
    # also prefer YZ when x-extent is degenerate relative to the ring size
    return AXIS_XZ


def project_ring(ring: np.ndarray, axis: int) -> np.ndarray:
    pts = np.asarray(ring, dtype=np.float64)
    if axis == AXIS_XY:
        return pts[:, [0, 1]]
    if axis == AXIS_XZ:
        return pts[:, [0, 2]]
    return pts[:, [1, 2]]


# ---------------------------------------------------------------------------
# ear-clipping triangulation (with holes)
# ---------------------------------------------------------------------------


def _signed_area_2d(pts: np.ndarray) -> float:
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def point_in_ring_2d(points: np.ndarray, ring2d: np.ndarray) -> np.ndarray:
    """Vectorized ray-cast point-in-polygon: points (M,2) vs open ring (N,2).
    Returns bool (M,). Boundary points may go either way (consistent with a
    strict ray cast)."""
    pts = np.asarray(points, dtype=np.float64)
    ring = np.asarray(ring2d, dtype=np.float64)
    if len(ring) > 1 and np.all(ring[0] == ring[-1]):
        ring = ring[:-1]
    x, y = pts[:, 0][:, None], pts[:, 1][:, None]
    x1, y1 = ring[:, 0][None, :], ring[:, 1][None, :]
    x2, y2 = np.roll(ring[:, 0], -1)[None, :], np.roll(ring[:, 1], -1)[None, :]
    cond = (y1 > y) != (y2 > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
    crossing = cond & (x < xint)
    return np.sum(crossing, axis=1) % 2 == 1


def _pts_in_tri(p: np.ndarray, a, b, c, eps=1e-12) -> np.ndarray:
    """Which of points p (M,2) lie strictly inside triangle abc."""
    d1 = (p[:, 0] - b[0]) * (a[1] - b[1]) - (a[0] - b[0]) * (p[:, 1] - b[1])
    d2 = (p[:, 0] - c[0]) * (b[1] - c[1]) - (b[0] - c[0]) * (p[:, 1] - c[1])
    d3 = (p[:, 0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (p[:, 1] - a[1])
    has_neg = (d1 < -eps) | (d2 < -eps) | (d3 < -eps)
    has_pos = (d1 > eps) | (d2 > eps) | (d3 > eps)
    return ~(has_neg & has_pos)


def _earcut_simple(poly: np.ndarray) -> list[tuple[int, int, int]]:
    """O(n^2) ear clipping of a simple CCW 2-D polygon (open ring).
    Returns index triples into ``poly``."""
    n = len(poly)
    if n < 3:
        return []
    if n == 3:
        return [(0, 1, 2)]
    idx = list(range(n))
    tris: list[tuple[int, int, int]] = []
    guard = 0
    while len(idx) > 3 and guard < 2 * n * n:
        guard += 1
        m = len(idx)
        clipped = False
        for k in range(m):
            i0, i1, i2 = idx[k - 1], idx[k], idx[(k + 1) % m]
            a, b, c = poly[i0], poly[i1], poly[i2]
            cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            if cross <= 1e-14:  # reflex or degenerate
                continue
            others = np.array(
                [poly[j] for j in idx if j not in (i0, i1, i2)], dtype=np.float64
            )
            if len(others):
                # bridge construction duplicates vertices: a point that
                # coincides with a triangle corner must not block the ear
                corner = (
                    (np.sum((others - a) ** 2, axis=1) < 1e-24)
                    | (np.sum((others - b) ** 2, axis=1) < 1e-24)
                    | (np.sum((others - c) ** 2, axis=1) < 1e-24)
                )
                others = others[~corner]
            if len(others) and np.any(_pts_in_tri(others, a, b, c)):
                continue
            tris.append((i0, i1, i2))
            del idx[k]
            clipped = True
            break
        if not clipped:
            # numerically stuck (collinear runs): clip the least-degenerate ear
            best_k, best_cross = -1, -np.inf
            for k in range(m):
                i0, i1, i2 = idx[k - 1], idx[k], idx[(k + 1) % m]
                a, b, c = poly[i0], poly[i1], poly[i2]
                cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
                if cross > best_cross:
                    best_cross, best_k = cross, k
            if best_k < 0:
                break
            k = best_k
            i0, i1, i2 = idx[k - 1], idx[k], idx[(k + 1) % m]
            if best_cross > 1e-14:
                tris.append((i0, i1, i2))
            del idx[k]
    if len(idx) == 3:
        a, b, c = poly[idx[0]], poly[idx[1]], poly[idx[2]]
        cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if cross > 1e-14:
            tris.append((idx[0], idx[1], idx[2]))
    return tris


def _bridge_holes(
    outer: np.ndarray, holes: list[np.ndarray]
) -> tuple[np.ndarray, None]:
    """Merge holes into the outer ring via bridges (the standard
    eliminate-hole construction used by mapbox-earcut): connect each hole's
    rightmost vertex to a visible outer vertex, splicing the hole (with two
    duplicated bridge vertices) into the outer loop. Outer must be CCW,
    holes CW, all open rings. Returns the combined simple polygon."""
    outer = list(map(np.asarray, outer))
    poly = [np.asarray(p, dtype=np.float64) for p in outer]
    for hole in sorted(holes, key=lambda h: -float(np.max(h[:, 0]))):
        hi = int(np.argmax(hole[:, 0]))
        hp = hole[hi]
        # find visible outer vertex: the one minimizing distance among those
        # where the segment hp->v crosses no outer edge "in front"; simple
        # robust heuristic: nearest outer vertex with x >= hp.x, falling back
        # to nearest overall, validated by midpoint-in-polygon minus holes.
        P = np.array(poly)
        d2 = np.sum((P - hp) ** 2, axis=1)
        order = np.argsort(d2)
        bridge_j = int(order[0])
        for j in order:
            mid = (P[j] + hp) / 2.0
            if point_in_ring_2d(mid[None, :], np.array(poly))[0] and not point_in_ring_2d(
                mid[None, :], hole
            )[0]:
                bridge_j = int(j)
                break
        rolled = np.roll(hole, -hi, axis=0)
        spliced = (
            poly[: bridge_j + 1]
            + [rolled[k] for k in range(len(rolled))]
            + [rolled[0], P[bridge_j]]
            + poly[bridge_j + 1 :]
        )
        poly = spliced
    return np.array(poly, dtype=np.float64), None


def triangulate_2d(
    exterior2d: np.ndarray, holes2d: list[np.ndarray] | None = None
) -> np.ndarray:
    """Triangulate a 2-D polygon (closed or open rings) with optional holes.
    Returns (T,3,2) triangle coordinate array (not indices — bridging
    duplicates vertices)."""
    ext = np.asarray(exterior2d, dtype=np.float64)
    if len(ext) > 1 and np.all(ext[0] == ext[-1]):
        ext = ext[:-1]
    if len(ext) < 3:
        return np.zeros((0, 3, 2))
    if _signed_area_2d(ext) < 0:
        ext = ext[::-1]
    holes = []
    for h in holes2d or []:
        h = np.asarray(h, dtype=np.float64)
        if len(h) > 1 and np.all(h[0] == h[-1]):
            h = h[:-1]
        if len(h) < 3:
            continue
        if _signed_area_2d(h) > 0:
            h = h[::-1]
        holes.append(h)
    if holes:
        poly, _ = _bridge_holes(ext, holes)
    else:
        poly = ext
    tris = _earcut_simple(poly)
    return np.array([[poly[a], poly[b], poly[c]] for a, b, c in tris]).reshape(-1, 3, 2)


_FAN_EPS = 1e-6  # strict-convexity margin, far above earcut's 1e-12/1e-14


def convex_fan(body3d: np.ndarray, axis: int) -> np.ndarray | None:
    """Fast path for STRICTLY convex hole-free polygons: the ear-clip loop
    on a strictly convex CCW ring always clips at k=0, producing the fan
    (n-1, 0, 1), (n-1, 1, 2), ..., ending with the tuple (n-3, n-2, n-1)
    — so the fan IS the ear-clip output, emitted here without the O(n^2)
    scan, the 2-D lift, or any per-ear allocation. Returns None (caller
    falls through to the full ear clip) unless every turning cross AND
    every fan-triangle cross clears ``_FAN_EPS`` — margins 10^6 above the
    ear clip's decision epsilons, so in the disagreement band both
    algorithms produce identical triangles anyway.

    ``body3d`` is the cleaned OPEN exterior ring (n >= 3)."""
    uv = project_ring(body3d, axis)
    u, v = uv[:, 0], uv[:, 1]
    un, vn = np.roll(u, -1), np.roll(v, -1)
    area2 = float(np.sum(u * vn - un * v))
    if area2 == 0.0:
        return None
    if area2 < 0:
        body3d = body3d[::-1]
        uv = uv[::-1]
        u, v = uv[:, 0], uv[:, 1]
        un, vn = np.roll(u, -1), np.roll(v, -1)
    up, vp = np.roll(u, 1), np.roll(v, 1)
    tc = (u - up) * (vn - v) - (v - vp) * (un - u)
    if not np.all(tc > _FAN_EPS):
        return None
    fu, fv = u - u[-1], v - v[-1]
    g = fu[:-1] * fv[1:] - fu[1:] * fv[:-1]
    if len(g) > 1:
        g = g[:-1]  # last entry is the degenerate (n-2, n-1) pair
    if not np.all(g > _FAN_EPS):
        return None
    n = len(u)
    tris = np.empty((n - 2, 3, 3), dtype=np.float64)
    tris[:, 0] = body3d[n - 1]
    tris[:, 1] = body3d[0 : n - 2]
    tris[:, 2] = body3d[1 : n - 1]
    tris[-1] = body3d[[n - 3, n - 2, n - 1]]
    return tris


def triangulate_polygon(
    exterior: np.ndarray,
    interiors: list[np.ndarray] | None = None,
    cfg: EngineConfig = DEFAULT_CONFIG,
) -> np.ndarray:
    """Full 3-D polygon triangulation (the C1 kernel,
    polygon3dmodule.py:551-716): clean rings → Newell normal → projection
    axis (XY / XZ / YZ) → 2-D ear clip with hole bridging → lift back to 3-D
    → orient every triangle's winding to the parent normal
    (polygon3dmodule.py:707-715). Ear clipping adds no Steiner points, so
    the lift is an exact lookup of the original 3-D vertices. Failures
    return an empty array (silent-empty parity, polygon3dmodule.py:679-687).

    Returns (T, 3, 3) float64.
    """
    dec = cfg.vertex_round_decimals
    return triangulate_clean(
        clean_ring(exterior, dec), [clean_ring(h, dec) for h in interiors or []], cfg
    )


def triangulate_clean(
    ext: np.ndarray, holes: list[np.ndarray], cfg: EngineConfig = DEFAULT_CONFIG
) -> np.ndarray:
    """``triangulate_polygon`` of rings that are already ``clean_ring``
    output (the Triangulator's fallback takes its exteriors from the
    flat-ring kernel)."""
    try:
        if len(ext) < 4:
            return np.zeros((0, 3, 3))
        normal = newell_normal(ext)
        if not normal.any():
            return np.zeros((0, 3, 3))
        axis = projection_axis(normal, ext, cfg)
        holes3d = [h for h in holes if len(h) >= 4]

        if not holes3d:
            fan = convex_fan(ext[:-1], axis)
            if fan is not None:
                tri_n = np.cross(fan[:, 1] - fan[:, 0], fan[:, 2] - fan[:, 0])
                flip = tri_n @ normal < 0
                fan[flip] = fan[flip][:, ::-1, :]
                return fan

        # map each projected 2-D vertex back to its 3-D original
        all3d = [ext[:-1]] + [h[:-1] for h in holes3d]
        all2d = [project_ring(r, axis) for r in all3d]
        lookup3d = np.vstack(all3d)
        lookup2d = np.vstack(all2d)

        tris2d = triangulate_2d(all2d[0], all2d[1:])
        if len(tris2d) == 0:
            return np.zeros((0, 3, 3))

        flat2d = tris2d.reshape(-1, 2)
        # exact nearest-vertex lift (ear clipping reuses input vertices)
        d2 = np.sum((flat2d[:, None, :] - lookup2d[None, :, :]) ** 2, axis=2)
        nearest = np.argmin(d2, axis=1)
        tris3d = lookup3d[nearest].reshape(-1, 3, 3)

        # orient windings to the parent Newell normal (polygon3dmodule.py:707-715)
        tri_n = np.cross(tris3d[:, 1] - tris3d[:, 0], tris3d[:, 2] - tris3d[:, 0])
        flip = tri_n @ normal < 0
        tris3d[flip] = tris3d[flip][:, ::-1, :]
        return tris3d
    except Exception:
        return np.zeros((0, 3, 3))  # silent-empty parity (polygon3dmodule.py:679-687)


# ---------------------------------------------------------------------------
# bbox / bucketize / hashing helpers
# ---------------------------------------------------------------------------


def buffered_bbox(points: np.ndarray, buffer: float = DEFAULT_CONFIG.bbox_buffer) -> np.ndarray:
    """Axis-aligned bbox of a point set expanded by ``buffer`` on every side
    (componentseparationmodule.py:63-121 — README says 2 m, code says 3 m;
    we follow the code). Returns [xmin,ymin,zmin,xmax,ymax,zmax]."""
    pts = np.asarray(points, dtype=np.float64)
    lo = pts.min(axis=0) - buffer
    hi = pts.max(axis=0) + buffer
    return np.concatenate([lo, hi])


def bbox_corner_points(bbox: np.ndarray) -> np.ndarray:
    """8 corner points of a 3-D bbox (componentseparationmodule.py:110-121)."""
    xmin, ymin, zmin, xmax, ymax, zmax = bbox
    return np.array(
        [
            [x, y, z]
            for x in (xmin, xmax)
            for y in (ymin, ymax)
            for z in (zmin, zmax)
        ]
    )


def mtl_bucketize(
    values: np.ndarray, vmin: float, vmax: float, bins: int = 101
) -> np.ndarray:
    """Normalize into [0,1] and snap to the nearest of ``bins`` levels
    (CityGML2OBJs.py:383-411: round(norm*100)/100 → 101 materials)."""
    v = np.asarray(values, dtype=np.float64)
    span = vmax - vmin
    if span == 0:
        return np.zeros_like(v)
    norm = np.clip((v - vmin) / span, 0.0, 1.0)
    steps = bins - 1
    return np.round(norm * steps) / steps


def vertex_key(
    points: np.ndarray, decimals: int = DEFAULT_CONFIG.vertex_round_decimals
) -> np.ndarray:
    """Stable string keys for exact vertex dedup (D1): rounded xyz joined —
    mirrors the reference's stringified-point membership test
    (CityGML2OBJs.py:87-96)."""
    r = np.round(np.asarray(points, dtype=np.float64), decimals) + 0.0  # fold -0.0
    return np.array(["|".join(map(repr, p)) for p in r])
