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
  SETS and summed areas, not triangle order — SURVEY.md §7.4), batched
  over every polygon of a call (``triangulate_flat``)
- winding orientation fix            (polygon3dmodule.py:416-439,707-715)
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


# ---------------------------------------------------------------------------
# triangulation (C1): one batched kernel over flat rings
# ---------------------------------------------------------------------------


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


_FAN_EPS = 1e-6  # strict-convexity margin, far above the ear clip's 1e-12/1e-14
_EAR_EPS = 1e-14  # an ear's turn cross must exceed this
_IN_EPS = 1e-12  # point-in-ear margin: a point on an ear's edge blocks it
_CORNER_D2 = 1e-24  # a point this close to an ear corner does not block it
_CHUNK = 4  # ear / bridge candidates tested per polygon per step
_PAIRS = 1 << 15  # (candidate, point) pairs per slab: ~2 MB of f64 temporaries
_UCOL, _VCOL = np.array([0, 0, 1]), np.array([1, 2, 2])  # by AXIS_XY / XZ / YZ
_NONE = np.iinfo(np.int64).max


def _offsets(counts: np.ndarray) -> np.ndarray:
    off = np.zeros(len(counts) + 1, np.int64)
    np.cumsum(counts, out=off[1:])
    return off


def _expand(counts: np.ndarray):
    """Segment, and position within it, of every item of consecutive
    segments of ``counts`` items."""
    counts = np.asarray(counts, np.int64)
    seg = np.repeat(np.arange(len(counts)), counts)
    return seg, np.arange(len(seg)) - (np.cumsum(counts) - counts)[seg]


def take_segments(off: np.ndarray, rows: np.ndarray):
    """Flat indices of segments ``rows`` of an array with segment offsets
    ``off``, and the offsets of the taken segments."""
    n = off[1:][rows] - off[:-1][rows]
    seg, pos = _expand(n)
    return off[:-1][rows][seg] + pos, _offsets(n)


def _seg_first(hit: np.ndarray, key: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Per non-empty segment, ``key`` of its first ``hit`` item (``_NONE``
    when there is none)."""
    return np.minimum.reduceat(np.where(hit, key, _NONE), off[:-1])


def _seg_sum(vals: np.ndarray, off: np.ndarray) -> np.ndarray:
    """``np.sum`` of every segment, bit-equal to summing the slice alone:
    numpy adds pairwise from 8 terms on, which a row of a same-length
    matrix reproduces and ``np.bincount`` does not."""
    n = np.diff(off)
    out = np.zeros(len(n))
    for L in np.unique(n[n > 0]):
        rows = np.flatnonzero(n == L)
        out[rows] = vals[off[:-1][rows][:, None] + np.arange(L)].sum(axis=1)
    return out


def _ring_area2d(x: np.ndarray, y: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Signed shoelace area of every open ring ``x/y[off[i]:off[i+1]]``."""
    seg, pos = _expand(np.diff(off))
    i = np.arange(len(x))
    nx = np.where(pos + 1 < np.diff(off)[seg], i + 1, off[:-1][seg])
    return 0.5 * _seg_sum(x * y[nx] - x[nx] * y, off)


def _pip(qx, qy, qr, rx, ry, roff) -> np.ndarray:
    """``point_in_ring_2d`` of each query point against ring ``qr`` of the
    flat rings ``rx/ry[roff[i]:roff[i+1]]``."""
    first = roff[:-1]
    n = np.diff(roff)
    last = np.maximum(roff[1:] - 1, 0)
    n = n - ((n > 1) & (rx[last] == rx[first]) & (ry[last] == ry[first]))
    out = np.zeros(len(qx), bool)
    step = max(1, _PAIRS // max(int(n.max(initial=1)), 1))
    for q0 in range(0, len(qx), step):
        q1 = min(q0 + step, len(qx))
        q, e = _expand(n[qr[q0:q1]])
        r = qr[q0 + q]
        i1 = first[r] + e
        i2 = first[r] + (e + 1) % n[r]
        x1, y1, x2, y2 = rx[i1], ry[i1], rx[i2], ry[i2]
        x, y = qx[q0 + q], qy[q0 + q]
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        crossing = ((y1 > y) != (y2 > y)) & (x < xint)
        out[q0:q1] = np.bincount(q, crossing, q1 - q0) % 2 == 1
    return out


def _bridge(lx, ly, P, poff, H, hoff, hpoly):
    """Splice every hole into its polygon's outer ring (the eliminate-hole
    construction of mapbox-earcut): the hole's first max-x vertex is joined
    to the nearest ring vertex whose bridge midpoint lies inside the ring
    and outside the hole (else to the nearest), and the hole is spliced in
    after that vertex with both bridge ends repeated.

    ``P``/``poff`` are the CCW outer rings and ``H``/``hoff`` the CW holes,
    as indices into the coordinates ``lx``/``ly``; hole h belongs to ring
    ``hpoly[h]``. A ring takes its holes by descending max x, ties in input
    order, and round r bridges the r-th hole of every ring. Candidates are
    tried ``_CHUNK`` at a time in ``np.argsort`` order of their squared
    distance, ties included: rings of one length are argsorted together,
    row by row. Returns the merged rings ``(P, poff)``."""
    hx, hy = lx[H], ly[H]
    hseg, hpos = _expand(np.diff(hoff))
    mx = np.maximum.reduceat(hx, hoff[:-1])
    hi = _seg_first(hx == mx[hseg], hpos, hoff)
    order = np.lexsort((-mx, hpoly))
    sp = hpoly[order]
    rank = np.arange(len(order)) - np.searchsorted(sp, sp)
    for r in range(int(rank.max(initial=-1)) + 1):
        h = order[rank == r]
        p = hpoly[h]
        hv = H[hoff[:-1][h] + hi[h]]
        bx, by = lx[hv], ly[hv]
        g, goff = take_segments(poff, p)
        m = np.diff(goff)
        px, py = lx[P[g]], ly[P[g]]
        seg, _ = _expand(m)
        d2 = (px - bx[seg]) ** 2 + (py - by[seg]) ** 2
        cand = np.empty(len(g), np.int64)
        for L in np.unique(m):
            at = goff[:-1][m == L][:, None] + np.arange(L)
            cand[at] = np.argsort(d2[at], axis=1)
        bj = cand[goff[:-1]]
        act, c0 = np.arange(len(p)), 0
        while len(act):
            cnt = np.minimum(m[act] - c0, _CHUNK)
            cs, t = _expand(cnt)
            q = act[cs]
            j = goff[:-1][q] + cand[goff[:-1][q] + c0 + t]
            midx, midy = (px[j] + bx[q]) / 2.0, (py[j] + by[q]) / 2.0
            ok = _pip(midx, midy, q, px, py, goff) & ~_pip(midx, midy, h[q], hx, hy, hoff)
            k = _seg_first(ok, c0 + t, _offsets(cnt))
            hit = k < _NONE
            bj[act[hit]] = cand[goff[:-1][act[hit]] + k[hit]]
            c0 += _CHUNK
            act = act[~hit & (m[act] > c0)]
        # ring p becomes P[:bj+1], the hole from its bridge vertex round to
        # that vertex again, P[bj], P[bj+1:]
        n = np.diff(poff)
        b, nh, hs, hb = n.copy(), np.zeros_like(n), np.zeros_like(n), np.zeros_like(n)
        b[p], nh[p], hs[p], hb[p] = bj, np.diff(hoff)[h], hoff[:-1][h], hi[h]
        grow = np.where(b < n, nh + 2, 0)
        seg, t = _expand(n + grow)
        bs, ks = b[seg], nh[seg]
        ring = (t > bs) & (t <= bs + ks + 1)
        src = np.where(t <= bs, t, np.where(t == bs + ks + 2, bs, t - ks - 2))
        new = P[poff[:-1][seg] + np.where(ring, 0, src)]
        s = seg[ring]
        new[ring] = H[hs[s] + (hb[s] + t[ring] - bs[ring] - 1) % ks[ring]]
        P, poff = new, _offsets(n + grow)
    return P, poff


def _ears(x, y, R, m, k):
    """The ears at positions ``k`` of rings ``R`` (row i holds ``m[i]``
    point indices, then padding): whether k is on the ring, the corner
    coordinates ``(ax, ay, bx, by, cx, cy)`` and the turn cross."""
    on = k < m
    k = np.minimum(k, m - 1)
    r = np.arange(len(R))[:, None]
    a, b, c = R[r, (k - 1) % m], R[r, k], R[r, (k + 1) % m]
    ax, ay, bx, by, cx, cy = x[a], y[a], x[b], y[b], x[c], y[c]
    return on, (ax, ay, bx, by, cx, cy), (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _ear_blocked(px, py, m, ax, ay, bx, by, cx, cy) -> np.ndarray:
    """For each candidate ear with corners ``a``/``b``/``c`` on a ring
    whose ``m`` points are ``px/py[i, :m]``: does any ring point that is not
    a corner lie in the ear, edges included? The ear's own three points
    are corners, so excluding corners excludes them too."""
    out = np.empty(len(m), bool)
    j = np.arange(px.shape[1])
    step = max(1, _PAIRS // max(px.shape[1], 1))
    for lo in range(0, len(m), step):
        s = slice(lo, lo + step)
        qx, qy = px[s], py[s]
        ax_, ay_, bx_, by_ = ax[s, None], ay[s, None], bx[s, None], by[s, None]
        cx_, cy_ = cx[s, None], cy[s, None]
        pax, pay, pbx, pby, pcx, pcy = qx - ax_, qy - ay_, qx - bx_, qy - by_, qx - cx_, qy - cy_
        corner = (
            (pax**2 + pay**2 < _CORNER_D2)
            | (pbx**2 + pby**2 < _CORNER_D2)
            | (pcx**2 + pcy**2 < _CORNER_D2)
        )
        d1 = pbx * (ay_ - by_) - (ax_ - bx_) * pby
        d2 = pcx * (by_ - cy_) - (bx_ - cx_) * pcy
        d3 = pax * (cy_ - ay_) - (cx_ - ax_) * pay
        neg = (d1 < -_IN_EPS) | (d2 < -_IN_EPS) | (d3 < -_IN_EPS)
        pos = (d1 > _IN_EPS) | (d2 > _IN_EPS) | (d3 > _IN_EPS)
        out[s] = ((j < m[s, None]) & ~corner & ~(neg & pos)).any(axis=1)
    return out


def _cross(x, y, a, b, c) -> np.ndarray:
    return (x[b] - x[a]) * (y[c] - y[a]) - (y[b] - y[a]) * (x[c] - x[a])


def _earclip(x: np.ndarray, y: np.ndarray, off: np.ndarray):
    """Ear clip every simple CCW open ring ``x/y[off[i]:off[i+1]]``.

    Each round, every live ring of m > 3 points clips its first valid ear
    in ring order: the ear at the k-th remaining point, between its
    remaining neighbours, turning by more than ``_EAR_EPS`` and holding no
    other remaining point off its corners. Candidates are tested
    ``_CHUNK`` at a time, so a round costs O(chunk * m) per ring. A ring
    with no valid ear (collinear runs) drops the point of its ear that
    turns most (the first such), emitting that ear only if it turns by
    more than ``_EAR_EPS``;
    a ring whose every turn is NaN stops. A ring of 3 points emits its
    last triangle if it turns by more than ``_EAR_EPS``, and a ring given
    with 3 points emits it as is. The 2n² round cap is the reference
    implementation's loop guard.

    Rings run as rows of a padded (rings, points) index matrix, sorted by
    size and cut into groups of at most ``_PAIRS * 8`` cells. Returns
    ``(ring, i0, i1, i2)``: point indices of every ear, each ring's ears
    in clipping order."""
    n = np.diff(off)
    three = np.flatnonzero(n == 3)
    ears = [(three, off[three], off[three] + 1, off[three] + 2)]
    big = np.flatnonzero(n > 3)
    big = big[np.argsort(-n[big], kind="stable")]
    while len(big):
        cut = max(1, _PAIRS * 8 // int(n[big[0]]))
        ears += _earclip_group(x, y, off, big[:cut])
        big = big[cut:]
    ring, i0, i1, i2 = (np.concatenate(col) for col in zip(*ears))
    o = np.argsort(ring, kind="stable")
    return ring[o], i0[o], i1[o], i2[o]


def _earclip_group(x, y, off, live):
    """``_earclip``'s rounds for the rings ``live`` (4+ points each), as
    rows of one padded index matrix; returns their ears, round by round."""
    ears = []
    m = np.diff(off)[live]
    cap = 2 * m * m
    col = np.arange(m.max())
    V = np.where(col < m[:, None], off[:-1][live][:, None] + col, 0)
    chunk = np.arange(_CHUNK)
    rounds = 0
    while len(live):
        end = m == 3
        if end.any():
            a, b, c = V[end, 0], V[end, 1], V[end, 2]
            last = _cross(x, y, a, b, c) > _EAR_EPS
            ears.append((live[end][last], a[last], b[last], c[last]))
        go = (m > 3) & (rounds < cap)
        if not go.all():
            live, m, cap, V = live[go], m[go], cap[go], V[go]
            if not len(live):
                break
        found = np.full(len(live), -1)
        act, c0 = np.arange(len(live)), 0
        while len(act):
            R, ma = V[act], m[act][:, None]
            on, corners, cross = _ears(x, y, R, ma, c0 + chunk)
            ok = on & (cross > _EAR_EPS)
            ci, cj = np.nonzero(ok)
            ok[ci, cj] = ~_ear_blocked(
                x[R[ci]], y[R[ci]], ma[ci, 0], *(v[ci, cj] for v in corners)
            )
            hit = ok.any(axis=1)
            found[act[hit]] = c0 + ok.argmax(axis=1)[hit]
            c0 += _CHUNK
            act = act[~hit & (m[act] > c0)]
        kd, emit = found, found >= 0
        stuck = np.flatnonzero(found < 0)
        if len(stuck):
            # no valid ear: drop the point of the ear that turns most, the
            # first such in ring order, emitting it only if it turns enough
            on, _, cross = _ears(x, y, V[stuck], m[stuck][:, None], col[: V.shape[1]])
            cr = np.where(on & ~np.isnan(cross), cross, -np.inf)
            j = cr.argmax(axis=1)
            top = cr[np.arange(len(stuck)), j]
            kd[stuck] = np.where(top > -np.inf, j, -1)
            emit[stuck] = top > _EAR_EPS
        alive = kd >= 0
        e = np.flatnonzero(emit)
        k, me = kd[e], m[e]
        ears.append((live[e], V[e, (k - 1) % me], V[e, k], V[e, (k + 1) % me]))
        V, kd = V[alive], kd[alive]
        V = np.where(col[: V.shape[1] - 1] < kd[:, None], V[:, :-1], V[:, 1:])
        live, m, cap = live[alive], m[alive] - 1, cap[alive]
        rounds += 1
    return ears


def triangulate_flat(body, boff, normal, axis, hbody, hoff, hrow_off):
    """Triangulate R polygons given as flat rings (the C1 kernel,
    polygon3dmodule.py:551-716). Polygon i's cleaned open exterior is
    ``body[boff[i]:boff[i+1]]`` (3+ points, unit normal ``normal[i]``, 2-D
    projection ``axis[i]``); its holes are rings ``hrow_off[i]`` to
    ``hrow_off[i+1]`` of the cleaned open rings ``hbody[hoff[j]:hoff[j+1]]``,
    and holes of under 3 points are ignored.

    A strictly convex polygon with no hole is fanned around its last
    vertex: that is its ear clip, since the first ear is always valid
    there, and every turn and fan-triangle cross must clear ``_FAN_EPS``,
    10^6 above the ear clip's own margins. Every other polygon is ear
    clipped as a batch: exterior and holes are projected, a closing point
    equal to the first is dropped, the exterior wound CCW and the holes CW
    (signed areas summed as ``np.sum`` does), holes of 3+ points bridged in
    (``_bridge``) and the merged rings clipped (``_earclip``). Ear clipping
    adds no point, so each 2-D corner lifts to the first input vertex that
    projects onto it. Every triangle is then wound to the normal
    (polygon3dmodule.py:707-715).

    Returns ``(row, tris)``: the polygon of each triangle and (T,3,3)
    triangles, rows ascending, each row's triangles in emission order."""
    R = len(boff) - 1
    if R == 0:
        return np.zeros(0, np.int64), np.zeros((0, 3, 3))
    bn = np.diff(boff)
    brow, pos = _expand(bn)
    first, last = boff[:-1][brow], boff[1:][brow] - 1
    idx = np.arange(len(body))
    nxt = np.where(idx < last, idx + 1, first)
    prv = np.where(idx > first, idx - 1, last)
    u = body[idx, _UCOL[axis[brow]]]
    v = body[idx, _VCOL[axis[brow]]]
    hn = np.diff(hoff)
    hrow = np.repeat(np.arange(R), np.diff(hrow_off))
    kept = np.flatnonzero(hn >= 3)

    # ---- strict-convexity gate in CCW space, fan around the last vertex
    area2 = np.bincount(brow, u * v[nxt] - u[nxt] * v, R)
    perm = np.where(area2[brow] < 0, first + last - idx, idx)
    uw, vw = u[perm], v[perm]
    tc = (uw - uw[prv]) * (vw[nxt] - vw) - (vw - vw[prv]) * (uw[nxt] - uw)
    fu, fv = uw - uw[last], vw - vw[last]
    g = fu * fv[nxt] - fu[nxt] * fv
    gate = np.minimum.reduceat(np.where(pos <= bn[brow] - 3, np.minimum(tc, g), tc), boff[:-1])
    fan = (np.bincount(hrow[kept], minlength=R) == 0) & (area2 != 0.0) & (gate > _FAN_EPS)
    trow, tk = _expand(np.where(fan, bn - 2, 0))
    base, n = boff[:-1][trow], bn[trow]
    lastm = tk == n - 3
    i0 = base + np.where(lastm, n - 3, n - 1)
    i1 = base + np.where(lastm, n - 2, tk)
    i2 = base + np.where(lastm, n - 1, tk + 1)
    w3 = body[perm]
    rows, tris = [trow], [np.stack([w3[i0], w3[i1], w3[i2]], axis=1)]

    # ---- ear clip: lookup = each polygon's exterior, then its holes
    ec = np.flatnonzero(~fan)
    if len(ec):
        r, t = _earclip_polygons(body, boff, axis, hbody, hoff, hrow, kept, ec)
        rows.append(r)
        tris.append(t)
    row = np.concatenate(rows)
    o = np.argsort(row, kind="stable")
    row, tris = row[o], np.concatenate(tris)[o]
    tn = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
    flip = np.einsum("ij,ij->i", tn, normal[row]) < 0
    tris[flip] = tris[flip][:, ::-1, :]
    return row, tris


def _earclip_polygons(body, boff, axis, hbody, hoff, hrow, kept, ec):
    """``triangulate_flat``'s rows ``ec``, ear clipped with their ``kept``
    holes: returns (row, (T,3,3) triangles before the winding fix)."""
    E = len(ec)
    loc = np.full(len(boff) - 1, -1)
    loc[ec] = np.arange(E)
    en, hsz, hr = np.diff(boff)[ec], np.diff(hoff)[kept], loc[hrow[kept]]
    loff = _offsets(en + np.bincount(hr, hsz, E).astype(np.int64))
    within = np.cumsum(hsz) - hsz
    within -= within[np.searchsorted(hr, hr)]
    hstart = loff[:-1][hr] + en[hr] + within
    L3 = np.empty((loff[-1], 3))
    seg, t = _expand(en)
    L3[loff[:-1][seg] + t] = body[take_segments(boff, ec)[0]]
    seg, t = _expand(hsz)
    L3[hstart[seg] + t] = hbody[take_segments(hoff, kept)[0]]
    lrow, _ = _expand(np.diff(loff))
    lax = axis[ec][lrow]
    li = np.arange(len(L3))
    lu, lv = L3[li, _UCOL[lax]], L3[li, _VCOL[lax]]

    def ring(start, n, ccw):
        """Rings of ``n`` lookup points from ``start``, closing point equal
        to the first dropped, reversed where their signed area's sign is
        not ``ccw``'s."""
        e = start + n - 1
        n = n - ((n > 1) & (lu[e] == lu[start]) & (lv[e] == lv[start]))
        seg, t = _expand(n)
        roff = _offsets(n)
        a = _ring_area2d(lu[start[seg] + t], lv[start[seg] + t], roff)
        rev = (a < 0) if ccw else (a > 0)
        return start[seg] + np.where(rev[seg], n[seg] - 1 - t, t), n

    P, pn = ring(loff[:-1], en, True)
    H, qn = ring(hstart, hsz, False)
    ok = pn >= 3
    P, poff = P[take_segments(_offsets(pn), np.flatnonzero(ok))[0]], _offsets(pn[ok])
    rid = np.cumsum(ok) - 1  # ear-clip row -> ring
    hk = np.flatnonzero((qn >= 3) & ok[hr])
    H, hoff2 = H[take_segments(_offsets(qn), hk)[0]], _offsets(qn[hk])
    if len(hk):
        P, poff = _bridge(lu, lv, P, poff, H, hoff2, rid[hr[hk]])
    rr, i0, i1, i2 = _earclip(lu[P], lv[P], poff)
    # lift: the first lookup point of the polygon with equal 2-D coordinates
    o = np.lexsort((lv, lu, lrow))
    new = np.ones(len(o), bool)
    new[1:] = (lrow[o][1:] != lrow[o][:-1]) | (lu[o][1:] != lu[o][:-1]) | (lv[o][1:] != lv[o][:-1])
    canon = np.empty(len(o), np.int64)
    canon[o] = o[new][np.cumsum(new) - 1]
    tri = L3[canon[P[np.stack([i0, i1, i2], axis=1)]]]
    return ec[np.flatnonzero(ok)[rr]], tri


# ---------------------------------------------------------------------------
# bucketize / hashing helpers
# ---------------------------------------------------------------------------


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
