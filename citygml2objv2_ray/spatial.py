"""Spatial index + join kernels (SURVEY.md §2.F — new design, not in the
reference; generalizes its centroids (polygon3dmodule.py:338-358), bboxes
(componentseparationmodule.py:63-121) and per-building grouping
(CityGML2OBJs.py:613-770) into a broadcastable cell-sharded index).

No shapely/h3 in this environment, so:

- **cell encode**: int64 grid cell ``(ix << 32) | iy`` of a point at a fixed
  resolution (``EngineConfig.cell_size``) — the H3/S2 stand-in;
- **FootprintIndex**: per-cell buckets of footprint candidates (a footprint
  registers in every cell its bbox overlaps — the STRtree-shard analog),
  vectorized bbox prefilter + ray-cast point-in-polygon;
- **kNN**: expanding-ring search over cell buckets, exact top-k by centroid
  distance with a correct ring-bound termination.

The index is built once on the small side and broadcast once
(``ops.Broadcast``); each worker process builds one spatial join from it —
the big side never shuffles (partition-vs-broadcast, SURVEY.md §4.2).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .config import DEFAULT_CONFIG, EngineConfig
from .dedup import splitmix64
from .geom import point_in_ring_2d
from .synth import grid_cell


def part_of_cell(cell: np.ndarray, n_parts: int) -> np.ndarray:
    """Output partition id of a cell: splitmix64 mix so adjacent
    cells spread across partitions. Shared by the data layout (hive
    partition dirs of the images table) and the engine (resume pruning),
    so completed partitions can be pruned at the READ."""
    z = splitmix64(np.asarray(cell, dtype=np.int64).astype(np.uint64))
    return (z % np.uint64(n_parts)).astype(np.int64)


def cell_xy(cell: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of ``grid_cell``: int64 cell → (ix, iy)."""
    c = np.asarray(cell, dtype=np.int64)
    ix = c >> 32
    iy = (c & 0xFFFFFFFF).astype(np.int64)
    # sign-extend iy (stored as low 32 bits)
    iy = np.where(iy >= 1 << 31, iy - (1 << 32), iy)
    return ix, iy


def make_cell(ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
    return (np.asarray(ix, np.int64) << 32) | (np.asarray(iy, np.int64) & 0xFFFFFFFF)


class FootprintIndex:
    """Broadcastable spatial index over the footprint table.

    Holds plain numpy arrays (cheap to serialize through the object store):
    bbox columns, centroid columns, ragged ring coordinates, and a
    cell → candidate-indices map covering each footprint's bbox.
    """

    def __init__(self, footprints: pa.Table, cfg: EngineConfig = DEFAULT_CONFIG):
        self.cfg = cfg
        self.building_id = np.asarray(footprints["building_id"])
        self.xmin = np.asarray(footprints["xmin"], dtype=np.float64)
        self.ymin = np.asarray(footprints["ymin"], dtype=np.float64)
        self.xmax = np.asarray(footprints["xmax"], dtype=np.float64)
        self.ymax = np.asarray(footprints["ymax"], dtype=np.float64)
        self.ccx = (self.xmin + self.xmax) / 2
        self.ccy = (self.ymin + self.ymax) / 2
        rings = footprints["footprint"].to_pylist()
        self.rings = [np.asarray(r, dtype=np.float64) for r in rings]

        cs = cfg.cell_size
        cell_map: dict[int, list[int]] = {}
        for i in range(len(self.building_id)):
            ix0, ix1 = int(self.xmin[i] // cs), int(self.xmax[i] // cs)
            iy0, iy1 = int(self.ymin[i] // cs), int(self.ymax[i] // cs)
            for ix in range(ix0, ix1 + 1):
                for iy in range(iy0, iy1 + 1):
                    cell_map.setdefault(int(make_cell(ix, iy)), []).append(i)
        self.cell_map = {c: np.asarray(v, dtype=np.int64) for c, v in cell_map.items()}
        # per-cell kNN candidate cache: cell → (candidates, ring_reached).
        # Query cells repeat heavily across batches, and the Python
        # ring-gather was the measured per-row hot spot at small batches.
        self._knn_cache: dict[tuple[int, int], tuple[np.ndarray, int]] = {}

    # -- point-in-polygon assignment -------------------------------------

    def assign(self, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
        """For each point, the index of the first footprint (ascending
        footprint index, deterministic) containing it, or -1.

        Vectorized per (cell, candidate): points are grouped by cell, then
        each candidate ring is tested against all of the cell's points at
        once with the ray-cast kernel.
        """
        cx = np.asarray(cx, dtype=np.float64)
        cy = np.asarray(cy, dtype=np.float64)
        out = np.full(len(cx), -1, dtype=np.int64)
        cells = grid_cell(cx, cy, self.cfg.cell_size)
        order = np.argsort(cells, kind="stable")
        sorted_cells = cells[order]
        bounds = np.flatnonzero(np.diff(sorted_cells)) + 1
        starts = np.concatenate([[0], bounds])
        ends = np.concatenate([bounds, [len(cells)]])
        for s, e in zip(starts, ends):
            cand = self.cell_map.get(int(sorted_cells[s]))
            if cand is None:
                continue
            idx = order[s:e]
            px, py = cx[idx], cy[idx]
            unresolved = np.ones(len(idx), dtype=bool)
            for fi in cand:  # ascending index → deterministic first-match
                if not unresolved.any():
                    break
                u = np.flatnonzero(unresolved)
                inb = (
                    (px[u] >= self.xmin[fi])
                    & (px[u] <= self.xmax[fi])
                    & (py[u] >= self.ymin[fi])
                    & (py[u] <= self.ymax[fi])
                )
                if not inb.any():
                    continue
                cand_pts = np.column_stack([px[u[inb]], py[u[inb]]])
                inside = point_in_ring_2d(cand_pts, self.rings[fi])
                hit = u[inb][inside]
                out[idx[hit]] = fi
                unresolved[hit] = False
        return out

    # -- bbox range join ---------------------------------------------------

    def range_join(self, cx: np.ndarray, cy: np.ndarray, buffer: float = 0.0):
        """One-to-many bbox range join (C3 generalized, SURVEY §2.F): for
        each point, ALL footprints whose bbox (expanded by ``buffer``)
        contains it. Returns (point_idx, footprint_idx) int64 arrays.
        Candidates come from the cell buckets of the point's cell and, when
        ``buffer`` > 0, the neighbouring ring covering the buffer."""
        cx = np.asarray(cx, dtype=np.float64)
        cy = np.asarray(cy, dtype=np.float64)
        cs = self.cfg.cell_size
        ring = int(np.ceil(buffer / cs))
        cells = grid_cell(cx, cy, cs)
        order = np.argsort(cells, kind="stable")
        sorted_cells = cells[order]
        bounds = np.flatnonzero(np.diff(sorted_cells)) + 1
        starts = np.concatenate([[0], bounds])
        ends = np.concatenate([bounds, [len(cells)]])
        out_p: list[np.ndarray] = []
        out_f: list[np.ndarray] = []
        for s, e in zip(starts, ends):
            c = int(sorted_cells[s])
            ixa, iya = cell_xy(np.array([c]))
            ix0, iy0 = int(ixa[0]), int(iya[0])
            cand_lists = [
                self.cell_map.get(((ix0 + dx) << 32) | ((iy0 + dy) & 0xFFFFFFFF))
                for dx in range(-ring, ring + 1)
                for dy in range(-ring, ring + 1)
            ]
            cand_lists = [cl for cl in cand_lists if cl is not None]
            if not cand_lists:
                continue
            cand = np.unique(np.concatenate(cand_lists))
            idx = order[s:e]
            px, py = cx[idx][:, None], cy[idx][:, None]
            hit = (
                (px >= self.xmin[cand][None, :] - buffer)
                & (px <= self.xmax[cand][None, :] + buffer)
                & (py >= self.ymin[cand][None, :] - buffer)
                & (py <= self.ymax[cand][None, :] + buffer)
            )
            pi, fi = np.nonzero(hit)
            out_p.append(idx[pi])
            out_f.append(cand[fi])
        if not out_p:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        return np.concatenate(out_p), np.concatenate(out_f)

    # -- k nearest neighbours --------------------------------------------

    def _gather_candidates(self, cell: int, k: int) -> tuple[np.ndarray, int]:
        """Gather candidate footprints in expanding rings around ``cell``
        until the result is exact for ANY query point inside the cell:
        candidates within rings 0..r0 lie within (r0+1)*cs*sqrt(2) of every
        cell point, and unvisited candidates beyond ring r lie at least
        r*cs away — so gathering to r >= (r0+1)*sqrt(2) makes the top-k
        point-independent (cacheable per cell)."""
        ix0a, iy0a = cell_xy(np.array([cell]))
        ix0, iy0 = int(ix0a[0]), int(iy0a[0])
        gathered: list[np.ndarray] = []
        r0 = None
        r = 0
        max_r = self.cfg.knn_max_ring
        while r <= max_r:
            if r == 0:
                ring_cells = [(ix0, iy0)]
            else:
                ring_cells = [(ix0 + dx, iy0 - r) for dx in range(-r, r + 1)]
                ring_cells += [(ix0 + dx, iy0 + r) for dx in range(-r, r + 1)]
                ring_cells += [(ix0 - r, iy0 + dy) for dy in range(-r + 1, r)]
                ring_cells += [(ix0 + r, iy0 + dy) for dy in range(-r + 1, r)]
            for gx, gy in ring_cells:
                cand = self.cell_map.get((gx << 32) | (gy & 0xFFFFFFFF))
                if cand is not None:
                    gathered.append(cand)
            n_seen = sum(len(g) for g in gathered)
            if r0 is None and n_seen >= k:
                r0 = r
            if r0 is not None and r >= np.ceil((r0 + 1) * 1.415):
                break
            r += 1
        r = min(r, max_r)
        cand_all = (
            np.unique(np.concatenate(gathered)) if gathered else np.empty(0, np.int64)
        )
        return cand_all, r

    def knn(self, cx: np.ndarray, cy: np.ndarray, k: int | None = None):
        """Exact top-k nearest footprint centroids per point via expanding
        cell-ring search. Returns (indices (N,k) int64 padded with -1,
        distances (N,k) float64 padded with inf).

        Termination: a ring at offset r guarantees every unvisited candidate
        is at least (r-1)*cell_size away, so once we hold k candidates whose
        kth distance <= (r-1)*cell_size, the answer is exact.
        """
        k = k or self.cfg.knn_k
        cx = np.asarray(cx, dtype=np.float64)
        cy = np.asarray(cy, dtype=np.float64)
        n = len(cx)
        out_i = np.full((n, k), -1, dtype=np.int64)
        out_d = np.full((n, k), np.inf, dtype=np.float64)

        cells = grid_cell(cx, cy, self.cfg.cell_size)
        order = np.argsort(cells, kind="stable")
        sorted_cells = cells[order]
        bounds = np.flatnonzero(np.diff(sorted_cells)) + 1
        starts = np.concatenate([[0], bounds])
        ends = np.concatenate([bounds, [len(cells)]])
        cs = self.cfg.cell_size

        for s, e in zip(starts, ends):
            c = int(sorted_cells[s])
            idx = order[s:e]
            px, py = cx[idx], cy[idx]

            cached = self._knn_cache.get((c, k))
            if cached is None:
                cached = self._gather_candidates(c, k)
                self._knn_cache[(c, k)] = cached
            cand_all, r = cached
            seen = len(cand_all)
            if seen == 0:
                continue
            d = np.hypot(
                px[:, None] - self.ccx[cand_all][None, :],
                py[:, None] - self.ccy[cand_all][None, :],
            )
            if seen > k:
                # exactness check for THESE points: unvisited candidates lie
                # >= r*cs away; if some point's kth candidate is farther,
                # fall back to brute force over all footprints (rare)
                kth = np.partition(d, k - 1, axis=1)[:, k - 1]
                if not np.all(kth <= r * cs):
                    cand_all = np.arange(len(self.building_id), dtype=np.int64)
                    seen = len(cand_all)
                    d = np.hypot(
                        px[:, None] - self.ccx[None, :], py[:, None] - self.ccy[None, :]
                    )
            kk = min(k, seen)
            part = np.argpartition(d, kk - 1, axis=1)[:, :kk]
            # deterministic tie-break: candidate columns ascending BEFORE
            # the stable distance sort → exact-tie neighbours come out in
            # footprint-index (= building_id) order, matching the SQL twin
            part = np.sort(part, axis=1)
            rowd = np.take_along_axis(d, part, axis=1)
            srt = np.argsort(rowd, axis=1, kind="stable")
            part = np.take_along_axis(part, srt, axis=1)
            rowd = np.take_along_axis(rowd, srt, axis=1)
            out_i[idx, :kk] = cand_all[part]
            out_d[idx, :kk] = rowd
        return out_i, out_d


def build_index(footprints: pa.Table, cfg: EngineConfig = DEFAULT_CONFIG) -> FootprintIndex:
    return FootprintIndex(footprints, cfg)
