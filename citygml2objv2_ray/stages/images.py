"""Image stages: cell encode and decode/verify/clip, both run as task-pool
``map_batches`` functions (the decode stage's state lives in a per-worker
module-global cache, ``make_decode_clip_task``).

The images table has wide binary rows — decode stages run with small
``batch_size`` (EngineConfig.image_batch_size) so batch x concurrency fits
worker heaps (SURVEY.md §7.4 "wide binary rows").
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pyarrow as pa
import ray

from .. import codecs
from ..config import DEFAULT_CONFIG, EngineConfig
from ..synth import grid_cell

# world units covered by one image pixel (tile ground resolution)
PIXEL_SIZE = 0.25


def cell_encode(batch: pa.Table, cfg: EngineConfig = DEFAULT_CONFIG) -> pa.Table:
    """Add the int64 grid cell of each image centroid (the H3/S2-encode
    analog) — a pure vectorized projection."""
    cell = grid_cell(
        np.asarray(batch["cx"], dtype=np.float64),
        np.asarray(batch["cy"], dtype=np.float64),
        cfg.cell_size,
    )
    return batch.append_column("cell", pa.array(cell, pa.int64()))


class DecodeVerify:
    """Decode stage with an LRU decoded-tile cache (held per worker process
    inside ``DecodeClip``).

    Per row: decode ``bytes`` per ``fmt``, recompute the perceptual hash and
    compare to the ``phash`` column (the in-pipeline form of the per-row
    decoded-pixel invariant — exact for png; the fake-lossy codec decodes
    to its quantized raster deterministically so the stored phash matches
    bit-for-bit), and emit mean intensity features. Drops the heavy
    ``bytes`` column from its output.
    """

    def __init__(self, cfg: EngineConfig = DEFAULT_CONFIG, cache_size: int = 256):
        self.cfg = cfg
        self.cache: OrderedDict[str, np.ndarray] = OrderedDict()
        self.cache_size = cache_size
        self.hits = 0
        self.misses = 0

    def _decode(self, image_id: str, data, fmt: str) -> np.ndarray:
        rgb = self.cache.get(image_id)
        if rgb is not None:
            self.cache.move_to_end(image_id)
            self.hits += 1
            return rgb
        self.misses += 1
        rgb = codecs.decode_image(data, fmt)
        self.cache[image_id] = rgb
        if len(self.cache) > self.cache_size:
            self.cache.popitem(last=False)
        return rgb

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..arrow_utils import binary_views

        n = batch.num_rows
        ids = batch["image_id"].to_pylist()
        fmts = batch["fmt"].to_pylist()
        blobs = binary_views(batch["bytes"])  # zero-copy views, no bytes copies
        phash = np.asarray(batch["phash"])
        ok = np.zeros(n, dtype=bool)
        mean_i = np.zeros(n, dtype=np.float64)
        for i in range(n):
            try:
                rgb = self._decode(ids[i], blobs[i], fmts[i])
            except (ValueError, NotImplementedError):
                continue
            ok[i] = codecs.phash64(rgb) == int(phash[i])
            mean_i[i] = float(rgb.mean())
        out = batch.drop_columns(["bytes"])
        return out.append_column("pixel_ok", pa.array(ok)).append_column(
            "mean_intensity", pa.array(mean_i)
        )


class RasterClip:
    """Raster↔vector clip (SURVEY.md §2.F): for each image assigned to a
    building, rasterize the building's triangulated roof faces over the
    image's ground extent and emit pixel coverage + masked mean intensity.

    The per-building 2-D triangle arrays are broadcast once (``ray.put`` on
    the driver) and fetched per actor in ``__init__`` — never per batch.
    Unassigned images pass through with coverage 0.
    """

    def __init__(self, tri2d_ref, cfg: EngineConfig = DEFAULT_CONFIG):
        self.tri2d: dict[str, np.ndarray] = (
            ray.get(tri2d_ref) if isinstance(tri2d_ref, ray.ObjectRef) else tri2d_ref
        )
        self.cfg = cfg
        self._edges: dict = {}  # building_id → edge_entry (worker lifetime)

    def _entry(self, bid):
        e = self._edges.get(bid)
        if e is None:
            tris = self.tri2d.get(bid)
            e = self._edges[bid] = (
                edge_entry(tris) if tris is not None and len(tris) else False
            )
        return e

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cov = np.zeros(n, dtype=np.float64)
        masked = np.full(n, np.nan, dtype=np.float64)
        bids = batch["building_id"].to_pylist()
        cx = np.asarray(batch["cx"], dtype=np.float64)
        cy = np.asarray(batch["cy"], dtype=np.float64)
        w = np.asarray(batch["w"], dtype=np.int64)
        h = np.asarray(batch["h"], dtype=np.int64)
        mean_i = (
            np.asarray(batch["mean_intensity"], dtype=np.float64)
            if "mean_intensity" in batch.column_names
            else np.zeros(n)
        )
        for i in range(n):
            bid = bids[i]
            if bid is None:
                continue
            entry = self._entry(bid)
            if entry is False:
                continue
            # pixel-center grid of the tile's ground extent
            half_w = w[i] * PIXEL_SIZE / 2
            half_h = h[i] * PIXEL_SIZE / 2
            xs = cx[i] - half_w + (np.arange(w[i]) + 0.5) * PIXEL_SIZE
            ys = cy[i] - half_h + (np.arange(h[i]) + 0.5) * PIXEL_SIZE
            cov[i] = float(_coverage_mask_entry(xs, ys, entry).mean())
            if cov[i] > 0:
                masked[i] = mean_i[i]  # proxy: per-pixel values not retained here
        return batch.append_column("roof_coverage", pa.array(cov)).append_column(
            "masked_mean", pa.array(masked)
        )


class DecodeClip:
    """Truly fused decode + verify + raster↔vector clip: each tile is
    decoded ONCE; the phash invariant, mean intensity, roof coverage AND
    the masked mean over the ACTUAL pixels inside the clipped faces all
    come from that single decode (the separate RasterClip stage only sees
    aggregate features; fusing gives the real per-pixel masked statistics
    the north star's raster↔vector clip calls for)."""

    def __init__(self, tri2d_ref, cfg: EngineConfig = DEFAULT_CONFIG, cache_size: int = 256):
        self.decode = DecodeVerify(cfg, cache_size)
        self.tri2d: dict[str, np.ndarray] = (
            ray.get(tri2d_ref) if isinstance(tri2d_ref, ray.ObjectRef) else tri2d_ref
        )
        self.cfg = cfg
        self._edges: dict = {}  # building_id → edge_entry (worker lifetime)

    def _entry(self, bid):
        e = self._edges.get(bid)
        if e is None:
            tris = self.tri2d.get(bid)
            e = self._edges[bid] = (
                edge_entry(tris) if tris is not None and len(tris) else False
            )
        return e

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .. import codecs

        from ..arrow_utils import binary_views

        n = batch.num_rows
        ids = batch["image_id"].to_pylist()
        fmts = batch["fmt"].to_pylist()
        blobs = binary_views(batch["bytes"])  # zero-copy views, no bytes copies
        bids = batch["building_id"].to_pylist()
        phash = np.asarray(batch["phash"])
        cx = np.asarray(batch["cx"], dtype=np.float64)
        cy = np.asarray(batch["cy"], dtype=np.float64)
        ok = np.zeros(n, dtype=bool)
        mean_i = np.zeros(n, dtype=np.float64)
        cov = np.zeros(n, dtype=np.float64)
        masked = np.full(n, np.nan, dtype=np.float64)

        # decode all, then vectorize phash + mean across same-shape groups
        # (the per-image matmul/means were ~40% of this stage's CPU)
        decoded: list[np.ndarray | None] = [None] * n
        for i in range(n):
            try:
                decoded[i] = self.decode._decode(ids[i], blobs[i], fmts[i])
            except (ValueError, NotImplementedError):
                continue
        by_shape: dict[tuple, list[int]] = {}
        for i, rgb in enumerate(decoded):
            if rgb is not None:
                by_shape.setdefault(rgb.shape, []).append(i)
        for shape, idxs in by_shape.items():
            stack = np.stack([decoded[i] for i in idxs])
            if shape[0] % 8 == 0 and shape[1] % 8 == 0:
                # float32 fast path + exact float64 fallback on the (rare)
                # mismatches — verification stays exact, bandwidth drops 4x
                hashes = codecs.phash64_batch_f32(stack)
                mism = np.flatnonzero(hashes != phash[idxs])
                for m in mism:
                    hashes[m] = codecs.phash64(decoded[idxs[m]])
            else:
                hashes = np.array([codecs.phash64(decoded[i]) for i in idxs])
            ok[idxs] = hashes == phash[idxs]
            mean_i[idxs] = stack.mean(axis=(1, 2, 3))
        # group the clip by BUILDING: all images of one building share the
        # edge matrix, so their bbox-pruned pixel grids concatenate into a
        # single f32 GEMM (+ shared f64 border re-test) instead of one
        # GEMM dispatch per image (VERDICT r3 item 7 — the stage's last
        # per-row Python hot loop)
        by_bid: dict = {}
        for i in range(n):
            if decoded[i] is None or bids[i] is None:
                continue
            if self._entry(bids[i]) is not False:
                by_bid.setdefault(bids[i], []).append(i)
        for bid, idxs in by_bid.items():
            entry = self._edges[bid]
            pts_blocks, metas = [], []
            for i in idxs:
                rgb = decoded[i]
                h_px, w_px = rgb.shape[0], rgb.shape[1]
                half_w = w_px * PIXEL_SIZE / 2
                half_h = h_px * PIXEL_SIZE / 2
                xs = cx[i] - half_w + (np.arange(w_px) + 0.5) * PIXEL_SIZE
                ys = cy[i] - half_h + (np.arange(h_px) + 0.5) * PIXEL_SIZE
                pts, mx, my = _grid_points(xs, ys, entry)
                pts_blocks.append(pts)
                metas.append((i, mx, my, h_px, w_px))
            insides = _inside_any_multi(pts_blocks, entry)
            for (i, mx, my, h_px, w_px), inside in zip(metas, insides):
                mask = np.zeros((h_px, w_px), dtype=bool)
                if len(inside):
                    mask[np.ix_(my, mx)] = inside.reshape(
                        int(my.sum()), int(mx.sum())
                    )
                cov[i] = float(mask.mean())
                if mask.any():
                    masked[i] = float(decoded[i][mask].mean())  # TRUE masked mean
        out = batch.drop_columns(["bytes"])
        return (
            out.append_column("pixel_ok", pa.array(ok))
            .append_column("mean_intensity", pa.array(mean_i))
            .append_column("roof_coverage", pa.array(cov))
            .append_column("masked_mean", pa.array(masked))
        )


class Resize:
    """Decode → resize (area/block mean for downscale, nearest for upscale)
    → re-encode stage. Emits resized bytes + new dims; heavy binary rows →
    small batches (brief: decode / feature-extract / RESIZE / frame-sample
    as map_batches stages)."""

    def __init__(self, target: int = 32, cfg: EngineConfig = DEFAULT_CONFIG):
        self.target = target
        self.cfg = cfg

    @staticmethod
    def _resize(rgb: np.ndarray, t: int) -> np.ndarray:
        h, w, _ = rgb.shape
        if h == t and w == t:
            return rgb
        if h >= t and w >= t and h % t == 0 and w % t == 0:
            # exact block-mean downscale
            return (
                rgb.reshape(t, h // t, t, w // t, 3).mean(axis=(1, 3)).astype(np.uint8)
            )
        yi = (np.arange(t) * h // t).clip(0, h - 1)
        xi = (np.arange(t) * w // t).clip(0, w - 1)
        return rgb[yi][:, xi]

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .. import codecs

        from ..arrow_utils import binary_views

        out_bytes, out_w, out_h = [], [], []
        blobs = binary_views(batch["bytes"])
        fmts = batch["fmt"].to_pylist()
        for blob, fmt in zip(blobs, fmts):
            rgb = codecs.decode_image(blob, fmt)
            small = self._resize(rgb, self.target)
            out_bytes.append(codecs.encode_image(small, fmt))
            out_h.append(small.shape[0])
            out_w.append(small.shape[1])
        i = batch.column_names.index("bytes")
        batch = batch.set_column(i, "bytes", pa.array(out_bytes, pa.binary()))
        batch = batch.set_column(batch.column_names.index("w"), "w", pa.array(out_w, pa.int32()))
        batch = batch.set_column(batch.column_names.index("h"), "h", pa.array(out_h, pa.int32()))
        return batch


_WORKER_CACHE: dict = {}


def make_decode_clip_task(tri2d_ref, cfg: EngineConfig = DEFAULT_CONFIG):
    """Stateless task-pool form of DecodeClip: the roof-triangle dict is
    fetched once per worker process (module-global cache). Task pools beat
    actor pools here — state is a cheap broadcast lookup, so elastic
    scheduling and zero pool-ramp outweigh actor-state amortization."""
    key = ("dc", tri2d_ref.hex() if hasattr(tri2d_ref, "hex") else id(tri2d_ref))

    def decode_clip_task(batch: pa.Table) -> pa.Table:
        dc = _WORKER_CACHE.get(key)
        if dc is None:
            dc = _WORKER_CACHE[key] = DecodeClip(tri2d_ref, cfg)
        return dc(batch)

    return decode_clip_task


def _coverage(xs: np.ndarray, ys: np.ndarray, tris: np.ndarray) -> float:
    """Fraction of the pixel grid covered by any triangle."""
    return float(_coverage_mask(xs, ys, tris).mean())


def edge_entry(tris: np.ndarray):
    """Precompute the per-building edge-function form of a (T, 3, 2)
    triangle set: one float32 coefficient matrix E (3, 3T) such that
    ``[px, py, 1] @ E`` gives all 3 edge functions of all T triangles in a
    single GEMM. Coordinates are CENTERED on the triangle bbox first so
    float32 keeps ~1e-4 absolute precision at the pixel scale (raw UTM-like
    magnitudes would push float32 eps past the 0.25-unit pixel spacing).

    Reused across every image of the building (cached per worker in the
    clip stages) — the naive broadcast version re-derived these per image
    and burned ~9 full (pixels × triangles) float64 passes; this is one
    float32 GEMM + two reductions, the measured memory-bandwidth hot spot
    of the fused decode stage."""
    lo = tris.min(axis=(0, 1))
    hi = tris.max(axis=(0, 1))
    center = (lo + hi) / 2.0
    t = (tris - center).astype(np.float64)
    a, b, c = t[:, 0], t[:, 1], t[:, 2]  # (T,2) each
    T = len(t)
    E = np.empty((3, 3 * T), dtype=np.float64)
    for k, (p, q) in enumerate(((a, b), (b, c), (c, a))):
        # d = (px - q0)*(p1 - q1) - (p0 - q0)*(py - q1)
        A = p[:, 1] - q[:, 1]
        B = -(p[:, 0] - q[:, 0])
        C = -q[:, 0] * A - B * q[:, 1]
        E[0, k::3] = A
        E[1, k::3] = B
        E[2, k::3] = C
    # keep the exact f64 coefficients alongside the GEMM-fast f32 copy:
    # borderline pixels are re-tested in f64 (see _coverage_mask_entry)
    return E.astype(np.float32), center.astype(np.float64), lo, hi, T, E


# f32 edge values carry ~1e-4 absolute error at these (centered) coordinate
# magnitudes; anything inside this band gets an exact f64 re-test so the
# inclusion decision never depends on f32 rounding (or BLAS config)
_F32_EDGE_TOL = 1e-2


def _inside_any_multi(pt_blocks: list, entry) -> list:
    """Point-in-any-triangle test for SEVERAL point sets sharing one
    ``edge_entry`` (all images of one building): the sets concatenate into
    ONE f32 GEMM + border f64 re-test, then split back — the per-image
    GEMM dispatch loop this replaces was the flagship clip stage's
    remaining per-row Python (VERDICT r3 item 7). Each block is a
    (P_i, 2) float64 array of CENTERED pixel coordinates; returns one
    (P_i,) bool array per block."""
    E, center, lo, hi, T, E64 = entry
    sizes = [len(p) for p in pt_blocks]
    P = int(sum(sizes))
    if P == 0:
        return [np.zeros(0, dtype=bool) for _ in pt_blocks]
    pts = pt_blocks[0] if len(pt_blocks) == 1 else np.concatenate(pt_blocks)
    inside_any = np.empty(P, dtype=bool)
    # slab the GEMM so the (slab, 3T) edge matrix + its reduction
    # temporaries stay cache-resident: one unchunked pass over a
    # many-image building was measured memory-bandwidth-BOUND (the D
    # matrix spills to RAM and each .any() streams it back), 1.5x slower
    # than per-image dispatch; ~2 MB slabs beat both
    slab = max(1024, (1 << 19) // max(3 * T, 1))  # ≈0.5M f32 elements
    for s0 in range(0, P, slab):
        s1 = min(P, s0 + slab)
        hom = np.empty((s1 - s0, 3), dtype=np.float32)
        hom[:, :2] = pts[s0:s1]
        hom[:, 2] = 1.0
        D = (hom @ E).reshape(s1 - s0, T, 3)
        neg = (D < 0).any(axis=2)
        pos = (D > 0).any(axis=2)
        inside_any[s0:s1] = (~(neg & pos)).any(axis=1)
        border = np.flatnonzero((np.abs(D) < _F32_EDGE_TOL).any(axis=(1, 2)))
        if len(border):
            hom64 = np.empty((len(border), 3), dtype=np.float64)
            hom64[:, :2] = pts[s0:s1][border]
            hom64[:, 2] = 1.0
            D64 = (hom64 @ E64).reshape(len(border), T, 3)
            neg64 = (D64 < 0).any(axis=2)
            pos64 = (D64 > 0).any(axis=2)
            inside_any[s0 + border] = (~(neg64 & pos64)).any(axis=1)
    out = []
    off = 0
    for s in sizes:
        out.append(inside_any[off : off + s])
        off += s
    return out


def _grid_points(xs: np.ndarray, ys: np.ndarray, entry):
    """Bbox-pruned, centered pixel-center point set of one image grid:
    returns (points (P,2) f64, mx, my) — ``P`` may be 0 when the grid
    misses the building bbox entirely."""
    _, center, lo, hi, _, _ = entry
    mx = (xs >= lo[0]) & (xs <= hi[0])
    my = (ys >= lo[1]) & (ys <= hi[1])
    if not mx.any() or not my.any():
        return np.zeros((0, 2), dtype=np.float64), mx, my
    gx, gy = np.meshgrid((xs[mx] - center[0]), (ys[my] - center[1]))
    pts = np.empty((gx.size, 2), dtype=np.float64)
    pts[:, 0] = gx.ravel()
    pts[:, 1] = gy.ravel()
    return pts, mx, my


def _coverage_mask_entry(xs: np.ndarray, ys: np.ndarray, entry) -> np.ndarray:
    """(len(ys), len(xs)) bool mask of pixel centers covered by any
    triangle, from a precomputed ``edge_entry``. The bulk test is one f32
    GEMM; pixels with any edge value inside ``_F32_EDGE_TOL`` are re-tested
    in f64, making the mask exact (ADVICE r2: borderline pixels could flip
    inclusion vs a f64 test)."""
    full = np.zeros((len(ys), len(xs)), dtype=bool)
    pts, mx, my = _grid_points(xs, ys, entry)
    if not len(pts):
        return full
    inside_any = _inside_any_multi([pts], entry)[0]
    sub = inside_any.reshape(int(my.sum()), int(mx.sum()))
    full[np.ix_(my, mx)] = sub
    return full


def _coverage_mask(xs: np.ndarray, ys: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Uncached form (tests / one-off callers)."""
    return _coverage_mask_entry(xs, ys, edge_entry(tris))
