"""Image stages: cell encode and decode/verify/clip, both called from the
flagship's fused task-pool ``map_batches`` function (each worker process
builds one decode stage from the broadcast roof triangles,
``make_decode_clip_task``).

The raster↔vector clip is the row-interval kernel ``_clip_masks``: per
pixel row, each roof triangle's covered column range comes from its three
edge functions, the ranges are unioned, and only pixels in a thin band
along the edges are re-tested with the exact f64 edge test.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pyarrow as pa

from .. import codecs
from ..config import DEFAULT_CONFIG, EngineConfig
from ..ops import Broadcast
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
    """Image decode per ``fmt``, held per worker process inside
    ``DecodeClip``. Every ``image_id`` is decoded once per job, so nothing
    is cached: ``misses`` counts decodes and ``hits`` stays 0."""

    def __init__(self):
        self.hits = 0
        self.misses = 0

    def decode(self, data, fmt: str) -> np.ndarray:
        self.misses += 1
        return codecs.decode_image(data, fmt)


class DecodeClip:
    """Fused decode + verify + raster↔vector clip: each tile is decoded
    ONCE; the phash invariant, mean intensity, roof coverage AND the masked
    mean over the ACTUAL pixels inside the clipped faces all come from that
    single decode. The clip runs per (image shape, building) group through
    ``_clip_masks``; unassigned images keep coverage 0."""

    def __init__(self, tri2d: dict[str, np.ndarray], cfg: EngineConfig = DEFAULT_CONFIG):
        self.decode = DecodeVerify()
        self.tri2d = tri2d
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
        from ..arrow_utils import binary_views

        n = batch.num_rows
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
                decoded[i] = self.decode.decode(blobs[i], fmts[i])
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
            # integer channel sums: exact, so the means below equal the
            # float means over the same pixels bit for bit
            chs = stack[..., 0].astype(np.uint16) + stack[..., 1] + stack[..., 2]
            n_px = shape[0] * shape[1]
            mean_i[idxs] = chs.sum(axis=(1, 2)) / (3 * n_px)
            # clip per building: its images of this shape share one
            # row-interval pass
            by_bid: dict = {}
            for j, i in enumerate(idxs):
                if bids[i] is not None and self._entry(bids[i]) is not False:
                    by_bid.setdefault(bids[i], []).append(j)
            h_px, w_px = shape[0], shape[1]
            rows = np.asarray(idxs)
            xgrid = (np.arange(w_px) + 0.5) * PIXEL_SIZE
            ygrid = (np.arange(h_px) + 0.5) * PIXEL_SIZE
            for bid, js in by_bid.items():
                ii = rows[js]
                xs = cx[ii, None] - w_px * PIXEL_SIZE / 2 + xgrid
                ys = cy[ii, None] - h_px * PIXEL_SIZE / 2 + ygrid
                mask = _clip_masks(self._edges[bid], xs, ys)
                n_in = mask.sum(axis=(1, 2))
                cov[ii] = n_in / n_px
                hit = n_in > 0
                total = (chs[js] * mask).sum(axis=(1, 2))
                masked[ii[hit]] = total[hit] / (3 * n_in[hit])
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


def make_decode_clip_task(tri2d: dict[str, np.ndarray], cfg: EngineConfig = DEFAULT_CONFIG):
    """Task-pool form of DecodeClip: the roof-triangle dict is broadcast
    once, and each worker process builds one ``DecodeClip`` (its edge
    cache) from it. Task pools beat actor pools here — state is a cheap
    broadcast lookup, so elastic scheduling and zero pool-ramp outweigh
    actor-state amortization."""
    clip = Broadcast("decode_clip", tri2d, build=lambda t: DecodeClip(t, cfg))
    return lambda batch: clip.get()(batch)


class _Edges(NamedTuple):
    """Edge-function form of one building's (T, 3, 2) roof triangles,
    centred on their bbox. ``E`` (3, 3T) holds the exact f64 coefficients:
    ``[x, y, 1] @ E`` gives edge ``k`` of triangle ``t`` in column
    ``3t + k``. ``A``/``B``/``C`` (3, T) are the same values, edge-major,
    with each triangle's sign flipped so that its area is not negative."""

    E: np.ndarray
    center: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray


# Edge values within this band of zero are re-tested exactly. The row
# intervals carry f64 rounding of about 1e-16 x (bbox size)^2, many orders
# of magnitude below it for any building, so a pixel outside the band keeps
# the sign the exact test ``[x, y, 1] @ E`` gives it.
_EDGE_TOL = 1e-2


def edge_entry(tris: np.ndarray) -> _Edges:
    """Edge form of a (T, 3, 2) triangle set, reused across every image of
    the building (cached per worker in ``DecodeClip``). Coordinates are
    centred on the triangle bbox first."""
    lo = tris.min(axis=(0, 1))
    hi = tris.max(axis=(0, 1))
    center = (lo + hi) / 2.0
    t = (tris - center).astype(np.float64)
    p = t  # edge k runs from vertex k to vertex k + 1
    q = t[:, [1, 2, 0]]
    # d = (px - q0)*(p1 - q1) - (p0 - q0)*(py - q1)
    A = p[..., 1] - q[..., 1]
    B = -(p[..., 0] - q[..., 0])
    C = -q[..., 0] * A - B * q[..., 1]
    E = np.stack([A.ravel(), B.ravel(), C.ravel()])
    # a triangle's three C's sum to twice its signed area, and so do its
    # three edge values at any pixel. Flipped to a non-negative area, a
    # pixel with one value < -tol has another > 0 and is outside, whatever
    # the area (zero included); a pixel inside has all three > -tol.
    sign = np.where(C.sum(axis=1) > 0, 1.0, -1.0)[:, None]
    return _Edges(E, center, lo, hi, (A * sign).T, (B * sign).T, (C * sign).T)


def _row_union(start: np.ndarray, end: np.ndarray, W: int) -> np.ndarray:
    """(R, W) bool: per row, the union of the column ranges
    ``[start, end)`` (R, K). A column is covered when the furthest end among
    the ranges starting at or before it lies past it."""
    dt = np.min_scalar_type(W)
    reach = np.zeros((start.shape[0], W + 1), dtype=dt)
    at = (np.arange(start.shape[0]) * (W + 1))[:, None] + start
    np.maximum.at(reach.ravel(), at.ravel(), end.ravel().astype(dt))
    return np.maximum.accumulate(reach, axis=1)[:, :W] > np.arange(W, dtype=dt)


def _clip_masks(entry: _Edges, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """(n, H, W) bool masks of the pixel centres covered by any triangle of
    ``entry``, for n images with centres ``xs`` (n, W), evenly spaced and
    increasing, and ``ys`` (n, H). Only pixels inside the triangle bbox
    are tested.

    Row-interval (scanline) clip: in each pixel row, each oriented
    triangle certainly covers the column range where its three edge values
    are all >= tol, and may cover the wider range where all are >= -tol.
    The union of the certain ranges is the mask; the columns of the wider
    ranges outside it (a thin band along the edges) are re-tested exactly
    with the point-in-any-triangle test ``[x, y, 1] @ E``. The mask equals
    that test on every pixel, at O(rows x T) interval work plus O(band)
    exact work."""
    E, center, lo, hi, A, B, C = entry
    n, W = xs.shape
    H = ys.shape[1]
    T = A.shape[1]
    out = np.zeros((n, H, W), dtype=bool)
    # the bbox columns of an image are one range, as xs increases
    jx0 = (xs < lo[0]).sum(axis=1)[:, None]
    jx1 = np.maximum((xs <= hi[0]).sum(axis=1)[:, None], jx0)
    row_out = (ys < lo[1]) | (ys > hi[1])
    xc = xs - center[0]
    yc = ys - center[1]
    # column u of an image lies at xc[:, :1] + u * step; the arrays below
    # are (edge, triangle, image, row)
    step = (xc[:, -1:] - xc[:, :1]) / max(W - 1, 1)
    A4, B4, C4 = (v[:, :, None, None] for v in (A, B, C))
    # images per slab: keeps the (3, T, m, H) temporaries near 2 MB
    m = max(1, (1 << 21) // (H * A.size * 8))
    for s0 in range(0, n, m):
        sl = slice(s0, min(n, s0 + m))
        slope = A4 * step[sl]
        base = B4 * yc[sl] + C4 + A4 * xc[sl, :1]
        # edge k is 0 at column u0 = -base / slope and +-tol at u0 +- du: a
        # lower bound on u where the slope is positive, an upper one where
        # it is negative; a zero slope holds on all or none of a row
        flat = slope == 0
        run = np.where(flat, 1.0, slope)
        u0 = -base / run
        du = _EDGE_TOL / np.abs(run)
        rise = np.where(slope > 0, u0, -np.inf)
        fall = np.where(slope < 0, u0, np.inf)
        b_min = np.where(flat, base, np.inf).min(axis=0)
        ranges = []
        for sgn in (1.0, -1.0):  # the certain (>= tol) and possible (>= -tol) range
            u_lo = (rise + sgn * du).max(axis=0)
            u_hi = (fall - sgn * du).min(axis=0)
            u_lo[b_min < sgn * _EDGE_TOL] = np.inf
            start = np.clip(np.ceil(u_lo), jx0[sl], jx1[sl])
            end = np.clip(np.floor(u_hi) + 1, start, jx1[sl])
            end[:, row_out[sl]] = 0
            # (row, triangle) layout for the union
            start = start.astype(np.int64).reshape(T, -1).T
            ranges += [start, np.maximum(end.astype(np.int64).reshape(T, -1).T, start)]
        ps, pe = ranges[2:]
        cs = np.clip(ranges[0], ps, pe)  # certain range within the possible one
        ce = np.clip(ranges[1], cs, pe)
        mask = _row_union(cs, ce, W)
        # the band: columns of [ps, cs) and [ce, pe) outside the mask
        start = np.concatenate([ps, ce]).ravel()
        size = np.concatenate([cs - ps, pe - ce]).ravel()
        row = np.tile(np.repeat(np.arange(len(ps)) * W, T), 2)
        band = np.repeat(row + start - (np.cumsum(size) - size), size) + np.arange(size.sum())
        band = np.unique(band[~mask.ravel()[band]])
        if len(band):
            rr, jj = np.divmod(band, W)
            ii, rr = np.divmod(rr, H)
            hom = np.empty((len(band), 3), dtype=np.float64)
            hom[:, 0] = xc[sl][ii, jj]
            hom[:, 1] = yc[sl][ii, rr]
            hom[:, 2] = 1.0
            D = (hom @ E).reshape(len(band), T, 3)
            mask.ravel()[band] = (~((D < 0).any(axis=2) & (D > 0).any(axis=2))).any(axis=1)
        out[sl] = mask.reshape(-1, H, W)
    return out


