"""Image codecs — pure Python/NumPy/zlib; no PIL in this environment.

The north rule treats images as opaque ``binary`` columns with typed
metadata and requires per-row invariants: decoded-pixel allclose (exact for
lossless, PSNR >= 40 dB for lossy) and caption equality
(``BASELINE.json:input_hint``).

- ``png``: a real, spec-conformant minimal PNG codec (8-bit RGB, zlib
  DEFLATE, filters 0-4 on decode, filter 0 on encode). Lossless.
- ``jpeg``: a clearly-marked DETERMINISTIC FAKE lossy codec (per the build
  brief: real JPEG needs libjpeg, absent here). It quantizes each channel to
  steps of 4 (worst-case RMSE 4/sqrt(12) ≈ 1.15 → PSNR ≈ 46.9 dB >= 40) and
  stores the quantized raster in a PNG container tagged ``fmt="jpeg"``. The
  Ray-side plumbing (schema, batch sizing, actor signature) is real and
  tested; swap ``encode_image``/``decode_image`` for libjpeg bindings in a
  full deployment.

Also: a deterministic 64-bit perceptual hash (8x8 block-mean) used for the
``phash`` column and hamming-distance near-dup.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

_PNG_SIG = b"\x89PNG\r\n\x1a\n"
FAKE_JPEG_QUANT = 4  # channel quantization step of the fake lossy codec


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def png_encode(rgb: np.ndarray) -> bytes:
    """Encode an (H, W, 3) uint8 array as a minimal RGB8 PNG."""
    arr = np.ascontiguousarray(rgb, dtype=np.uint8)
    h, w, c = arr.shape
    assert c == 3, "RGB only"
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    # filter byte 0 per scanline
    raw = np.empty((h, 1 + w * 3), dtype=np.uint8)
    raw[:, 0] = 0
    raw[:, 1:] = arr.reshape(h, w * 3)
    idat = zlib.compress(raw.tobytes(), 6)
    return _PNG_SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


def _unfilter(raw: np.ndarray, h: int, stride: int, bpp: int) -> np.ndarray:
    """PNG scanline unfiltering (filters 0-4)."""
    rows = raw.reshape(h, stride + 1)
    if not rows[:, 0].any():  # all filter-0 scanlines (our encoder's output)
        return np.ascontiguousarray(rows[:, 1:])
    out = np.zeros((h, stride), dtype=np.uint8)
    for y in range(h):
        ft = rows[y, 0]
        line = rows[y, 1:].astype(np.int32)
        prev = out[y - 1].astype(np.int32) if y > 0 else np.zeros(stride, np.int32)
        if ft == 0:
            out[y] = line
        elif ft == 2:  # Up
            out[y] = (line + prev) & 0xFF
        elif ft in (1, 3, 4):  # Sub / Average / Paeth need sequential left
            cur = np.zeros(stride, np.int32)
            for x in range(stride):
                a = cur[x - bpp] if x >= bpp else 0
                b = prev[x]
                cc = prev[x - bpp] if x >= bpp else 0
                if ft == 1:
                    cur[x] = (line[x] + a) & 0xFF
                elif ft == 3:
                    cur[x] = (line[x] + ((a + b) >> 1)) & 0xFF
                else:
                    p = a + b - cc
                    pa_, pb_, pc_ = abs(p - a), abs(p - b), abs(p - cc)
                    pred = a if (pa_ <= pb_ and pa_ <= pc_) else (b if pb_ <= pc_ else cc)
                    cur[x] = (line[x] + pred) & 0xFF
            out[y] = cur
        else:
            raise ValueError(f"bad PNG filter {ft}")
    return out


def png_decode(data) -> np.ndarray:
    """Decode a minimal RGB8 PNG back to (H, W, 3) uint8.

    Accepts any bytes-like object — in the pipeline this is a zero-copy
    ``memoryview`` into the Arrow data buffer (``arrow_utils.binary_views``),
    so the blob is never copied into a Python ``bytes``."""
    data = memoryview(data)
    if bytes(data[:8]) != _PNG_SIG:
        raise ValueError("not a PNG")
    pos, w = 8, None
    idat_parts: list = []
    while pos < len(data):
        (ln,) = struct.unpack(">I", data[pos : pos + 4])
        tag = bytes(data[pos + 4 : pos + 8])
        payload = data[pos + 8 : pos + 8 + ln]
        pos += 12 + ln
        if tag == b"IHDR":
            w, h, depth, ctype, _, _, interlace = struct.unpack(">IIBBBBB", payload)
            if depth != 8 or ctype != 2 or interlace != 0:
                raise ValueError("only 8-bit RGB non-interlaced supported")
        elif tag == b"IDAT":
            idat_parts.append(payload)
        elif tag == b"IEND":
            break
    idat = idat_parts[0] if len(idat_parts) == 1 else b"".join(idat_parts)
    raw = np.frombuffer(zlib.decompress(idat), dtype=np.uint8)
    stride = w * 3
    return _unfilter(raw, h, stride, 3).reshape(h, w, 3)


def encode_image(rgb: np.ndarray, fmt: str) -> bytes:
    if fmt == "png":
        return png_encode(rgb)
    if fmt == "jpeg":
        q = FAKE_JPEG_QUANT
        quant = (np.round(rgb.astype(np.float64) / q) * q).clip(0, 255).astype(np.uint8)
        return png_encode(quant)
    raise NotImplementedError(f"codec for fmt={fmt!r} not available in this container")


def decode_image(data, fmt: str) -> np.ndarray:
    if fmt in ("png", "jpeg"):
        return png_decode(data)
    raise NotImplementedError(f"codec for fmt={fmt!r} not available in this container")


def block_mean_8x8(gray: np.ndarray) -> np.ndarray:
    """Resize to 8x8 by block averaging (works for any H, W >= 8)."""
    h, w = gray.shape
    if h % 8 == 0 and w % 8 == 0:  # vectorized fast path (hot in the pipeline)
        return gray.reshape(8, h // 8, 8, w // 8).mean(axis=(1, 3))
    ys = (np.arange(9) * h) // 8
    xs = (np.arange(9) * w) // 8
    out = np.empty((8, 8), dtype=np.float64)
    for i in range(8):
        for j in range(8):
            out[i, j] = gray[ys[i] : ys[i + 1], xs[j] : xs[j + 1]].mean()
    return out


def phash64(rgb: np.ndarray) -> int:
    """Deterministic 64-bit perceptual hash: grayscale → 8x8 block means →
    bit = mean_cell > global mean. Signed int64 (two's complement) so it fits
    the ``phash: int64`` column."""
    gray = rgb.astype(np.float64) @ np.array([0.299, 0.587, 0.114])
    cells = block_mean_8x8(gray).ravel()
    bits = cells > cells.mean()
    v = 0
    for b in bits:
        v = (v << 1) | int(b)
    if v >= 1 << 63:
        v -= 1 << 64
    return v


def phash64_batch_f32(rgbs: np.ndarray) -> np.ndarray:
    """float32 phash64 over a stack — ~4x less memory traffic than the
    float64 form (which materializes an 8x-amplified copy of the uint8
    stack). NOT guaranteed bit-identical when a block mean sits within
    float32 rounding of the global mean: callers verifying against a
    stored float64 phash must fall back to ``phash64`` on mismatches (the
    mismatch set = true corruptions ∪ rare float32 flips, so the fallback
    keeps verification exact)."""
    n, h, w, _ = rgbs.shape
    gray = (
        rgbs[..., 0].astype(np.float32) * np.float32(0.299)
        + rgbs[..., 1].astype(np.float32) * np.float32(0.587)
        + rgbs[..., 2].astype(np.float32) * np.float32(0.114)
    )
    cells = gray.reshape(n, 8, h // 8, 8, w // 8).mean(axis=(2, 4), dtype=np.float64)
    cells = cells.reshape(n, 64)
    bits = cells > cells.mean(axis=1, keepdims=True)
    weights = (np.uint64(1) << np.arange(63, -1, -1, dtype=np.uint64))
    v = (bits.astype(np.uint64) * weights[None, :]).sum(axis=1)
    return v.view(np.int64)


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized hamming distance between int64 phash arrays (same shape or
    broadcastable)."""
    x = np.ascontiguousarray(np.asarray(a, dtype=np.int64) ^ np.asarray(b, dtype=np.int64))
    as_bytes = x[..., None].view(np.uint8)  # (..., 8)
    return np.unpackbits(as_bytes, axis=-1).sum(axis=-1).astype(np.int64)
