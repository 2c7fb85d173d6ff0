"""Codec invariants: PNG lossless round-trip, fake-lossy PSNR >= 40 dB,
phash determinism (BASELINE.json:input_hint per-row invariants)."""

from __future__ import annotations

import numpy as np
import pytest

from citygml2objv2_ray import codecs


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    diff = a.astype(np.float64) - b.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(255.0 * 255.0 / mse)


def phash64_batch(rgbs: np.ndarray) -> np.ndarray:
    """Vectorized phash64 over a stack of same-shape images (N, H, W, 3)
    with H, W divisible by 8. Bit-for-bit identical to ``phash64``."""
    n, h, w, _ = rgbs.shape
    gray = rgbs.astype(np.float64) @ np.array([0.299, 0.587, 0.114])
    cells = gray.reshape(n, 8, h // 8, 8, w // 8).mean(axis=(2, 4)).reshape(n, 64)
    bits = cells > cells.mean(axis=1, keepdims=True)
    weights = (np.uint64(1) << np.arange(63, -1, -1, dtype=np.uint64))
    v = (bits.astype(np.uint64) * weights[None, :]).sum(axis=1)
    return v.view(np.int64)


def _raster(seed=0, h=48, w=40):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)


class TestPNG:
    def test_lossless_roundtrip(self):
        img = _raster()
        out = codecs.png_decode(codecs.png_encode(img))
        assert np.array_equal(img, out)

    def test_roundtrip_various_sizes(self):
        for h, w in [(8, 8), (32, 64), (17, 23)]:
            img = _raster(h * w, h, w)
            assert np.array_equal(img, codecs.png_decode(codecs.png_encode(img)))

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            codecs.png_decode(b"not a png at all")

    def test_unfilter_all_filters(self):
        # hand-build filtered scanlines for each filter type and check decode
        import struct
        import zlib

        img = _raster(7, 4, 4)
        h, w = 4, 4
        stride = w * 3
        flat = img.reshape(h, stride).astype(np.int32)
        raw = np.zeros((h, stride + 1), dtype=np.uint8)
        # row0: filter1 (Sub), row1: filter2 (Up), row2: filter3 (Avg), row3: filter4 (Paeth)
        raw[0, 0] = 1
        line = flat[0].copy()
        for x in range(stride - 1, 2, -1):
            line[x] = (line[x] - line[x - 3]) & 0xFF
        raw[0, 1:] = line
        raw[1, 0] = 2
        raw[1, 1:] = (flat[1] - flat[0]) & 0xFF
        raw[2, 0] = 3
        line = flat[2].copy()
        for x in range(stride - 1, -1, -1):
            a = flat[2][x - 3] if x >= 3 else 0
            line[x] = (flat[2][x] - ((a + flat[1][x]) >> 1)) & 0xFF
        raw[2, 1:] = line
        raw[3, 0] = 4
        line = flat[3].copy()
        for x in range(stride - 1, -1, -1):
            a = flat[3][x - 3] if x >= 3 else 0
            b = flat[2][x]
            c = flat[2][x - 3] if x >= 3 else 0
            p = a + b - c
            pa_, pb_, pc_ = abs(p - a), abs(p - b), abs(p - c)
            pred = a if (pa_ <= pb_ and pa_ <= pc_) else (b if pb_ <= pc_ else c)
            line[x] = (flat[3][x] - pred) & 0xFF
        raw[3, 1:] = line

        sig = b"\x89PNG\r\n\x1a\n"

        def chunk(tag, payload):
            return (
                struct.pack(">I", len(payload))
                + tag
                + payload
                + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
            )

        ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
        data = sig + chunk(b"IHDR", ihdr) + chunk(b"IDAT", zlib.compress(raw.tobytes())) + chunk(b"IEND", b"")
        assert np.array_equal(codecs.png_decode(data), img)


class TestLossy:
    def test_fake_jpeg_psnr_above_40(self):
        img = _raster(3, 64, 64)
        data = codecs.encode_image(img, "jpeg")
        out = codecs.decode_image(data, "jpeg")
        assert psnr(img, out) >= 40.0

    def test_unknown_fmt_raises(self):
        with pytest.raises(NotImplementedError):
            codecs.encode_image(_raster(), "webp")


class TestPhash:
    def test_deterministic(self):
        img = _raster(5, 64, 64)
        assert codecs.phash64(img) == codecs.phash64(img.copy())

    def test_robust_to_lossy(self):
        img = _raster(6, 64, 64)
        lossy = codecs.decode_image(codecs.encode_image(img, "jpeg"), "jpeg")
        d = codecs.hamming64(
            np.array([codecs.phash64(img)]), np.array([codecs.phash64(lossy)])
        )
        assert d[0] <= 4

    def test_different_images_differ(self):
        a = codecs.phash64(_raster(1, 64, 64))
        b = codecs.phash64(_raster(2, 64, 64))
        assert codecs.hamming64(np.array([a]), np.array([b]))[0] > 4

    def test_hamming_identity(self):
        v = np.array([-1, 0, 123456789], dtype=np.int64)
        assert codecs.hamming64(v, v).tolist() == [0, 0, 0]
        assert codecs.hamming64(np.array([0]), np.array([-1]))[0] == 64


class TestSynth:
    def test_city_deterministic_and_valid_mix(self):
        from citygml2objv2_ray import synth

        s1, f1 = synth.make_city(30, seed=42)
        s2, f2 = synth.make_city(30, seed=42)
        assert s1.equals(s2) and f1.equals(f2)
        valid = np.asarray(s1["truth_valid"])
        assert 0 < (~valid).sum() < len(valid) * 0.15
        assert f1.num_rows == 30

    def test_surfaces_truth_area_matches_kernel(self):
        from citygml2objv2_ray import synth
        from citygml2objv2_ray.stages.geometry import Triangulator

        s, _ = synth.make_city(10, seed=42, corruption=0.0)
        tris = Triangulator()(s).select(["poly_id", "area"]).to_pandas()
        area = tris.groupby("poly_id").area.sum().reindex(s["poly_id"].to_pylist(), fill_value=0.0)
        assert area.to_numpy() == pytest.approx(s["truth_area"].to_numpy(), rel=1e-6)

    def test_image_rows_deterministic(self):
        from citygml2objv2_ray import synth

        _, fp = synth.make_city(10, seed=42)
        t1 = synth.make_image_rows(np.arange(5), fp, seed=42)
        t2 = synth.make_image_rows(np.arange(5), fp, seed=42)
        assert t1.equals(t2)
        # per-row invariant: phash column matches recomputed hash of decoded bytes
        for row in t1.to_pylist():
            dec = codecs.decode_image(row["bytes"], row["fmt"])
            assert codecs.phash64(dec) == row["phash"]
            assert dec.shape == (row["h"], row["w"], 3)


class TestPhashBatch:
    def test_batch_matches_scalar_bit_for_bit(self):
        rng = np.random.default_rng(11)
        stack = rng.integers(0, 256, size=(32, 64, 64, 3), dtype=np.uint8)
        batch = phash64_batch(stack)
        scalar = np.array([codecs.phash64(stack[i]) for i in range(32)])
        assert np.array_equal(batch, scalar)


class TestPhashF32:
    def test_f32_matches_f64_on_fixture_rasters(self):
        """The float32 fast path must agree with the exact float64 phash on
        the synthetic rasters (any residual mismatch is handled by the
        per-image float64 fallback in DecodeClip)."""
        from citygml2objv2_ray import codecs, synth

        stack = np.stack([synth._raster(i) for i in range(64) if synth._raster(i).shape[0] == 32][:16])
        f64 = phash64_batch(stack)
        f32 = codecs.phash64_batch_f32(stack)
        assert (f64 == f32).mean() >= 0.95  # borderline cells are rare
        scalars = np.array([codecs.phash64(img) for img in stack])
        assert np.array_equal(f64, scalars)
