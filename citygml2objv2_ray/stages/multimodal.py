"""Multimodal (audio/video) stages — REAL Ray-side plumbing, gated codecs.

Codec tiers (the Ray side — schemas, batch sizing, task signatures, output
layout — is identical for all three):

1. **Always-on real format**: 16-bit PCM ``wav`` via the stdlib ``wave``
   module — a genuine container format decoded end-to-end in this sandbox.
2. **Optional real codecs**: ``mp3``/``flac``/``ogg`` via ``soundfile``
   and ``mp4``/``h264`` via ``pyav``, behind import-try shims (the same
   pattern as the Lance reader, ``sources/lance.py``) — used when the
   deployment has them, skipped-with-reason otherwise.
3. **Deterministic fakes** for tests: ``rawpcm`` (header ``b"RAWPCM"`` +
   int32 sample_rate + int16 samples) and ``rawvid`` (header ``b"RAWVID"``
   + int32 (n_frames, h, w) + uint8 RGB frames back to back).

Anything else raises a clearly-marked ``NotImplementedError``.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

_OPTIONAL: dict = {}


def soundfile_mod():
    """``soundfile`` if importable else None (import-try shim)."""
    if "sf" not in _OPTIONAL:
        try:
            import soundfile as sf  # type: ignore

            _OPTIONAL["sf"] = sf
        except Exception:
            _OPTIONAL["sf"] = None
    return _OPTIONAL["sf"]


def pyav_mod():
    """``av`` (PyAV) if importable else None (import-try shim)."""
    if "av" not in _OPTIONAL:
        try:
            import av  # type: ignore

            _OPTIONAL["av"] = av
        except Exception:
            _OPTIONAL["av"] = None
    return _OPTIONAL["av"]

AUDIO_SCHEMA = pa.schema(
    [
        ("clip_id", pa.string()),
        ("bytes", pa.binary()),
        ("fmt", pa.string()),
        ("sample_rate", pa.int32()),
        ("caption", pa.string()),
    ]
)

VIDEO_SCHEMA = pa.schema(
    [
        ("video_id", pa.string()),
        ("bytes", pa.binary()),
        ("fmt", pa.string()),
        ("n_frames", pa.int32()),
        ("w", pa.int32()),
        ("h", pa.int32()),
        ("caption", pa.string()),
    ]
)


def encode_rawpcm(samples: np.ndarray, sample_rate: int) -> bytes:
    s = np.asarray(samples, dtype=np.int16)
    return b"RAWPCM" + struct.pack("<i", sample_rate) + s.tobytes()


def encode_rawvid(frames: np.ndarray) -> bytes:
    f = np.ascontiguousarray(frames, dtype=np.uint8)
    n, h, w, _ = f.shape
    return b"RAWVID" + struct.pack("<iii", n, h, w) + f.tobytes()


def _decode_audio(data, fmt: str) -> tuple[np.ndarray, int]:
    if fmt == "rawpcm" and bytes(data[:6]) == b"RAWPCM":
        (rate,) = struct.unpack("<i", data[6:10])
        return np.frombuffer(data[10:], dtype=np.int16), rate
    if fmt == "wav":
        import io
        import wave

        with wave.open(io.BytesIO(bytes(data))) as w:
            rate = w.getframerate()
            ch = w.getnchannels()
            sw = w.getsampwidth()
            raw = w.readframes(w.getnframes())
        if sw != 2:
            raise NotImplementedError(f"wav sample width {sw} (only 16-bit PCM)")
        samples = np.frombuffer(raw, dtype=np.int16)
        if ch > 1:  # deterministic downmix
            samples = samples.reshape(-1, ch).mean(axis=1).astype(np.int16)
        return samples, rate
    sf = soundfile_mod()
    if sf is not None and fmt in ("mp3", "flac", "ogg"):
        import io

        x, rate = sf.read(io.BytesIO(bytes(data)), dtype="int16", always_2d=True)
        return x.mean(axis=1).astype(np.int16), int(rate)
    # gated: real compressed codecs need soundfile (not in this container)
    raise NotImplementedError(
        f"audio codec {fmt!r} requires soundfile/ffmpeg (not in container)"
    )


def _decode_video_frame(data, fmt: str, frame_idx: int) -> np.ndarray:
    if fmt == "rawvid" and bytes(data[:6]) == b"RAWVID":
        n, h, w = struct.unpack("<iii", data[6:18])
        if not 0 <= frame_idx < n:
            raise IndexError(f"frame {frame_idx} of {n}")
        sz = h * w * 3
        off = 18 + frame_idx * sz
        return np.frombuffer(data[off : off + sz], dtype=np.uint8).reshape(h, w, 3)
    av = pyav_mod()
    if av is not None and fmt in ("mp4", "h264", "mkv", "webm"):
        import io

        with av.open(io.BytesIO(bytes(data))) as container:
            stream = container.streams.video[0]
            for i, frame in enumerate(container.decode(stream)):
                if i == frame_idx:
                    return frame.to_ndarray(format="rgb24")
        raise IndexError(f"frame {frame_idx} past end of stream")
    # gated: real video codecs need PyAV/ffmpeg (not in this container)
    raise NotImplementedError(
        f"video codec {fmt!r} requires ffmpeg/pyav (not in container)"
    )


class AudioFeatures:
    """Actor/task stage: decode audio → loudness features. Wide binary rows
    → run with small ``batch_size``."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        from ..arrow_utils import binary_views

        rms = np.full(n, np.nan)
        dur = np.full(n, np.nan)
        ok = np.zeros(n, dtype=bool)
        blobs = binary_views(batch["bytes"])
        fmts = batch["fmt"].to_pylist()
        for i in range(n):
            try:
                samples, rate = _decode_audio(blobs[i], fmts[i])
            except NotImplementedError:
                continue
            ok[i] = True
            x = samples.astype(np.float64) / 32768.0
            rms[i] = float(np.sqrt(np.mean(x * x))) if len(x) else 0.0
            dur[i] = len(x) / rate if rate else 0.0
        return (
            batch.drop_columns(["bytes"])
            .append_column("decoded_ok", pa.array(ok))
            .append_column("rms", pa.array(rms))
            .append_column("duration_s", pa.array(dur))
        )


class FrameSampler:
    """Actor/task stage: sample ``n_sample`` evenly-spaced frames per video
    and emit per-frame mean intensity (exploded: one row per sampled
    frame)."""

    def __init__(self, n_sample: int = 3):
        self.n_sample = n_sample

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..arrow_utils import binary_views

        vids, frames, means = [], [], []
        blobs = binary_views(batch["bytes"])
        fmts = batch["fmt"].to_pylist()
        ids = batch["video_id"].to_pylist()
        nf = np.asarray(batch["n_frames"])
        for i in range(batch.num_rows):
            take = np.unique(
                np.linspace(0, max(0, int(nf[i]) - 1), self.n_sample).astype(int)
            )
            for fi in take:
                try:
                    frame = _decode_video_frame(blobs[i], fmts[i], int(fi))
                except NotImplementedError:
                    continue
                vids.append(ids[i])
                frames.append(int(fi))
                means.append(float(frame.mean()))
        return pa.table(
            {
                "video_id": pa.array(vids, pa.string()),
                "frame_idx": pa.array(frames, pa.int32()),
                "mean_intensity": pa.array(means, pa.float64()),
            }
        )
