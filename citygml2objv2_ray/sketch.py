"""Mergeable sketches (SURVEY.md §2.F gap: the reference has exact
aggregation only; HLL adds approximate distinct counts for dedup metrics,
e.g. distinct phash at 10^12 rows).

HyperLogLog, classic Flajolet et al. formulation with linear-counting
small-range correction. The Ray pattern (per the Ray Data aggregation
guidance): one sketch per batch inside ``map_batches`` (a few KB each),
merged by elementwise register max — a shuffle of sketches, never of rows.
"""

from __future__ import annotations

import numpy as np

import ray.data as rd

from .dedup import splitmix64


def hash_values(values) -> np.ndarray:
    """Values → uint64 hashes. Ints hash via splitmix; strings via FNV-1a."""
    arr = np.asarray(values)
    if arr.dtype.kind in "iu":
        return splitmix64(arr.astype(np.int64).astype(np.uint64))
    out = np.empty(len(arr), dtype=np.uint64)
    for i, v in enumerate(arr):
        h = 1469598103934665603
        for b in str(v).encode():
            h = (h ^ b) * 1099511628211 & 0xFFFFFFFFFFFFFFFF
        out[i] = h
    # FNV-1a avalanches poorly in the HIGH bits (which HLL uses for the
    # register index) — finalize with splitmix64
    return splitmix64(out)


class HLL:
    def __init__(self, p: int = 12, registers: np.ndarray | None = None):
        self.p = p
        self.m = 1 << p
        self.registers = (
            registers.copy() if registers is not None else np.zeros(self.m, dtype=np.uint8)
        )

    def add_hashes(self, h: np.ndarray) -> "HLL":
        h = np.asarray(h, dtype=np.uint64)
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        rest = (h << np.uint64(self.p)) | np.uint64(1)  # sentinel bit
        # rank = leading zeros of `rest` + 1
        lz = np.zeros(len(h), dtype=np.uint8)
        cur = rest
        for shift in (32, 16, 8, 4, 2, 1):
            mask = cur < (np.uint64(1) << np.uint64(64 - shift))
            lz[mask] += shift
            cur = np.where(mask, cur << np.uint64(shift), cur)
        rank = (lz + 1).astype(np.uint8)
        np.maximum.at(self.registers, idx, rank)
        return self

    def merge(self, other: "HLL") -> "HLL":
        assert self.p == other.p
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def estimate(self) -> float:
        m = float(self.m)
        alpha = 0.7213 / (1 + 1.079 / m)
        e = alpha * m * m / np.sum(2.0 ** (-self.registers.astype(np.float64)))
        zeros = int(np.count_nonzero(self.registers == 0))
        if e <= 2.5 * m and zeros:
            return m * np.log(m / zeros)  # linear counting
        return float(e)

    def to_bytes(self) -> bytes:
        return self.registers.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, p: int = 12) -> "HLL":
        return cls(p, np.frombuffer(data, dtype=np.uint8).copy())


def approx_distinct(ds: rd.Dataset, column: str, p: int = 12) -> float:
    """Approximate COUNT(DISTINCT column): one serialized sketch per batch,
    merged on the driver (sketches are ~4 KB; rows never shuffle)."""
    import pandas as pd
    import pyarrow as pa

    def sketch_batch(batch: pa.Table) -> pd.DataFrame:
        h = hash_values(batch[column].to_pylist())
        s = HLL(p).add_hashes(h)
        return pd.DataFrame([{"sketch": s.to_bytes()}])

    parts = ds.map_batches(sketch_batch, batch_format="pyarrow").to_pandas()
    acc = HLL(p)
    for blob in parts.sketch:
        acc.merge(HLL.from_bytes(blob, p))
    return acc.estimate()


def mg_summarize(
    terms: np.ndarray, counts: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Misra-Gries reduction of an already-aggregated (term, count)
    multiset to <= k counters (Misra & Gries 1982; the mergeable-summary
    form of Agarwal et al., PODS 2012): if more than k distinct terms
    remain, subtract the (k+1)-th largest count from every counter and
    drop the non-positive ones. Counters only ever UNDERcount, by at
    most the sum of all subtracted deltas (<= total/(k+1) per merge
    tree), so any term with true frequency > total/(k+1) is guaranteed
    to survive with a positive counter — the candidate-superset property
    the exact second pass of the heavy-hitters query relies on."""
    if len(terms) <= k:
        return terms, counts
    d = np.partition(counts, len(counts) - k - 1)[len(counts) - k - 1]
    keep = counts > d
    return terms[keep], counts[keep] - d
