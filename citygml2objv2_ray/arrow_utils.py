"""Zero-copy-ish helpers between Arrow list columns and numpy.

Geometry rings live in Arrow as ``list<fixed_size_list<double,3>>``; these
helpers expose them as one flat (N,3) float64 array + an offsets vector, so
batch kernels slice per-row views instead of materializing Python lists.
``map_points`` is the one way back: it moves every point of a surfaces
batch, holes included, and keeps every offset buffer and column type.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .schemas import POINT


def _as_array(col) -> pa.Array:
    if isinstance(col, pa.ChunkedArray):
        return col.combine_chunks()
    return col


def ring_column(col) -> tuple[np.ndarray, np.ndarray]:
    """``list<fixed_size_list<double,3>>`` column → (points (N,3), offsets).

    ``offsets`` has len rows+1; row i's ring is ``points[offsets[i]:offsets[i+1]]``.
    Handles sliced arrays and nulls (null rows get empty ranges); points of
    any other type are refused, as ``map_points`` refuses them.
    """
    arr = _as_array(col)
    if not isinstance(arr, pa.ListArray):
        raise TypeError(f"expected ListArray, got {type(arr)}")
    if arr.type.value_type != POINT:
        raise TypeError(f"points must be {POINT}, got {arr.type.value_type}")
    raw_off = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    base = raw_off[0]
    offsets = raw_off - base
    flat = arr.values.flatten().to_numpy(zero_copy_only=False)
    pts = flat.reshape(-1, 3)[base : base + offsets[-1]]
    return np.ascontiguousarray(pts, dtype=np.float64), offsets


def rings_column(col) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``list<list<fixed_size_list<double,3>>>`` (interiors) column →
    (points (N,3), ring_offsets, row_offsets): row i has rings
    ``ring_offsets[row_offsets[i]:row_offsets[i+1]+1]`` boundaries."""
    arr = _as_array(col)
    raw_row_off = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    row_base = raw_row_off[0]
    row_offsets = raw_row_off - row_base
    inner = arr.values  # list<point>
    # slice inner to the referenced window
    inner = inner.slice(row_base, row_offsets[-1])
    pts, ring_offsets = ring_column(inner)
    return pts, ring_offsets, row_offsets


def binary_views(col) -> list[memoryview]:
    """``binary`` column → per-row zero-copy memoryviews into the Arrow
    data buffer (no per-blob ``bytes`` copies — ``to_pylist()`` on a wide
    binary column was the measured memory-bandwidth hot spot in the decode
    stage). Null rows yield empty views."""
    arr = _as_array(col)
    out: list[memoryview] = []
    chunks = [arr] if isinstance(arr, pa.Array) else arr.chunks
    for chunk in chunks:
        bufs = chunk.buffers()
        dtype = np.int64 if pa.types.is_large_binary(chunk.type) else np.int32
        offsets = np.frombuffer(bufs[1], dtype=dtype)[
            chunk.offset : chunk.offset + len(chunk) + 1
        ]
        mv = memoryview(bufs[2])
        out.extend(mv[offsets[i] : offsets[i + 1]] for i in range(len(chunk)))
    return out


def _map_point_level(arr: pa.Array, fn) -> pa.Array:
    """``arr`` with ``fn`` applied to the (N,3) points at its bottom; its
    validity and offset buffers, type and slice offset are reused as is."""
    child = arr.values  # the whole child, ignoring arr's slice offset
    is_fixed = pa.types.is_fixed_size_list(arr.type)
    if pa.types.is_floating(child.type):  # arr is the point level
        if arr.type != POINT:
            raise TypeError(f"points must be {POINT}, got {arr.type}")
        lo, hi = 3 * arr.offset, 3 * (arr.offset + len(arr))
        flat = child.to_numpy(zero_copy_only=False).astype(np.float64)
        flat[lo:hi] = np.asarray(fn(flat[lo:hi].reshape(-1, 3)), np.float64).ravel()
        child = pa.array(flat, child.type)
    else:
        child = _map_point_level(child, fn)
    own = arr.buffers()[: 1 if is_fixed else 2]
    return pa.Array.from_buffers(
        arr.type, len(arr), own, arr.null_count, arr.offset, children=[child]
    )


def map_points(batch: pa.Table, fn) -> pa.Table:
    """Apply a vectorized ``(N,3) -> (N,3)`` point function to every point
    of the ``exterior`` and ``interiors`` columns: one call per column
    chunk over its flat point buffer, so rings, holes, row order and each
    column's type are unchanged."""
    for name in ("exterior", "interiors"):
        i = batch.column_names.index(name)
        col = batch.column(i)
        moved = [_map_point_level(c, fn) for c in col.chunks]
        batch = batch.set_column(i, batch.field(i), pa.chunked_array(moved, col.type))
    return batch
