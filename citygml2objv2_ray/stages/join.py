"""Spatial-join stage: broadcast FootprintIndex, actor-pool lookup.

The big (images) side never shuffles — each actor fetches the index once
from the object store in ``__init__`` (SURVEY.md §4.2 broadcast-vs-partition)
and performs vectorized cell-bucket PIP assignment + kNN per batch.

Granularity note (measured): the join returns ONE table per batch — a
generator yielding many small chunks throttled the streaming executor 3x
(11.1s vs 3.7s at sf0.1). Small batches (~1024) are cheap because the
per-cell kNN candidate sets are cached per worker; downstream stages
inherit the same block granularity.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from ..config import DEFAULT_CONFIG, EngineConfig

# per-worker-process cache for broadcast state (module globals persist for
# the lifetime of a Ray worker process, across tasks AND executions — unlike
# actor pools, task pools have no spawn/ramp cost and size elastically;
# measured 9.4k → 16k rows/s on the flagship by switching). It holds one
# entry, the current broadcast: a new job's index replaces the last one.
_WORKER_CACHE: dict = {}


def make_join_task(index_ref, cfg: EngineConfig = DEFAULT_CONFIG, k: int | None = None):
    """Stateless task-pool form of the spatial join: the FootprintIndex is
    fetched from the object store once per worker process."""
    key = ("join", index_ref.hex() if hasattr(index_ref, "hex") else id(index_ref))

    def join_task(batch: pa.Table) -> pa.Table:
        sj = _WORKER_CACHE.get(key)
        if sj is None:
            _WORKER_CACHE.clear()
            sj = _WORKER_CACHE[key] = SpatialJoin(index_ref, cfg, k)
        return sj(batch)

    return join_task


class SpatialJoin:
    def __init__(self, index_ref, cfg: EngineConfig = DEFAULT_CONFIG, k: int | None = None):
        # FootprintIndex, fetched ONCE per actor
        self.index = ray.get(index_ref) if isinstance(index_ref, ray.ObjectRef) else index_ref
        self.cfg = cfg
        self.k = k or cfg.knn_k

    def __call__(self, batch: pa.Table):
        cx = np.asarray(batch["cx"], dtype=np.float64)
        cy = np.asarray(batch["cy"], dtype=np.float64)
        fi = self.index.assign(cx, cy)
        bid = np.where(fi >= 0, self.index.building_id[np.maximum(fi, 0)], None)
        knn_i, knn_d = self.index.knn(cx, cy, self.k)

        # vectorized list-column build: flatten valid neighbours + offsets
        valid = knn_i >= 0
        counts = valid.sum(axis=1).astype(np.int32)
        offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
        flat_ids = self.index.building_id[knn_i[valid]]
        flat_dist = np.round(knn_d[valid], 6)
        ids_arr = pa.ListArray.from_arrays(
            pa.array(offsets), pa.array(flat_ids, pa.string())
        )
        dist_arr = pa.ListArray.from_arrays(
            pa.array(offsets), pa.array(flat_dist, pa.float64())
        )
        return (
            batch.append_column("building_id", pa.array(bid, pa.string()))
            .append_column("nn_ids", ids_arr)
            .append_column("nn_dist", dist_arr)
        )
