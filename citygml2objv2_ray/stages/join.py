"""Spatial-join stage: broadcast FootprintIndex, task-pool lookup.

The big (images) side never shuffles — the index is broadcast once
(``ops.Broadcast``, SURVEY.md §4.2 broadcast-vs-partition), each worker
process builds one ``SpatialJoin`` from it, and every batch runs
vectorized cell-bucket PIP assignment + kNN against that instance.

Granularity note (measured): the join returns ONE table per batch — a
generator yielding many small chunks throttled the streaming executor 3x
(11.1s vs 3.7s at sf0.1). Small batches (~1024) are cheap because the
per-cell kNN candidate sets are cached per worker; downstream stages
inherit the same block granularity.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..config import DEFAULT_CONFIG, EngineConfig
from ..ops import Broadcast


def make_join_task(index, cfg: EngineConfig = DEFAULT_CONFIG, k: int | None = None):
    """Task-pool form of the spatial join: the FootprintIndex is broadcast
    once, and each worker process builds one ``SpatialJoin`` from it."""
    join = Broadcast("join", index, build=lambda ix: SpatialJoin(ix, cfg, k))
    return lambda batch: join.get()(batch)


class SpatialJoin:
    def __init__(self, index, cfg: EngineConfig = DEFAULT_CONFIG, k: int | None = None):
        self.index = index  # FootprintIndex
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
