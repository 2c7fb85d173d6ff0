"""Durable writes: the one atomic publish, derived-cache keys, and the
checkpoint / lineage log for resumable runs (north rule: "every partition
emits lineage + row-count metrics to a checkpoint log so runs resume
mid-shuffle"; generalizes the reference's JSON sidecar habit,
componentseparationmodule.py:137-185,245-275).

``publish(path)`` is the only place the package renames anything: every
write-once output (checkpoint data and lineage files, the /tmp caches of
derived tables and indexes, the synthetic corpora and worlds, the OBJ
class files) is written under a unique sibling temp path and moved onto
its final name once complete, so a reader sees either nothing or the
whole output, and a killed or failing writer leaves no partial file under
the final name. ``cache_path`` keys a derived cache on its source's
absolute path, mtime (ns) and size, so a source rewritten in place is
never served from a stale copy.

Layout under ``root``:

    data/part=<pid>/<run_id>-<task>-<uuid>.parquet   output rows
    lineage/<uuid>.parquet                           LINEAGE_SCHEMA rows

A partition is **complete** when the summed ``rows_out`` across lineage rows
for a (stage, partition) reaches the expected count (expected counts are
deterministic for synthetic inputs, or recorded at plan time from parquet
metadata). On resume, completed partitions are pruned from the read; files
from aborted runs of incomplete partitions are ignored at read time by
filtering on run_ids recorded as complete (idempotent write-then-log: a Ray
task retry appends a fresh uuid file + lineage row; readers dedupe by
keeping only rows whose (partition, run) is in the log exactly once per
task index — in practice, re-running an incomplete partition uses a new
run_id and prior partial files are deleted first).

Lineage appends are atomic (``publish``) and single-writer-per-file, so
concurrent write tasks never contend.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import os
import shutil
import tempfile
import time
import uuid
from collections.abc import Iterator

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..schemas import LINEAGE_SCHEMA


@contextlib.contextmanager
def publish(path: str) -> Iterator[str]:
    """Write-once publish of a file or directory: yields a unique sibling
    temp path (``.<name>.tmp-<uuid>``) for the body to write, and moves it
    onto ``path`` when the body returns. On any exception (a failed
    rename included) the temp file or dir is removed and the error
    re-raised. A directory that another writer published first is kept
    and this writer's copy discarded: the lost race of two builders of
    the same write-once cache. Blocks nest: an inner ``publish`` lands
    before the outer one, which gives "marker last".

    The leading dot hides a temp that a SIGKILL left behind from dataset
    discovery (pyarrow skips ``.``/``_`` names): a complete but unpublished
    part file must not count toward the flagship's on-disk resume check."""
    head, name = os.path.split(path.rstrip("/"))
    tmp = os.path.join(head, f".{name}.tmp-{uuid.uuid4().hex}")
    try:
        yield tmp
        try:
            os.replace(tmp, path)
        except OSError as e:
            if e.errno not in (errno.ENOTEMPTY, errno.EEXIST) or not os.path.isdir(tmp):
                raise
            shutil.rmtree(tmp)
    except BaseException:
        if os.path.isdir(tmp):
            shutil.rmtree(tmp, ignore_errors=True)
        else:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        raise


def cache_path(kind: str, src: str, *params) -> str:
    """``<tempdir>/<kind>/<key>``: where a write-once copy derived from the
    file ``src`` with ``params`` is cached. The key hashes src's absolute
    path, mtime in ns and size with the params, so the same relative path
    from another working directory, or a source rewritten in place, never
    hits a stale copy."""
    st = os.stat(src)
    raw = "|".join(map(str, (os.path.abspath(src), st.st_mtime_ns, st.st_size, *params)))
    return os.path.join(tempfile.gettempdir(), kind, hashlib.md5(raw.encode()).hexdigest()[:16])


class CheckpointLog:
    def __init__(self, root: str):
        self.root = root
        self.data_dir = os.path.join(root, "data")
        self.lineage_dir = os.path.join(root, "lineage")
        os.makedirs(self.data_dir, exist_ok=True)
        os.makedirs(self.lineage_dir, exist_ok=True)

    # -- lineage ----------------------------------------------------------

    def append(
        self,
        run_id: str,
        stage: str,
        partition_id: str,
        rows_in: int,
        rows_out: int,
        checksum: int,
        wall_sec: float,
    ) -> None:
        self.append_many(
            [
                dict(
                    run_id=run_id,
                    stage=stage,
                    partition_id=partition_id,
                    rows_in=rows_in,
                    rows_out=rows_out,
                    checksum=checksum,
                    wall_sec=wall_sec,
                )
            ]
        )

    def append_many(self, rows: list[dict]) -> None:
        """One atomic lineage file per call (a write task batches all its
        partitions into a single append — thousands of one-row files were a
        measured bottleneck)."""
        if not rows:
            return
        tab = pa.Table.from_pylist(rows, schema=LINEAGE_SCHEMA)
        with publish(os.path.join(self.lineage_dir, f"{uuid.uuid4().hex}.parquet")) as tmp:
            pq.write_table(tab, tmp)

    def read_lineage(self) -> pa.Table:
        files = [
            os.path.join(self.lineage_dir, f)
            for f in os.listdir(self.lineage_dir)
            if f.endswith(".parquet")
        ]
        if not files:
            return LINEAGE_SCHEMA.empty_table()
        return pa.concat_tables(pq.read_table(f) for f in files)

    def completed_partitions(self, stage: str, expected: dict[str, int]) -> set[str]:
        """Partitions whose written row total matches the expected count."""
        lin = self.read_lineage().to_pandas()
        if lin.empty:
            return set()
        lin = lin[lin.stage == stage]
        got = lin.groupby("partition_id").rows_out.sum()
        return {p for p, n in expected.items() if got.get(p, 0) >= n}

    # -- partitioned data writes -----------------------------------------

    def clear_partition(self, partition_id: str) -> None:
        d = os.path.join(self.data_dir, f"part={partition_id}")
        if os.path.isdir(d):
            shutil.rmtree(d)

    def write_partition_file(
        self, table: pa.Table, partition_id: str, run_id: str
    ) -> str:
        d = os.path.join(self.data_dir, f"part={partition_id}")
        os.makedirs(d, exist_ok=True)
        final = os.path.join(d, f"{run_id}-{uuid.uuid4().hex}.parquet")
        with publish(final) as tmp:
            pq.write_table(table, tmp)
        return final

    def data_files(self) -> list[str]:
        out = []
        for sub in sorted(os.listdir(self.data_dir)):
            d = os.path.join(self.data_dir, sub)
            if os.path.isdir(d):
                out += [
                    os.path.join(d, f)
                    for f in sorted(os.listdir(d))
                    if f.endswith(".parquet")
                ]
        return out


def make_partitioned_writer(root: str, run_id: str, stage: str, part_col: str, hash_col: str):
    """Stateless writer for a task pool (a function, NOT an actor class — a
    writer pool's minimum actor reservation would starve the read stage on
    small CPU budgets, and the writer holds no state worth amortizing).
    Returns a batch fn for ``map_batches``."""
    w = PartitionedWriter(root, run_id, stage, part_col, hash_col)

    def write_batch(batch: pa.Table) -> pa.Table:
        return w(batch)

    return write_batch


class PartitionedWriter:
    """Final ``map_batches`` sink stage: splits each batch by the
    ``part_col`` column, writes one file per (batch, partition) via the
    checkpoint log (atomic ``publish``), appends a lineage row per file, and
    returns a tiny ack table so the stream stays consumable. Checksum =
    xor of a stable per-row hash (order-insensitive)."""

    def __init__(self, root: str, run_id: str, stage: str, part_col: str, hash_col: str):
        self.log = CheckpointLog(root)
        self.run_id = run_id
        self.stage = stage
        self.part_col = part_col
        self.hash_col = hash_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        from concurrent.futures import ThreadPoolExecutor

        t0 = time.perf_counter()
        parts = np.asarray(batch[self.part_col])
        lineage_rows = []

        def write_one(p) -> dict:
            mask = parts == p
            sub = batch.filter(pa.array(mask))
            key_bytes = pd.util.hash_pandas_object(
                sub.column(self.hash_col).to_pandas(), index=False
            ).to_numpy()
            checksum = int(np.bitwise_xor.reduce(key_bytes.astype(np.int64))) if len(key_bytes) else 0
            pid = str(int(p))
            self.log.write_partition_file(sub, pid, self.run_id)
            return dict(
                run_id=self.run_id, stage=self.stage, partition_id=pid,
                rows_in=int(mask.sum()), rows_out=sub.num_rows,
                checksum=checksum, wall_sec=time.perf_counter() - t0,
            )

        uniq = np.unique(parts)
        # parquet write + filter release the GIL — overlap the per-part IO
        with ThreadPoolExecutor(max_workers=min(8, max(1, len(uniq)))) as ex:
            lineage_rows = list(ex.map(write_one, uniq))
        self.log.append_many(lineage_rows)  # ONE lineage file per write task

        # per-(partition, cell) partial tile stats ride along in the ack so
        # the driver can aggregate tiles WITHOUT re-reading the output files
        has_cov = "roof_coverage" in batch.column_names
        cov = (
            np.asarray(batch["roof_coverage"], dtype=np.float64)
            if has_cov
            else np.zeros(batch.num_rows)
        )
        # exact integer twin of the coverage sum: coverage is cnt/(w*h), so
        # rint(cov*w*h) recovers the covered-pixel COUNT exactly — integer
        # sums are hash-stable across summation orders (f64 sums are not,
        # and coverage rationals tie at decimal-rounding boundaries)
        if has_cov and "w" in batch.column_names and "h" in batch.column_names:
            px = np.asarray(batch["w"], dtype=np.int64) * np.asarray(
                batch["h"], dtype=np.int64
            )
            cov_px = np.rint(cov * px).astype(np.int64)
        else:
            px = np.zeros(batch.num_rows, dtype=np.int64)
            cov_px = np.zeros(batch.num_rows, dtype=np.int64)
        stats_src = pa.table(
            {
                "partition_id": pa.array([str(int(p)) for p in parts], pa.string()),
                "cell": batch["cell"],
                "matched": pc.cast(pc.is_valid(batch["building_id"]), pa.float64()),
                "coverage": pa.array(cov),
                "cov_px": pa.array(cov_px),
                "tile_px": pa.array(px),
            }
        )
        agg = stats_src.group_by(["partition_id", "cell"]).aggregate(
            [
                ("matched", "sum"),
                ("coverage", "sum"),
                ("cov_px", "sum"),
                ("tile_px", "sum"),
                ("cell", "count"),
            ]
        )
        rename = {
            "matched_sum": "sum_matched",
            "coverage_sum": "sum_coverage",
            "cov_px_sum": "cov_px",
            "tile_px_sum": "tile_px",
            "cell_count": "n",
        }
        return agg.rename_columns([rename.get(c, c) for c in agg.column_names])
