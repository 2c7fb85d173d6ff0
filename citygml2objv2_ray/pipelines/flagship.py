"""The flagship pipeline (north rule): spatial-join + tile assignment over
the images fact table, as ONE Ray Data operator
``ReadParquet->MapBatches(process)->MapBatches(PartitionedWriter)`` when
whole input files give it enough tasks.

    read_parquet(images)                      # pruned columns; on resume the
                                              # hive `part` filter skips
                                              # completed partitions
    → map_batches(process, task pool)         # per block:
        cell_encode                           #   H3/S2-analog cell, vectorized
        → part_of_cell                        #   output partition id
        → [resume filter]                     #   unpartitioned inputs only
        → per join_batch_size slice:
            spatial join                      #   broadcast index: PIP + kNN
            → DecodeClip                      #   decode + phash verify +
                                              #   raster↔vector clip vs roof tris
    → map_batches(PartitionedWriter)          # per-partition atomic files +
                                              # lineage rows (resumable)
    → tile stats: partial per-block agg → tiny groupby (skew-safe)

Read, process and write are fused: each read task decodes, clips and
writes its own rows, so no tile crosses the object store (the raster is
clipped where it is read, as in *Raptor*, VLDB 2019). The read-task
count is the parallelism: ``ops.fused_read_tasks`` gives one per CPU, or
one per ``write_batch_size`` footer rows when that is more, never more
than the pending files. Files holding more than ``write_batch_size`` rows
each would make too few tasks, so Ray splits them instead and process +
write run after the read in row bundles (the split plan). The only
driver-side tables are the small side (footprints/surfaces) and the
final per-cell stats.
"""

from __future__ import annotations

import os
import time
import uuid
from dataclasses import dataclass

import numpy as np
import pyarrow as pa

import ray.data as rd

from ..config import DEFAULT_CONFIG, EngineConfig
from ..spatial import build_index, part_of_cell
from ..stages.images import cell_encode, make_decode_clip_task
from ..stages.join import make_join_task
from ..state.checkpoint import CheckpointLog, PartitionedWriter
from .geometry import roof_tri2d

STAGE = "assign"


def _hive_parts(images_path: str) -> list[str] | None:
    """part values of a hive-partitioned images dir, or None if the input
    is not partitioned by ``part``."""
    try:
        subs = [
            d.split("=", 1)[1]
            for d in os.listdir(images_path)
            if d.startswith("part=") and os.path.isdir(os.path.join(images_path, d))
        ]
    except (FileNotFoundError, NotADirectoryError):
        return None
    return subs or None


def _hive_expected_rows(images_path: str) -> dict[str, int] | None:
    """Exact expected OUTPUT rows per partition from the hive input layout
    (parquet footers only — the flagship is 1:1 input→output per image).
    This is what makes a run resumable after a MID-RUN crash: a partition
    whose logged written rows equal its input rows is complete even if the
    end-of-run commit pass never happened."""
    from ..ops import parquet_num_rows

    parts = _hive_parts(images_path)
    if parts is None:
        return None
    out: dict[str, int] = {}
    for p in parts:
        n = parquet_num_rows(os.path.join(images_path, f"part={p}"))
        if n is None:
            return None
        out[p] = int(n)
    return out


# per-cell tile stats, the same on a fresh run, a rerun that wrote
# nothing and one that read nothing
TILE_STATS = pa.schema(
    [("cell", pa.int64()), ("sum_matched", pa.float64()), ("sum_coverage", pa.float64()),
     ("cov_px", pa.int64()), ("tile_px", pa.int64()), ("n", pa.int64())]
)

IMAGE_COLUMNS = [
    "image_id", "bytes", "w", "h", "fmt", "caption", "phash", "cx", "cy",
]


@dataclass
class FlagshipResult:
    out_root: str
    run_id: str
    rows_written: int
    tile_stats: "pa.Table"
    wall_sec: float
    # Ray Data's stats of the ack stream: its operators, their tasks and
    # each task's wall time ("" when nothing was read)
    ray_stats: str = ""

    def assignments(self) -> rd.Dataset:
        log = CheckpointLog(self.out_root)
        return rd.read_parquet(log.data_files())


def run_flagship(
    images_path: str,
    surfaces: pa.Table,
    footprints: pa.Table,
    out_root: str,
    cfg: EngineConfig = DEFAULT_CONFIG,
    resume: bool = True,
    decode: bool = True,
) -> FlagshipResult:
    """Run the full pipeline. Ray must already be initialised by the caller
    (driver contract). Resume: partitions recorded complete in the
    checkpoint log are filtered out right after cell encode (with
    hive-partitioned input this same predicate prunes at the read)."""
    t0 = time.perf_counter()
    run_id = uuid.uuid4().hex[:12]
    log = CheckpointLog(out_root)

    # ---- small side: broadcast once ------------------------------------
    join_task = make_join_task(build_index(footprints, cfg), cfg)
    decode_task = make_decode_clip_task(roof_tri2d(surfaces, cfg), cfg) if decode else None

    # ---- resume bookkeeping --------------------------------------------
    completed: set[str] = set()
    if resume:
        lin = log.read_lineage().to_pandas()
        # on-disk part= dirs count as started even when the write task died
        # before appending its FIRST lineage row — the sweep below must run
        # whether or not any lineage exists, else the rerun appends to the
        # partial dir and duplicates rows
        on_disk = {
            sub.split("=", 1)[1]
            for sub in os.listdir(log.data_dir)
            if sub.startswith("part=")
        }
        started: set[str] = set(on_disk)
        if not lin.empty:
            commits = lin[lin.stage == f"{STAGE}:commit"]
            completed = set(commits.partition_id.tolist())
            started |= set(lin[lin.stage == STAGE].partition_id.tolist())
        if started - completed:
            # MID-RUN-crash resume (no commit markers yet): when the hive
            # input layout gives exact per-partition expected counts, a
            # partition whose ON-DISK rows EQUAL the expectation is
            # complete — the commit pass is end-of-run bookkeeping, not
            # the source of truth. The count MUST come from the data
            # files' parquet footers, not the lineage log: lineage rows
            # accumulate across crashed attempts (clear_partition wipes
            # files, not history), so after a double crash the summed log
            # can equal the expectation while the disk is partial. Strict
            # equality: short = partial write, over = a retried task
            # double-wrote; both wipe and redo.
            expected = _hive_expected_rows(images_path)
            if expected:
                from ..ops import parquet_num_rows

                for pid, n in expected.items():
                    if pid in completed or pid not in started:
                        continue
                    d = os.path.join(log.data_dir, f"part={pid}")
                    if os.path.isdir(d) and parquet_num_rows(d) == n:
                        completed.add(pid)
            # wipe partial files of every started-but-incomplete partition
            # (idempotent rerun)
            for pid in started - completed:
                log.clear_partition(pid)

    # ---- wide pipeline --------------------------------------------------
    # ONE fused per-batch stage for cell encode + partition id + resume
    # prune + spatial join + decode/clip: the `bytes` column is ~7KB/row
    # and every stage boundary copies blocks through the object store, so
    # explicit fusion cuts most of the per-row overhead. State is built
    # from the broadcasts once per worker process (task pool, not actor
    # pool — elastic, zero ramp, no pool-sizing hazards).
    done = pa.array([int(p) for p in completed], pa.int64()) if completed else None

    def process(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        batch = cell_encode(batch, cfg)
        # the hive-layout / resume-prune partition contract
        part = part_of_cell(np.asarray(batch["cell"], dtype=np.int64), cfg.n_output_parts)
        batch = batch.append_column("part", pa.array(part, pa.int64()))
        if done is not None:
            batch = batch.filter(pc.invert(pc.is_in(batch["part"], value_set=done)))
        if batch.num_rows == 0:
            return batch.drop_columns(["bytes"])
        # join + decode/clip per join_batch_size slice: a whole read block
        # decoded at once would hold every tile of it in memory
        out = []
        for lo in range(0, batch.num_rows, cfg.join_batch_size):
            b = join_task(batch.slice(lo, cfg.join_batch_size))
            out.append(decode_task(b) if decode_task is not None else b)
        return pa.concat_tables(out)

    # resume pruning at the READ when the input is hive-partitioned by
    # `part` (synth worlds v2 are; see spatial.part_of_cell) — completed
    # partitions' files never leave storage. Falls back to the in-stream
    # prune (inside `process`) for unpartitioned inputs.
    from ..ops import fused_read_tasks
    from ..sources.lance import is_lance_dataset, read_images

    read_kwargs: dict = {}
    done_strs = {str(int(p)) for p in completed}
    hive_parts = _hive_parts(images_path)
    pruned = sorted(done_strs & set(hive_parts or ()), key=int)
    if pruned:
        if len(pruned) == len(hive_parts):  # everything committed → nothing to read at all
            return FlagshipResult(
                out_root=out_root, run_id=run_id, rows_written=0,
                tile_stats=TILE_STATS.empty_table(), wall_sec=time.perf_counter() - t0,
            )
        from ray.data.datasource.partitioning import PathPartitionFilter

        read_kwargs["partition_filter"] = PathPartitionFilter.of(
            lambda kv: kv.get("part") not in done_strs, style="hive"
        )
        done = None  # read-level pruning supersedes the stream filter
    # Lance-first ingestion (input_hint): Lance datasets read via
    # rd.read_lance when pylance is available; parquet otherwise. The hive
    # partition_filter resume pruning and the fused plan apply to the
    # parquet layout; Lance inputs fall back to the in-stream prune above
    # and to the split plan.
    tasks = None
    if not is_lance_dataset(images_path):
        pending = (
            [os.path.join(images_path, f"part={p}") for p in hive_parts if p not in done_strs]
            if hive_parts else [images_path]
        )
        tasks = fused_read_tasks(pending, cfg.write_batch_size, pruned)
    if tasks:
        read_kwargs["override_num_blocks"] = tasks
    ds = read_images(images_path, columns=IMAGE_COLUMNS, **read_kwargs)
    # fused plan: batch_size=None on both maps, since a map that asks for a
    # minimum bundle stops Ray from fusing the read into it; read, process
    # and write then run as ONE operator, one task per read task, and no
    # tile crosses the object store. Split plan: Ray sizes the read (and
    # splits large files), and process+write take join_batch_size /
    # write_batch_size row bundles.
    ds = ds.map_batches(
        process, batch_format="pyarrow", batch_size=None if tasks else cfg.join_batch_size
    )
    acks = ds.map_batches(
        PartitionedWriter(out_root, run_id, STAGE, "part", "image_id"),
        batch_format="pyarrow",
        batch_size=None if tasks else cfg.write_batch_size,
    )
    # acks = per-(block, partition, cell) partial tile stats — tiny;
    # a single driver-side reduce yields BOTH the commit bookkeeping and the
    # per-cell tile stats with no second pass over the written output.
    ack_df = acks.to_pandas()
    rows_written = int(ack_df["n"].sum()) if len(ack_df) else 0

    # commit markers: every partition that finished this run
    if rows_written:
        lineage_rows = [
            dict(
                run_id=run_id, stage=f"{STAGE}:commit", partition_id=str(pid),
                rows_in=int(n), rows_out=int(n), checksum=0, wall_sec=0.0,
            )
            for pid, n in ack_df.groupby("partition_id")["n"].sum().items()
        ]
        log.append_many(lineage_rows)

    if len(ack_df):
        tile_df = (
            ack_df.groupby("cell", as_index=False)[TILE_STATS.names[1:]]
            .sum()
            .sort_values("cell")
            .reset_index(drop=True)
        )
        tile_stats = pa.Table.from_pandas(tile_df, schema=TILE_STATS, preserve_index=False)
    else:
        tile_stats = TILE_STATS.empty_table()

    return FlagshipResult(
        out_root=out_root,
        run_id=run_id,
        rows_written=rows_written,
        tile_stats=tile_stats,
        wall_sec=time.perf_counter() - t0,
        ray_stats=acks.stats(),
    )
