"""The flagship pipeline (north rule): spatial-join + tile assignment over
the images fact table, as ONE Ray Data operator
``ReadParquetRowRanges->MapBatches(process)->MapBatches(PartitionedWriter)``.

    parquet_footers(images)                   # one footer pass: files, row
                                              # groups, rows and bytes
    → ParquetRowRanges (n equal row ranges)   # pruned columns; on resume a
                                              # completed hive partition's
                                              # files are not listed
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
one per ``write_batch_size`` footer rows when that is more, and every
task reads the same number of rows, cut across files and row groups, so
a hot cell's partition or one large file is shared by several tasks
(*To Partition, or Not to Partition*, SIGMOD 2021: skewed partitions
decide the wall time). The run's datasets get a target block size of
the largest piece of a range, so Ray starts every task at once. Lance
inputs are read by ``read_lance`` and processed in row bundles. The only
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


def _hive_part(path: str) -> str | None:
    """The ``part`` value of a hive-partitioned input file's directory."""
    d = os.path.basename(os.path.dirname(path))
    return d.split("=", 1)[1] if d.startswith("part=") else None


def _hive_expected_rows(footers: dict[str, list[tuple[int, int]]]) -> dict[str, int] | None:
    """Exact expected OUTPUT rows per partition of a hive-partitioned
    input (``ops.parquet_footers`` of it; the flagship is 1:1 input→output
    per image), or None for an input not partitioned by ``part``. This is
    what makes a run resumable after a MID-RUN crash: a partition whose
    on-disk written rows equal its input rows is complete even if the
    end-of-run commit pass never happened."""
    out: dict[str, int] = {}
    for path, groups in footers.items():
        p = _hive_part(path)
        if p is None:
            return None
        out[p] = out.get(p, 0) + sum(r for r, _ in groups)
    return out or None


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
    hive-partitioned input their files are not read at all)."""
    from ..ops import ParquetRowRanges, fused_read_tasks, parquet_footers, parquet_num_rows
    from ..sources.lance import is_lance_dataset, read_images

    t0 = time.perf_counter()
    run_id = uuid.uuid4().hex[:12]
    log = CheckpointLog(out_root)
    lance = is_lance_dataset(images_path)
    # the one footer pass: the read plan, the read and the mid-run resume
    # rule all use it
    footers = {} if lance else parquet_footers(images_path)

    # ---- small side: broadcast once ------------------------------------
    join_task = make_join_task(build_index(footprints, cfg), cfg)
    decode_task = make_decode_clip_task(roof_tri2d(surfaces, cfg), cfg) if decode else None

    # ---- resume bookkeeping --------------------------------------------
    completed: set[str] = set()
    if resume:
        lin = log.read_lineage().to_pandas()
        completed = set(lin.partition_id[lin.stage == f"{STAGE}:commit"])
        # on-disk part= dirs count as started even when the write task died
        # before appending its FIRST lineage row — the sweep below must run
        # whether or not any lineage exists, else the rerun appends to the
        # partial dir and duplicates rows
        started = set(lin.partition_id[lin.stage == STAGE]) | {
            sub.split("=", 1)[1] for sub in os.listdir(log.data_dir) if sub.startswith("part=")
        }
        # MID-RUN-crash resume (no commit markers yet): when the hive input
        # layout gives exact per-partition expected counts, a partition
        # whose ON-DISK rows EQUAL the expectation is complete — the commit
        # pass is end-of-run bookkeeping, not the source of truth. The
        # count MUST come from the data files' parquet footers, not the
        # lineage log: lineage rows accumulate across crashed attempts
        # (clear_partition wipes files, not history), so after a double
        # crash the summed log can equal the expectation while the disk is
        # partial. Strict equality: short = partial write (say, one of the
        # tasks that share a partition died), over = a retried task
        # double-wrote; both wipe and redo.
        expected = _hive_expected_rows(footers) or {}
        for pid in started - completed:
            if pid in expected and parquet_num_rows(os.path.join(log.data_dir, f"part={pid}")) == expected[pid]:
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

    writer = PartitionedWriter(out_root, run_id, STAGE, "part", "image_id")
    if lance:
        # Lance-first ingestion (input_hint): rd.read_lance when pylance is
        # available, then process and write in row bundles
        ds = read_images(images_path, columns=IMAGE_COLUMNS)
        ds = ds.map_batches(process, batch_format="pyarrow", batch_size=cfg.join_batch_size)
        acks = ds.map_batches(writer, batch_format="pyarrow", batch_size=cfg.write_batch_size)
    else:
        # a hive input's completed partitions are pruned at the read: their
        # files are not listed
        pruned = sorted({_hive_part(f) for f in footers} & completed, key=int)
        footers = {f: g for f, g in footers.items() if _hive_part(f) not in completed}
        if not footers:
            return FlagshipResult(
                out_root=out_root, run_id=run_id, rows_written=0,
                tile_stats=TILE_STATS.empty_table(), wall_sec=time.perf_counter() - t0,
            )
        source = ParquetRowRanges(footers, IMAGE_COLUMNS)
        tasks, block_cap = fused_read_tasks(source, cfg.write_batch_size, pruned)
        # batch_size=None on both maps, since a map that asks for a minimum
        # bundle stops Ray from fusing the read into it: read, process and
        # write run as ONE operator, one task per row range, and no tile
        # crosses the object store
        ds = rd.read_datasource(source, override_num_blocks=tasks)
        ds = ds.map_batches(process, batch_format="pyarrow", batch_size=None)
        acks = ds.map_batches(writer, batch_format="pyarrow", batch_size=None)
        # scoped to this run's datasets: their context is a copy of the
        # global one, taken when the read was made
        acks.context.target_max_block_size = block_cap
    # acks = per-(block, partition, cell) partial tile stats — tiny;
    # a single driver-side reduce yields BOTH the commit bookkeeping and the
    # per-cell tile stats with no second pass over the written output.
    ack_df = acks.to_pandas()
    rows_written = int(ack_df["n"].sum()) if len(ack_df) else 0

    # commit markers: every partition that finished this run
    if rows_written:
        log.append_many([
            dict(
                run_id=run_id, stage=f"{STAGE}:commit", partition_id=str(pid),
                rows_in=int(n), rows_out=int(n), checksum=0, wall_sec=0.0,
            )
            for pid, n in ack_df.groupby("partition_id")["n"].sum().items()
        ])

    tile_stats = TILE_STATS.empty_table()
    if len(ack_df):  # groupby sorts by cell
        tile_df = ack_df.groupby("cell", as_index=False)[TILE_STATS.names[1:]].sum()
        tile_stats = pa.Table.from_pandas(tile_df, schema=TILE_STATS, preserve_index=False)

    return FlagshipResult(
        out_root=out_root,
        run_id=run_id,
        rows_written=rows_written,
        tile_stats=tile_stats,
        wall_sec=time.perf_counter() - t0,
        ray_stats=acks.stats(),
    )
