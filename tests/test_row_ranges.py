"""The flagship's row-range parquet read (``ops.ParquetRowRanges``): the
pending files' footer rows cut into n equal ranges, each streamed by one
read task."""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray.data as rd

from citygml2objv2_ray import ops

# files in listing order: (name, rows, row group size); an empty file, files
# of one and of several row groups
FILES = [("a.parquet", 23, 5), ("b.parquet", 0, 5), ("c.parquet", 37, 64), ("d.parquet", 40, 8)]
ROWS = sum(n for _, n, _ in FILES)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("ranges")
    lo = 0
    for name, n, group in FILES:
        ids = np.arange(lo, lo + n, dtype=np.int64)
        pq.write_table(
            pa.table({"extra": ids * 2, "id": ids, "s": [f"r{i}" for i in ids]}),
            d / name, row_group_size=group,
        )
        lo += n
    return str(d)


def test_footers_list_every_file_and_row_group(files):
    footers = ops.parquet_footers(files)
    assert [p.rsplit("/", 1)[1] for p in footers] == [name for name, _, _ in FILES]
    assert [[r for r, _ in groups] for groups in footers.values()] == [
        [5, 5, 5, 5, 3], [0], [37], [8] * 5,
    ]
    assert all(b > 0 for groups in footers.values() for r, b in groups if r)


@pytest.mark.parametrize("batch_rows", [ops.READ_BATCH_ROWS, 3])
@pytest.mark.parametrize("n", [1, 3, 4, 7, ROWS + 1])
def test_each_row_read_once_in_file_order(files, monkeypatch, n, batch_rows):
    """The n tasks read every row exactly once, in file order, and hold
    equal ranges; a task yields one block per file piece."""
    monkeypatch.setattr(ops, "READ_BATCH_ROWS", batch_rows)
    src = ops.ParquetRowRanges(ops.parquet_footers(files), ["id", "s"])
    tasks = src.get_read_tasks(n)
    assert len(tasks) == n
    got, per_task = [], []
    for task, pieces in zip(tasks, src.pieces(n)):
        blocks = list(task())
        assert [b.num_rows for b in blocks] == [p[3] for p in pieces]
        assert all(b.column_names == ["id", "s"] for b in blocks)
        ids = [i for b in blocks for i in b["id"].to_pylist()]
        assert task.metadata.num_rows == len(ids)
        per_task.append(len(ids))
        got += ids
    assert got == list(range(ROWS))
    assert max(per_task) - min(per_task) <= 1
    # the empty file is never a piece
    assert not any(p[0].endswith("b.parquet") for t in src.pieces(n) for p in t)


def test_cuts_inside_row_groups_and_across_files(files):
    src = ops.ParquetRowRanges(ops.parquet_footers(files), ["id"])
    pieces = src.pieces(3)  # ranges of 33 rows: [0, 33), [33, 66), [66, 100)
    assert [[(p[0].rsplit("/", 1)[1], p[1], p[2], p[3]) for p in t] for t in pieces] == [
        [("a.parquet", [0, 1, 2, 3, 4], 0, 23), ("c.parquet", [0], 0, 10)],
        [("c.parquet", [0], 10, 27), ("d.parquet", [0], 0, 6)],
        [("d.parquet", [0, 1, 2, 3, 4], 6, 34)],
    ]


def test_read_stays_fused_with_more_tasks_than_files(files, ray_session):
    """n above the file count is still ONE operator: each range is one
    read task, so Ray adds no ``SplitBlocks`` to reach n."""
    src = ops.ParquetRowRanges(ops.parquet_footers(files), ["id"])
    ds = rd.read_datasource(src, override_num_blocks=7).map_batches(
        lambda b: b, batch_format="pyarrow", batch_size=None
    )
    assert sorted(ds.to_pandas()["id"]) == list(range(ROWS))
    stats = ds.stats()
    assert re.findall(r"^Operator \d+ (\S+): (\d+) tasks executed", stats, re.M) == [
        ("ReadParquetRowRanges->MapBatches(<lambda>)", "7")
    ], stats
    assert "SplitBlocks" not in stats


@pytest.mark.parametrize("target_rows,tasks", [(8192, 4), (30, 4), (7, 15)])
def test_plan_and_block_cap(files, ray_session, target_rows, tasks):
    """One task per CPU or per ``target_rows`` rows; the block cap is the
    largest piece's bytes, at most Ray's default."""
    from ray.data.context import DEFAULT_TARGET_MAX_BLOCK_SIZE

    src = ops.ParquetRowRanges(ops.parquet_footers(files), ["id"])
    n, cap = ops.fused_read_tasks(src, target_rows, [])
    assert n == tasks
    assert cap == max(p[4] for t in src.pieces(n) for p in t) < DEFAULT_TARGET_MAX_BLOCK_SIZE
    # pieces are sized from the footers alone: no file is opened here
    huge = ops.ParquetRowRanges({"big.parquet": [(10, 1 << 40)]}, ["id"])
    assert ops.fused_read_tasks(huge, target_rows, []) == (4, DEFAULT_TARGET_MAX_BLOCK_SIZE)
