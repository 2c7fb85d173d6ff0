"""Reusable scale-hygiene operators (SURVEY.md §4.2).

- ``supergroup_agg``: every grouped aggregate. Per-batch partials are
  measured, then gathered to the driver when small or shuffled on a coarse
  hash super-group when not (``gathers`` decides, and the gated joins
  ask it too; ``under_cap`` is the one rule and log line behind it and
  behind the near-dup verify's broadcast).
- ``shuffle_groups``: every keyed shuffle that is not an aggregate, every
  partitioned join included. Rows of one or more sides are hashed on
  their keys onto coarse super-groups and each group runs one vectorized
  function over all its keys.
- ``Broadcast``: the one way a map task reads a small side.
- ``ParquetRowRanges``: the flagship's read, the pending parquet files'
  footer rows cut into equal row ranges, one read task each
  (``parquet_footers`` lists them, ``fused_read_tasks`` sizes the plan).
- ``epoch_us``: the one timestamp → int64 epoch-µs conversion, shared by
  the batch queries and the streaming shards.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads

import ray
import ray.data as rd
from ray.data.block import BlockMetadata
from ray.data.context import DEFAULT_TARGET_MAX_BLOCK_SIZE

log = logging.getLogger(__name__)

# Share of the cluster's object store that one set of measured partials (or
# a join's key side) may take and still be gathered to the driver, which
# holds it as one pandas frame next to the merge's working set. With Ray's
# default 4.9 GB store on a 4-vCPU, 15 GB host the cap is 77 MB; the
# largest partial of the sf0.1 registry (q_image_exact_dup) measures 17 MB.
GATHER_SHARE = 1 / 64

# Share of the object store that the near-dup verify's broadcast
# (doc_id, text) table may take. Unlike a gathered frame it is one
# object-store copy that every worker maps zero-copy, so it may be larger:
# 310 MB on the 4.9 GB store, where the 300k-doc bench corpus measures
# 87 MB and the sf0.1 documents 1.6 MB.
BROADCAST_SHARE = 1 / 16

# Super-group fan-out (``derive_num_groups``): one reduce task per
# SUPERGROUP_TARGET_ROWS input rows, clamped to [SUPERGROUP_MIN,
# SUPERGROUP_MAX]. 64 reduce tasks is right on a 4-vCPU host, but a pinned
# count caps shuffle parallelism and lets per-group memory grow linearly
# with the corpus at 100 TB.
SUPERGROUP_TARGET_ROWS = 1_000_000
SUPERGROUP_MIN = 64
SUPERGROUP_MAX = 4096

# site -> (object id, built value): what this process holds of each
# broadcast site. Module globals live as long as the Ray worker process,
# across tasks and jobs (task pools + this cache beat actor pools for
# cheap state: 9.4k → 16k rows/s on the flagship).
_BROADCASTS: dict[str, tuple[str, object]] = {}


class Broadcast:
    """The small side of a broadcast join or lookup (SURVEY.md §4.2
    broadcast-vs-partition: ship it to every probe task instead of
    shuffling the big side). ``value`` is ``ray.put`` once, here, where
    the map is built. In each process, the first ``get()`` fetches it and
    applies ``build`` (for example a stage object with its own caches);
    later calls return that result. Each ``site`` keeps one entry per
    process: a new job's broadcast replaces the last one instead of
    adding to it."""

    def __init__(self, site: str, value, build=None):
        self.site, self.build = site, build
        self.ref = ray.put(value)

    def get(self):
        key = self.ref.hex()
        hit = _BROADCASTS.get(self.site)
        if hit is None or hit[0] != key:
            _BROADCASTS.pop(self.site, None)  # free the old one before building
            value = ray.get(self.ref)
            hit = _BROADCASTS[self.site] = (key, self.build(value) if self.build else value)
        return hit[1]


def parquet_col_min(path: str, col: str) -> int | None:
    """Minimum of an int column from parquet ROW-GROUP STATISTICS only —
    no data read at any scale. Used to seed the streaming shards'
    reorder buffers with the stream's first arrival-sequence value.
    Falls back to a single-column scan if any footer lacks stats."""
    import pyarrow.compute as pc

    try:
        mins: list[int] = []
        for frag in pads.dataset(path, format="parquet").get_fragments():
            md = frag.metadata
            j = md.schema.names.index(col)
            for rg in range(md.num_row_groups):
                st = md.row_group(rg).column(j).statistics
                if st is None or st.min is None:
                    raise ValueError("missing stats")
                mins.append(int(st.min))
        return min(mins) if mins else None
    except Exception:
        try:
            return int(pc.min(pads.dataset(path, format="parquet").to_table(columns=[col])[col]).as_py())
        except Exception:
            return None


def parquet_num_rows(path: str) -> int | None:
    """Row count of a parquet file/dir from footer metadata only — free at
    any scale (no data read, no Dataset execution)."""
    try:
        return pads.dataset(path, format="parquet").count_rows()
    except Exception:
        return None


def derive_num_groups(n_rows: int | None) -> int:
    """Super-group fan-out from the input row count: one reduce task per
    ~``SUPERGROUP_TARGET_ROWS`` rows, clamped to [``SUPERGROUP_MIN``,
    ``SUPERGROUP_MAX``]. At test scale this is the measured-optimal 64; at
    100 TB it grows so per-group memory stays bounded and shuffle
    parallelism isn't capped at 64 tasks. ``n_rows=None`` (unknown) falls
    back to the minimum."""
    if not n_rows:
        return SUPERGROUP_MIN
    return int(min(SUPERGROUP_MAX, max(SUPERGROUP_MIN, n_rows // SUPERGROUP_TARGET_ROWS)))


def derive_num_blocks(n_rows: int | None, target_rows: int = 8192, lo: int = 32, hi: int = 2048) -> int:
    """Read-side block-count override for shuffle-bound pipelines: Ray's
    sort cost has a per-(input-block x output-partition) slice overhead,
    so a read that fragments a small-row table into hundreds of ~1k-row
    blocks makes the following groupby sort-bound (measured 5.3 s of a
    6 s phash-neardup wall at sf0.1 with 288 blocks; 0.6 s at 32).
    One block per ~``target_rows`` rows, clamped so parallelism never
    drops below a node's cores nor explodes the slice matrix."""
    if not n_rows:
        return lo
    return int(min(hi, max(lo, n_rows // target_rows)))


def parquet_footers(root: str) -> dict[str, list[tuple[int, int]]]:
    """Every parquet file under ``root`` (a file or a hive directory), in
    listing order, with its row groups' (rows, uncompressed bytes): the
    flagship's one footer pass, read from the footers only."""
    return {
        f.path: [(md.row_group(i).num_rows, md.row_group(i).total_byte_size) for i in range(md.num_row_groups)]
        for f in pads.dataset(root, format="parquet").get_fragments()
        for md in [f.metadata]
    }


# rows a row-range read decodes at a time
READ_BATCH_ROWS = 1024


def _read_pieces(pieces: list[tuple], columns: list[str]):
    """One block per piece (path, row groups, skip, rows, bytes): the
    ``rows`` rows that start ``skip`` rows into the piece's row groups.
    Batches are decoded ``READ_BATCH_ROWS`` at a time and the stream stops
    after the piece, so no row group is decoded whole and then sliced, and
    the file is read through a 1 MiB buffer, so a large column chunk is
    streamed instead of read whole (one 50,704-row row group cut into 7
    tasks on 4 CPUs: peak RSS 2.9 → 2.4 GB)."""
    import pyarrow.parquet as pq

    for path, groups, skip, rows, _ in pieces:
        kept, at = [], -skip  # at: first row of the batch, from the piece's start
        with pq.ParquetFile(path, buffer_size=1 << 20) as f:
            for b in f.iter_batches(READ_BATCH_ROWS, groups, columns):
                if at + b.num_rows > 0:
                    kept.append(b.slice(max(-at, 0), rows - max(at, 0)))
                at += b.num_rows
                if at >= rows:
                    break
        yield pa.Table.from_batches(kept)


class ParquetRowRanges(rd.Datasource):
    """The flagship's read: the rows of the ``footers`` files
    (``parquet_footers``), in listing order, cut into one equal row range
    per read task. A range may start or end inside a row group and cover
    parts of several files; its task streams just its own rows of each
    (``_read_pieces``). Ray fuses such a read into the maps after it, as
    each task is one input bundle of whole rows."""

    def __init__(self, footers: dict[str, list[tuple[int, int]]], columns: list[str]):
        self.footers, self.columns = footers, columns
        self.rows = sum(r for groups in footers.values() for r, _ in groups)

    def pieces(self, n: int) -> list[list[tuple[str, list[int], int, int, int]]]:
        """Per task of ``n``, its pieces: (path, row groups, rows to skip
        in them, rows, uncompressed bytes pro rata)."""
        bounds = [k * self.rows // n for k in range(n + 1)]
        out: list[list] = [[] for _ in range(n)]
        start = 0  # the file's first row, over all files
        for path, groups in self.footers.items():
            first = list(itertools.accumulate((r for r, _ in groups), initial=0))  # row group starts
            for k in range(bisect.bisect_right(bounds, start) - 1, n):
                lo, hi = max(bounds[k] - start, 0), min(bounds[k + 1] - start, first[-1])
                if lo >= first[-1]:
                    break
                if hi > lo:  # else an empty range: more tasks than rows
                    g0, g1 = bisect.bisect_right(first, lo) - 1, bisect.bisect_left(first, hi)
                    size = sum(b for _, b in groups[g0:g1]) * (hi - lo) // (first[g1] - first[g0])
                    out[k].append((path, list(range(g0, g1)), lo - first[g0], hi - lo, size))
            start += first[-1]
        return out

    def estimate_inmemory_data_size(self) -> int:
        return sum(b for groups in self.footers.values() for _, b in groups)

    def get_read_tasks(self, parallelism: int) -> list[rd.ReadTask]:
        return [
            rd.ReadTask(functools.partial(_read_pieces, task, self.columns), BlockMetadata(
                num_rows=sum(p[3] for p in task), size_bytes=sum(p[4] for p in task),
                exec_stats=None, input_files=[p[0] for p in task],
            ))
            for task in self.pieces(parallelism)
        ]


def fused_read_tasks(source: ParquetRowRanges, target_rows: int, pruned: list[str]) -> tuple[int, int]:
    """Read tasks of the flagship's read -> process -> write operator over
    ``source`` (the pending files), and its target block size.

    One task per cluster CPU, or one per ``target_rows`` footer rows when
    that is more. Each task takes an equal range of rows, whatever the
    files hold, so a hot partition's file or one large file is shared by
    several tasks. More tasks than CPUs at small scale start idle
    workers; more at scale spread the rows of a hot cell.

    The block size is the uncompressed bytes of the largest piece, at
    most Ray's default: before a task has output, Ray counts twice the
    target as each running task's pending output, and with the default
    (128 MiB) a 512 MiB object store admits one task and then waits for
    it. Logs the plan, the sizes it rests on, the rows per task, the
    block size and the partitions ``pruned`` from the read."""
    cpus = int(ray.cluster_resources().get("CPU", 1))
    tasks = max(cpus, -(-source.rows // target_rows))
    largest = max((p[4] for task in source.pieces(tasks) for p in task), default=1)
    cap = min(largest, DEFAULT_TARGET_MAX_BLOCK_SIZE)
    log.info(
        "flagship read: %d pending files, %d footer rows, %d CPUs, %d pruned partitions %s -> "
        "%d read tasks of %d-%d rows, block cap %d bytes",
        len(source.footers), source.rows, cpus, len(pruned), pruned,
        tasks, source.rows // tasks, -(-source.rows // tasks), cap,
    )
    return tasks, cap


def store_cap(share: float) -> int:
    """Bytes of the cluster's object store that a ``share`` of it holds."""
    return int(ray.cluster_resources()["object_store_memory"] * share)


def under_cap(site: str, rows: int, nbytes: int, cap: int) -> bool:
    """The one ship-or-partition rule: whether a measured small side of
    ``nbytes`` (``rows`` rows) is under ``cap`` bytes, so it goes to the
    driver or to every task and the big side is never shuffled (*To
    Partition, or Not to Partition*, SIGMOD 2021); over it, the caller
    partitions. Logs the decision and the sizes it rests on."""
    gather = nbytes < cap
    log.info(
        "%s: %s, %d partial rows, %d partial bytes, cap %d",
        site, "gather" if gather else "shuffle", rows, nbytes, cap,
    )
    return gather


def gathers(site: str, parts: rd.MaterializedDataset) -> bool:
    """Whether ``parts`` (the materialized partials of a grouped aggregate,
    or the key side of a join) may be gathered to the driver: under a
    share ``GATHER_SHARE`` of the object store (``under_cap``)."""
    return under_cap(site, parts.count(), parts.size_bytes(), store_cap(GATHER_SHARE))


def _empty_batch(ds: rd.Dataset) -> pd.DataFrame:
    """A zero-row pandas batch with ``ds``'s columns: Ray drops the schema
    of an all-filtered stream's blocks, and a merge still has to name its
    output columns. When no block has a schema (Ray runs no batch of a
    zero-row input, so nothing named the columns) the batch has no
    columns."""
    s = ds.schema()
    if s is None:
        return pd.DataFrame()
    return pd.DataFrame(
        {
            n: pd.Series(dtype=t.to_pandas_dtype() if isinstance(t, pa.DataType) else object)
            for n, t in zip(s.names, s.types)
        }
    )


def epoch_us(ts) -> np.ndarray:
    """Timestamps or dates → int64 epoch microseconds (the twins'
    ``epoch_us``): the one conversion every event-time operator uses."""
    return np.asarray(ts).astype("datetime64[us]").astype(np.int64)


def sum_by(keys: list[str]):
    """The ``partial`` and ``merge`` of a grouped sum: every non-key column
    summed per key, NULL keys kept as SQL keeps them (count rows by
    summing a column of ones)."""
    return lambda df: df.groupby(keys, sort=False, as_index=False, dropna=False).sum()


def supergroup_agg(site: str, ds: rd.Dataset, keys: list[str], partial, merge) -> pd.DataFrame:
    """The one grouped aggregate, at any key cardinality.

    ``partial(df) -> df`` pre-reduces each pandas batch and keeps ``keys``;
    ``merge(df) -> df`` combines any set of partials that holds all the
    partials of its keys. The partials are materialized and measured
    (``gathers``):

    - under the cap they are gathered to the driver, sorted by ``keys``
      (stable, so each key's partials combine in block order) and merged
      in one call;
    - otherwise each key's partials meet in one ``shuffle_groups``
      super-group (fan-out from the partial row count) and are merged
      per group. Ray's ``groupby().aggregate`` and per-key
      ``map_groups`` both pay per-distinct-key cost (50 s for a 400k-row
      count over 250k keys); a super-group merge is one pandas groupby.

    Returns the merged frame; with no partial rows, ``merge`` of an empty
    partial, so the output columns are there on both branches."""
    parts = ds.map_batches(partial, batch_format="pandas").materialize()
    gather = gathers(site, parts)
    if not parts.count():
        return merge(partial(_empty_batch(ds)))
    if gather:
        return merge(parts.to_pandas().sort_values(keys, kind="stable", ignore_index=True))
    out = shuffle_groups(site, [parts], keys, merge, parts.count()).to_pandas()
    return out if len(out.columns) else merge(_empty_batch(parts))


def _plan_blocks(ds: rd.Dataset) -> int | None:
    """The blocks ``ds``'s plan yields, estimated from its logical plan
    without executing it; ``None`` when the plan cannot tell. It is Ray's
    own estimate (``initial_num_blocks``), except that a read given
    ``override_num_blocks`` counts those blocks: Ray counts one block per
    read task (one per file) although it splits each task's output to
    reach the requested count (146 blocks from the 19 files of the 300k
    near-dup corpus, which Ray estimates as 19)."""
    from ray.data._internal.logical.operators.n_ary_operator import Union
    from ray.data._internal.logical.operators.read_operator import Read

    def blocks(op) -> int | None:
        if isinstance(op, Read) and op._parallelism > 0:
            return op._parallelism
        if isinstance(op, Union):
            counts = [blocks(i) for i in op.input_dependencies]
            return None if None in counts else sum(counts)
        if op._num_outputs is None and len(op.input_dependencies) == 1:
            return blocks(op.input_dependencies[0])
        return op.estimated_num_outputs()

    return blocks(ds._plan._logical_plan.dag)


def shuffle_groups(site: str, sides: list[rd.Dataset], keys: list[str], fn, rows: int | None) -> rd.Dataset:
    """The one co-partitioned super-group shuffle (the keyed shuffle of
    each hash-to-min round, Rastogi et al., ICDE 2013; the partition side
    of *To Partition, or Not to Partition*, SIGMOD 2021).

    Every row of every side is tagged with a super-group,
    ``hash_pandas_object(row[keys]) % derive_num_groups(rows)``, so all
    rows of one key, from every side, meet in one group. The sides are
    unioned and each group runs ``fn`` once, as one pandas frame that
    holds every row of its keys (the tag is dropped first). ``fn`` must
    depend only on the rows of each key, so the output does not depend on
    which group a key lands in. Ray's per-key ``map_groups`` pays a
    Python call per distinct key (10-40x slower at 10^5 keys); a
    super-group runs one vectorized pass over all its keys.

    Ray's sort pays a slice per (input block x output partition), so when
    the plan estimates more than twice the fan-out in blocks they are
    first merged to the fan-out without moving data
    (``repartition(..., shuffle=False)``); at or under that, merging would
    split blocks instead (measured slower at sf0.1). Logs the decision and
    the sizes it rests on."""
    fanout = derive_num_groups(rows)

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        # one key hashes as a Series: a quarter faster than a one-column frame
        h = pd.util.hash_pandas_object(df[keys[0]] if len(keys) == 1 else df[keys], index=False).to_numpy()
        return df.assign(_sg=(h % np.uint64(fanout)).astype(np.int64))

    tagged = [s.map_batches(tag, batch_format="pandas") for s in sides]
    ds = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]
    blocks = _plan_blocks(ds)
    coalesce = blocks is not None and blocks > 2 * fanout
    log.info(
        "%s: shuffle_groups, %d sides, %s rows, fan-out %d, %s plan blocks, %s",
        site, len(sides), rows, fanout, blocks, "coalesce" if coalesce else "no coalesce",
    )
    if coalesce:
        ds = ds.repartition(fanout, shuffle=False)
    return ds.groupby("_sg").map_groups(lambda g: fn(g.drop(columns="_sg")), batch_format="pandas")


def broadcast_semi_anti_filter(
    ds: rd.Dataset, col: str | list[str], keys, anti: bool = False
) -> rd.Dataset:
    """Semi/anti join against a small key set (SURVEY.md D4 — reference
    excludes opening polygons by identity scan, CityGML2OBJs.py:755-765):
    ``keys`` (a set or array) becomes one Arrow value set, broadcast once.
    A list ``col`` names string columns that key together: ``keys`` is then
    a table of them, and a row's key is its values joined by NUL, which no
    XML id or file path holds."""
    import pyarrow.compute as pc

    def key(t: pa.Table):
        if isinstance(col, str):
            return t[col]
        return pc.binary_join_element_wise(*(t[c] for c in col), "\x00")

    values = key(keys).combine_chunks() if isinstance(keys, pa.Table) else pa.array(list(keys))
    value_set = Broadcast("semi_anti_filter", values)

    def flt(batch: pa.Table) -> pa.Table:
        k = key(batch)
        # an empty key set has Arrow type null, which is_in rejects
        mask = pc.is_in(k, value_set=value_set.get().cast(k.type))
        if anti:
            mask = pc.invert(mask)
        return batch.filter(mask)

    return ds.map_batches(flt, batch_format="pyarrow")


def asof_join(
    left: rd.Dataset,
    right: rd.Dataset,
    on: str,
    by: str,
    left_payload: list[str],
    right_payload: list[str],
    right_tiebreak: list[str] | None = None,
    rows: int | None = None,
) -> rd.Dataset:
    """Distributed backward as-of join (for each left row, the right row
    with the greatest ``on`` <= left's ``on`` among equal ``by`` keys;
    inner semantics — unmatched left rows are dropped). Ray Data has no
    such operator; this is one ``shuffle_groups`` over both sides.

    Both inputs must expose the SAME ``on`` (int64/orderable) and ``by``
    columns (rename upstream), a ``_side`` tag (0=left, 1=right), and the
    FULL payload column set — pad the other side's payload with
    type-stable sentinels upstream (they're dropped before the merge; the
    padding only keeps the union's block schemas aligned). Payload column
    sets must be disjoint and the first right payload column non-null.

    Partitioning assumption (documented per the brief): every ``by`` key's
    rows — BOTH sides — land in one ``shuffle_groups`` super-group, so
    each group holds the full right-side history for its keys. The
    per-group work is ONE vectorized ``pandas.merge_asof`` across all keys
    in the group (a single O(n) merge over two sorted frames, C-level
    ``by=`` matching — never a per-key Python loop). The shuffle moves each row exactly once; no
    driver-side materialization. A single pathologically hot ``by`` key
    bounds one group's size; the fan-out grows with ``rows`` (the input
    row count, ``derive_num_groups``) so the expected group stays ~1 M
    rows.

    On ``on``-ties within a key on the right side, the row with the
    greatest ``right_tiebreak`` (default: ``right_payload``) tuple wins —
    deterministic, and expressible in SQL as ``max``/``arg_max`` over a
    (by, on) group for the oracle twin.
    """
    tiebreak = list(right_tiebreak or right_payload)
    cols = [by, on, *left_payload, *right_payload, "_side"]

    def join_group(g: pd.DataFrame) -> pd.DataFrame:
        lf = g[g._side == 0]
        rf = g[g._side == 1]
        lf = lf[[on, by, *left_payload]].sort_values(on, kind="mergesort")
        rf = rf[[on, by, *right_payload]].sort_values(
            [on, *tiebreak], kind="mergesort"
        )
        rtypes = rf.dtypes[right_payload]
        m = pd.merge_asof(
            lf, rf, on=on, by=by, direction="backward", allow_exact_matches=True
        )
        # inner semantics: merge_asof left-joins with NaN fills; the first
        # right payload column must be non-null by contract, so NaN there
        # marks "no match". Restore the pre-NaN right dtypes after the drop.
        m = m.dropna(subset=right_payload[:1])
        return m.astype(dict(rtypes))

    sides = [left.select_columns(cols), right.select_columns(cols)]
    return shuffle_groups("asof_join", sides, [by], join_group, rows)


class BloomFilter:
    """Plain counting-free Bloom filter over int64/uint64 keys, packed as a
    uint64 bitmap — mergeable by bitwise OR, so per-batch partials reduce
    associatively. k index functions derive from ONE splitmix64 hash by
    double hashing (h1 + i*h2, Kirsch-Mitzenmacher), so membership is
    deterministic on any partitioning. False positives only — a bloom
    PREFILTER before a join is exact: the join itself removes survivors
    that don't match."""

    __slots__ = ("bits", "n_bits", "k")

    def __init__(self, n_bits: int = 1 << 20, k: int = 4, bits: np.ndarray | None = None):
        assert n_bits % 64 == 0
        self.n_bits = n_bits
        self.k = k
        self.bits = bits if bits is not None else np.zeros(n_bits // 64, dtype=np.uint64)

    def _positions(self, keys: np.ndarray) -> np.ndarray:
        from .sketch import hash_values

        h = hash_values(keys)
        h1 = h % np.uint64(self.n_bits)
        h2 = (h >> np.uint64(33)) | np.uint64(1)  # odd -> full-period stride
        idx = np.arange(self.k, dtype=np.uint64)[:, None]
        return (h1[None, :] + idx * (h2[None, :] % np.uint64(self.n_bits))) % np.uint64(
            self.n_bits
        )  # (k, n)

    def add(self, keys: np.ndarray) -> None:
        pos = self._positions(np.asarray(keys)).ravel()
        np.bitwise_or.at(self.bits, (pos >> np.uint64(6)).astype(np.int64),
                         np.uint64(1) << (pos & np.uint64(63)))

    def contains(self, keys: np.ndarray) -> np.ndarray:
        pos = self._positions(np.asarray(keys))  # (k, n)
        word = self.bits[(pos >> np.uint64(6)).astype(np.int64)]
        hit = (word >> (pos & np.uint64(63))) & np.uint64(1)
        return hit.all(axis=0).astype(bool)

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        np.bitwise_or(self.bits, other.bits, out=self.bits)
        return self


def bloom_build_distributed(
    ds: rd.Dataset, col: str, n_bits: int = 1 << 20, k: int = 4
) -> BloomFilter:
    """Distributed Bloom build: each batch sets its keys' bits into a local
    bitmap and emits ONE fixed-size row; the driver ORs one bitmap per
    block as they stream in (``iter_batches`` — never all bitmaps resident
    at once). The result is partition-order independent (OR is
    commutative). n_bits=2^20 is 128 KiB — broadcast once by
    ``bloom_prefilter`` and read by every prefilter task."""

    def partial(batch: pa.Table) -> pa.Table:
        bf = BloomFilter(n_bits, k)
        bf.add(np.asarray(batch[col]))
        return pa.table({"bits": pa.array([bf.bits.tobytes()], pa.binary())})

    acc = BloomFilter(n_bits, k)
    parts = ds.map_batches(partial, batch_format="pyarrow")
    for b in parts.iter_batches(batch_size=16, batch_format="pyarrow"):
        for blob in b["bits"]:
            np.bitwise_or(
                acc.bits, np.frombuffer(blob.as_py(), dtype=np.uint64), out=acc.bits
            )
    return acc


def bloom_prefilter(ds: rd.Dataset, col: str, bloom: BloomFilter) -> rd.Dataset:
    """Drop rows whose ``col`` cannot be in the broadcast Bloom filter —
    the shuffle-reduction step before a large-large join when one side is
    selective: survivors (true matches + ~fp-rate noise) are what the
    join actually shuffles."""
    bloom = Broadcast("bloom_prefilter", bloom)

    def flt(batch: pa.Table) -> pa.Table:
        bf = bloom.get()
        return batch.filter(pa.array(bf.contains(np.asarray(batch[col]))))

    return ds.map_batches(flt, batch_format="pyarrow")
