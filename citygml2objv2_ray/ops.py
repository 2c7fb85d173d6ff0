"""Reusable scale-hygiene operators (SURVEY.md §4.2).

- ``partial_groupby_sum``: combine inside ``map_batches`` (one row per key
  per batch) before the global ``groupby`` — the shuffle moves partials,
  not rows.
- ``salted_groupby``: explicit skew handling for per-group logic — hot keys
  are split into ``(key, salt)`` sub-groups, partial-reduced, then merged in
  a second tiny groupby (north rule: "skew-salted groupby-shuffle for hot
  urban cells").
- ``exact_dedup_first``: hash-partitioned first-row-per-key (D1 analog).
- ``Broadcast``: the one way a map task reads a small side.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd
from ray.data.aggregate import Sum

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


def partial_groupby_sum(
    ds: rd.Dataset,
    key: str | list[str],
    sum_cols: list[str],
    count_alias: str = "n",
) -> rd.Dataset:
    """groupby(key).sum(sum_cols) + count, with per-batch pre-aggregation.

    Emits columns named ``sum_<col>`` and ``<count_alias>``.
    """
    keys = [key] if isinstance(key, str) else list(key)

    def partial(batch: pa.Table) -> pa.Table:
        agg = batch.group_by(keys).aggregate(
            [(c, "sum") for c in sum_cols] + [(keys[0], "count")]
        )
        rename = {f"{c}_sum": f"sum_{c}" for c in sum_cols}
        rename[f"{keys[0]}_count"] = count_alias
        return agg.rename_columns(
            [rename.get(name, name) for name in agg.column_names]
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    aggs = [Sum(f"sum_{c}", alias_name=f"sum_{c}") for c in sum_cols]
    aggs.append(Sum(count_alias, alias_name=count_alias))
    return partials.groupby(keys[0] if len(keys) == 1 else keys).aggregate(*aggs)


def salted_groupby(
    ds: rd.Dataset,
    key: str,
    reduce_batch,
    merge_group,
    salt_buckets: int = 8,
    batch_format: str = "pandas",
) -> rd.Dataset:
    """Per-group reduction robust to hot keys.

    1. add ``_salt = hash(row) % salt_buckets``;
    2. ``reduce_batch``: within-batch partial reduce per (key, _salt) —
       callable (DataFrame) -> DataFrame keeping key + _salt columns;
    3. shuffle on (key, _salt) and reduce each sub-group with
       ``reduce_batch`` again (sub-groups of a hot key land on different
       reducers);
    4. final tiny shuffle on key merging sub-group partials with
       ``merge_group`` (DataFrame) -> DataFrame.
    """

    def add_salt(df: pd.DataFrame) -> pd.DataFrame:
        # row-unique salt (NOT a function of the key value): a hot key's
        # rows must spread across salt_buckets sub-groups, so derive the
        # salt from row position within the batch, not from the key hash
        df = df.copy()
        df["_salt"] = (np.arange(len(df), dtype=np.int64) % salt_buckets)
        return df

    salted = ds.map_batches(add_salt, batch_format="pandas")
    pre = salted.map_batches(reduce_batch, batch_format=batch_format)
    sub = pre.groupby([key, "_salt"]).map_groups(reduce_batch, batch_format=batch_format)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        out = merge_group(df)
        return out.drop(columns=["_salt"], errors="ignore")

    return sub.groupby(key).map_groups(merge, batch_format=batch_format)


def parquet_col_min(path: str, col: str) -> int | None:
    """Minimum of an int column from parquet ROW-GROUP STATISTICS only —
    no data read at any scale. Used to seed the streaming shards'
    reorder buffers with the stream's first arrival-sequence value.
    Falls back to a single-column scan if any footer lacks stats."""
    try:
        import pyarrow.compute as pc
        import pyarrow.dataset as pads

        d = pads.dataset(path, format="parquet")
        mins: list[int] = []
        for frag in d.get_fragments():
            md = frag.metadata
            names = [md.row_group(0).column(j).path_in_schema for j in range(md.num_columns)]
            j = names.index(col)
            for rg in range(md.num_row_groups):
                st = md.row_group(rg).column(j).statistics
                if st is None or st.min is None:
                    raise ValueError("missing stats")
                mins.append(int(st.min))
        return min(mins) if mins else None
    except Exception:
        try:
            import pyarrow.compute as pc
            import pyarrow.dataset as pads

            t = pads.dataset(path, format="parquet").to_table(columns=[col])
            return int(pc.min(t[col]).as_py())
        except Exception:
            return None


def parquet_num_rows(path: str) -> int | None:
    """Row count of a parquet file/dir from footer metadata only — free at
    any scale (no data read, no Dataset execution)."""
    try:
        import pyarrow.dataset as pads

        return pads.dataset(path, format="parquet").count_rows()
    except Exception:
        return None


def derive_num_groups(n_rows: int | None, cfg=None) -> int:
    """Super-group fan-out from the input row count: one reduce task per
    ~``supergroup_target_rows`` rows, clamped to [min, max]. At test scale
    this is the measured-optimal 64; at 100 TB it grows so per-group memory
    stays bounded and shuffle parallelism isn't capped at 64 tasks.
    ``n_rows=None`` (unknown) falls back to the minimum."""
    from .config import DEFAULT_CONFIG

    cfg = cfg or DEFAULT_CONFIG
    if not n_rows:
        return cfg.supergroup_min
    return int(
        min(cfg.supergroup_max, max(cfg.supergroup_min, n_rows // cfg.supergroup_target_rows))
    )


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


def supergroup_agg(
    ds: rd.Dataset,
    keys: list[str],
    partial,
    merge,
    num_groups: int | None = None,
    num_rows_hint: int | None = None,
) -> rd.Dataset:
    """Group-by aggregation that stays vectorized at ANY key cardinality.

    Ray's ``groupby().aggregate`` and per-group ``map_groups`` both pay
    per-distinct-key cost (measured 50s for a 400k-row count over 250k
    keys); here the shuffle key is a COARSE hash super-group (every real
    key lands wholly in one group) and the per-group work is a plain
    pandas groupby over the whole super-group — vectorized regardless of
    how many real keys it contains.

    ``partial(df) -> df``: within-batch pre-aggregation (must keep
    ``keys``); ``merge(df) -> df``: combine partials of a super-group
    (associative). ``num_groups=None`` derives the fan-out from
    ``num_rows_hint`` (pass the input table's parquet-metadata row count —
    free, no execution pass) via ``derive_num_groups``."""
    if num_groups is None:
        num_groups = derive_num_groups(num_rows_hint)

    def pre(df: pd.DataFrame) -> pd.DataFrame:
        out = partial(df)
        h = pd.util.hash_pandas_object(out[keys], index=False).to_numpy()
        return out.assign(_sg=(h.astype(np.uint64) % np.uint64(num_groups)).astype(np.int64))

    def merge_group(df: pd.DataFrame) -> pd.DataFrame:
        return merge(df.drop(columns=["_sg"]))

    return ds.map_batches(pre, batch_format="pandas").groupby("_sg").map_groups(
        merge_group, batch_format="pandas"
    )


def exact_dedup_first(
    ds: rd.Dataset,
    key: str,
    order_col: str | None = None,
    num_rows_hint: int | None = None,
) -> rd.Dataset:
    """One row per key — the first by ``order_col`` (or arbitrary-but-
    deterministic minimum if given) (SURVEY.md D1; reference: order-of-
    first-appearance interning, CityGML2OBJs.py:68-77). Pre-reduces within
    each batch (the shuffle moves at most one row per key per batch), then
    merges per coarse super-group — vectorized at any key cardinality
    (``supergroup_agg``; per-key map_groups pays per-group overhead)."""

    def first_in_batch(df: pd.DataFrame) -> pd.DataFrame:
        if order_col:
            df = df.sort_values([key, order_col], kind="stable")
        return df.groupby(key, sort=False).head(1)

    return supergroup_agg(
        ds, [key], first_in_batch, first_in_batch, num_rows_hint=num_rows_hint
    )


def broadcast_semi_anti_filter(
    ds: rd.Dataset, col: str, keys, anti: bool = False
) -> rd.Dataset:
    """Semi/anti join against a small key set (SURVEY.md D4 — reference
    excludes opening polygons by identity scan, CityGML2OBJs.py:755-765):
    ``keys`` (a set or array) becomes one Arrow value set, broadcast once."""
    import pyarrow.compute as pc

    value_set = Broadcast("semi_anti_filter", pa.array(list(keys)))

    def flt(batch: pa.Table) -> pa.Table:
        # an empty key set has Arrow type null, which is_in rejects
        mask = pc.is_in(batch[col], value_set=value_set.get().cast(batch[col].type))
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
    num_groups: int | None = None,
    num_rows_hint: int | None = None,
) -> rd.Dataset:
    """Distributed backward as-of join (for each left row, the right row
    with the greatest ``on`` <= left's ``on`` among equal ``by`` keys;
    inner semantics — unmatched left rows are dropped). Ray Data has no
    such operator; this is the map_batches + groupby().map_groups
    composition the brief calls for.

    Both inputs must expose the SAME ``on`` (int64/orderable) and ``by``
    columns (rename upstream), a ``_side`` tag (0=left, 1=right), and the
    FULL payload column set — pad the other side's payload with
    type-stable sentinels upstream (they're dropped before the merge; the
    padding only keeps the union's block schemas aligned). Payload column
    sets must be disjoint and the first right payload column non-null.

    Partitioning assumption (documented per the brief): every ``by`` key's
    rows — BOTH sides — land in one hash super-group
    (``hash(by) % num_groups``), so each group holds the full right-side
    history for its keys. The per-group work is ONE vectorized
    ``pandas.merge_asof`` across all keys in the group (a single O(n)
    merge over two sorted frames, C-level ``by=`` matching — never a
    per-key Python loop). The shuffle moves each row exactly once; no
    driver-side materialization. A single pathologically hot ``by`` key
    bounds one group's size; ``num_groups`` grows with input size
    (``derive_num_groups``) so the expected group stays ~1 M rows.

    On ``on``-ties within a key on the right side, the row with the
    greatest ``right_tiebreak`` (default: ``right_payload``) tuple wins —
    deterministic, and expressible in SQL as ``max``/``arg_max`` over a
    (by, on) group for the oracle twin.
    """
    if num_groups is None:
        num_groups = derive_num_groups(num_rows_hint)
    tiebreak = list(right_tiebreak or right_payload)
    cols = [by, on, *left_payload, *right_payload, "_side"]

    def add_sg(df: pd.DataFrame) -> pd.DataFrame:
        h = pd.util.hash_pandas_object(df[by], index=False).to_numpy()
        return df.assign(
            _sg=(h.astype(np.uint64) % np.uint64(num_groups)).astype(np.int64)
        )[[*cols, "_sg"]]

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

    both = left.map_batches(add_sg, batch_format="pandas").union(
        right.map_batches(add_sg, batch_format="pandas")
    )
    return both.groupby("_sg").map_groups(join_group, batch_format="pandas")


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


def derive_join_partitions(
    *n_rows: int | None, target_rows: int = 65536, lo: int = 8, hi: int = 512
) -> int:
    """Hash-join partition count from the larger side's row count (parquet
    footer metadata — free): one partition per ~``target_rows`` rows of the
    bigger input, clamped. A fixed constant either caps shuffle parallelism
    at scale (8 reduce tasks for a 100 TB fact table) or explodes the
    partition matrix at test scale; deriving keeps both regimes right."""
    n = max((x for x in n_rows if x), default=None)
    if not n:
        return lo
    return int(min(hi, max(lo, n // target_rows)))
