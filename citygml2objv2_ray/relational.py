"""Relational operator suite over the driver's testdata tables, each with a
DuckDB-oracle SQL twin (driver contract: row-count + schema + order-
insensitive value-hash at sf0.01 — see ``__ray_entry__``).

Implementation rules:

- genuinely Ray Data: ``read_parquet`` with pruned columns → vectorized
  ``map_batches`` → ``ops.supergroup_agg`` / ``sort``; small dimension
  sides are broadcast (read once on the driver, merged per batch) instead
  of shuffle-joined (SURVEY.md §4.2);
- every aggregate / computed column is NAMED IDENTICALLY in Ray and SQL;
- float outputs are rounded identically (6 or 4 dp) on both sides so
  value-hashes match despite summation-order differences;
- timestamps exported as int64 epoch-seconds where grouped (engine-neutral).
"""

from __future__ import annotations

import os
from collections.abc import Callable
from datetime import datetime
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd
from ray.data.aggregate import Count, Max, Mean, Min

from .ops import (
    Broadcast,
    broadcast_semi_anti_filter,
    epoch_us,
    gathers,
    shuffle_groups,
    sum_by,
    supergroup_agg,
    topk,
)

REGISTRY: dict[str, Callable[[str], Any]] = {}
ORACLE: dict[str, str] = {}


def query(name: str, sql: str | None = None):
    def deco(fn):
        REGISTRY[name] = fn
        if sql is not None:
            ORACLE[name] = sql
        return fn

    return deco


def _t(sf_dir: str, name: str) -> str:
    return os.path.join(sf_dir, f"{name}.parquet")


def _read(sf_dir: str, name: str, columns: list[str] | None = None) -> rd.Dataset:
    return rd.read_parquet(_t(sf_dir, name), columns=columns)


def _nrows(sf_dir: str, name: str) -> int | None:
    """Input table row count from parquet footer metadata — free (no data
    read, no Dataset execution). Used to derive super-group shuffle
    fan-out (``ops.derive_num_groups``)."""
    from .ops import parquet_num_rows

    return parquet_num_rows(_t(sf_dir, name))


def _round_cols(df: pd.DataFrame, cols: list[str], nd: int = 4) -> pd.DataFrame:
    for c in cols:
        df[c] = df[c].astype(float).round(nd)
    return df


# ---------------------------------------------------------------------------
# filters / projections / groupby-aggregates (SURVEY B/D ops)
# ---------------------------------------------------------------------------


@query(
    "q1_pricing_summary",
    """
    SELECT l_returnflag, l_linestatus,
           ROUND(SUM(l_quantity), 4)                                   AS sum_qty,
           ROUND(SUM(l_extendedprice), 4)                              AS sum_base_price,
           ROUND(SUM(l_extendedprice * (1 - l_discount)), 4)           AS sum_disc_price,
           ROUND(AVG(l_quantity), 6)                                   AS avg_qty,
           COUNT(*)                                                    AS count_order
    FROM lineitem
    WHERE l_shipdate <= TIMESTAMP '1998-09-02'
    GROUP BY l_returnflag, l_linestatus
    ORDER BY l_returnflag, l_linestatus
    """,
)
def q1_pricing_summary(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q1 shape: filter → per-batch partial sums → one grouped sum
    of the partials (one row per key per batch, SURVEY.md §4.2)."""
    ds = _read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_shipdate"],
    )
    cutoff = datetime(1998, 9, 2, 23, 59, 59, 999999)

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df.l_shipdate <= cutoff]
        return pd.DataFrame(
            {
                "l_returnflag": df.l_returnflag,
                "l_linestatus": df.l_linestatus,
                "sum_qty": df.l_quantity,
                "sum_base_price": df.l_extendedprice,
                "sum_disc_price": df.l_extendedprice * (1 - df.l_discount),
                "count_order": 1,
            }
        )

    keys = ["l_returnflag", "l_linestatus"]
    df = supergroup_agg(
        "q1_pricing_summary", ds.map_batches(keyed, batch_format="pandas"), keys, sum_by(keys), sum_by(keys)
    )
    df = df.sort_values(keys).reset_index(drop=True)
    df["avg_qty"] = (df.sum_qty / df.count_order).round(6)
    df = _round_cols(df, ["sum_qty", "sum_base_price", "sum_disc_price"], 4)
    df["count_order"] = df["count_order"].astype(np.int64)
    return df[
        ["l_returnflag", "l_linestatus", "sum_qty", "sum_base_price", "sum_disc_price", "avg_qty", "count_order"]
    ]


@query(
    "q_filter_revenue",
    """
    SELECT l_orderkey, l_linenumber,
           ROUND(l_extendedprice * (1 - l_discount), 4) AS revenue
    FROM lineitem
    WHERE l_shipdate < TIMESTAMP '1997-01-01' AND l_discount >= 0.05 AND l_quantity < 24
    ORDER BY l_orderkey, l_linenumber
    """,
)
def q_filter_revenue(sf_dir: str) -> pd.DataFrame:
    """Vectorized predicate + projection inside map_batches (B2/B18 shape)."""
    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_extendedprice", "l_discount", "l_quantity", "l_shipdate"])
    cutoff = datetime(1997, 1, 1)

    def fn(batch: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.and_(pc.less(batch["l_shipdate"], pa.scalar(cutoff)), pc.greater_equal(batch["l_discount"], pa.scalar(0.05))),
            pc.less(batch["l_quantity"], pa.scalar(24.0)),
        )
        batch = batch.filter(m)
        rev = pc.round(pc.multiply(batch["l_extendedprice"], pc.subtract(pa.scalar(1.0), batch["l_discount"])), 4)
        return pa.table(
            {"l_orderkey": batch["l_orderkey"], "l_linenumber": batch["l_linenumber"], "revenue": rev}
        )

    return fn_sorted(ds.map_batches(fn, batch_format="pyarrow"), ["l_orderkey", "l_linenumber"])


@query(
    "q_mtl_bucketize",
    """
    WITH rng AS (SELECT MIN(o_totalprice) AS lo, MAX(o_totalprice) AS hi FROM orders)
    SELECT o_orderkey,
           ROUND(ROUND(((o_totalprice - rng.lo) / (rng.hi - rng.lo)) * 100) / 100, 2) AS mtl
    FROM orders, rng
    ORDER BY o_orderkey
    """,
)
def q_mtl_bucketize(sf_dir: str) -> pd.DataFrame:
    """B18 (CityGML2OBJs.py:383-411): global min/max aggregate → broadcast
    scalars → vectorized bucket snap to 101 levels."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    stats = ds.aggregate(Min("o_totalprice"), Max("o_totalprice"))
    lo, hi = stats["min(o_totalprice)"], stats["max(o_totalprice)"]

    def fn(batch: pa.Table) -> pa.Table:
        v = np.asarray(batch["o_totalprice"], dtype=np.float64)
        norm = np.clip((v - lo) / (hi - lo), 0.0, 1.0)
        # duckdb ROUND is half-away-from-zero; numpy is half-even → emulate
        mtl = np.floor(norm * 100 + 0.5) / 100
        return pa.table({"o_orderkey": batch["o_orderkey"], "mtl": pa.array(np.round(mtl, 2))})

    return fn_sorted(ds.map_batches(fn, batch_format="pyarrow"), ["o_orderkey"])


@query(
    "q_count_by_flag",
    """
    SELECT l_returnflag, l_linestatus, COUNT(*) AS n
    FROM lineitem GROUP BY l_returnflag, l_linestatus
    ORDER BY l_returnflag, l_linestatus
    """,
)
def q_count_by_flag(sf_dir: str) -> pd.DataFrame:
    """D3 shape (per-class fan-out counts) with partial pre-aggregation."""
    keys = ["l_returnflag", "l_linestatus"]
    # count in Arrow: the partial then reads a few rows per batch, not
    # every row's strings converted to pandas
    counts = _read(sf_dir, "lineitem", keys).map_batches(
        lambda b: b.group_by(keys).aggregate([("l_returnflag", "count")]), batch_format="pyarrow"
    )
    df = supergroup_agg("q_count_by_flag", counts, keys, sum_by(keys), sum_by(keys))
    df = df.rename(columns={"l_returnflag_count": "n"}).sort_values(keys).reset_index(drop=True)
    df["n"] = df["n"].astype(np.int64)
    return df


# ---------------------------------------------------------------------------
# joins (broadcast / semi / anti)
# ---------------------------------------------------------------------------


@query(
    "q_anti_join",
    """
    SELECT c_custkey, c_name FROM customer
    WHERE c_custkey NOT IN (SELECT o_custkey FROM orders WHERE o_orderpriority = '1-URGENT')
    ORDER BY c_custkey
    """,
)
def q_anti_join(sf_dir: str) -> pd.DataFrame:
    """D4 (opening anti-join, CityGML2OBJs.py:755-765): broadcast the key
    set of the small side, anti-filter the stream."""
    keys = set(
        _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"])
        .map_batches(
            lambda b: b.filter(pc.equal(b["o_orderpriority"], pa.scalar("1-URGENT"))).select(["o_custkey"]),
            batch_format="pyarrow",
        )
        .to_pandas()["o_custkey"]
        .tolist()
    )
    ds = _read(sf_dir, "customer", ["c_custkey", "c_name"])
    return fn_sorted(broadcast_semi_anti_filter(ds, "c_custkey", keys, anti=True), ["c_custkey"])


@query(
    "q_semi_join",
    """
    SELECT o_orderkey, o_totalprice FROM orders
    WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem WHERE l_quantity >= 48)
    ORDER BY o_orderkey
    """,
)
def q_semi_join(sf_dir: str) -> pd.DataFrame:
    """Semi join whose key side derives from the FACT table (lineitem):
    per-batch distinct keys are materialized and measured (``gathers``).
    Under the cap they are gathered and orders is filtered map-side
    against them (``broadcast_semi_anti_filter``, as in q_anti_join);
    over it, orders and the keys meet in one ``ops.shuffle_groups``
    keyed on the order key, whose per-group semi filter keeps each order
    once however many batches repeat its key."""
    keys = (
        _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])
        .map_batches(
            lambda b: b.filter(pc.greater_equal(b["l_quantity"], pa.scalar(48.0)))
            .select(["l_orderkey"])
            .group_by(["l_orderkey"])
            .aggregate([]),
            batch_format="pyarrow",
        )
        .materialize()
    )
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    if gathers("q_semi_join", keys):
        joined = broadcast_semi_anti_filter(orders, "o_orderkey", keys.to_pandas().l_orderkey.unique())
    else:

        def semi_group(g: pd.DataFrame) -> pd.DataFrame:
            o = g.loc[g._side == 0, ["o_orderkey", "o_totalprice"]]
            return o[o.o_orderkey.isin(g.o_orderkey[g._side == 1])]

        sides = [
            orders.map_batches(lambda df: df.assign(_side=np.int8(0)), batch_format="pandas"),
            keys.map_batches(
                lambda df: pd.DataFrame({"o_orderkey": df.l_orderkey, "o_totalprice": 0.0, "_side": np.int8(1)}),
                batch_format="pandas",
            ),
        ]
        # fan-out from the larger side
        joined = shuffle_groups("q_semi_join", sides, ["o_orderkey"], semi_group, _nrows(sf_dir, "lineitem"))
    df = fn_sorted(
        joined.select_columns(["o_orderkey", "o_totalprice"]), ["o_orderkey"]
    )
    df["o_totalprice"] = df["o_totalprice"].round(4)
    return df


@query(
    "q_revenue_by_nation",
    """
    SELECT n.n_name, ROUND(SUM(o.o_totalprice), 4) AS revenue, COUNT(*) AS n_orders
    FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
                  JOIN nation n   ON c.c_nationkey = n.n_nationkey
    GROUP BY n.n_name ORDER BY n.n_name
    """,
)
def q_revenue_by_nation(sf_dir: str) -> pd.DataFrame:
    """Broadcast two small dims (customer→nation map) into the orders
    stream, then one grouped sum per nation."""
    import pyarrow.parquet as pq

    cust = pq.read_table(_t(sf_dir, "customer"), columns=["c_custkey", "c_nationkey"]).to_pandas()
    nat = pq.read_table(_t(sf_dir, "nation"), columns=["n_nationkey", "n_name"]).to_pandas()
    cmap = cust.merge(nat, left_on="c_nationkey", right_on="n_nationkey")[["c_custkey", "n_name"]]
    lookup = Broadcast("revenue_by_nation", dict(zip(cmap.c_custkey, cmap.n_name)))

    ds = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        n_name = df.o_custkey.map(lookup.get())
        return pd.DataFrame({"n_name": n_name, "revenue": df.o_totalprice, "n_orders": 1})[
            n_name.notna()  # inner join: an order without a nation drops
        ]

    df = supergroup_agg(
        "q_revenue_by_nation", ds.map_batches(keyed, batch_format="pandas"), ["n_name"],
        sum_by(["n_name"]), sum_by(["n_name"]),
    )
    df = df.sort_values("n_name").reset_index(drop=True)
    df["revenue"] = df["revenue"].round(4)
    df["n_orders"] = df["n_orders"].astype(np.int64)
    return df


# ---------------------------------------------------------------------------
# dedup / distinct / union / sort / window
# ---------------------------------------------------------------------------


@query(
    "q_dedup_first_event",
    """
    SELECT user_id, event_id, event_type, CAST(epoch_us(ts) AS BIGINT) AS ts_epoch
    FROM (SELECT *, ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn FROM events)
    WHERE rn = 1 ORDER BY user_id
    """,
)
def q_dedup_first_event(sf_dir: str) -> pd.DataFrame:
    """D1 (first-occurrence interning): each user's first event, a
    per-user top-1 (``ops.topk``, merged through ``supergroup_agg`` —
    per-user map_groups pays per-key overhead at 10^6+ users)."""
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])
    df = topk("q_dedup_first_event", ds, 1, ["ts", "event_id"], [False, False], by=["user_id"])
    df["ts_epoch"] = epoch_us(df.ts)
    return df[["user_id", "event_id", "event_type", "ts_epoch"]]


@query(
    "q_global_stats",
    """
    SELECT COUNT(*) AS n,
           ROUND(MIN(l_quantity), 4)      AS min_qty,
           ROUND(MAX(l_quantity), 4)      AS max_qty,
           ROUND(AVG(l_extendedprice), 4) AS avg_price,
           ROUND(MIN(l_extendedprice), 4) AS min_price,
           ROUND(MAX(l_extendedprice), 4) AS max_price
    FROM lineitem
    """,
)
def q_global_stats(sf_dir: str) -> pd.DataFrame:
    """D5/D8: global aggregates in one pass."""
    ds = _read(sf_dir, "lineitem", ["l_quantity", "l_extendedprice"])
    r = ds.aggregate(
        Count(alias_name="n"),
        Min("l_quantity", alias_name="min_qty"),
        Max("l_quantity", alias_name="max_qty"),
        Mean("l_extendedprice", alias_name="avg_price"),
        Min("l_extendedprice", alias_name="min_price"),
        Max("l_extendedprice", alias_name="max_price"),
    )
    df = pd.DataFrame([r])
    df["n"] = df["n"].astype(np.int64)
    return _round_cols(df, ["min_qty", "max_qty", "avg_price", "min_price", "max_price"], 4)[
        ["n", "min_qty", "max_qty", "avg_price", "min_price", "max_price"]
    ]


@query(
    "q_topk_orders",
    """
    SELECT o_orderkey, ROUND(o_totalprice, 4) AS o_totalprice
    FROM orders ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
    """,
)
def q_topk_orders(sf_dir: str) -> pd.DataFrame:
    """D9 sort/limit — ``ops.topk``: per-batch local top-k then a tiny
    driver merge (no all-to-all global sort for a bounded k)."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    out = topk("q_topk_orders", ds, 10, ["o_totalprice", "o_orderkey"], [True, False])
    out["o_totalprice"] = out["o_totalprice"].round(4)
    return out


@query(
    "q_distinct_event_types",
    "SELECT DISTINCT event_type FROM events ORDER BY event_type",
)
def q_distinct_event_types(sf_dir: str) -> pd.DataFrame:
    ds = _read(sf_dir, "events", ["event_type"])

    def local_distinct(batch: pa.Table) -> pa.Table:
        return batch.group_by(["event_type"]).aggregate([])

    vals = ds.map_batches(local_distinct, batch_format="pyarrow").unique("event_type")
    return pd.DataFrame({"event_type": sorted(vals)})


@query(
    "q_union_nationkeys",
    """
    SELECT DISTINCT k FROM (
      SELECT c_nationkey AS k FROM customer
      UNION ALL SELECT s_nationkey AS k FROM supplier
    ) ORDER BY k
    """,
)
def q_union_nationkeys(sf_dir: str) -> pd.DataFrame:
    a = _read(sf_dir, "customer", ["c_nationkey"]).map_batches(
        lambda b: b.rename_columns(["k"]), batch_format="pyarrow"
    )
    b = _read(sf_dir, "supplier", ["s_nationkey"]).map_batches(
        lambda t: t.rename_columns(["k"]), batch_format="pyarrow"
    )
    u = a.union(b)
    vals = sorted(u.unique("k"))
    return pd.DataFrame({"k": pd.array(vals, dtype="int32")})


@query(
    "q_window_hourly",
    """
    SELECT event_type,
           CAST(epoch(date_trunc('hour', ts)) AS BIGINT) AS window_start,
           COUNT(*) AS n, ROUND(SUM(value), 4) AS sum_value
    FROM events GROUP BY event_type, window_start
    ORDER BY event_type, window_start
    """,
)
def q_window_hourly(sf_dir: str) -> pd.DataFrame:
    """Tumbling 1h window (streaming-shaped op on the ordered events log):
    the window shard's partial (``streaming.window_partials``) per batch,
    then one grouped sum."""
    from .streaming import WINDOW_KEYS, window_partials

    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return window_partials(df.assign(e=epoch_us(df.ts)), 3_600_000_000)

    df = supergroup_agg("q_window_hourly", ds, WINDOW_KEYS, partial, sum_by(WINDOW_KEYS))
    df = df.sort_values(WINDOW_KEYS).reset_index(drop=True)
    df["window_start"] //= 1_000_000  # epoch s
    df["n"] = df["n"].astype(np.int64)
    df["sum_value"] = df["sum_value"].round(4)
    return df


def fn_sorted(ds: rd.Dataset, by: list[str]) -> pd.DataFrame:
    df = ds.to_pandas()
    if df.empty and not len(df.columns):
        # an all-filtered stream loses its schema through to_pandas
        df = pd.DataFrame({c: [] for c in by})
    return df.sort_values(by).reset_index(drop=True)
