"""Distributed order statistics: exact quantiles, approximate quantile
sketch, per-group top-k. Importing populates the shared REGISTRY/ORACLE
(see ``relational``).

Design for 100 TB:

- The quantile path never sorts globally and never ships rows to the
  driver beyond (a) a fixed-size histogram (bounded by bin count, not data)
  and (b) the rows of the single target bin per quantile (n/bins on
  average). Histogram counts are ORDER-INSENSITIVE and mergeable — unlike
  KLL/t-digest compaction, nondeterministic block arrival cannot change
  the result, so runs are reproducible on a streaming executor.
- Per-group top-k pre-reduces inside each batch (k rows per group per
  batch reach the merge, not the table).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd
from ray.data.aggregate import Count, Max, Min, Sum

from . import text as tx
from .ops import shuffle_groups, sum_by, supergroup_agg, topk
from .relational import _read, query

QUANTS = (0.25, 0.5, 0.75)
N_BINS = 4096


def _histogram(ds: rd.Dataset, col: str, lo: float, hi: float, bins: int = N_BINS) -> np.ndarray:
    """Fixed-bin histogram of a column: vectorized per-batch bincount
    partials (one (bin, n) row per NONZERO bin per batch) reduced by one
    grouped sum — at most ``bins`` rows per batch."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        v = df[col].to_numpy(np.float64)
        idx = np.clip(((v - lo) / (hi - lo) * bins).astype(np.int64), 0, bins - 1)
        counts = np.bincount(idx, minlength=bins)
        nz = np.flatnonzero(counts)
        return pd.DataFrame({"bin": nz, "n": counts[nz]})

    hdf = supergroup_agg("histogram", ds, ["bin"], partial, sum_by(["bin"]))
    out = np.zeros(bins, dtype=np.int64)
    out[hdf.bin.to_numpy()] = hdf.n.to_numpy()
    return out


def quantile_disc_distributed(
    ds: rd.Dataset, col: str, qs=QUANTS, bins: int = N_BINS
) -> list[float]:
    """EXACT discrete quantiles (DuckDB ``quantile_disc`` semantics: the
    element at 0-based rank ``floor((n-1) * q)`` of the sorted column) in
    three bounded passes: global (n, min, max) → histogram → fetch + sort
    ONLY the rows of each target bin (≈ n/bins rows)."""
    stats = ds.aggregate(
        Count(alias_name="n"), Min(col, alias_name="lo"), Max(col, alias_name="hi")
    )
    n, lo, hi = stats["n"], float(stats["lo"]), float(stats["hi"])
    if n == 0:
        return [float("nan")] * len(qs)
    if lo == hi:
        return [lo] * len(qs)
    hist = _histogram(ds, col, lo, hi, bins)
    cum = np.cumsum(hist)
    ranks = [int(np.floor((n - 1) * q)) for q in qs]  # 0-based target ranks
    target_bins = sorted({int(np.searchsorted(cum, r + 1)) for r in ranks})
    tb = np.asarray(target_bins, dtype=np.int64)

    # ONE pass fetches the rows of ALL target bins (driver gets
    # ~n/bins per quantile, tagged by bin)
    def in_bins(batch: pa.Table) -> pa.Table:
        v = np.asarray(batch[col], dtype=np.float64)
        idx = np.clip(((v - lo) / (hi - lo) * bins).astype(np.int64), 0, bins - 1)
        m = np.isin(idx, tb)
        return pa.table(
            {col: pa.array(v[m]), "_bin": pa.array(idx[m], pa.int64())}
        )

    fetched = ds.map_batches(in_bins, batch_format="pyarrow").to_pandas()
    by_bin = {
        int(b): np.sort(g[col].to_numpy()) for b, g in fetched.groupby("_bin")
    }
    out: list[float] = []
    for r in ranks:
        b = int(np.searchsorted(cum, r + 1))
        prev = int(cum[b - 1]) if b > 0 else 0
        out.append(float(by_bin[b][r - prev]))
    return out


def quantile_sketch_distributed(
    ds: rd.Dataset, col: str, qs=QUANTS, bins: int = N_BINS
) -> list[float]:
    """Approximate quantiles from the same mergeable histogram (error
    bounded by one bin width of the value range) — two passes, no
    per-quantile row fetch. The order-insensitive alternative to
    KLL/t-digest for a streaming executor (see module docstring)."""
    stats = ds.aggregate(
        Count(alias_name="n"), Min(col, alias_name="lo"), Max(col, alias_name="hi")
    )
    n, lo, hi = stats["n"], float(stats["lo"]), float(stats["hi"])
    if n == 0:
        return [float("nan")] * len(qs)
    if lo == hi:
        return [lo] * len(qs)
    hist = _histogram(ds, col, lo, hi, bins)
    cum = np.cumsum(hist)
    out = []
    for q in qs:
        rank = int(np.floor((n - 1) * q))
        b = int(np.searchsorted(cum, rank + 1))
        out.append(lo + (hi - lo) * (b + 0.5) / bins)  # bin midpoint
    return out


@query(
    "q_quantiles_exact",
    """
    SELECT ROUND(quantile_disc(l_extendedprice, 0.25), 4) AS q25,
           ROUND(quantile_disc(l_extendedprice, 0.50), 4) AS q50,
           ROUND(quantile_disc(l_extendedprice, 0.75), 4) AS q75
    FROM lineitem
    """,
)
def q_quantiles_exact(sf_dir: str) -> pd.DataFrame:
    ds = _read(sf_dir, "lineitem", ["l_extendedprice"])
    q25, q50, q75 = quantile_disc_distributed(ds, "l_extendedprice", QUANTS)
    return pd.DataFrame(
        [{"q25": round(q25, 4), "q50": round(q50, 4), "q75": round(q75, 4)}]
    )


# rows-only: approximate sketch (error bound asserted in pytest vs exact)
@query("q_quantiles_sketch")
def q_quantiles_sketch(sf_dir: str) -> pd.DataFrame:
    ds = _read(sf_dir, "lineitem", ["l_extendedprice"])
    q25, q50, q75 = quantile_sketch_distributed(ds, "l_extendedprice", QUANTS)
    return pd.DataFrame(
        [{"q25": round(q25, 4), "q50": round(q50, 4), "q75": round(q75, 4)}]
    )


@query(
    "q_sample_split",
    """
    SELECT doc_id,
           CASE WHEN h < 52429 THEN 'train' ELSE 'val' END AS split
    FROM (SELECT doc_id,
                 CAST(CONCAT('0x', substr(md5(CAST(doc_id AS VARCHAR)), 1, 4)) AS INTEGER) AS h
          FROM documents)
    WHERE h < 58982
    ORDER BY doc_id
    """,
)
def q_sample_split(sf_dir: str) -> pd.DataFrame:
    """Deterministic content-hash sampling + train/val split (the
    reproducible subset/split op of a training-data pipeline, SURVEY §2.F
    "sampling": keep ~90% of docs — md5(doc_id) 16-bit prefix < 0.9*65536
    — and split kept rows ~80/10 train/val on the same hash). Pure
    vectorized per-batch filter: no shuffle, no state, identical rows on
    any executor/partitioning — and SQL-checkable because the hash is
    md5, not a Python-private hash."""
    import hashlib

    ds = _read(sf_dir, "documents", ["doc_id"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        h = np.array(
            [
                int(hashlib.md5(str(d).encode()).hexdigest()[:4], 16)
                for d in df.doc_id
            ],
            dtype=np.int64,
        )
        keep = h < 58982  # ~0.9 * 65536
        split = np.where(h[keep] < 52429, "train", "val")  # ~0.8 * 65536
        return pd.DataFrame({"doc_id": df.doc_id.to_numpy()[keep], "split": split})

    out = ds.map_batches(fn, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


@query(
    "q_topk_per_group",
    """
    SELECT o_orderpriority, o_orderkey, ROUND(o_totalprice, 4) AS o_totalprice
    FROM (SELECT *, ROW_NUMBER() OVER (PARTITION BY o_orderpriority
                                       ORDER BY o_totalprice DESC, o_orderkey) AS rn
          FROM orders)
    WHERE rn <= 3
    ORDER BY o_orderpriority, o_totalprice DESC, o_orderkey
    """,
)
def q_topk_per_group(sf_dir: str) -> pd.DataFrame:
    """Per-group top-k (top-3 orders by price per priority class) through
    ``ops.topk``: at most k rows per group per batch reach the merge."""
    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_orderkey", "o_totalprice"])
    df = topk("q_topk_per_group", ds, 3, ["o_totalprice", "o_orderkey"], [True, False], by=["o_orderpriority"])
    df["o_totalprice"] = df.o_totalprice.round(4)
    return df


@query(
    "q_heavy_hitters",
    """
    WITH words AS (
        SELECT unnest(list_filter(regexp_split_to_array(lower(text), '\\s+'),
                                  x -> x <> '')) AS term
        FROM documents
    ),
    tot AS (SELECT COUNT(*) AS n FROM words)
    SELECT term, COUNT(*) AS cnt
    FROM words, tot
    GROUP BY term, tot.n
    HAVING COUNT(*) >= CAST(ceil(0.005 * tot.n) AS BIGINT)
    ORDER BY cnt DESC, term
    """,
)
def q_heavy_hitters(sf_dir: str, phi: float = 0.005) -> pd.DataFrame:
    """EXACT frequent terms (frequency >= ceil(phi * total tokens)) via
    the scalable two-pass heavy-hitter pattern — no full term-frequency
    table at any point, unlike ``q_term_counts_salted``:

    1. candidate pass: per-block Misra-Gries summaries (k = ceil(1/phi)
       counters, ``sketch.mg_summarize``) tree-merged through one
       ``ops.shuffle_groups`` keyed on each block's min doc id; the MG
       guarantee makes the merged counter set a SUPERSET of every term
       with true frequency > total/(k+1) <= phi*total, so no true heavy
       hitter can be missed. Block token totals ride the same rows
       (kind=1).
    2. exact pass: per-block exact counts restricted to the <= k
       candidates (tiny closure broadcast), summed by ``supergroup_agg``
       and thresholded — so the OUTPUT is exact (== the SQL GROUP
       BY/HAVING), while per-block state stays O(k) and each pass
       moves O(k) rows per block.
    """
    import math

    from . import sketch
    from .ops import derive_num_blocks
    from .relational import _nrows, _t

    k = int(math.ceil(1.0 / phi))
    n_docs = _nrows(sf_dir, "documents")
    # coalesced read: both passes end in a shuffle, and Ray's sort pays a
    # per-(input-block x partition) slice cost on fragmented reads
    ds = rd.read_parquet(
        _t(sf_dir, "documents"),
        columns=["doc_id", "text"],
        override_num_blocks=derive_num_blocks(n_docs, target_rows=512),
    )

    def _tokens(df: pd.DataFrame) -> pd.Series:
        return tx.flat(tx.words(df.text))[0].to_pandas()

    def block_summary(df: pd.DataFrame) -> pd.DataFrame:
        toks = _tokens(df)
        vc = toks.value_counts()
        t, c = sketch.mg_summarize(
            vc.index.to_numpy(dtype=object), vc.to_numpy(), k
        )
        # the tree-merge key: the block's min doc id is spread evenly over
        # the blocks, where the top TERM would funnel every block's
        # summary into one group
        return pd.DataFrame(
            {
                "term": np.concatenate([t.astype(object), np.array([""], object)]),
                "cnt": np.concatenate([c, [len(toks)]]).astype(np.int64),
                "kind": np.concatenate(
                    [np.zeros(len(t), np.int8), np.array([1], np.int8)]
                ),
                "block": np.full(len(t) + 1, int(df.doc_id.min()), np.int64),
            }
        )

    def merge_summaries(g: pd.DataFrame) -> pd.DataFrame:
        tot = int(g.loc[g.kind == 1, "cnt"].sum())
        mg = g[g.kind == 0].groupby("term", as_index=False)["cnt"].sum()
        t, c = sketch.mg_summarize(mg.term.to_numpy(), mg.cnt.to_numpy(), k)
        return pd.DataFrame(
            {
                "term": np.concatenate([t.astype(object), np.array([""], object)]),
                "cnt": np.concatenate([c, [tot]]).astype(np.int64),
                "kind": np.concatenate(
                    [np.zeros(len(t), np.int8), np.array([1], np.int8)]
                ),
            }
        )

    # fan-out 64 (unknown rows): ``to_pandas`` collects <= 64 groups x
    # (k+1) rows; a group merges whole blocks, and any grouping of them
    # keeps the superset guarantee the exact pass needs
    summaries = ds.map_batches(block_summary, batch_format="pandas", batch_size=512)
    merged = shuffle_groups("q_heavy_hitters.mg", [summaries], ["block"], merge_summaries, None).to_pandas()
    n_total = int(merged.loc[merged.kind == 1, "cnt"].sum())
    mg = merged[merged.kind == 0].groupby("term", as_index=False)["cnt"].sum()
    cand_t, _ = sketch.mg_summarize(mg.term.to_numpy(), mg.cnt.to_numpy(), k)
    cand = frozenset(cand_t.tolist())
    thresh = int(math.ceil(phi * n_total))

    def exact_partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = _tokens(df)
        vc = toks[toks.isin(cand)].value_counts()
        return pd.DataFrame(
            {
                "term": pd.array(vc.index.to_numpy(dtype=object), dtype=object),
                "cnt": vc.to_numpy().astype(np.int64),
            }
        )

    exact = supergroup_agg("q_heavy_hitters", ds, ["term"], exact_partial, sum_by(["term"]))
    out = exact[exact.cnt >= thresh].sort_values(
        ["cnt", "term"], ascending=[False, True]
    ).reset_index(drop=True)
    out["cnt"] = out.cnt.astype(np.int64)
    return out[["term", "cnt"]]


@query(
    "q_stratified_sample",
    """
    WITH c AS (SELECT lang, COUNT(*) AS n FROM documents GROUP BY lang),
         tot AS (SELECT COUNT(*) AS n_total,
                        COUNT(DISTINCT lang) AS n_strata FROM documents),
         r AS (SELECT c.lang,
                      CAST(floor(LEAST(1.0,
                           CAST(ceil(tot.n_total * 0.2 / tot.n_strata) AS DOUBLE)
                           / c.n) * 65536) AS BIGINT) AS thresh
               FROM c, tot)
    SELECT d.doc_id, d.lang
    FROM documents d JOIN r USING (lang)
    WHERE CAST(CONCAT('0x', substr(md5(CAST(d.doc_id AS VARCHAR)), 1, 4))
               AS INTEGER) < r.thresh
    ORDER BY d.doc_id
    """,
)
def q_stratified_sample(sf_dir: str) -> pd.DataFrame:
    """Stratified rebalancing sample: downsample each ``lang`` stratum to
    ~an equal share of a 20% global budget (rate = min(1, cap/count),
    cap = ceil(0.2*N/#strata)) — the distribution-balancing op of a
    training-data pipeline. Scale shape: per-stratum counts are ONE tiny
    grouped count (one row per stratum per batch); the
    ≤#strata rate map rides task closures; the keep decision is a
    stateless md5-prefix integer threshold per row — deterministic on any
    partitioning, resumable, and exactly reproducible in SQL (integer
    compare, no float-rate parity hazard)."""
    import hashlib
    import math

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])
    ones = ds.map_batches(lambda df: pd.DataFrame({"lang": df.lang, "n": 1}), batch_format="pandas")
    counts = supergroup_agg("q_stratified_sample", ones, ["lang"], sum_by(["lang"]), sum_by(["lang"]))
    n_total = int(counts.n.sum())
    cap = math.ceil(n_total * 0.2 / len(counts))
    thresh = {
        lang: int(min(1.0, float(cap) / n) * 65536)
        for lang, n in zip(counts.lang, counts.n)
    }

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        h = np.array(
            [
                int(hashlib.md5(str(d).encode()).hexdigest()[:4], 16)
                for d in df.doc_id
            ],
            dtype=np.int64,
        )
        t = df.lang.map(thresh).to_numpy(np.int64)
        m = h < t
        return df.loc[m, ["doc_id", "lang"]]

    out = ds.map_batches(keep, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


@query(
    "q_group_quantiles",
    """
    SELECT o_custkey, COUNT(*) AS n,
           ROUND(quantile_disc(o_totalprice, 0.5), 2) AS p50,
           ROUND(quantile_disc(o_totalprice, 0.9), 2) AS p90
    FROM orders GROUP BY o_custkey ORDER BY o_custkey
    """,
)
def q_group_quantiles(sf_dir: str) -> pd.DataFrame:
    """Exact per-group quantiles at ANY group cardinality (per-customer
    order-value p50/p90). The global-quantile path (above) histograms; the
    per-group path instead brings each key's rows together
    (``ops.supergroup_agg``) and computes EVERY group's discrete quantile in
    one vectorized pass: sort the super-group by (key, value), run-length
    encode the key column, then index ``start + ceil(q*n) - 1`` per group —
    no per-key Python, no global sort. Per-group state is the group's own
    rows only, so a 100 TB table with bounded rows-per-key streams through
    merges whose memory is ~(rows/num_groups). ``quantile_disc``
    semantics (smallest element whose cumulative fraction reaches q) match
    DuckDB exactly — element selection, no interpolation, exact float
    parity."""
    ds = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    df = group_quantile_disc(ds, "o_custkey", "o_totalprice")
    df = df.sort_values("o_custkey").reset_index(drop=True)
    df["n"] = df.n.astype(np.int64)
    df["p50"] = df.p50.round(2)
    df["p90"] = df.p90.round(2)
    return df[["o_custkey", "n", "p50", "p90"]]


def group_quantile_disc(ds: rd.Dataset, key: str, col: str) -> pd.DataFrame:
    """Reusable per-group discrete-quantile kernel (see ``q_group_quantiles``
    for semantics): ``supergroup_agg`` + one vectorized RLE pass per
    merge, emitting (key, n, p50, p90)."""

    def quantiles_vectorized(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, col], kind="stable")
        k = g[key].to_numpy()
        v = g[col].to_numpy(np.float64)
        new = np.concatenate([[True], k[1:] != k[:-1]])
        starts = np.flatnonzero(new)
        counts = np.diff(np.append(starts, k.size))
        # quantile_disc(q) = smallest element with cum-fraction >= q:
        # index ceil(q*n) - 1 (verified against DuckDB for n in 1..12)
        i50 = starts + (counts + 1) // 2 - 1
        i90 = starts + (counts * 9 + 9) // 10 - 1
        return pd.DataFrame(
            {
                key: k[starts],
                "n": counts.astype(np.int64),
                "p50": v[i50],
                "p90": v[i90],
            }
        )

    return supergroup_agg("group_quantile_disc", ds, [key], lambda df: df, quantiles_vectorized)


@query(
    "q_kmv_distinct",
    """
    WITH h AS (SELECT DISTINCT
                   CAST(CONCAT('0x', substr(md5(CAST(l_orderkey AS VARCHAR)), 1, 15))
                        AS BIGINT) AS hv
               FROM lineitem),
         k AS (SELECT hv FROM h ORDER BY hv LIMIT 256)
    SELECT CAST(COUNT(*) AS BIGINT) AS k_used,
           MAX(hv) AS kth_hash,
           ROUND((COUNT(*) - 1) / (MAX(hv) / 1152921504606846976.0), 4)
               AS est_distinct
    FROM k
    """,
)
def q_kmv_distinct(sf_dir: str) -> pd.DataFrame:
    """KMV (k-minimum-values) distinct-count sketch — the deterministic
    member of the sketch family (HLL above is rows-only by nature; KMV with
    an md5-anchored hash is ORDER-INSENSITIVE and exactly reproducible, so
    it gets a full SQL twin). Each batch keeps only its k smallest distinct
    60-bit hashes; partials are k-bounded, the driver merge is
    O(k * n_batches) and the estimate (k-1)/v_k touches one float division
    — identical arithmetic on both sides, so even the estimate hashes
    stably. The 100 TB story is the same as any bottom-k: fixed-size state
    per block, no shuffle at all."""
    import hashlib

    K = 256
    SCALE = float(1 << 60)
    ds = _read(sf_dir, "lineitem", ["l_orderkey"])

    def partial_kmv(df: pd.DataFrame) -> pd.DataFrame:
        keys = df.l_orderkey.unique()
        hv = np.array(
            [int(hashlib.md5(str(k).encode()).hexdigest()[:15], 16) for k in keys],
            dtype=np.int64,
        )
        hv = np.unique(hv)
        return pd.DataFrame({"hv": hv[:K]})

    parts = ds.map_batches(partial_kmv, batch_format="pandas").to_pandas()
    hv = np.unique(parts.hv.to_numpy())[:K]
    k_used = int(hv.size)
    kth = int(hv.max())
    est = round((k_used - 1) / (kth / SCALE), 4)
    return pd.DataFrame(
        {"k_used": [np.int64(k_used)], "kth_hash": [np.int64(kth)], "est_distinct": [est]}
    )


@query(
    "q_histogram",
    """
    WITH s AS (SELECT MIN(o_totalprice) AS lo, MAX(o_totalprice) AS hi
               FROM orders)
    SELECT LEAST(CAST(floor((o_totalprice - s.lo) / ((s.hi - s.lo) / 20.0))
                      AS BIGINT), 19) AS bin,
           CAST(COUNT(*) AS BIGINT) AS n
    FROM orders, s GROUP BY bin ORDER BY bin
    """,
)
def q_histogram(sf_dir: str) -> pd.DataFrame:
    """Value histogram as a first-class query (the mergeable-histogram
    kernel behind the quantile family, surfaced directly): pass 1 is the
    exact global (min, max) aggregate; pass 2 bins every row with one
    vectorized floor-divide per batch and emits (bin, n) partials — at most
    20 rows per batch — into one grouped sum. Bin edges derive from
    the same doubles on both sides, so boundary assignment is bit-exact."""

    ds = _read(sf_dir, "orders", ["o_totalprice"])
    stats = ds.aggregate(Min("o_totalprice", alias_name="lo"), Max("o_totalprice", alias_name="hi"))
    lo, hi = float(stats["lo"]), float(stats["hi"])
    w = (hi - lo) / 20.0

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        v = df.o_totalprice.to_numpy(np.float64)
        idx = np.minimum(np.floor((v - lo) / w).astype(np.int64), 19)
        counts = np.bincount(idx, minlength=20)
        nz = np.flatnonzero(counts)
        return pd.DataFrame({"bin": nz, "n": counts[nz]})

    df = supergroup_agg("q_histogram", ds, ["bin"], partial, sum_by(["bin"]))
    df = df.sort_values("bin").reset_index(drop=True)
    df["bin"] = df.bin.astype(np.int64)
    df["n"] = df.n.astype(np.int64)
    return df[["bin", "n"]]


@query(
    "q_correlation",
    """
    SELECT ROUND(corr(l_quantity, l_extendedprice), 6) AS r,
           CAST(COUNT(*) AS BIGINT) AS n
    FROM lineitem
    """,
)
def q_correlation(sf_dir: str) -> pd.DataFrame:
    """Distributed Pearson correlation, numerically stable at any scale:
    a naive single-pass (n*sxy - sx*sy) formula catastrophically cancels on
    large-magnitude columns, so this runs TWO bounded passes — exact means
    first, then CENTERED product sums as per-batch partials (three doubles
    per batch cross the wire). Matches DuckDB's streaming corr to well
    under the 6-dp comparison precision."""

    ds = _read(sf_dir, "lineitem", ["l_quantity", "l_extendedprice"])
    stats = ds.aggregate(
        Count(alias_name="n"),
        Sum("l_quantity", alias_name="sx"),
        Sum("l_extendedprice", alias_name="sy"),
    )
    n = int(stats["n"])
    mx, my = float(stats["sx"]) / n, float(stats["sy"]) / n

    def centered(batch: pa.Table) -> pa.Table:
        x = np.asarray(batch["l_quantity"], dtype=np.float64) - mx
        y = np.asarray(batch["l_extendedprice"], dtype=np.float64) - my
        return pa.table(
            {
                "sxx": pa.array([float((x * x).sum())]),
                "syy": pa.array([float((y * y).sum())]),
                "sxy": pa.array([float((x * y).sum())]),
            }
        )

    agg = ds.map_batches(centered, batch_format="pyarrow").aggregate(
        Sum("sxx", alias_name="sxx"),
        Sum("syy", alias_name="syy"),
        Sum("sxy", alias_name="sxy"),
    )
    r = agg["sxy"] / np.sqrt(agg["sxx"] * agg["syy"])
    return pd.DataFrame([{"r": round(float(r), 6), "n": np.int64(n)}])


_CMS_D, _CMS_W = 4, 1024
_CMS_PROBES = ("the", "model", "data", "quick", "zebra")


def _cms_bucket(j: int, term: str) -> int:
    import hashlib

    return int(hashlib.md5((str(j) + term).encode()).hexdigest()[:8], 16) % _CMS_W


def _q_cms_sql() -> str:
    rows = []
    for p in _CMS_PROBES:
        mins = ", ".join(
            f"(SELECT COUNT(*) FROM b WHERE b{j} = {_cms_bucket(j, p)})"
            for j in range(_CMS_D)
        )
        rows.append(f"SELECT '{p}' AS term, CAST(LEAST({mins}) AS BIGINT) AS est")
    union = "\n    UNION ALL ".join(rows)
    bucket_cols = ", ".join(
        f"CAST(CONCAT('0x', substr(md5(CONCAT('{j}', term)), 1, 8)) AS BIGINT) "
        f"% {_CMS_W} AS b{j}"
        for j in range(_CMS_D)
    )
    return f"""
    WITH terms AS (SELECT unnest(string_split(trim(text), ' ')) AS term
                   FROM documents WHERE trim(text) <> ''),
         b AS (SELECT term, {bucket_cols} FROM terms)
    {union}
    ORDER BY term
    """


@query("q_cms_counts", _q_cms_sql())
def q_cms_counts(sf_dir: str) -> pd.DataFrame:
    """Count-Min sketch, made DETERMINISTIC (md5 row hashes) so the whole
    sketch — collisions included — is SQL-checkable: the twin recomputes
    each probe's bucket per hash row and counts EVERY colliding term
    occurrence, i.e. the exact CMS estimate min_j M[j][h_j(p)]. The Ray
    side builds the d x w matrix from per-batch (row, bucket, n) partials
    (at most d*w rows per batch regardless of corpus
    size); the matrix is order-insensitive and mergeable, the right sketch
    shape for a streaming executor. Overestimate-only guarantee asserted
    in pytest."""
    import hashlib

    docs = _read(sf_dir, "documents", ["text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        vc = pc.value_counts(tx.flat(tx.space_terms(df.text))[0])
        uniq = vc.field("values").to_pylist()
        cnt = vc.field("counts").to_numpy()
        out = []
        for j in range(_CMS_D):
            b = np.array(
                [
                    int(hashlib.md5((str(j) + t).encode()).hexdigest()[:8], 16) % _CMS_W
                    for t in uniq
                ],
                dtype=np.int64,
            )
            g = pd.DataFrame({"row": j, "bucket": b, "n": cnt})
            out.append(g.groupby(["row", "bucket"], as_index=False)["n"].sum())
        return pd.concat(out, ignore_index=True)

    agg = supergroup_agg("q_cms_counts", docs, ["row", "bucket"], partial, sum_by(["row", "bucket"]))
    M = np.zeros((_CMS_D, _CMS_W), dtype=np.int64)
    M[agg.row.to_numpy(), agg.bucket.to_numpy()] = agg.n.to_numpy()
    ests = [
        int(min(M[j, _cms_bucket(j, p)] for j in range(_CMS_D))) for p in _CMS_PROBES
    ]
    out = pd.DataFrame({"term": _CMS_PROBES, "est": np.array(ests, dtype=np.int64)})
    return out.sort_values("term").reset_index(drop=True)
