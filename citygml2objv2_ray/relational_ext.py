"""Extended operator queries: hot-key term counts, session windows,
phash-band near-dup, hyperplane-LSH embedding near-dup. Importing populates
the shared REGISTRY/ORACLE (see ``relational``)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from . import dedup as dd
from . import text as tx
from .ops import epoch_us, shuffle_groups, sum_by, supergroup_agg, topk
from .relational import _nrows, _read, query


@query(
    "q_term_counts_salted",
    """
    SELECT term, COUNT(*) AS n
    FROM (SELECT unnest(string_split(trim(text), ' ')) AS term
          FROM documents WHERE trim(text) <> '')
    GROUP BY term ORDER BY term
    """,
)
def q_term_counts_salted(sf_dir: str) -> pd.DataFrame:
    """Global term frequencies over a Zipfian vocabulary: the hot terms
    ('the', 'a') are the hot-key case of the north rule's 'skew-salted
    groupby-shuffle for hot urban cells'. No salting is needed: the
    per-batch partial sum leaves at most one row per term per batch, so a
    hot term weighs no more than a cold one after it, and the grouped sum
    then gathers or shuffles on the measured partial size."""
    docs = _read(sf_dir, "documents", ["text"])

    def explode(batch: pa.Table) -> pa.Table:
        terms = tx.flat(tx.space_terms(batch["text"]))[0].cast(pa.string())
        return pa.table({"term": terms, "n": np.ones(len(terms), np.int64)})

    exploded = docs.map_batches(explode, batch_format="pyarrow")
    out = supergroup_agg("q_term_counts_salted", exploded, ["term"], sum_by(["term"]), sum_by(["term"]))
    out = out.sort_values("term").reset_index(drop=True)
    out["n"] = out.n.astype(np.int64)
    return out[["term", "n"]]


@query(
    "q_sessionize",
    """
    WITH d AS (SELECT user_id, event_id, CAST(epoch_us(ts) AS BIGINT) AS e FROM events),
         m AS (SELECT *, CASE WHEN e - LAG(e) OVER w > 1800000000
                              OR LAG(e) OVER w IS NULL THEN 1 ELSE 0 END AS new_s
               FROM d WINDOW w AS (PARTITION BY user_id ORDER BY e, event_id)),
         s AS (SELECT *, SUM(new_s) OVER (PARTITION BY user_id ORDER BY e, event_id
                                          ROWS UNBOUNDED PRECEDING) AS sid
               FROM m)
    SELECT user_id, CAST(sid AS BIGINT) AS session_id, COUNT(*) AS n_events,
           MIN(e) AS session_start, MAX(e) AS session_end
    FROM s GROUP BY user_id, sid ORDER BY user_id, session_id
    """,
)
def q_sessionize(sf_dir: str) -> pd.DataFrame:
    """Session windows (30-min inactivity gap) — the streaming-shaped op
    over the ordered events log (SURVEY.md §2.F). Shuffled on a coarse
    super-group of the user (all of a user's events co-locate); inside
    each group the session shard's kernel (``streaming.session_runs``)
    runs VECTORIZED across every user at once (sort by (user, ts,
    event_id), session breaks = user change OR gap) and the per-user ids
    are a cumcount — no per-user Python at any user cardinality."""
    from .streaming import SESSION_COLUMNS, session_runs

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts"])
    GAP = 1_800_000_000  # 30 min in µs

    def to_epoch(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(e=epoch_us(df.ts))[["user_id", "event_id", "e"]]

    def sessions_vectorized(g: pd.DataFrame) -> pd.DataFrame:
        runs = session_runs(g, GAP)[2]
        return runs.assign(session_id=runs.groupby("user_id", sort=False).cumcount() + 1)[SESSION_COLUMNS]

    # the partial only projects: sessions need the user's FULL history
    # together, so the reduction happens in the merge
    df = supergroup_agg("q_sessionize", ds, ["user_id"], to_epoch, sessions_vectorized)
    df = df.sort_values(["user_id", "session_id"]).reset_index(drop=True)
    for c in ("session_id", "n_events", "session_start", "session_end"):
        df[c] = df[c].astype(np.int64)
    return df


@query(
    "q_sliding_window",
    """
    WITH d AS (SELECT event_type, value, CAST(epoch_us(ts) AS BIGINT) AS e FROM events),
         w AS (SELECT event_type, value,
                      unnest([ (e // 1800000000) * 1800000000,
                               (e // 1800000000) * 1800000000 - 1800000000 ]) AS window_start
               FROM d)
    SELECT event_type, window_start, COUNT(*) AS n, ROUND(SUM(value), 4) AS sum_value
    FROM w GROUP BY event_type, window_start
    ORDER BY event_type, window_start
    """,
)
def q_sliding_window(sf_dir: str) -> pd.DataFrame:
    """Sliding window (width 1h, slide 30min): each event lands in exactly
    two windows — explode per batch, then one grouped sum (the
    windowed-aggregate gap of SURVEY §2.F)."""

    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])
    S = 1_800_000_000  # slide in µs

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        base = (epoch_us(df.ts) // S) * S
        one = pd.DataFrame({"event_type": df.event_type, "n": 1, "sum_value": df.value})
        return pd.concat([one.assign(window_start=base), one.assign(window_start=base - S)])

    keys = ["event_type", "window_start"]
    df = supergroup_agg(
        "q_sliding_window", ds.map_batches(explode, batch_format="pandas"), keys, sum_by(keys), sum_by(keys)
    )
    df = df.sort_values(keys).reset_index(drop=True)
    df["n"] = df.n.astype(np.int64)
    df["sum_value"] = df.sum_value.round(4)
    return df


@query(
    "q_distinct_users",
    "SELECT COUNT(DISTINCT user_id) AS n_users FROM events",
)
def q_distinct_users(sf_dir: str) -> pd.DataFrame:
    """Exact distinct count: per-batch local distinct (at most one row per
    key per batch) → nunique per merge → the driver sums the counts. Past
    the gather cap the distinct values never reach the driver
    (``Dataset.unique`` would ship every key there)."""
    ds = _read(sf_dir, "events", ["user_id"])

    def local_distinct(df: pd.DataFrame) -> pd.DataFrame:
        return df[["user_id"]].drop_duplicates()

    def count_group(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"n": [df.user_id.nunique()]})

    counts = supergroup_agg("q_distinct_users", ds, ["user_id"], local_distinct, count_group)
    n = int(counts.n.sum())
    return pd.DataFrame([{"n_users": np.int64(n)}])


# rows-only: HLL approximate distinct (result is approximate by design —
# pytest asserts relative error < 3% against the exact count)
@query("q_hll_distinct_users")
def q_hll_distinct_users(sf_dir: str) -> pd.DataFrame:
    from .sketch import approx_distinct

    ds = _read(sf_dir, "events", ["user_id"])
    est = approx_distinct(ds, "user_id")
    return pd.DataFrame([{"n_users_approx": round(float(est), 1)}])


@query(
    "q_join_native",
    """
    SELECT o.o_orderkey, c.c_name, ROUND(o.o_totalprice, 4) AS o_totalprice
    FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
    ORDER BY o.o_orderkey
    """,
)
def q_join_native(sf_dir: str) -> pd.DataFrame:
    """Partitioned inner join, the both-sides-large path: one
    ``ops.shuffle_groups`` over both sides keyed on the customer key, and
    one pandas merge per super-group; contrast with the broadcast joins
    used elsewhere (q_revenue_by_nation) where one side is small
    (SURVEY.md §4.2 partition-vs-broadcast). Both sides are padded to one
    column set, so every block of the union has one schema."""
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"])
    cols = ["o_orderkey", "o_custkey", "o_totalprice", "c_name", "_side"]

    def pad_cust(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(o_orderkey=-1, o_custkey=df.c_custkey, o_totalprice=0.0, _side=np.int8(1))[cols]

    def join_group(g: pd.DataFrame) -> pd.DataFrame:
        o = g[g._side == 0].drop(columns="c_name")
        return o.merge(g.loc[g._side == 1, ["o_custkey", "c_name"]], on="o_custkey")

    sides = [
        orders.map_batches(lambda df: df.assign(c_name="", _side=np.int8(0)), batch_format="pandas"),
        cust.map_batches(pad_cust, batch_format="pandas"),
    ]
    # fan-out from the larger side
    joined = shuffle_groups("q_join_native", sides, ["o_custkey"], join_group, _nrows(sf_dir, "orders"))
    df = joined.to_pandas()[["o_orderkey", "c_name", "o_totalprice"]]
    df["o_totalprice"] = df.o_totalprice.round(4)
    return df.sort_values("o_orderkey").reset_index(drop=True)


# phash near-dup via band LSH over the synthetic images table — SQL-checked
# (the brute-force band+hamming twin lives in __ray_entry__.WORLD_ORACLE)
# and brute-force parity-tested in tests/test_neardup_parity.py.
@query("q_phash_neardup")
def q_phash_neardup(sf_dir: str, max_hamming: int = 3) -> pd.DataFrame:
    """Near-duplicate images by phash, fully distributed:

    1. 4 x 16-bit band explode (vectorized, phash carried along);
    2. ``ops.shuffle_groups`` on the band bucket (~64 super-groups — all
       rows of a bucket land in one group; per-bucket map_groups and the
       native join were measured 10-40x slower at 10^5 buckets);
    3. inside each super-group: sort by bucket, vectorized run-length pair
       generation (``dedup.bucket_pair_indices``), vectorized hamming64
       verify — only verified pairs leave the group;
    4. per-group pair dedup; the final cross-group dedup happens on the
       OUTPUT-scale pair frame (which crosses the driver anyway as the
       query result).

    With ``max_hamming <= 3`` the 4-band LSH is EXACT by pigeonhole (at
    most 3 differing bits touch at most 3 of the 4 bands, so one band
    matches) — the result equals brute-force all-pairs, which is both the
    DuckDB oracle (``__ray_entry__.world_oracle_sql``) and the pytest
    parity oracle."""
    from .codecs import hamming64
    from .worlds import load_world, sf_of_dir

    from .ops import derive_num_blocks, parquet_num_rows

    images_path, _, _ = load_world(sf_of_dir(sf_dir))
    # x4 band explode rows; fan-out derived from the input, not pinned at 64.
    # Coalesce the read into ~8k-row blocks: the groupby sort's slice
    # overhead is (blocks x partitions), and the world's many small files
    # otherwise fragment this 32-byte-row table into hundreds of blocks.
    nimg = parquet_num_rows(images_path)
    ds = rd.read_parquet(
        images_path,
        columns=["image_id", "phash"],
        override_num_blocks=derive_num_blocks(nimg),
    )

    def bands(df: pd.DataFrame) -> pd.DataFrame:
        ph = df.phash.to_numpy().astype(np.int64)
        u = ph.view(np.uint64)
        band = np.repeat(np.arange(4, dtype=np.int64), len(df))
        key = np.concatenate(
            [((u >> np.uint64(16 * b)) & np.uint64(0xFFFF)).astype(np.int64) for b in range(4)]
        )
        bkey = (band << 17) | key  # composite bucket key, band in high bits
        return pd.DataFrame(
            {
                "image_id": np.tile(df.image_id.to_numpy(), 4),
                "bkey": bkey,
                "phash": np.tile(ph, 4),
            }
        )

    EMPTY = pd.DataFrame(
        {
            "img_a": pd.array([], dtype=object),
            "img_b": pd.array([], dtype=object),
            "hamming": pd.array([], dtype=np.int64),
        }
    )

    def pairs_in_supergroup(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["bkey", "image_id"], kind="stable").reset_index(drop=True)
        A, B = dd.bucket_pair_indices(g.bkey.to_numpy())
        if not len(A):
            return EMPTY
        ids = g.image_id.to_numpy()
        ph = g.phash.to_numpy()
        hd = hamming64(ph[A], ph[B])
        keep = hd <= max_hamming
        out = pd.DataFrame(
            {"img_a": ids[A[keep]], "img_b": ids[B[keep]], "hamming": hd[keep].astype(np.int64)}
        )
        return out.drop_duplicates(["img_a", "img_b"])

    banded = ds.map_batches(bands, batch_format="pandas", batch_size=8192)
    rows = nimg * 4 if nimg else None
    out = shuffle_groups("q_phash_neardup", [banded], ["bkey"], pairs_in_supergroup, rows).to_pandas()
    if not len(out):
        return EMPTY
    out = out.drop_duplicates(["img_a", "img_b"])  # cross-group dups, output-scale
    out["hamming"] = out.hamming.astype(np.int64)
    return out[["img_a", "img_b", "hamming"]].sort_values(["img_a", "img_b"]).reset_index(drop=True)


def _lsh_oracle_sql(dim: int = 64, n_planes: int = 8, seed: int = 11) -> str:
    """DuckDB twin for the hyperplane-LSH near-dup: the SAME seeded plane
    constants are embedded in the SQL (full-precision repr), buckets are
    the same sign-bit codes, candidate pairs the same bucket self-join."""
    planes = dd.hyperplane_planes(dim, n_planes, seed)
    terms = []
    for j in range(n_planes):
        vec = "[" + ", ".join(repr(float(x)) for x in planes[:, j]) + "]"
        terms.append(
            f"(CASE WHEN list_dot_product(embedding, {vec}) > 0 THEN {1 << j} ELSE 0 END)"
        )
    bucket = "\n             + ".join(terms)
    return f"""
    WITH b AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb,
               {bucket} AS bucket
               FROM embeddings)
    SELECT a.vec_id AS vec_a, c.vec_id AS vec_b,
           ROUND(list_cosine_similarity(a.emb, c.emb), 4) AS cos
    FROM b a JOIN b c ON a.bucket = c.bucket AND a.vec_id < c.vec_id
    WHERE list_cosine_similarity(a.emb, c.emb) >= 0.3
    ORDER BY vec_a, vec_b
    """


# hyperplane-LSH embedding near-dup (the scale path; label-blocked exact
# variant is q_embedding_neardup) — SQL-checked: the oracle embeds the same
# seeded plane constants
@query("q_embedding_neardup_lsh", _lsh_oracle_sql())
def q_embedding_neardup_lsh(sf_dir: str, threshold: float = 0.3) -> pd.DataFrame:
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def bucketize(df: pd.DataFrame) -> pd.DataFrame:
        V = np.vstack(df.embedding.to_numpy()).astype(np.float64)
        return pd.DataFrame(
            {
                "vec_id": df.vec_id,
                "bucket": dd.hyperplane_buckets(V, n_planes=8, seed=11),
                "embedding": df.embedding,
            }
        )

    EMPTY_PAIRS = pd.DataFrame(
        {
            "vec_a": pd.Series(dtype=np.int64),
            "vec_b": pd.Series(dtype=np.int64),
            "cos": pd.Series(dtype=np.float64),
        }
    )

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return dd.cosine_pairs(g.vec_id.to_numpy(), g.embedding.to_numpy(), threshold)

    res = (
        ds.map_batches(bucketize, batch_format="pandas")
        .groupby("bucket")
        .map_groups(pairs_in_bucket, batch_format="pandas")
    )
    df = res.to_pandas()
    if not len(df):
        return EMPTY_PAIRS
    df["vec_a"] = df.vec_a.astype(np.int64)
    df["vec_b"] = df.vec_b.astype(np.int64)
    return df.sort_values(["vec_a", "vec_b"]).reset_index(drop=True)


@query(
    "q_asof_join",
    """
    WITH o AS (
        SELECT o_custkey, o_orderdate,
               max(o_orderkey) AS o_orderkey,
               arg_max(o_totalprice, o_orderkey) AS o_totalprice
        FROM orders GROUP BY o_custkey, o_orderdate
    )
    SELECT e.event_id, e.user_id, CAST(epoch_us(e.ts) AS BIGINT) AS ts_us,
           o.o_orderkey, round(o.o_totalprice, 4) AS o_totalprice
    FROM events e ASOF JOIN o
      ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate
    ORDER BY e.event_id
    """,
)
def q_asof_join(sf_dir: str) -> pd.DataFrame:
    """As-of join: each event matched to the user's most recent order at
    or before the event time (inner). Ray Data has no as-of operator;
    ``ops.asof_join`` composes it from one ``ops.shuffle_groups`` over both
    sides + a single vectorized ``pandas.merge_asof`` per group (C-level
    by-key backward merge — no per-key loop). Tie rule (several orders at
    the same timestamp): greatest ``o_orderkey`` wins = the SQL twin's
    ``max``/``arg_max`` dedup CTE."""
    from .ops import asof_join, derive_num_blocks
    from .relational import _t

    n_ev = _nrows(sf_dir, "events")
    # coalesce the read: Ray's sort pays a per-(block x partition) slice
    # cost, so fragmented narrow reads make the supergroup shuffle
    # sort-bound (measured 12.6 s -> ~2 s at sf0.1)
    events = rd.read_parquet(
        _t(sf_dir, "events"),
        columns=["event_id", "ts", "user_id"],
        override_num_blocks=derive_num_blocks(n_ev),
    )
    orders = rd.read_parquet(
        _t(sf_dir, "orders"),
        columns=["o_custkey", "o_orderdate", "o_orderkey", "o_totalprice"],
        override_num_blocks=derive_num_blocks(_nrows(sf_dir, "orders")),
    )

    def pre_left(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": df.user_id.to_numpy(np.int64),
                "ts_us": epoch_us(df.ts),
                "event_id": df.event_id.to_numpy(np.int64),
                "o_orderkey": np.full(len(df), -1, np.int64),
                "o_totalprice": np.zeros(len(df), np.float64),
                "_side": np.zeros(len(df), np.int8),
            }
        )

    def pre_right(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": df.o_custkey.to_numpy(np.int64),
                "ts_us": epoch_us(df.o_orderdate),
                "event_id": np.full(len(df), -1, np.int64),
                "o_orderkey": df.o_orderkey.to_numpy(np.int64),
                "o_totalprice": df.o_totalprice.to_numpy(np.float64),
                "_side": np.ones(len(df), np.int8),
            }
        )

    joined = asof_join(
        events.map_batches(pre_left, batch_format="pandas"),
        orders.map_batches(pre_right, batch_format="pandas"),
        on="ts_us",
        by="user_id",
        left_payload=["event_id"],
        right_payload=["o_orderkey", "o_totalprice"],
        rows=n_ev,
    )
    df = joined.to_pandas().sort_values("event_id").reset_index(drop=True)
    df["o_totalprice"] = df.o_totalprice.round(4)
    return df[["event_id", "user_id", "ts_us", "o_orderkey", "o_totalprice"]]


@query(
    "q_tfidf_top_terms",
    """
    WITH words AS (
        SELECT doc_id, unnest(list_filter(regexp_split_to_array(lower(text), '\\s+'),
                                          x -> x <> '')) AS term
        FROM documents
    ),
    tf AS (SELECT doc_id, term, COUNT(*) AS tf FROM words GROUP BY doc_id, term),
    df AS (SELECT term, COUNT(DISTINCT doc_id) AS df FROM words GROUP BY term),
    n AS (SELECT COUNT(*) AS n FROM documents),
    scored AS (
        SELECT tf.doc_id, tf.term,
               tf.tf * ln(CAST(n.n AS DOUBLE) / df.df) AS raw
        FROM tf JOIN df USING (term), n
    ),
    ranked AS (
        SELECT doc_id, term, raw,
               row_number() OVER (PARTITION BY doc_id
                                  ORDER BY raw DESC, term) AS rk
        FROM scored
    )
    SELECT doc_id, CAST(rk AS BIGINT) AS rk, term, round(raw, 6) AS score
    FROM ranked WHERE rk <= 3
    ORDER BY doc_id, rk
    """,
)
def q_tfidf_top_terms(sf_dir: str) -> pd.DataFrame:
    """Per-document top-3 TF-IDF terms (idf = ln(N/df)) — the relevance /
    quality-feature op of a training-data pipeline, built from the two
    shuffles the computation inherently needs (tf is doc-local; df is
    term-global; the final top-k is doc-local again):

    1. tf: explode + count per (doc, term) INSIDE each batch — a document
       lives wholly in one input row, so tf needs no shuffle and the
       (doc_id, term) rows it emits are globally unique.
    2. df: per-batch partial term counts over those unique rows, summed by
       ``supergroup_agg`` — one row per distinct term per batch, never the
       corpus, gathered or shuffled on its measured size.
    3. score join: tf rows and df rows in ONE term-keyed
       ``ops.shuffle_groups``, merged vectorized in-group (pandas merge
       per ~uniform hash bucket; no broadcast — at 100 TB the vocabulary
       doesn't fit a driver-side dict).
    4. top-3: ``ops.topk`` per doc, whose per-batch partials keep at most
       3 rows per doc and are gathered or shuffled on their measured size.

    Ties rank by term asc; scores round(6) in both engines AFTER ranking.
    """
    from .ops import derive_num_blocks
    from .relational import _t

    n_docs = _nrows(sf_dir, "documents")
    ds = rd.read_parquet(
        _t(sf_dir, "documents"),
        columns=["doc_id", "text"],
        override_num_blocks=derive_num_blocks(n_docs, target_rows=512),
    )

    def tf_batch(df: pd.DataFrame) -> pd.DataFrame:
        toks, row = tx.flat(tx.words(df.text))
        toks = pd.DataFrame(
            {"doc_id": df.doc_id.to_numpy()[row], "term": toks.to_numpy(zero_copy_only=False)}
        )
        return toks.groupby(["doc_id", "term"], sort=False).size().rename("tf").reset_index()

    tf = ds.map_batches(tf_batch, batch_format="pandas")

    def df_partial(df: pd.DataFrame) -> pd.DataFrame:
        # (doc_id, term) rows are globally unique -> per-batch row count
        # per term is a valid additive partial of COUNT(DISTINCT doc_id)
        return df.groupby("term", sort=False).size().rename("df").reset_index()

    def df_merge(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("term", sort=False, as_index=False)["df"].sum()

    dfreq = rd.from_pandas(supergroup_agg("q_tfidf_top_terms", tf, ["term"], df_partial, df_merge))

    def pad_tf(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "term": df.term,
                "doc_id": df.doc_id.to_numpy(np.int64),
                "tf": df.tf.to_numpy(np.int64),
                "df": np.full(len(df), -1, np.int64),
            }
        )

    def pad_df(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "term": df.term,
                "doc_id": np.full(len(df), -1, np.int64),
                "tf": np.full(len(df), -1, np.int64),
                "df": df["df"].to_numpy(np.int64),
            }
        )

    # _nrows() returns None when the parquet footer can't be read — fall
    # back to an actual count rather than TypeError-ing in every reducer
    n_total = float(n_docs if n_docs else ds.count())

    def score_group(g: pd.DataFrame) -> pd.DataFrame:
        t = g[g.tf >= 0]
        d = g[g.df >= 0][["term", "df"]]
        m = t.merge(d, on="term", suffixes=("_x", ""))
        idf = np.log(n_total / m["df"].to_numpy(np.float64))
        return pd.DataFrame(
            {
                "doc_id": m.doc_id.to_numpy(np.int64),
                "term": m.term,
                "raw": m.tf.to_numpy(np.float64) * idf,
            }
        )

    sides = [tf.map_batches(pad_tf, batch_format="pandas"), dfreq.map_batches(pad_df, batch_format="pandas")]
    scored = shuffle_groups("q_tfidf_top_terms.score", sides, ["term"], score_group, n_docs)
    out = topk("q_tfidf_top_terms.top3", scored, 3, ["raw", "term"], [True, False], by=["doc_id"])
    out["rk"] = out.groupby("doc_id").cumcount().to_numpy(np.int64) + 1
    out["score"] = out.raw.round(6)
    return out[["doc_id", "rk", "term", "score"]]


@query(
    "q_bloom_join",
    """
    WITH sel AS (SELECT o_orderkey, o_orderpriority FROM orders
                 WHERE o_orderpriority = '1-URGENT' AND o_totalprice > 150000)
    SELECT sel.o_orderpriority, COUNT(*) AS n_items,
           ROUND(SUM(l.l_extendedprice * (1 - l.l_discount)), 2) AS revenue
    FROM lineitem l JOIN sel ON l.l_orderkey = sel.o_orderkey
    GROUP BY sel.o_orderpriority
    ORDER BY sel.o_orderpriority
    """,
)
def q_bloom_join(sf_dir: str) -> pd.DataFrame:
    """Bloom-prefiltered large-large join (revenue of urgent high-value
    orders): the selective side's keys build a 128 KiB mergeable Bloom
    bitmap (one fixed-size partial per batch, OR-reduced streaming —
    ``ops.bloom_build_distributed``), broadcast once; the
    big side drops non-candidate rows BEFORE the join shuffle
    (~86% of lineitem at this filter). False positives only — the join
    itself removes them, so the result is exactly the plain SQL join. At
    100 TB this is the difference between shuffling the whole fact table
    and shuffling the ~matching slice.

    BROADCAST-vs-PARTITION: the selective side is materialized anyway (it
    feeds both the Bloom build and the join), so its size is measured, not
    estimated. Under the gather cap (``ops.gathers``) it is broadcast once
    and merged MAP-SIDE inside every probe batch — no join shuffle at all
    (the ``q_anti_join`` pattern); over it, both sides are padded to one
    column set and meet in one ``ops.shuffle_groups`` keyed on the order
    key, with one pandas inner merge per super-group."""
    from .ops import Broadcast, bloom_build_distributed, bloom_prefilter, gathers

    import pyarrow.compute as pc

    sel = _read(
        sf_dir, "orders", ["o_orderkey", "o_orderpriority", "o_totalprice"]
    ).map_batches(
        lambda b: b.filter(
            pc.and_(
                pc.equal(b["o_orderpriority"], pa.scalar("1-URGENT")),
                pc.greater(b["o_totalprice"], pa.scalar(150000.0)),
            )
        ).select(["o_orderkey", "o_orderpriority"]),
        batch_format="pyarrow",
    )

    # the selective side is consumed twice (bloom build + join probe side);
    # materialize its small filtered output once instead of re-running the
    # read+filter lineage for the second consumer
    sel = sel.materialize()
    bloom = bloom_build_distributed(sel, "o_orderkey")

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])
    cand = bloom_prefilter(li, "l_orderkey", bloom)

    def rev(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(revenue=df.l_extendedprice * (1 - df.l_discount))[
            ["l_orderkey", "revenue"]
        ]

    if gathers("q_bloom_join.sel", sel):
        small = Broadcast("bloom_join_sel", sel.to_pandas())

        def bcast_join(df: pd.DataFrame) -> pd.DataFrame:
            out = rev(df).merge(
                small.get(), left_on="l_orderkey", right_on="o_orderkey", how="inner"
            )
            return out[["l_orderkey", "revenue", "o_orderpriority"]]

        joined = cand.map_batches(bcast_join, batch_format="pandas")
    else:
        cols = ["l_orderkey", "revenue", "o_orderpriority", "_side"]

        def join_group(g: pd.DataFrame) -> pd.DataFrame:
            li = g.loc[g._side == 0, ["l_orderkey", "revenue"]]
            return li.merge(g.loc[g._side == 1, ["l_orderkey", "o_orderpriority"]], on="l_orderkey")

        sides = [
            cand.map_batches(lambda df: rev(df).assign(o_orderpriority="", _side=np.int8(0)), batch_format="pandas"),
            sel.map_batches(
                lambda df: df.assign(l_orderkey=df.o_orderkey, revenue=0.0, _side=np.int8(1))[cols],
                batch_format="pandas",
            ),
        ]
        # fan-out from the larger side
        joined = shuffle_groups("q_bloom_join.join", sides, ["l_orderkey"], join_group, _nrows(sf_dir, "lineitem"))
    keyed = joined.map_batches(
        lambda df: pd.DataFrame({"o_orderpriority": df.o_orderpriority, "n_items": 1, "revenue": df.revenue}),
        batch_format="pandas",
    )
    key = ["o_orderpriority"]
    df = supergroup_agg("q_bloom_join", keyed, key, sum_by(key), sum_by(key))
    df = df.sort_values("o_orderpriority").reset_index(drop=True)
    df["n_items"] = df.n_items.astype(np.int64)
    df["revenue"] = df.revenue.round(2)
    return df[["o_orderpriority", "n_items", "revenue"]]


@query(
    "q_rollup",
    """
    SELECT COALESCE(l_returnflag, 'ALL') AS returnflag,
           COALESCE(l_linestatus, 'ALL') AS linestatus,
           COUNT(*) AS n_items,
           ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue
    FROM lineitem
    GROUP BY ROLLUP (l_returnflag, l_linestatus)
    ORDER BY returnflag, linestatus
    """,
)
def q_rollup(sf_dir: str) -> pd.DataFrame:
    """Multi-level ROLLUP aggregate (revenue by flag x status, by flag, and
    grand total) in ONE pass over the data: the finest level is one
    grouped sum (one row per (flag,status) per batch), and the coarser
    levels are derived by RE-AGGREGATING the finest result, which is
    bounded by the key-product cardinality (|flags| x |statuses|), not the
    table — at 100 TB the rollup gathers tiny partials and does driver
    arithmetic over a handful of rows. NULL group markers follow the SQL
    convention, surfaced as 'ALL' (COALESCE twin)."""
    ds = _read(
        sf_dir, "lineitem",
        ["l_returnflag", "l_linestatus", "l_extendedprice", "l_discount"],
    )

    def rev(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "l_returnflag": df.l_returnflag,
                "l_linestatus": df.l_linestatus,
                "revenue": df.l_extendedprice * (1 - df.l_discount),
                "n_items": 1,
            }
        )

    keys = ["l_returnflag", "l_linestatus"]
    fine = supergroup_agg(
        "q_rollup", ds.map_batches(rev, batch_format="pandas"), keys, sum_by(keys), sum_by(keys)
    )

    def level(df: pd.DataFrame, keys: list[str]) -> pd.DataFrame:
        g = (
            df.groupby(keys, as_index=False)[["n_items", "revenue"]].sum()
            if keys
            else df[["n_items", "revenue"]].sum().to_frame().T
        )
        for c in ("l_returnflag", "l_linestatus"):
            if c not in keys:
                g[c] = "ALL"
        return g

    out = pd.concat(
        [
            level(fine, ["l_returnflag", "l_linestatus"]),
            level(fine, ["l_returnflag"]),
            level(fine, []),
        ],
        ignore_index=True,
    )
    out = out.rename(columns={"l_returnflag": "returnflag", "l_linestatus": "linestatus"})
    out = out.sort_values(["returnflag", "linestatus"]).reset_index(drop=True)
    out["n_items"] = out.n_items.astype(np.int64)
    out["revenue"] = out.revenue.astype(float).round(2)
    return out[["returnflag", "linestatus", "n_items", "revenue"]]


@query(
    "q_event_deltas",
    """
    WITH d AS (SELECT user_id, event_id, CAST(epoch_us(ts) AS BIGINT) AS e
               FROM events),
         g AS (SELECT user_id,
                      e - LAG(e) OVER (PARTITION BY user_id
                                       ORDER BY e, event_id) AS gap
               FROM d)
    SELECT user_id, COUNT(*) AS n_gaps,
           ROUND(AVG(gap) / 1000000.0, 4) AS mean_gap_s,
           ROUND(MAX(gap) / 1000000.0, 4) AS max_gap_s
    FROM g WHERE gap IS NOT NULL
    GROUP BY user_id ORDER BY user_id
    """,
)
def q_event_deltas(sf_dir: str) -> pd.DataFrame:
    """Per-user LAG() inter-event gaps (the window-function shape the
    sessionizer builds on, surfaced as its own operator): each user's
    history co-locates on a coarse hash super-group, and inside the group
    the lag/diff/aggregate is one vectorized pass across EVERY user at once
    — sort by (user, ts, event_id), ``np.diff``, mask the user boundaries,
    then a pandas groupby for (count, mean, max). No per-user Python at any
    user cardinality; single-event users drop out exactly as SQL's
    ``WHERE gap IS NOT NULL``."""

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts"])

    def to_epoch(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(e=epoch_us(df.ts))[["user_id", "event_id", "e"]]

    def deltas_vectorized(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "e", "event_id"], kind="stable").reset_index(drop=True)
        u = g.user_id.to_numpy()
        e = g.e.to_numpy()
        same_user = np.concatenate([[False], u[1:] == u[:-1]])
        gap = np.concatenate([[0], np.diff(e)])
        d = pd.DataFrame({"user_id": u[same_user], "gap": gap[same_user]})
        out = d.groupby("user_id", as_index=False).agg(
            n_gaps=("gap", "size"), gap_sum=("gap", "sum"), gap_max=("gap", "max")
        )
        return out

    df = supergroup_agg("q_event_deltas", ds, ["user_id"], to_epoch, deltas_vectorized)
    df = df.sort_values("user_id").reset_index(drop=True)
    df["n_gaps"] = df.n_gaps.astype(np.int64)
    df["mean_gap_s"] = (
        (df.gap_sum.astype(np.float64) / df.n_gaps.to_numpy(np.float64)) / 1e6
    ).round(4)
    df["max_gap_s"] = (df.gap_max.astype(np.float64) / 1e6).round(4)
    return df[["user_id", "n_gaps", "mean_gap_s", "max_gap_s"]]


@query(
    "q_pivot_events",
    """
    SELECT user_id,
           COUNT(*) FILTER (WHERE event_type = 'click')    AS n_click,
           COUNT(*) FILTER (WHERE event_type = 'error')    AS n_error,
           COUNT(*) FILTER (WHERE event_type = 'purchase') AS n_purchase,
           COUNT(*) FILTER (WHERE event_type = 'signup')   AS n_signup,
           COUNT(*) FILTER (WHERE event_type = 'view')     AS n_view,
           COUNT(*) AS n_total
    FROM events GROUP BY user_id ORDER BY user_id
    """,
)
def q_pivot_events(sf_dir: str) -> pd.DataFrame:
    """Crosstab pivot (long events -> one wide row per user with per-type
    counts): within each batch the partial is a vectorized (user, type)
    size-groupby — so the shuffle moves at most |types| rows per user per
    batch, never raw events — and the supergroup merge re-sums partials and
    unstacks to the wide layout for all its users at once
    (``pivot_table``). The wide schema is fixed by the type domain, so at
    100 TB the output is one bounded row per user and no stage ever holds
    more than a super-group's worth of partials."""
    TYPES = ["click", "error", "purchase", "signup", "view"]
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby(["user_id", "event_type"], sort=False, as_index=False).size()
        return out.rename(columns={"size": "n"})

    def widen(g: pd.DataFrame) -> pd.DataFrame:
        g = g.groupby(["user_id", "event_type"], as_index=False)["n"].sum()
        w = g.pivot_table(index="user_id", columns="event_type", values="n",
                          fill_value=0, aggfunc="sum")
        w = w.reindex(columns=TYPES, fill_value=0)
        w.columns = [f"n_{t}" for t in TYPES]
        w["n_total"] = w.sum(axis=1)
        return w.reset_index()

    df = supergroup_agg("q_pivot_events", ds, ["user_id"], partial, widen)
    df = df.sort_values("user_id").reset_index(drop=True)
    for c in df.columns:
        if c != "user_id":
            df[c] = df[c].astype(np.int64)
    return df[["user_id"] + [f"n_{t}" for t in TYPES] + ["n_total"]]


@query(
    "q_running_total",
    """
    WITH m AS (SELECT o_orderpriority AS priority,
                      strftime(o_orderdate, '%Y-%m') AS month,
                      SUM(o_totalprice) AS rev
               FROM orders GROUP BY 1, 2)
    SELECT priority, month, ROUND(rev, 2) AS month_revenue,
           ROUND(SUM(rev) OVER (PARTITION BY priority ORDER BY month), 2)
               AS cum_revenue
    FROM m ORDER BY priority, month
    """,
)
def q_running_total(sf_dir: str) -> pd.DataFrame:
    """Running cumulative window (monthly revenue per priority with a
    running total): the data-scale work is ONE grouped sum down
    to the (priority, month) level — bounded by the key product, not the
    table — and the ORDER BY window cumsum runs vectorized over that
    bounded aggregate (pandas groupby cumsum). This is the right 100 TB
    shape for any frame-unbounded window over a coarse time grain: never
    window the raw rows, aggregate to the grain first and window the
    aggregate."""
    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_orderdate", "o_totalprice"])

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "priority": df.o_orderpriority,
                "month": df.o_orderdate.dt.strftime("%Y-%m"),
                "rev": df.o_totalprice,
            }
        )

    keys = ["priority", "month"]
    fine = supergroup_agg(
        "q_running_total", ds.map_batches(keyed, batch_format="pandas"), keys, sum_by(keys), sum_by(keys)
    )
    fine = fine.sort_values(keys, kind="stable").reset_index(drop=True)
    fine["cum_revenue"] = fine.groupby("priority", sort=False)["rev"].cumsum().round(2)
    fine["month_revenue"] = fine.rev.round(2)
    return fine[["priority", "month", "month_revenue", "cum_revenue"]]


@query(
    "q_left_join",
    """
    SELECT c.c_custkey,
           COALESCE(o.n_orders, 0) AS n_orders,
           ROUND(COALESCE(o.spend, 0), 2) AS total_spend
    FROM customer c
    LEFT JOIN (SELECT o_custkey, CAST(COUNT(*) AS BIGINT) AS n_orders,
                      SUM(o_totalprice) AS spend
               FROM orders GROUP BY o_custkey) o
      ON c.c_custkey = o.o_custkey
    ORDER BY c.c_custkey
    """,
)
def q_left_join(sf_dir: str) -> pd.DataFrame:
    """LEFT OUTER join (every customer, zero-filled when orderless) as a
    DISTRIBUTED two-sided shuffle — the preserved side is data-scale, so no
    broadcast: orders pre-aggregate per batch (the shuffle moves one
    (custkey, n, spend) partial per key per batch, never raw orders), both
    sides tag-union onto the same key super-group, and each group does ONE
    vectorized pandas left-merge covering all its keys. Null-extension
    happens inside the group, so output rows = left cardinality exactly, at
    any scale and any partitioning."""
    cust = _read(sf_dir, "customer", ["c_custkey"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def cust_tag(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"c_custkey": df.c_custkey, "n_orders": -1, "spend": 0.0}
        )

    def orders_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("o_custkey", sort=False, as_index=False).agg(
            n_orders=("o_totalprice", "size"), spend=("o_totalprice", "sum")
        )
        return g.rename(columns={"o_custkey": "c_custkey"})

    both = cust.map_batches(cust_tag, batch_format="pandas").union(
        orders.map_batches(orders_partial, batch_format="pandas")
    )

    def merge_left(df: pd.DataFrame) -> pd.DataFrame:
        left = df[df.n_orders < 0][["c_custkey"]]
        right = (
            df[df.n_orders >= 0]
            .groupby("c_custkey", as_index=False)[["n_orders", "spend"]]
            .sum()
        )
        m = left.merge(right, on="c_custkey", how="left")
        m["n_orders"] = m.n_orders.fillna(0).astype(np.int64)
        m["total_spend"] = m.spend.fillna(0.0).round(2)
        return m[["c_custkey", "n_orders", "total_spend"]]

    res = supergroup_agg("q_left_join", both, ["c_custkey"], lambda df: df, merge_left)
    return res.sort_values("c_custkey").reset_index(drop=True)


@query(
    "q_weighted_sample",
    """
    WITH keyed AS (
        SELECT o_orderkey, o_totalprice,
               -ln((CAST(CONCAT('0x', substr(md5(CAST(o_orderkey AS VARCHAR)), 1, 8))
                         AS BIGINT) + 1) / 4294967297.0) / o_totalprice AS k
        FROM orders
    )
    SELECT o_orderkey, ROUND(o_totalprice, 2) AS weight
    FROM keyed ORDER BY k, o_orderkey LIMIT 100
    """,
)
def q_weighted_sample(sf_dir: str) -> pd.DataFrame:
    """Weighted sample WITHOUT replacement (k=100, weight = order value) via
    Efraimidis–Spirakis A-ES exponential keys, made DETERMINISTIC and
    partition-invariant by deriving the uniform from md5(o_orderkey) instead
    of an RNG: key = -ln(u)/w, keep the k smallest. Distributed as
    ``ops.topk`` (each batch ships at most k rows, a k-bounded driver
    merge) — the same selection as the ANN top-k, O(k) driver state
    at any corpus size. The SQL twin recomputes the identical md5-anchored
    keys, so the sample is exactly reproducible."""
    import hashlib

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        u = np.array(
            [int(hashlib.md5(str(k).encode()).hexdigest()[:8], 16) for k in df.o_orderkey],
            dtype=np.float64,
        )
        key = -np.log((u + 1.0) / 4294967297.0) / df.o_totalprice.to_numpy(np.float64)
        return pd.DataFrame({"o_orderkey": df.o_orderkey, "weight": df.o_totalprice, "k": key})

    keys = ds.map_batches(keyed, batch_format="pandas")
    top = topk("q_weighted_sample", keys, 100, ["k", "o_orderkey"], [False, False])
    top["weight"] = top.weight.round(2)
    return top[["o_orderkey", "weight"]]


@query(
    "q_json_extract",
    """
    SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
           CAST(SUM(CAST(json_extract_string(props, '$.k') AS BIGINT)) AS BIGINT)
               AS sum_k,
           CAST(MAX(CAST(json_extract_string(props, '$.k') AS BIGINT)) AS BIGINT)
               AS max_k
    FROM events GROUP BY event_type ORDER BY event_type
    """,
)
def q_json_extract(sf_dir: str) -> pd.DataFrame:
    """Semi-structured ELT: extract a field from a JSON payload column and
    aggregate it — the Ray side parses with ONE vectorized regex
    (``Series.str.extract`` on the compiled pattern; no per-row
    ``json.loads`` in the hot path, which is 10-30x slower on flat
    payloads) feeding a per-batch partial aggregate, so raw JSON strings
    never leave their batch. The DuckDB twin uses real ``json_extract``
    — the regex path must agree with a strict JSON parser on every row."""
    ds = _read(sf_dir, "events", ["event_type", "props"])

    def extract(df: pd.DataFrame) -> pd.DataFrame:
        # regex-miss rows (missing key / quoted / float value) become NaN
        # and are dropped — mirroring the SQL twin, where
        # json_extract_string yields NULL and the aggregate skips it
        k = pd.to_numeric(
            df.props.str.extract(r'"k"\s*:\s*(-?\d+)', expand=False), errors="coerce"
        )
        keep = k.notna().to_numpy()
        k = k[keep].astype(np.int64)
        return pd.DataFrame({"event_type": df.event_type[keep], "n": 1, "sum_k": k, "max_k": k})

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("event_type", sort=False, as_index=False).agg(
            n=("n", "sum"), sum_k=("sum_k", "sum"), max_k=("max_k", "max")
        )

    pre = ds.map_batches(extract, batch_format="pandas")
    df = supergroup_agg("q_json_extract", pre, ["event_type"], agg, agg)
    df = df.sort_values("event_type").reset_index(drop=True)
    for c in ("n", "sum_k", "max_k"):
        df[c] = df[c].astype(np.int64)
    return df[["event_type", "n", "sum_k", "max_k"]]


@query(
    "q_funnel",
    """
    WITH d AS (SELECT user_id, event_type, CAST(epoch_us(ts) AS BIGINT) AS e
               FROM events),
         s AS (SELECT user_id, MIN(e) AS signup_e FROM d
               WHERE event_type = 'signup' GROUP BY user_id),
         p AS (SELECT d.user_id, MIN(d.e) AS purchase_e
               FROM d JOIN s USING (user_id)
               WHERE d.event_type = 'purchase' AND d.e >= s.signup_e
               GROUP BY d.user_id)
    SELECT s.user_id, s.signup_e,
           COALESCE(p.purchase_e, -1) AS purchase_e,
           (p.purchase_e IS NOT NULL) AS converted
    FROM s LEFT JOIN p ON s.user_id = p.user_id
    ORDER BY s.user_id
    """,
)
def q_funnel(sf_dir: str) -> pd.DataFrame:
    """Sequence-pattern funnel (signup → first purchase AT OR AFTER it):
    the order-dependent cousin of sessionization. Each user's full history
    co-locates on one hash super-group; inside, the funnel is vectorized
    across every user at once — min signup per user, purchases filtered
    against the user's signup time by a broadcast-aligned merge, min again,
    then a left-merge null-extends non-converters (sentinel -1, matching
    the SQL COALESCE). No per-user Python at any cardinality; at 100 TB
    the shuffle moves only (user, type, epoch) triples."""

    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

    def to_epoch(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df.event_type.isin(["signup", "purchase"])]
        return pd.DataFrame(
            {
                "user_id": df.user_id,
                "event_type": df.event_type,
                "e": epoch_us(df.ts),
            }
        )

    def funnel(g: pd.DataFrame) -> pd.DataFrame:
        s = (
            g[g.event_type == "signup"]
            .groupby("user_id", as_index=False)["e"].min()
            .rename(columns={"e": "signup_e"})
        )
        pur = g[g.event_type == "purchase"][["user_id", "e"]].merge(s, on="user_id")
        pur = pur[pur.e >= pur.signup_e]
        p = (
            pur.groupby("user_id", as_index=False)["e"].min()
            .rename(columns={"e": "purchase_e"})
        )
        out = s.merge(p, on="user_id", how="left")
        out["converted"] = out.purchase_e.notna()
        out["purchase_e"] = out.purchase_e.fillna(-1).astype(np.int64)
        return out[["user_id", "signup_e", "purchase_e", "converted"]]

    df = supergroup_agg("q_funnel", ds, ["user_id"], to_epoch, funnel)
    df = df.sort_values("user_id").reset_index(drop=True)
    df["signup_e"] = df.signup_e.astype(np.int64)
    return df[["user_id", "signup_e", "purchase_e", "converted"]]


@query(
    "q_embedding_stats",
    """
    SELECT label, CAST(COUNT(*) AS BIGINT) AS n,
           ROUND(AVG(sqrt(list_sum(list_transform(CAST(embedding AS DOUBLE[]),
                                                  x -> x * x)))), 6) AS mean_norm
    FROM embeddings GROUP BY label ORDER BY label
    """,
)
def q_embedding_stats(sf_dir: str) -> pd.DataFrame:
    """Per-label embedding L2-norm statistics — the vector-column profiling
    pass a training pipeline runs before normalizing/indexing. Norms are
    computed per batch with one f64 matrix reduction (list column viewed as
    an (n, d) array, square-sum along the row axis), then the per-label
    mean rides one grouped sum as (sum, n). Cast-to-DOUBLE
    parity with the SQL twin: the stored floats are f32, both sides
    promote before arithmetic."""
    ds = _read(sf_dir, "embeddings", ["label", "embedding"])

    def norms(df: pd.DataFrame) -> pd.DataFrame:
        m = np.stack(df.embedding.to_numpy()).astype(np.float64)
        return pd.DataFrame(
            {"label": df.label.to_numpy(np.int64), "norm": np.sqrt((m * m).sum(axis=1)), "n": 1}
        )

    df = supergroup_agg(
        "q_embedding_stats", ds.map_batches(norms, batch_format="pandas"), ["label"],
        sum_by(["label"]), sum_by(["label"]),
    )
    df = df.sort_values("label").reset_index(drop=True)
    df["mean_norm"] = (df.norm / df.n).round(6)
    df["label"] = df.label.astype(np.int64)
    df["n"] = df.n.astype(np.int64)
    return df[["label", "n", "mean_norm"]]


@query(
    "q_full_outer_join",
    """
    SELECT COALESCE(a.user_id, b.user_id) AS user_id,
           COALESCE(a.n_click, 0) AS n_click,
           COALESCE(b.n_purchase, 0) AS n_purchase
    FROM (SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_click FROM events
          WHERE event_type = 'click' GROUP BY user_id) a
    FULL OUTER JOIN
         (SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_purchase FROM events
          WHERE event_type = 'purchase' GROUP BY user_id) b
      ON a.user_id = b.user_id
    ORDER BY user_id
    """,
)
def q_full_outer_join(sf_dir: str) -> pd.DataFrame:
    """FULL OUTER join (clickers vs purchasers, both sides preserved) with
    the same two-sided tag-union supergroup shuffle as ``q_left_join`` —
    both sides are data-scale aggregates, neither is broadcast; the outer
    merge and zero-fill happen vectorized inside each key group, so output
    cardinality is the key union exactly at any partitioning."""
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df.event_type.isin(["click", "purchase"])]
        g = df.groupby(["user_id", "event_type"], sort=False, as_index=False).size()
        return g.rename(columns={"size": "n"})

    def outer(g: pd.DataFrame) -> pd.DataFrame:
        g = g.groupby(["user_id", "event_type"], as_index=False)["n"].sum()
        w = g.pivot_table(index="user_id", columns="event_type", values="n",
                          fill_value=0, aggfunc="sum")
        w = w.reindex(columns=["click", "purchase"], fill_value=0)
        w.columns = ["n_click", "n_purchase"]
        w = w.reset_index()
        # key union minus keys with NEITHER side (filtered event types only)
        return w[(w.n_click > 0) | (w.n_purchase > 0)]

    df = supergroup_agg("q_full_outer_join", ds, ["user_id"], partial, outer)
    df = df.sort_values("user_id").reset_index(drop=True)
    for c in ("n_click", "n_purchase"):
        df[c] = df[c].astype(np.int64)
    return df[["user_id", "n_click", "n_purchase"]]


@query(
    "q_set_ops",
    """
    WITH c AS (SELECT DISTINCT user_id FROM events WHERE event_type = 'click'),
         p AS (SELECT DISTINCT user_id FROM events WHERE event_type = 'purchase')
    SELECT user_id, 'both' AS tag FROM (SELECT user_id FROM c INTERSECT
                                        SELECT user_id FROM p)
    UNION ALL
    SELECT user_id, 'click_only' AS tag FROM (SELECT user_id FROM c EXCEPT
                                              SELECT user_id FROM p)
    ORDER BY tag, user_id
    """,
)
def q_set_ops(sf_dir: str) -> pd.DataFrame:
    """INTERSECT / EXCEPT set operations on distinct key sets, as ONE
    shuffle: both sides pre-distinct per batch with a side bitmask (1 =
    click, 2 = purchase), the supergroup merge ORs masks per key and emits
    'both' (mask 3) or 'click_only' (mask 1) — set algebra without
    separate distinct passes or a join. N-way set ops generalize by
    widening the bitmask."""
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df.event_type.isin(["click", "purchase"])]
        mask = np.where(df.event_type.to_numpy() == "click", 1, 2)
        out = pd.DataFrame({"user_id": df.user_id, "mask": mask})
        # distinct (user, bit) pairs — masks are disjoint bits, so the
        # per-user OR is a plain SUM over distinct pairs (fully vectorized)
        return out.drop_duplicates()

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        m = g.drop_duplicates().groupby("user_id", sort=False, as_index=False)["mask"].sum()
        m = m[m["mask"] != 2]  # purchase-only not requested
        m["tag"] = np.where(m["mask"] == 3, "both", "click_only")
        return m[["user_id", "tag"]]

    res = supergroup_agg("q_set_ops", ds, ["user_id"], partial, merge)
    return res.sort_values(["tag", "user_id"]).reset_index(drop=True)[["user_id", "tag"]]


@query(
    "q_gap_fill",
    """
    WITH bounds AS (SELECT date_trunc('month', MIN(o_orderdate)) AS lo,
                           date_trunc('month', MAX(o_orderdate)) AS hi
                    FROM orders),
         months AS (SELECT strftime(m, '%Y-%m') AS month
                    FROM bounds,
                         UNNEST(generate_series(lo, hi, INTERVAL 1 MONTH)) AS t(m)),
         prios AS (SELECT DISTINCT o_orderpriority AS priority FROM orders),
         agg AS (SELECT o_orderpriority AS priority,
                        strftime(o_orderdate, '%Y-%m') AS month,
                        CAST(COUNT(*) AS BIGINT) AS n
                 FROM orders GROUP BY 1, 2)
    SELECT p.priority, m.month, COALESCE(a.n, 0) AS n
    FROM prios p CROSS JOIN months m
    LEFT JOIN agg a ON a.priority = p.priority AND a.month = m.month
    ORDER BY p.priority, m.month
    """,
)
def q_gap_fill(sf_dir: str) -> pd.DataFrame:
    """Calendar-spine gap fill (every (priority, month) cell of the
    observed date range, zero-filled where no orders landed) — the
    time-series densification op dashboards and trainers need before
    windowing. The data-scale work is one grouped count to
    the (priority, month) grain plus an exact min/max date aggregate; the
    spine cross-product and left-merge run on the driver over the
    key-product-bounded aggregate only. At 100 TB nothing but grain
    partials crosses the wire."""
    from ray.data.aggregate import Max, Min

    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_orderdate"])
    b = ds.aggregate(
        Min("o_orderdate", alias_name="lo"), Max("o_orderdate", alias_name="hi")
    )

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "priority": df.o_orderpriority,
                "month": df.o_orderdate.dt.strftime("%Y-%m"),
                "n": 1,
            }
        )

    keys = ["priority", "month"]
    fine = supergroup_agg(
        "q_gap_fill", ds.map_batches(keyed, batch_format="pandas"), keys, sum_by(keys), sum_by(keys)
    )
    months = pd.period_range(
        pd.Timestamp(b["lo"]).to_period("M"), pd.Timestamp(b["hi"]).to_period("M"), freq="M"
    ).strftime("%Y-%m")
    spine = pd.MultiIndex.from_product(
        [sorted(fine.priority.unique()), months], names=["priority", "month"]
    ).to_frame(index=False)
    out = spine.merge(fine[["priority", "month", "n"]], on=["priority", "month"], how="left")
    out["n"] = out.n.fillna(0).astype(np.int64)
    return out.sort_values(["priority", "month"]).reset_index(drop=True)


@query(
    "q_above_group_avg",
    """
    SELECT o.o_orderkey, o.o_custkey, ROUND(o.o_totalprice, 2) AS o_totalprice
    FROM orders o
    WHERE o.o_totalprice > (SELECT AVG(o2.o_totalprice) FROM orders o2
                            WHERE o2.o_custkey = o.o_custkey)
    ORDER BY o.o_orderkey
    """,
)
def q_above_group_avg(sf_dir: str) -> pd.DataFrame:
    """Correlated-subquery decorrelation (orders above their own customer's
    average): the classic rewrite — aggregate per key, rejoin, filter —
    done in ONE supergroup shuffle instead of aggregate + join: each key's
    full rows co-locate, the group computes every key's mean with a
    vectorized transform and filters in place. No second pass over the
    data, no join operator, exact float parity (same sum/count division
    DuckDB performs per key)."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])

    def above_avg(g: pd.DataFrame) -> pd.DataFrame:
        avg = g.groupby("o_custkey")["o_totalprice"].transform("mean")
        out = g[g.o_totalprice > avg].copy()
        return out

    df = supergroup_agg("q_above_group_avg", ds, ["o_custkey"], lambda df: df, above_avg)
    df = df.sort_values("o_orderkey").reset_index(drop=True)
    df["o_totalprice"] = df.o_totalprice.round(2)
    return df[["o_orderkey", "o_custkey", "o_totalprice"]]


@query(
    "q_moving_avg",
    """
    WITH m AS (SELECT strftime(o_orderdate, '%Y-%m') AS month,
                      SUM(o_totalprice) AS rev
               FROM orders GROUP BY 1)
    SELECT month, ROUND(rev, 2) AS month_revenue,
           ROUND(AVG(rev) OVER (ORDER BY month
                                ROWS BETWEEN 2 PRECEDING AND CURRENT ROW), 2)
               AS ma3
    FROM m ORDER BY month
    """,
)
def q_moving_avg(sf_dir: str) -> pd.DataFrame:
    """3-month trailing moving average of revenue — the bounded-frame
    window cousin of ``q_running_total``: aggregate to the month grain with
    one grouped sum (the only data-scale stage), then the
    ROWS-frame window runs vectorized over the bounded aggregate
    (``rolling(3, min_periods=1)``). Same divisor semantics as SQL AVG
    OVER a short leading frame (frame size, not 3) — pandas min_periods
    matches exactly."""
    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_orderdate", "o_totalprice"])

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"month": df.o_orderdate.dt.strftime("%Y-%m"), "rev": df.o_totalprice}
        )

    fine = supergroup_agg(
        "q_moving_avg", ds.map_batches(keyed, batch_format="pandas"), ["month"],
        sum_by(["month"]), sum_by(["month"]),
    )
    fine = fine.sort_values("month", kind="stable").reset_index(drop=True)
    fine["ma3"] = fine.rev.rolling(3, min_periods=1).mean().round(2)
    fine["month_revenue"] = fine.rev.round(2)
    return fine[["month", "month_revenue", "ma3"]]


@query(
    "q_partition_pruned_scan",
    """
    SELECT l_linestatus, CAST(COUNT(*) AS BIGINT) AS n,
           ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue
    FROM lineitem WHERE l_returnflag = 'R'
    GROUP BY l_linestatus ORDER BY l_linestatus
    """,
)
def q_partition_pruned_scan(sf_dir: str) -> pd.DataFrame:
    """Read-side partition pruning as a first-class query: the fact table
    is written ONCE (cached) as hive-partitioned parquet on the filter
    column, and the query's read opens ONLY the matching partition
    directory — the predicate never runs, the other partitions' bytes
    never leave storage. At 100 TB this is the difference between a full
    scan + filter and touching 1/|partitions| of the data; same layout
    the flagship's resume pruning and the IVF centroid partitions use."""
    import os

    import ray.data as rd

    from .ops import derive_num_blocks, parquet_num_rows
    from .state.checkpoint import cache_path, publish

    src = os.path.join(sf_dir, "lineitem.parquet")
    root = cache_path("citygml2objv2_ray_part", src)
    if not os.path.isdir(root):
        # write-once cache, atomic against concurrent processes; a lost
        # race keeps the other writer's identical layout
        ds = rd.read_parquet(
            src,
            columns=["l_returnflag", "l_linestatus", "l_extendedprice", "l_discount"],
        )
        with publish(root) as tmp:
            ds.write_parquet(tmp, partition_cols=["l_returnflag"])

    part = os.path.join(root, "l_returnflag=R")
    pruned = rd.read_parquet(
        part,
        columns=["l_linestatus", "l_extendedprice", "l_discount"],
        override_num_blocks=derive_num_blocks(parquet_num_rows(part)),
    )

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "l_linestatus": df.l_linestatus,
                "n": 1,
                "revenue": df.l_extendedprice * (1 - df.l_discount),
            }
        )

    key = ["l_linestatus"]
    df = supergroup_agg(
        "q_partition_pruned_scan", pruned.map_batches(keyed, batch_format="pandas"), key, sum_by(key), sum_by(key)
    )
    df = df.sort_values("l_linestatus").reset_index(drop=True)
    df["n"] = df.n.astype(np.int64)
    df["revenue"] = df.revenue.round(2)
    return df[["l_linestatus", "n", "revenue"]]


@query(
    "q_interval_join",
    """
    WITH d AS (SELECT user_id, event_id, event_type,
                      CAST(epoch_us(ts) AS BIGINT) AS e FROM events),
         p AS (SELECT user_id, event_id, e FROM d WHERE event_type = 'purchase'),
         c AS (SELECT user_id, e FROM d WHERE event_type = 'click')
    SELECT p.event_id AS purchase_id,
           CAST(COUNT(c.e) AS BIGINT) AS n_recent_clicks
    FROM p LEFT JOIN c
      ON c.user_id = p.user_id AND c.e >= p.e - 1800000000 AND c.e <= p.e
    GROUP BY p.event_id ORDER BY purchase_id
    """,
)
def q_interval_join(sf_dir: str) -> pd.DataFrame:
    """Interval (windowed) join — clicks in the 30 minutes up to each
    purchase, per user — WITHOUT expanding the pair space: inside each user
    super-group, the interval shard's kernel (``streaming.interval_counts``:
    two backward as-of lookups against the per-user click cumcount give
    the inclusive window count as cum(<=e) - cum(<=e-W-1)) runs
    vectorized across every user at once (``merge_asof(by=user)``). The
    naive range join is O(clicks x purchases) per user; this is
    O((clicks + purchases) log) with only (user, epoch) pairs crossing the
    shuffle — the stream-stream windowed-join shape at batch scale."""
    from .streaming import interval_counts

    W = 1_800_000_000  # 30 min in µs
    ds = _read(sf_dir, "events", ["user_id", "event_id", "event_type", "ts"])

    def to_epoch(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df.event_type.isin(["click", "purchase"])]
        return pd.DataFrame(
            {
                "user_id": df.user_id,
                "event_id": df.event_id,
                "event_type": df.event_type,
                "e": epoch_us(df.ts),
            }
        )

    def window_count(g: pd.DataFrame) -> pd.DataFrame:
        return interval_counts(g[g.event_type == "click"], g[g.event_type == "purchase"], W)

    df = supergroup_agg("q_interval_join", ds, ["user_id"], to_epoch, window_count)
    df = df.sort_values("purchase_id").reset_index(drop=True)
    df["n_recent_clicks"] = df.n_recent_clicks.astype(np.int64)
    return df[["purchase_id", "n_recent_clicks"]]


@query(
    "q_string_agg",
    """
    SELECT user_id,
           string_agg(DISTINCT event_type, ',' ORDER BY event_type) AS types,
           CAST(COUNT(DISTINCT event_type) AS BIGINT) AS n_types
    FROM events GROUP BY user_id ORDER BY user_id
    """,
)
def q_string_agg(sf_dir: str) -> pd.DataFrame:
    """Ordered-distinct string aggregation per key (array_agg/string_agg)
    with ZERO per-key string building: the small categorical domain maps
    each type to a bit, the per-user OR rides the same distinct-pair-sum
    shuffle as ``q_set_ops``, and the final join string is a LOOKUP into
    the 2^|domain| precomputed strings — vectorized ``Series.map`` over
    int masks, no Python join per user at any cardinality. (For unbounded
    domains the fallback is a per-group join over the supergroup — this is
    the high-cardinality-key, small-domain fast path a log/event table
    almost always satisfies.)"""
    TYPES = ["click", "error", "purchase", "signup", "view"]
    BIT = {t: 1 << i for i, t in enumerate(TYPES)}
    MASK_STR = {
        m: ",".join(t for t in TYPES if m & BIT[t]) for m in range(1 << len(TYPES))
    }
    MASK_N = {m: bin(m).count("1") for m in range(1 << len(TYPES))}

    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {"user_id": df.user_id, "bit": df.event_type.map(BIT).astype(np.int64)}
        )
        return out.drop_duplicates()

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        m = g.drop_duplicates().groupby("user_id", sort=False, as_index=False)["bit"].sum()
        m["types"] = m.bit.map(MASK_STR)
        m["n_types"] = m.bit.map(MASK_N).astype(np.int64)
        return m[["user_id", "types", "n_types"]]

    res = supergroup_agg("q_string_agg", ds, ["user_id"], partial, merge)
    return res.sort_values("user_id").reset_index(drop=True)


def _format_cache(sf_dir: str, fmt: str):
    """Write-once (atomic-publish) copy of the events table in another
    wire format, for the multi-format ingestion queries."""
    import os

    from .state.checkpoint import cache_path, publish

    root = cache_path("citygml2objv2_ray_fmt", os.path.join(sf_dir, "events.parquet"), fmt)
    if os.path.isdir(root):
        return root
    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])
    with publish(root) as tmp:
        if fmt == "json":
            ds.write_json(tmp)
        else:
            ds.write_csv(tmp)
    return root


def _events_by_type_from(site: str, ds: rd.Dataset) -> pd.DataFrame:
    keyed = ds.map_batches(
        lambda df: pd.DataFrame({"event_type": df.event_type, "n": 1, "sum_value": df.value}),
        batch_format="pandas",
    )
    key = ["event_type"]
    df = supergroup_agg(site, keyed, key, sum_by(key), sum_by(key))
    df = df.sort_values("event_type").reset_index(drop=True)
    df["n"] = df.n.astype(np.int64)
    df["sum_value"] = df.sum_value.round(4)
    return df[["event_type", "n", "sum_value"]]


_FMT_SQL = """
    SELECT event_type, COUNT(*) AS n, ROUND(SUM(value), 4) AS sum_value
    FROM events GROUP BY event_type ORDER BY event_type
"""


@query("q_json_source", _FMT_SQL)
def q_json_source(sf_dir: str) -> pd.DataFrame:
    """Multi-format ingestion: the events table round-trips through JSONL
    (``write_json`` once, cached atomically; ``read_json`` streams it back
    as Arrow blocks) and must aggregate to exactly the parquet truth —
    the same pipeline works when the 100 TB corpus arrives as JSON logs
    instead of parquet."""
    root = _format_cache(sf_dir, "json")
    return _events_by_type_from("q_json_source", rd.read_json(root))


@query("q_csv_source", _FMT_SQL)
def q_csv_source(sf_dir: str) -> pd.DataFrame:
    """Multi-format ingestion, CSV flavor (header-typed ``read_csv``):
    same contract as ``q_json_source`` — format-independent results."""
    root = _format_cache(sf_dir, "csv")
    return _events_by_type_from("q_csv_source", rd.read_csv(root))


@query(
    "q_global_sort_slice",
    """
    SELECT o_orderkey, ROUND(o_totalprice, 2) AS o_totalprice
    FROM orders ORDER BY o_totalprice DESC, o_orderkey
    LIMIT 20 OFFSET 100
    """,
)
def q_global_sort_slice(sf_dir: str) -> pd.DataFrame:
    """Distributed GLOBAL sort (Ray's range-partitioned ``Dataset.sort``)
    surfaced as its own operator: a mid-stream slice (rows 100-119 of the
    full ordering) genuinely needs a total order — per-batch partial top-k
    (the ``q_topk_orders`` path) cannot produce it without k growing to
    offset+limit. Ties broken deterministically by the secondary key. The
    driver sees only the first offset+limit rows (``limit()`` stops the
    sorted stream early); the sort itself is the one intentionally
    all-to-all operator in the registry — use top-k or bucketing when
    semantics allow, this when they don't."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    head = (
        ds.sort(["o_totalprice", "o_orderkey"], descending=[True, False])
        .limit(120)
        .to_pandas()
    )
    out = head.iloc[100:120].reset_index(drop=True)
    out["o_totalprice"] = out.o_totalprice.round(2)
    return out[["o_orderkey", "o_totalprice"]]
