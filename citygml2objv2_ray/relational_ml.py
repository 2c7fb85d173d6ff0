"""Text / dedup / similarity queries over documents+embeddings, with DuckDB
oracles where SQL can express the op (otherwise rows-only; the pytest suite
carries the brute-force oracle instead). Importing this module populates the
same REGISTRY/ORACLE as ``relational``.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd
from ray.data.aggregate import Sum

from . import dedup as dd
from . import text as tx
from .relational import ORACLE, REGISTRY, _nrows, _read, _t, query

# ---------------------------------------------------------------------------
# text analysis (SQL-checkable pieces)
# ---------------------------------------------------------------------------


@query(
    "q_token_count",
    """
    SELECT doc_id,
           CASE WHEN trim(text) = '' THEN 0
                ELSE CAST(array_length(regexp_split_to_array(trim(text), '\\s+')) AS BIGINT)
           END AS n_tokens,
           CAST(length(text) AS BIGINT) AS n_chars
    FROM documents ORDER BY doc_id
    """,
)
def q_token_count(sf_dir: str) -> pd.DataFrame:
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df.doc_id,
                "n_tokens": tx.token_count(df.text),
                "n_chars": df.text.fillna("").str.len().astype(np.int64),
            }
        )

    return ds.map_batches(fn, batch_format="pandas").to_pandas().sort_values("doc_id").reset_index(drop=True)


@query(
    "q_token_count_bpe",
    f"""
    SELECT doc_id,
           CAST(len(list_filter(regexp_extract_all(text, '{tx.BPE_PATTERN_SQL.replace("'", "''")}'),
                                t -> trim(t) <> '')) AS BIGINT) AS n_tokens_bpe
    FROM documents ORDER BY doc_id
    """,
)
def q_token_count_bpe(sf_dir: str) -> pd.DataFrame:
    """BPE-ish token counting (build brief: 'token counting (whitespace +
    a BPE-ish regex)'): GPT-2-shaped pre-tokenizer, lookahead-free so the
    DuckDB RE2 twin produces identical matches."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc_id": df.doc_id, "n_tokens_bpe": tx.bpe_token_count(df.text)}
        )

    return (
        ds.map_batches(fn, batch_format="pandas")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


@query(
    "q_quality",
    """
    SELECT doc_id,
           CAST(length(text) AS BIGINT) AS n_chars,
           CAST(length(regexp_replace(text, '[^.,!?]', '', 'g')) AS BIGINT) AS n_punct,
           ROUND(CASE WHEN length(text) > 0
                 THEN length(regexp_replace(text, '[^.,!?]', '', 'g')) * 1.0 / length(text)
                 ELSE 0 END, 6) AS punct_ratio
    FROM documents ORDER BY doc_id
    """,
)
def q_quality(sf_dir: str) -> pd.DataFrame:
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        n_chars, n_punct = tx.punct_stats(df.text)
        ratio = np.round(np.where(n_chars > 0, n_punct / np.maximum(n_chars, 1), 0.0), 6)
        return pd.DataFrame(
            {"doc_id": df.doc_id, "n_chars": n_chars, "n_punct": n_punct, "punct_ratio": ratio}
        )

    return ds.map_batches(fn, batch_format="pandas").to_pandas().sort_values("doc_id").reset_index(drop=True)


@query(
    "q_exact_dedup_docs",
    """
    SELECT md5(text) AS content_hash, COUNT(*) AS n_docs, MIN(doc_id) AS first_doc
    FROM documents GROUP BY content_hash HAVING COUNT(*) > 1
    ORDER BY content_hash
    """,
)
def q_exact_dedup_docs(sf_dir: str) -> pd.DataFrame:
    """Exact dedup: vectorized content hash per batch → cardinality-robust
    super-group aggregate (the hash key space is one key per distinct doc
    — Ray's per-key aggregate degrades past ~10^4 keys; see
    ``ops.supergroup_agg``); duplicate groups only."""
    from .ops import supergroup_agg

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(content_hash=tx.md5_hex(df.text))
        g = df.groupby("content_hash", sort=False).agg(
            n_docs=("doc_id", "size"), first_doc=("doc_id", "min")
        )
        return g.reset_index()

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("content_hash", sort=False).agg(
            n_docs=("n_docs", "sum"), first_doc=("first_doc", "min")
        )
        g = g.reset_index()
        return g[g.n_docs > 1]

    df = supergroup_agg(
        ds, ["content_hash"], partial, merge, num_rows_hint=_nrows(sf_dir, "documents")
    ).to_pandas()
    if not len(df):
        return pd.DataFrame(
            {
                "content_hash": pd.Series(dtype=object),
                "n_docs": pd.Series(dtype=np.int64),
                "first_doc": pd.Series(dtype=np.int64),
            }
        )
    df = df.sort_values("content_hash").reset_index(drop=True)
    df["n_docs"] = df["n_docs"].astype(np.int64)
    return df[["content_hash", "n_docs", "first_doc"]]


_STOPLIST_SQL = {
    lang: "[" + ", ".join(f"'{w}'" for w in sorted(ws)) + "]"
    for lang, ws in tx.STOPWORDS.items()
}


@query(
    "q_langid",
    f"""
    WITH base AS (
        SELECT doc_id, text,
               regexp_replace(lower(trim(text)), '\\s+', ' ', 'g') AS norm,
               list_transform(regexp_extract_all(text, '[a-zA-ZÀ-ÿ]+'),
                              w -> lower(w)) AS words
        FROM documents
    ),
    scored AS (
        SELECT doc_id,
               CASE WHEN trim(text) = '' THEN 0
                    ELSE CAST(array_length(regexp_split_to_array(trim(text), '\\s+')) AS BIGINT)
               END AS n_tokens,
               len(words) AS nw,
               len(list_filter(words, w -> list_contains({_STOPLIST_SQL['en']}, w))) AS c_en,
               len(list_filter(words, w -> list_contains({_STOPLIST_SQL['de']}, w))) AS c_de,
               len(list_filter(words, w -> list_contains({_STOPLIST_SQL['fr']}, w))) AS c_fr,
               len(list_filter(words, w -> list_contains({_STOPLIST_SQL['es']}, w))) AS c_es,
               CAST(CONCAT('0x', substr(md5(norm), 1, 16)) AS UBIGINT) AS fp_u
        FROM base
    ),
    r AS (
        SELECT doc_id, n_tokens,
               CASE WHEN nw = 0 THEN 0.0 ELSE GREATEST(
                   c_en * 1.0 / nw, c_de * 1.0 / nw, c_fr * 1.0 / nw, c_es * 1.0 / nw
               ) END AS m,
               c_en * 1.0 / GREATEST(nw, 1) AS s_en, c_de * 1.0 / GREATEST(nw, 1) AS s_de,
               c_fr * 1.0 / GREATEST(nw, 1) AS s_fr, c_es * 1.0 / GREATEST(nw, 1) AS s_es,
               nw, fp_u
        FROM scored
    )
    SELECT doc_id,
           CASE WHEN nw = 0 OR m <= 0.03 THEN 'unknown'
                WHEN s_en = m THEN 'en' WHEN s_de = m THEN 'de'
                WHEN s_fr = m THEN 'fr' ELSE 'es' END AS lang_pred,
           n_tokens,
           CAST(CASE WHEN fp_u >= CAST(9223372036854775808 AS UBIGINT)
                     THEN CAST(fp_u AS HUGEINT) - 18446744073709551616
                     ELSE CAST(fp_u AS HUGEINT) END AS BIGINT) AS fingerprint
    FROM r ORDER BY doc_id
    """,
)
def q_langid(sf_dir: str) -> pd.DataFrame:
    """Heuristic language ID + token count + md5-anchored fingerprint —
    SQL-checked: the stopword-ratio argmax (first language in en/de/fr/es
    order wins ties, > 0.03 threshold) and the fingerprint are both
    recomputable in DuckDB."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = ds.map_batches(
        tx.TextScorer(), batch_format="pandas", batch_size=512
    ).to_pandas()
    return out[["doc_id", "lang_pred", "n_tokens", "fingerprint"]].sort_values("doc_id").reset_index(drop=True)


_PAIRS_EMPTY = pd.DataFrame(
    {
        "doc_a": pd.array([], dtype=np.int64),
        "doc_b": pd.array([], dtype=np.int64),
        "jaccard": pd.array([], dtype=float),
    }
)

_PAIRGEN_EMPTY = pd.DataFrame(
    {
        "doc_a": pd.array([], dtype=np.int64),
        "doc_b": pd.array([], dtype=np.int64),
    }
)

_HALVES_EMPTY = pd.DataFrame(
    {
        "key": pd.array([], dtype=np.int64),
        "doc_a": pd.array([], dtype=np.int64),
        "doc_b": pd.array([], dtype=np.int64),
        "side": pd.array([], dtype=np.int8),
        "kind": pd.array([], dtype=np.int8),
        "text": pd.array([], dtype=object),
        "_sg": pd.array([], dtype=np.int64),
    }
)


_KIND_DOC, _KIND_PAIR = np.int8(0), np.int8(1)


def make_pair_halves(doc_a: np.ndarray, doc_b: np.ndarray, ng: int) -> pd.DataFrame:
    """Explode candidate pairs into the doc-keyed half rows the verify
    tail's first shuffle consumes (side 0 keyed by doc_a, side 1 by
    doc_b). Exposed so pair GENERATORS (LSH band pairgen, the n-gram
    shared-count filter) can emit halves directly from their own
    map_groups — fusing away the dedicated ``pair_halves`` map pass the
    tail otherwise runs over the whole candidate set."""
    a = np.asarray(doc_a, dtype=np.int64)
    b = np.asarray(doc_b, dtype=np.int64)
    key = np.concatenate([a, b])
    n = len(a)
    return pd.DataFrame(
        {
            "key": key,
            "doc_a": np.concatenate([a, a]),
            "doc_b": np.concatenate([b, b]),
            "side": np.concatenate([np.zeros(n, np.int8), np.ones(n, np.int8)]),
            "kind": np.full(2 * n, _KIND_PAIR, np.int8),
            "text": np.full(2 * n, "", dtype=object),
            "_sg": dd.supergroup_of(key, ng),
        }
    )


def _jaccard_pairs_kernel(
    a: np.ndarray,
    b: np.ndarray,
    ta: np.ndarray,
    tb: np.ndarray,
    shingle_fn,
    shingle_batch_fn,
    threshold: float,
) -> pd.DataFrame:
    """Vectorized exact-Jaccard over aligned pair arrays (ids a/b, texts
    ta/tb) — the shared compute core of both verify paths. Shingle each
    UNIQUE doc once (one batch call when ``shingle_batch_fn`` is given),
    then verify ALL pairs in one pass: concatenate both docs' sorted-unique
    shingle arrays per pair tagged with the pair index, lexsort, and count
    adjacent equal (tag, value) entries — that count IS |A ∩ B| because
    each side is unique, so a value appearing twice within one pair's span
    must come from both sides. Replaces a per-pair intersect1d loop that
    dominated at 10^6 candidates (87 s → ~4 s).

    When candidates heavily SHARE docs (LSH noise: sf0.1 has ~270k
    candidates over 5k docs, ~109 pairs per doc), the pair-expanded sort
    touches each doc's shingles once PER PAIR — 16 concurrent 7M-entry
    lexsorts were measured memory-bandwidth-bound (~450 CPU-s for 27 s of
    kernel math). The default here is therefore an INVERTED-INDEX count
    over the UNIQUE docs only: one stable sort of the unique shingle
    postings, run-length co-occurrence pair emission
    (``dd.bucket_pair_indices``), and a searchsorted lookup of each
    candidate's (lo, hi) code key — cost O(unique shingle mass +
    co-occurrence mass), independent of candidate multiplicity. A
    degenerate hot shingle (shared by ~all docs) makes co-occurrence mass
    quadratic, so when the RLE estimate exceeds the pair-expanded mass the
    kernel falls back to the expanded sort — all paths are exact and
    byte-identical.

    Small shingle UNIVERSES get a third, much faster representation:
    when the batch's unique docs draw from <= ~32k distinct shingle
    values (synthetic/templated corpora; high-df text), each doc becomes
    a dense BITSET over the universe and a pair's intersection is one
    AND + popcount row — O(W) words per pair, independent of both df and
    candidate multiplicity (measured ~50x over the expanded sort on the
    2k-distinct-shingle sf0.1 documents table). Pairs are popcounted in
    ~2 MB slabs so concurrent kernels stay cache-resident."""
    npairs = len(a)
    docs_cat = np.concatenate([a, b])
    texts_cat = np.concatenate([ta, tb])
    uniq, inv = np.unique(docs_cat, return_inverse=True)
    first = np.zeros(len(uniq), dtype=np.int64)
    first[inv[::-1]] = np.arange(len(docs_cat) - 1, -1, -1)
    if shingle_batch_fn is not None:
        # one vectorized call for the whole group's unique docs (4.5x
        # less shingle CPU than per-doc dispatch, byte-identical)
        shingles = shingle_batch_fn([texts_cat[i] for i in first])
    else:
        shingles = [shingle_fn(texts_cat[i]) for i in first]
    sizes = np.array([len(s) for s in shingles], dtype=np.int64)
    la, lb = sizes[inv[:npairs]], sizes[inv[npairs:]]

    U = len(uniq)
    postings = (
        np.concatenate(shingles) if len(shingles) else np.empty(0, np.uint64)
    )
    doc_codes = np.repeat(np.arange(U, dtype=np.int64), sizes)
    # stable sort by shingle value keeps doc codes ASCENDING within each
    # equal-value run (postings concatenate in code order, one entry per
    # (doc, shingle)) — so bucket_pair_indices emits code_lo < code_hi
    order = np.argsort(postings, kind="stable")
    vs, dc = postings[order], doc_codes[order]
    starts = np.flatnonzero(np.concatenate([[True], vs[1:] != vs[:-1]])) if len(vs) else np.empty(0, np.int64)
    lens = np.diff(np.concatenate([starts, [len(vs)]])) if len(vs) else np.empty(0, np.int64)
    D = len(starts)  # distinct shingle values across the batch's docs
    W = (D + 63) // 64  # bitset words per doc
    co_mass = int((lens * (lens - 1) // 2).sum())
    expand_mass = int((la + lb).sum())
    ca, cb = inv[:npairs], inv[npairs:]
    if D and W <= 512 and U * W <= 4_000_000:
        # ---- bitset path (small universe) ----
        distinct_vals = vs[starts]
        codes = np.searchsorted(distinct_vals, postings)  # per-doc ascending
        word = doc_codes * W + (codes >> 6)  # globally ascending already
        bits = np.uint64(1) << (codes & 63).astype(np.uint64)
        wstarts = np.flatnonzero(np.concatenate([[True], word[1:] != word[:-1]]))
        M = np.zeros(U * W, dtype=np.uint64)
        M[word[wstarts]] = np.bitwise_or.reduceat(bits, wstarts)
        M = M.reshape(U, W)
        inter = np.empty(npairs, dtype=np.int64)
        slab = max(1, 262_144 // max(W, 1))  # ~2 MB AND temp per slab
        for s in range(0, npairs, slab):
            e = min(npairs, s + slab)
            both = (M[ca[s:e]] & M[cb[s:e]]).view(np.uint8)
            inter[s:e] = _POP8[both].sum(axis=1, dtype=np.int64)
    elif co_mass <= 2 * expand_mass:
        A, B = dd.bucket_pair_indices(vs)
        keys = np.sort(dc[A] * U + dc[B])
        want = np.minimum(ca, cb) * U + np.maximum(ca, cb)
        inter = np.searchsorted(keys, want, "right") - np.searchsorted(
            keys, want, "left"
        )
    else:  # degenerate hot-shingle corpus: pair-expanded sort is cheaper
        tags = np.repeat(np.tile(np.arange(npairs, dtype=np.int64), 2), sizes[inv])
        vals = (
            np.concatenate([shingles[i] for i in inv])
            if len(inv)
            else np.empty(0, np.uint64)
        )
        order = np.lexsort((vals, tags))
        tags, vals = tags[order], vals[order]
        eq = (tags[1:] == tags[:-1]) & (vals[1:] == vals[:-1])
        inter = np.bincount(tags[1:][eq], minlength=npairs)
    union = la + lb - inter
    jac = np.round(
        np.divide(inter, union, out=np.ones(npairs, float), where=union > 0), 6
    )
    out = pd.DataFrame(
        {"doc_a": a.astype(np.int64), "doc_b": b.astype(np.int64), "jaccard": jac}
    )
    return out[out.jaccard >= threshold]


# byte-wise popcount lookup for the kernel's bitset branch
_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

_VERIFY_LUT_CACHE: dict = {}


def verify_pairs_broadcast_ds(
    pairs: rd.Dataset,
    texts_ref,
    threshold: float,
    shingle_fn,
    shingle_batch_fn=None,
) -> rd.Dataset:
    """MAP-SIDE exact-Jaccard verification for SMALL corpora: candidate
    pair batches verify in place against a broadcast ``doc_id -> text``
    lookup (``texts_ref`` = ``ray.put`` of a pd.Series), fetched ONCE per
    worker process via a module-global cache. Zero additional shuffles —
    the shuffle-free sibling of ``verify_pairs_jaccard_ds``, used when the
    docs table fits ``EngineConfig.broadcast_join_rows`` (the same
    broadcast-vs-partition switch as q_bloom_join; above the gate the
    fully-distributed two-shuffle tail runs instead). Duplicate candidates
    arriving in DIFFERENT batches are verified twice and must be deduped
    by the caller if its generator can emit cross-batch duplicates (kept
    pairs are output-sparse, so a collect-side dedup is free).

    The broadcast payload is an ARROW table (doc_id sorted, large_string
    text): ``ray.get`` maps it zero-copy from the object store — an
    object-dtype pandas Series here cost a 100 MB string unpickle per
    worker per query and, cached without eviction, grew worker heaps by
    the full corpus per call (measured 13 → 66 s across three sf0.1
    runs). Only the batch's OWN docs ever materialize as Python strings
    (arrow ``take`` + to_numpy), and the per-worker cache keeps exactly
    one payload (cleared on key change)."""
    import ray

    key = texts_ref.hex() if hasattr(texts_ref, "hex") else id(texts_ref)

    def lookup(tab: pa.Table, ids_sorted: np.ndarray, want: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(ids_sorted, want)
        pos_c = np.minimum(pos, len(ids_sorted) - 1)
        hit = ids_sorted[pos_c] == want
        texts = tab["text"].take(pa.array(pos_c, pa.int64())).to_numpy(
            zero_copy_only=False
        )
        if not hit.all():
            texts = texts.copy()
            texts[~hit] = ""
        return texts

    def verify_batch(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return _PAIRS_EMPTY
        hit = _VERIFY_LUT_CACHE.get(key)
        if hit is None:
            _VERIFY_LUT_CACHE.clear()  # at most ONE broadcast corpus per worker
            tab = ray.get(texts_ref)
            hit = _VERIFY_LUT_CACHE[key] = (
                tab,
                tab["doc_id"].to_numpy(zero_copy_only=False),
            )
        tab, ids_sorted = hit
        df = df.drop_duplicates(["doc_a", "doc_b"])
        a = df.doc_a.to_numpy().astype(np.int64)
        b = df.doc_b.to_numpy().astype(np.int64)
        ta = lookup(tab, ids_sorted, a)
        tb = lookup(tab, ids_sorted, b)
        return _jaccard_pairs_kernel(
            a, b, ta, tb, shingle_fn, shingle_batch_fn, threshold
        )

    # whole blocks as batches: candidates within a block heavily share
    # docs, so one kernel call per block shingles each unique doc once
    # instead of once per 1024-row slice
    return pairs.map_batches(verify_batch, batch_format="pandas", batch_size=None)


def broadcast_texts_ref(docs: rd.Dataset):
    """``ray.put`` a doc_id-sorted ``(doc_id, text)`` ARROW table of a
    SMALL docs dataset (the caller must have gated on
    ``EngineConfig.broadcast_verify_rows``). Stays arrow end to end —
    collecting through pandas materialized every text as a Python string
    on the driver (~6 s at 1M docs); concatenating the blocks' arrow refs
    and sorting with pyarrow.compute is a buffer-level operation."""
    import pyarrow.compute as pc
    import ray

    tabs = ray.get(docs.to_arrow_refs())
    tab = pa.concat_tables(
        [t.select(["doc_id", "text"]) for t in tabs if t.num_rows]
    )
    tab = tab.take(pc.sort_indices(tab["doc_id"])).combine_chunks()
    text = tab["text"]
    if text.null_count:
        text = pc.fill_null(text, "")
    return ray.put(
        pa.table(
            {
                "doc_id": tab["doc_id"].cast(pa.int64()),
                "text": text.cast(pa.large_string()),
            }
        )
    )


def verify_pairs_jaccard_ds(
    pairs: rd.Dataset,
    docs: rd.Dataset,
    ng: int,
    threshold: float,
    shingle_fn,
    shingle_batch_fn=None,
    pairs_are_halves: bool = False,
    est_blocks: int | None = None,
) -> rd.Dataset:
    """Distributed exact-Jaccard verification of candidate pairs — the
    shared tail of every text near-dup query (MinHash LSH, exact n-gram
    index). Nothing corpus- or candidate-scale ever reaches the driver:

    TWO super-group shuffles, no driver broadcast: each pair is exploded
    into two (doc-keyed) halves and unioned with the (doc_id, text)
    stream; grouping on the doc key attaches each half its text (a
    distributed semi-join — the docs table crosses this shuffle exactly
    once and only pair-halves survive it); a second shuffle on the PAIR
    key reunites the halves and computes true Jaccard in-group with a
    per-group shingle cache. Global pair-dedup rides this second shuffle
    for free (identical pairs — e.g. one pair found by several LSH bands
    or several shared shingles — land in the same group; their duplicate
    halves are dropped in-group), so there is no separate dedup shuffle
    and NO driver-side count barrier anywhere.

    ``shingle_fn`` maps text -> sorted-unique uint64 ids and defines the
    Jaccard family (char shingles for MinHash, word n-grams for the
    exact index); ``shingle_batch_fn`` is its batch twin (list of texts ->
    list of id arrays, byte-identical per doc) — when given, the in-group
    shingle pass runs one vectorized batch call instead of a per-unique-doc
    Python loop. ``pairs_are_halves=True`` means the caller's pair
    generator already emitted ``make_pair_halves`` rows, so the tail's own
    half-explode map is skipped. ``est_blocks`` (estimated block count of
    the halves union, docs side + pair side) gates the pre-sort coalesces:
    merging blocks below the shuffle fan-out would SPLIT them — the
    measured net loss in the BASELINE optimization log. The kept-pair
    filter compares the ROUNDED (6 dp) Jaccard against ``threshold`` so
    SQL twins can mirror it exactly.
    """
    KIND_DOC, KIND_PAIR = _KIND_DOC, _KIND_PAIR

    def pair_halves(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates(["doc_a", "doc_b"])  # per-batch dedup partial
        return make_pair_halves(df.doc_a.to_numpy(), df.doc_b.to_numpy(), ng)

    def doc_rows(df: pd.DataFrame) -> pd.DataFrame:
        ids = df.doc_id.to_numpy().astype(np.int64)
        n = len(ids)
        return pd.DataFrame(
            {
                "key": ids,
                "doc_a": np.zeros(n, np.int64),
                "doc_b": np.zeros(n, np.int64),
                "side": np.full(n, -1, np.int8),
                "kind": np.full(n, KIND_DOC, np.int8),
                "text": df.text.fillna("").astype(object).to_numpy(),
                "_sg": dd.supergroup_of(ids, ng),
            }
        )

    HALF_EMPTY = pd.DataFrame(
        {
            "doc_a": pd.array([], dtype=np.int64),
            "doc_b": pd.array([], dtype=np.int64),
            "side": pd.array([], dtype=np.int8),
            "text": pd.array([], dtype=object),
        }
    )

    def attach_text(g: pd.DataFrame) -> pd.DataFrame:
        # GLOBAL pair-dedup rides THIS shuffle for free: every copy of pair
        # (a,b)'s side-0 half has key=a (side-1: key=b), so all duplicates
        # of a half land in this group — dropping them here (ints only,
        # before any text attaches) shrinks the second shuffle and the
        # in-group shingle work by the band-duplication factor, with NO
        # extra shuffle or barrier.
        ph = g[g.kind == KIND_PAIR].drop_duplicates(["doc_a", "doc_b", "side"])
        if not len(ph):
            return HALF_EMPTY
        d = g[g.kind == KIND_DOC]
        lut = pd.Series(d.text.to_numpy(), index=d.key.to_numpy())
        texts = ph.key.map(lut).fillna("")
        return pd.DataFrame(
            {
                "doc_a": ph.doc_a.to_numpy(),
                "doc_b": ph.doc_b.to_numpy(),
                "side": ph.side.to_numpy(),
                "text": texts.to_numpy(),
            }
        )

    pair_side = (
        pairs
        if pairs_are_halves
        else pairs.map_batches(pair_halves, batch_format="pandas")
    )
    halves = pair_side.union(docs.map_batches(doc_rows, batch_format="pandas"))
    # COALESCE before each sort: the union inherits the upstream block
    # fragmentation (hundreds of ~200-row blocks) and Ray's sort pays a
    # per-(input-block x output-partition) slice cost — the measured trap
    # in the BASELINE.md optimization log. A shuffle-FREE repartition
    # (block merge, no data movement beyond concatenation) cuts the slice
    # count ~10x; sized to the shuffle fan-out so each sort task still
    # gets parallel input. Estimate-GATED like the band-table/posting
    # paths: when the union already has ~fan-out blocks the repartition
    # would SPLIT them (measured net loss at sf0.1).
    fanout = min(ng, 32)
    coalesce = est_blocks is None or est_blocks > 2 * fanout
    if coalesce:
        halves = halves.repartition(fanout, shuffle=False)
    halves_txt = halves.groupby("_sg").map_groups(attach_text, batch_format="pandas")
    if coalesce:
        halves_txt = halves_txt.repartition(fanout, shuffle=False)

    def pair_group_key(df: pd.DataFrame) -> pd.DataFrame:
        h = pd.util.hash_pandas_object(df[["doc_a", "doc_b"]], index=False).to_numpy()
        return df.assign(_pg=(h.astype(np.uint64) % np.uint64(ng)).astype(np.int64))

    def verify_group(g: pd.DataFrame) -> pd.DataFrame:
        # both halves of a pair land here; sort reunites them (side 0, 1).
        # A pair generated by several index buckets arrives several times
        # with IDENTICAL halves — the global pair-dedup happens here,
        # riding this shuffle instead of needing one of its own.
        g = g.drop_duplicates(["doc_a", "doc_b", "side"]).sort_values(
            ["doc_a", "doc_b", "side"], kind="stable"
        )
        if not len(g):
            return _PAIRS_EMPTY
        side = g.side.to_numpy()
        if len(g) % 2 or (side[0::2] != 0).any() or (side[1::2] != 1).any():
            # contract guard: every pair must contribute exactly one side-0
            # and one side-1 half — a silent misalignment here would skew
            # EVERY later pair's Jaccard in this group
            raise ValueError("pair halves misaligned after dedup/sort")
        a = g.doc_a.to_numpy()[0::2]
        b = g.doc_b.to_numpy()[0::2]
        ta = g.text.to_numpy()[0::2]
        tb = g.text.to_numpy()[1::2]
        return _jaccard_pairs_kernel(
            a, b, ta, tb, shingle_fn, shingle_batch_fn, threshold
        )

    return (
        halves_txt.map_batches(pair_group_key, batch_format="pandas")
        .groupby("_pg")
        .map_groups(verify_group, batch_format="pandas")
    )


def verify_pairs_jaccard(
    pairs: rd.Dataset,
    docs: rd.Dataset,
    ng: int,
    threshold: float,
    shingle_fn,
    **kw,
) -> pd.DataFrame:
    """Collecting wrapper over ``verify_pairs_jaccard_ds`` (kept-pair
    results are candidate-sparse, so the collect is small by design)."""
    res = verify_pairs_jaccard_ds(pairs, docs, ng, threshold, shingle_fn, **kw).to_pandas()
    if not len(res):
        return _PAIRS_EMPTY
    res["doc_a"] = res.doc_a.astype(np.int64)
    res["doc_b"] = res.doc_b.astype(np.int64)
    return res.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def minhash_neardup_pairs(
    docs: rd.Dataset,
    nd: int,
    threshold: float = 0.6,
    verify_mode: str = "auto",
) -> pd.DataFrame:
    """MinHash+LSH near-dup core over any ``(doc_id, text)`` dataset,
    fully distributed (nothing corpus- or candidate-scale ever reaches
    the driver):

    1. shingle→minhash→band keys (vectorized ``MinHashStage``, exploded
       one row per (doc, band));
    2. shuffle on a COARSE super-group of the band bucket with vectorized
       run-length pair generation inside (the same pattern as
       ``q_phash_neardup`` — per-bucket map_groups and the native join
       were measured 10-40x slower), per-group pair dedup;
    3. exact char-shingle-Jaccard verification via the shared
       ``verify_pairs_jaccard`` tail (two super-group shuffles, global
       pair-dedup riding the second, no driver broadcast or barrier).

    Super-group fan-out is derived from the corpus row count ``nd``
    (``ops.derive_num_groups``), not pinned at 64.
    """
    from .ops import derive_num_groups

    ng = derive_num_groups(nd)
    # task pool (instance, not class): the stage's only state is the tiny
    # seeded hash family — elastic tasks beat a fixed 4-slot actor pool
    bands = docs.map_batches(
        dd.MinHashStage(), batch_format="pandas", batch_size=256
    )

    def band_key(df: pd.DataFrame) -> pd.DataFrame:
        bkey = dd.mix_band_key(df.band_hash.to_numpy(), df.band.to_numpy())
        return pd.DataFrame(
            {"doc_id": df.doc_id, "bkey": bkey, "_sg": dd.supergroup_of(bkey, ng)}
        )

    def pairs_in_supergroup(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["bkey", "doc_id"], kind="stable").reset_index(drop=True)
        keys = g.bkey.to_numpy()
        A, B = dd.bucket_pair_indices(keys)
        if not len(A):
            return _HALVES_EMPTY if not use_bcast else _PAIRGEN_EMPTY
        ids = g.doc_id.to_numpy()
        out = pd.DataFrame({"doc_a": ids[A], "doc_b": ids[B]}).drop_duplicates(
            ["doc_a", "doc_b"]
        )
        if use_bcast:
            return out
        # emit verify-ready half rows straight from the pairgen group —
        # fuses away the tail's dedicated half-explode map pass
        return make_pair_halves(out.doc_a.to_numpy(), out.doc_b.to_numpy(), ng)

    from .config import DEFAULT_CONFIG

    # "auto" = the q_bloom_join broadcast-vs-partition switch; tests pin
    # "broadcast"/"shuffle" to exercise both paths at one scale
    use_bcast = (
        verify_mode == "broadcast"
        or (verify_mode == "auto" and nd <= DEFAULT_CONFIG.broadcast_verify_rows)
    )
    keyed = bands.map_batches(band_key, batch_format="pandas")
    # CONDITIONAL coalesce before the band sort: the sort pays a
    # per-(input-block x output-partition) slice cost, so when the band
    # table inherits many more blocks than the shuffle fan-out, merge
    # them first (measured at 1M docs: 488 blocks x 64 partitions made
    # pairgen 44 s; coalesced ~17 s). When blocks <= ~2x fan-out the merge
    # is a net loss (a repartition that SPLITS was measured slower at
    # sf0.1) — hence the estimate-gated switch.
    from .ops import derive_num_blocks as _dnb

    est_blocks = _dnb(nd, target_rows=2048)
    if est_blocks > 2 * ng:
        keyed = keyed.repartition(ng, shuffle=False)
    pairs = keyed.groupby("_sg").map_groups(pairs_in_supergroup, batch_format="pandas")
    if use_bcast:
        # SMALL corpus (<= broadcast_join_rows): map-side verify against
        # broadcast texts — the whole query runs ONE sort DAG (the band
        # shuffle). A pair found in two DIFFERENT band super-groups is
        # verified twice; kept pairs are sparse, so the dedup rides the
        # driver collect.
        kept = verify_pairs_broadcast_ds(
            pairs,
            broadcast_texts_ref(docs),
            threshold,
            dd.char_shingles,
            shingle_batch_fn=dd.char_shingles_batch,
        ).to_pandas()
        if not len(kept):
            return _PAIRS_EMPTY
        kept["doc_a"] = kept.doc_a.astype(np.int64)
        kept["doc_b"] = kept.doc_b.astype(np.int64)
        return (
            kept.drop_duplicates(["doc_a", "doc_b"])
            .sort_values(["doc_a", "doc_b"])
            .reset_index(drop=True)
        )
    return verify_pairs_jaccard(
        pairs,
        docs,
        ng,
        threshold,
        dd.char_shingles,
        shingle_batch_fn=dd.char_shingles_batch,
        pairs_are_halves=True,
        est_blocks=est_blocks + min(ng, 32),
    )


# rows-only: minhash near-dup pairs (brute-force Jaccard parity oracle in
# tests/test_neardup_parity.py)
@query("q_minhash_neardup")
def q_minhash_neardup(sf_dir: str, threshold: float = 0.6) -> pd.DataFrame:
    """MinHash+LSH near-dup over the driver ``documents`` table — see
    ``minhash_neardup_pairs`` for the distributed plan (the bench scale
    demo runs the same core over a synthetic 300k-doc corpus)."""
    from .ops import derive_num_blocks

    nd = _nrows(sf_dir, "documents")
    # spread the (often single-file) docs table across blocks so the
    # minhash stage parallelizes instead of running as one task
    docs = rd.read_parquet(
        _t(sf_dir, "documents"),
        columns=["doc_id", "text"],
        override_num_blocks=derive_num_blocks(nd, target_rows=2048),
    )
    return minhash_neardup_pairs(docs, nd, threshold)


# word-3-gram exact-Jaccard pair CTE chain, shared by the q_ngram_jaccard
# oracle and the connected-components oracle built on its pair graph
_NGRAM_PAIRS_CTES = """
    toks AS (
        SELECT doc_id,
               list_filter(regexp_split_to_array(lower(text), '\\s+'), x -> x <> '') AS ws
        FROM documents
    ),
    grams AS (
        SELECT DISTINCT doc_id,
               ws[CAST(i AS INTEGER)] || ' ' || ws[CAST(i AS INTEGER)+1] || ' ' ||
               ws[CAST(i AS INTEGER)+2] AS g
        FROM toks, UNNEST(range(1, len(ws) - 1)) AS t(i)
    ),
    dfreq AS (SELECT g, COUNT(*) AS dfc FROM grams GROUP BY g),
    cand AS (
        SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
        FROM grams a JOIN grams b USING (g) JOIN dfreq USING (g)
        WHERE a.doc_id < b.doc_id AND dfreq.dfc <= 50
        GROUP BY a.doc_id, b.doc_id
        HAVING COUNT(*) >= 2
    ),
    sizes AS (SELECT doc_id, COUNT(*) AS n FROM grams GROUP BY doc_id),
    inter AS (
        SELECT c.doc_a, c.doc_b, COUNT(*) AS ni
        FROM cand c JOIN grams ga ON ga.doc_id = c.doc_a
                    JOIN grams gb ON gb.doc_id = c.doc_b AND gb.g = ga.g
        GROUP BY c.doc_a, c.doc_b
    ),
    njpairs AS (
        SELECT i.doc_a, i.doc_b,
               ROUND(CAST(ni AS DOUBLE) / (sa.n + sb.n - ni), 6) AS jaccard
        FROM inter i JOIN sizes sa ON sa.doc_id = i.doc_a
                     JOIN sizes sb ON sb.doc_id = i.doc_b
        WHERE ROUND(CAST(ni AS DOUBLE) / (sa.n + sb.n - ni), 6) >= 0.5
    )"""


def ngram_jaccard_pairs_ds(
    sf_dir: str,
    threshold: float = 0.5,
    df_cap: int = 50,
    min_shared: int = 2,
    verify_mode: str = "auto",
) -> tuple[rd.Dataset, int]:
    """EXACT word-3-gram Jaccard near-dup — the deterministic sibling of
    MinHash (no LSH approximation, hence fully SQL-checkable):

    1. explode each doc into its DISTINCT word-3-gram ids. Hashing is
       batch-vectorized: grams are factorized batch-wide and each unique
       gram is FNV-hashed once (``dedup._stable_token_ids`` — numpy
       passes per byte position, no per-gram Python hashing);
    2. inverted-index candidate generation on the super-group shuffle of
       the gram id with a DOCUMENT-FREQUENCY CAP: grams shared by more
       than ``df_cap`` docs are dropped before pair expansion (a hot
       shingle generates df^2 pairs and carries ~no signal — this is
       what keeps the index sub-quadratic at corpus scale; the SQL twin
       applies the same cap). A pair is a candidate iff it shares >=
       ``min_shared`` sub-cap grams (default 2) — per-gram df is exact
       because all postings of one gram hash into the same super-group,
       and the per-pair shared count is made exact by an int-only
       pair-keyed shuffle summing the per-group partial counts;
    3. exact Jaccard over the full (uncapped) gram sets via the shared
       distributed ``verify_pairs_jaccard`` tail, threshold on the
       6-dp-rounded value exactly as the SQL twin does.
    """
    from .ops import derive_num_blocks, derive_num_groups

    nd = _nrows(sf_dir, "documents")
    docs = rd.read_parquet(
        _t(sf_dir, "documents"),
        columns=["doc_id", "text"],
        override_num_blocks=derive_num_blocks(nd, target_rows=2048),
    )
    ng = derive_num_groups(nd)

    GRAM_EMPTY = pd.DataFrame(
        {
            "doc_id": pd.array([], dtype=np.int64),
            "gid": pd.array([], dtype=np.int64),
            "_sg": pd.array([], dtype=np.int64),
        }
    )

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        grams_all: list[str] = []
        doc_rep: list[int] = []
        for doc_id, text in zip(df.doc_id.to_numpy(), df.text.fillna("").to_numpy()):
            gs = dd.word_ngram_list(text)
            grams_all.extend(gs)
            doc_rep.extend([doc_id] * len(gs))
        if not grams_all:
            return GRAM_EMPTY
        codes, uniq = pd.factorize(np.array(grams_all, dtype=object))
        gid = dd._stable_token_ids(uniq)[codes].astype(np.int64)
        return pd.DataFrame(
            {
                "doc_id": np.asarray(doc_rep, dtype=np.int64),
                "gid": gid,
                "_sg": dd.supergroup_of(gid, ng),
            }
        )

    CAND_EMPTY = pd.DataFrame(
        {
            "doc_a": pd.array([], dtype=np.int64),
            "doc_b": pd.array([], dtype=np.int64),
            "nsh": pd.array([], dtype=np.int64),
            "_sg": pd.array([], dtype=np.int64),
        }
    )

    def pairs_in_supergroup(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["gid", "doc_id"], kind="stable").reset_index(drop=True)
        keys = g.gid.to_numpy()
        # df-cap on the sorted runs (keys are grouped, so run lengths ==
        # exact per-gram document frequency within this super-group ==
        # GLOBAL df, because a gram's postings all hash here)
        _, counts = np.unique(keys, return_counts=True)
        keep = np.repeat(counts <= df_cap, counts)
        g = g[keep]
        A, B = dd.bucket_pair_indices(g.gid.to_numpy())
        if not len(A):
            return CAND_EMPTY
        ids = g.doc_id.to_numpy()
        # per-pair SHARED-GRAM COUNT within this super-group (each gram's
        # postings colocate, so summing these per pair across groups gives
        # the exact global count); keyed for the pair-count shuffle
        out = (
            pd.DataFrame({"doc_a": ids[A], "doc_b": ids[B]})
            .groupby(["doc_a", "doc_b"], as_index=False)
            .size()
            .rename(columns={"size": "nsh"})
        )
        h = pd.util.hash_pandas_object(out[["doc_a", "doc_b"]], index=False).to_numpy()
        out["_sg"] = (h.astype(np.uint64) % np.uint64(ng)).astype(np.int64)
        return out

    def shared_count_filter(g: pd.DataFrame) -> pd.DataFrame:
        # exact global shared-sub-cap-gram count per pair; only pairs
        # sharing >= min_shared grams go on to text verification. This
        # int-only shuffle is what keeps the query sub-quadratic in
        # PRACTICE too: 1-shared-gram coincidences dominate the raw
        # candidate set (1.13M of 1.13M+few-k at sf0.1) and die here
        # without ever touching document text. Survivors come out as
        # verify-ready half rows (make_pair_halves) — one fused pass,
        # no dedicated half-explode map downstream.
        g = g.groupby(["doc_a", "doc_b"], as_index=False)["nsh"].sum()
        g = g.loc[g.nsh >= min_shared]
        if use_bcast:
            # pair-keyed shuffle makes each surviving pair GLOBALLY unique
            # here, so the map-side verify needs no downstream dedup
            return g[["doc_a", "doc_b"]] if len(g) else _PAIRGEN_EMPTY
        if not len(g):
            return _HALVES_EMPTY
        return make_pair_halves(g.doc_a.to_numpy(), g.doc_b.to_numpy(), ng)

    from .config import DEFAULT_CONFIG

    # "auto" = the q_bloom_join broadcast-vs-partition switch; tests pin
    # "broadcast"/"shuffle" to exercise both paths at one scale
    use_bcast = (
        verify_mode == "broadcast"
        or (verify_mode == "auto" and nd <= DEFAULT_CONFIG.broadcast_verify_rows)
    )
    postings = docs.map_batches(explode, batch_format="pandas", batch_size=512)
    # same estimate-gated coalesce as the minhash band table: the posting
    # sort pays per-(block x partition) slice cost when the read fragments
    # the corpus into many more blocks than the shuffle fan-out
    est_blocks = derive_num_blocks(nd, target_rows=2048)
    if est_blocks > 2 * ng:
        postings = postings.repartition(ng, shuffle=False)
    cand_counts = postings.groupby("_sg").map_groups(
        pairs_in_supergroup, batch_format="pandas"
    )
    pairs = cand_counts.groupby("_sg").map_groups(
        shared_count_filter, batch_format="pandas"
    )
    if use_bcast:
        # SMALL corpus: map-side verify against broadcast texts (the
        # q_bloom_join broadcast-vs-partition switch) — drops the verify
        # tail's two shuffles; survivors of the pair-keyed count shuffle
        # are globally unique, so no dedup is needed anywhere
        return (
            verify_pairs_broadcast_ds(
                pairs,
                broadcast_texts_ref(docs),
                threshold,
                dd.word_ngram_ids,
                shingle_batch_fn=dd.word_ngram_ids_batch,
            ),
            nd,
        )
    return (
        verify_pairs_jaccard_ds(
            pairs,
            docs,
            ng,
            threshold,
            dd.word_ngram_ids,
            shingle_batch_fn=dd.word_ngram_ids_batch,
            pairs_are_halves=True,
            est_blocks=est_blocks + min(ng, 32),
        ),
        nd,
    )


_NGRAM_PAIRS_CACHE: dict[tuple, tuple[pd.DataFrame, int]] = {}


def ngram_jaccard_pairs_cached(
    sf_dir: str, threshold: float = 0.5, df_cap: int = 50
) -> tuple[pd.DataFrame, int]:
    """Collected n-gram near-dup pair graph, computed ONCE per
    (sf_dir, params) per process — q_ngram_jaccard, q_dup_components and
    q_dedup_corpus all consume the same graph, so the three queries share
    one distributed computation instead of re-running the full
    explode/index/verify pipeline each. Caching the COLLECTED pairs is
    scale-safe because kept near-dup pairs are output-sparse (bounded by
    the true dup count, not the corpus); the key includes the documents
    file mtime so a changed table invalidates."""
    path = _t(sf_dir, "documents")
    try:
        mtime = os.path.getmtime(path)
    except OSError:
        mtime = 0.0
    key = (os.path.abspath(sf_dir), float(threshold), int(df_cap), mtime)
    hit = _NGRAM_PAIRS_CACHE.get(key)
    if hit is not None:
        return hit
    ds, nd = ngram_jaccard_pairs_ds(sf_dir, threshold, df_cap)
    res = ds.to_pandas()
    if not len(res):
        res = _PAIRS_EMPTY.copy()
    res["doc_a"] = res.doc_a.astype(np.int64)
    res["doc_b"] = res.doc_b.astype(np.int64)
    res = res.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    _NGRAM_PAIRS_CACHE[key] = (res, nd)
    return res, nd


@query(
    "q_ngram_jaccard",
    f"""
    WITH {_NGRAM_PAIRS_CTES}
    SELECT doc_a, doc_b, jaccard FROM njpairs ORDER BY doc_a, doc_b
    """,
)
def q_ngram_jaccard(sf_dir: str, threshold: float = 0.5, df_cap: int = 50) -> pd.DataFrame:
    """Collected ``ngram_jaccard_pairs_ds`` (kept pairs are sparse)."""
    return ngram_jaccard_pairs_cached(sf_dir, threshold, df_cap)[0].copy()


@query(
    "q_dup_components",
    f"""
    WITH RECURSIVE {_NGRAM_PAIRS_CTES},
    edges AS (
        SELECT doc_a AS u, doc_b AS v FROM njpairs
        UNION SELECT doc_b, doc_a FROM njpairs
    ),
    walk(u, label) AS (
        SELECT u, v FROM edges
        UNION
        SELECT e.u, w.label FROM edges e JOIN walk w ON w.u = e.v
    ),
    comp AS (
        SELECT u AS doc_id, LEAST(u, MIN(label)) AS component_id
        FROM walk GROUP BY u
    )
    SELECT c.doc_id, c.component_id, CAST(s.n AS BIGINT) AS component_size
    FROM comp c JOIN (
        SELECT component_id, COUNT(*) AS n FROM comp GROUP BY component_id
    ) s USING (component_id)
    ORDER BY c.doc_id
    """,
)
def q_dup_components(sf_dir: str, threshold: float = 0.5, df_cap: int = 50) -> pd.DataFrame:
    """Duplicate CLUSTERS, not just pairs: distributed connected
    components (hash-to-min label propagation, ``graph.connected_
    components``) over the exact n-gram-Jaccard near-dup pair graph.
    Each doc in the pair graph gets its component's canonical id (the
    component-minimum doc_id) and the component size — the "keep one per
    cluster" primitive of a dedup pipeline. SQL-checked against a DuckDB
    recursive-CTE reachability walk over the identical pair CTEs. Reads
    the per-process cached pair graph (``ngram_jaccard_pairs_cached``) —
    the sparse collected pairs re-enter Ray as a dataset for the
    distributed CC rounds."""
    from . import graph

    pairs_df, nd = ngram_jaccard_pairs_cached(sf_dir, threshold, df_cap)
    pairs_ds = rd.from_pandas(pairs_df[["doc_a", "doc_b"]])
    out = graph.connected_components(pairs_ds, nd).to_pandas()
    if not len(out):
        return pd.DataFrame(
            {
                "doc_id": pd.array([], dtype=np.int64),
                "component_id": pd.array([], dtype=np.int64),
                "component_size": pd.array([], dtype=np.int64),
            }
        )
    sizes = out.groupby("component_id")["doc_id"].transform("size")
    out = out.assign(component_size=sizes.astype(np.int64))
    return out.sort_values("doc_id").reset_index(drop=True)


@query(
    "q_bottomk_sample",
    """
    SELECT doc_id, n_chars FROM (
        SELECT doc_id, CAST(n_chars AS BIGINT) AS n_chars
        FROM documents ORDER BY md5(CAST(doc_id AS VARCHAR)) LIMIT 100
    ) ORDER BY doc_id
    """,
)
def q_bottomk_sample(sf_dir: str, k: int = 100) -> pd.DataFrame:
    """Deterministic FIXED-SIZE sample: the k docs with the smallest
    md5(doc_id) — an order-statistics (bottom-k) sample. Unlike the
    rate-based ``q_sample_split`` this guarantees exactly k rows
    regardless of corpus size, is partition-invariant (pure function of
    the key set), and union-mergeable: bottom-k of a union is bottom-k
    of the concatenated per-part bottom-ks, so each batch emits at most
    k rows and the driver merge holds <= k x num_blocks rows — never
    the corpus. md5 (not FNV) so the DuckDB twin recomputes the same
    order; ties are impossible (distinct ids -> distinct digests)."""
    import hashlib

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def partial_bottomk(df: pd.DataFrame) -> pd.DataFrame:
        hx = np.array(
            [hashlib.md5(str(int(i)).encode()).hexdigest() for i in df.doc_id.to_numpy()],
            dtype=object,
        )
        if len(hx) > k:
            idx = np.argsort(hx, kind="stable")[:k]
        else:
            idx = np.arange(len(hx))
        return pd.DataFrame(
            {
                "doc_id": df.doc_id.to_numpy()[idx].astype(np.int64),
                "n_chars": df.n_chars.to_numpy()[idx].astype(np.int64),
                "_h": hx[idx],
            }
        )

    parts = ds.map_batches(partial_bottomk, batch_format="pandas").to_pandas()
    out = parts.sort_values("_h", kind="stable").head(k).drop(columns="_h")
    return out.sort_values("doc_id").reset_index(drop=True)


@query(
    "q_simhash",
    """
    WITH toks AS (
        SELECT doc_id, unnest(regexp_split_to_array(lower(text), '\\s+')) AS w
        FROM documents
    ),
    th AS (SELECT doc_id, CAST(CONCAT('0x', substr(md5(w), 1, 16)) AS UBIGINT) AS h
           FROM toks WHERE w <> ''),
    votes AS (SELECT doc_id, j,
                     SUM(CASE WHEN (h >> j) & 1 = 1 THEN 1 ELSE -1 END) AS vote
              FROM th CROSS JOIN (SELECT unnest(range(0, 64)) AS j) js
              GROUP BY doc_id, j),
    sh AS (SELECT doc_id,
                  CAST(SUM(CASE WHEN vote > 0 THEN
                       CASE WHEN j = 63 THEN -9223372036854775808
                            ELSE (CAST(1 AS BIGINT) << CAST(j AS INTEGER)) END
                       ELSE 0 END) AS BIGINT) AS simhash
           FROM votes GROUP BY doc_id)
    SELECT d.doc_id, coalesce(sh.simhash, 0) AS simhash
    FROM documents d LEFT JOIN sh USING (doc_id)
    ORDER BY d.doc_id
    """,
)
def q_simhash(sf_dir: str) -> pd.DataFrame:
    """SimHash per document — SQL-checked: the md5-anchored token hash lets
    DuckDB recompute the identical signed bit-vote signature."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc_id": df.doc_id, "simhash": dd.simhash64_batch(df.text.fillna(""))}
        )

    return ds.map_batches(fn, batch_format="pandas").to_pandas().sort_values("doc_id").reset_index(drop=True)


# ---------------------------------------------------------------------------
# embeddings: ANN + near-dup
# ---------------------------------------------------------------------------


@query(
    "q_ann_topk",
    """
    -- DOUBLE[] casts: float32 list_cosine_similarity returns FLOAT whose
    -- representation error (~1e-8) breaks the exact 4-dp hash compare
    WITH d AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb FROM embeddings),
         q AS (SELECT vec_id, emb FROM d WHERE vec_id < 10),
         s AS (SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
                      list_cosine_similarity(q.emb, e.emb) AS cos
               FROM q CROSS JOIN d e WHERE e.vec_id != q.vec_id)
    SELECT query_id, neighbor_id, ROUND(cos, 4) AS score
    FROM (SELECT *, ROW_NUMBER() OVER (PARTITION BY query_id ORDER BY cos DESC, neighbor_id) AS rn FROM s)
    WHERE rn <= 5 ORDER BY query_id, score DESC, neighbor_id
    """,
)
def q_ann_topk(sf_dir: str) -> pd.DataFrame:
    """Brute-force cosine top-k (the ANN baseline): the 10 query vectors are
    broadcast; each batch computes a partial top-k against its rows; driver
    merges partials (k-bounded, no global sort)."""
    import pyarrow.parquet as pq
    import ray

    qtab = pq.read_table(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    qdf = qtab.to_pandas()
    qdf = qdf[qdf.vec_id < 10]
    Q = np.vstack(qdf.embedding.to_numpy()).astype(np.float64)
    qids = qdf.vec_id.to_numpy()
    q_ref = ray.put((qids, dd.normalize_rows(Q)))

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def partial_topk(df: pd.DataFrame) -> pd.DataFrame:
        qi, qn = ray.get(q_ref) if isinstance(q_ref, ray.ObjectRef) else q_ref
        C = np.vstack(df.embedding.to_numpy()).astype(np.float64)
        cn = dd.normalize_rows(C)
        sims = qn @ cn.T  # (Q, rows)
        vids = df.vec_id.to_numpy()
        rows = []
        for i, qid in enumerate(qi):
            mask = vids != qid
            s = sims[i][mask]
            v = vids[mask]
            k = min(5, len(s))
            if k == 0:
                continue
            part = np.argpartition(-s, k - 1)[:k]
            for j in part:
                rows.append((qid, int(v[j]), float(s[j])))
        return pd.DataFrame(rows, columns=["query_id", "neighbor_id", "cos"])

    partials = ds.map_batches(partial_topk, batch_format="pandas").to_pandas()
    out = []
    for qid, g in partials.groupby("query_id"):
        g = g.sort_values(["cos", "neighbor_id"], ascending=[False, True]).head(5)
        out.append(g)
    df = pd.concat(out).reset_index(drop=True)
    df["score"] = df.cos.round(4)
    df = df.drop(columns=["cos"])
    df["query_id"] = df["query_id"].astype(np.int64)
    df["neighbor_id"] = df["neighbor_id"].astype(np.int64)
    return df.sort_values(["query_id", "score", "neighbor_id"], ascending=[True, False, True]).reset_index(drop=True)


@query(
    "q_embedding_neardup",
    """
    -- DOUBLE[] casts: see q_ann_topk (float32 FLOAT results hash-mismatch)
    WITH d AS (SELECT vec_id, label, CAST(embedding AS DOUBLE[]) AS emb
               FROM embeddings)
    SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
           ROUND(list_cosine_similarity(a.emb, b.emb), 4) AS cos
    FROM d a JOIN d b ON a.vec_id < b.vec_id AND a.label = b.label
    WHERE list_cosine_similarity(a.emb, b.emb) >= 0.3
    ORDER BY vec_a, vec_b
    """,
)
def q_embedding_neardup(sf_dir: str) -> pd.DataFrame:
    """Embedding-cosine near-dup, label-blocked (the label is the natural
    block key here; the hyperplane-LSH variant is exercised in pytest).
    Per-label groups are reduced with an exact all-pairs cosine inside
    map_groups — label groups are small; pairs, not rows, are the output."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])

    def pairs_in_group(df: pd.DataFrame) -> pd.DataFrame:
        V = np.vstack(df.embedding.to_numpy()).astype(np.float64)
        vn = dd.normalize_rows(V)
        sims = vn @ vn.T
        ids = df.vec_id.to_numpy()
        order = np.argsort(ids)
        ids = ids[order]
        sims = sims[np.ix_(order, order)]
        ii, jj = np.triu_indices(len(ids), k=1)
        keep = sims[ii, jj] >= 0.3
        return pd.DataFrame(
            {
                "vec_a": ids[ii[keep]].astype(np.int64),
                "vec_b": ids[jj[keep]].astype(np.int64),
                "cos": np.round(sims[ii, jj][keep], 4),
            }
        )

    res = ds.groupby("label").map_groups(pairs_in_group, batch_format="pandas")
    return res.to_pandas().sort_values(["vec_a", "vec_b"]).reset_index(drop=True)


class LinearScorer:
    """Batched model-inference stage in the brief's canonical actor-pool
    shape: the 'model' (a weight vector + bias here; a real checkpoint in
    production) is fetched from the object store ONCE per actor in
    ``__init__``, and ``__call__`` scores each batch with one f64 GEMV —
    never per row, never re-fetched per batch. Swap the weight vector for
    any batched model and the plumbing (schema, concurrency, zero-copy
    batch flow) is unchanged."""

    def __init__(self, weights_ref):
        import ray as _ray

        w = _ray.get(weights_ref)
        self.w = np.asarray(w["w"], dtype=np.float64)
        self.b = float(w["b"])

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        m = np.stack(df.embedding.to_numpy()).astype(np.float64)
        return pd.DataFrame(
            {"vec_id": df.vec_id.to_numpy(np.int64), "score": m @ self.w + self.b}
        )


def _scorer_weights(dim: int = 64) -> dict:
    """Deterministic fake 'checkpoint' (seeded), rounded so the exact same
    constants embed verbatim into the generated SQL twin."""
    rng = np.random.default_rng(421)
    return {"w": np.round(rng.normal(size=dim), 6), "b": 0.125}


def _q_model_score_sql() -> str:
    w = _scorer_weights()
    wlist = ", ".join(repr(float(x)) for x in w["w"])
    return f"""
    SELECT vec_id,
           ROUND(list_dot_product(CAST(embedding AS DOUBLE[]),
                                  [{wlist}]) + 0.125, 6) AS score
    FROM embeddings
    ORDER BY score DESC, vec_id LIMIT 20
    """


@query("q_model_score", _q_model_score_sql())
def q_model_score(sf_dir: str) -> pd.DataFrame:
    """Top-20 vectors under a broadcast linear model — the batched-
    inference pattern as a first-class query: weights ``ray.put`` once,
    ``map_batches(LinearScorer, concurrency=4)`` actor pool (init-once
    model load), per-batch partial top-k so only k rows per batch reach
    the driver. The SQL twin embeds the identical seeded weight constants
    and recomputes the dot product in f64 — inference output is
    hash-checked, not just smoke-tested."""
    import ray

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    wref = ray.put(_scorer_weights())
    K = 20

    # size the pool BELOW the session's CPU count: an actor pool that
    # reserves every CPU starves the upstream read tasks (measured: a
    # 4-actor pool in a 4-CPU session deadlocks until the pool timeout)
    n_cpus = int(ray.cluster_resources().get("CPU", 4))
    pool = max(1, min(4, n_cpus - 2))
    scored = ds.map_batches(
        LinearScorer,
        fn_constructor_kwargs={"weights_ref": wref},
        batch_format="pandas",
        concurrency=pool,
    )

    def partial_topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(["score", "vec_id"], ascending=[False, True]).head(K)

    parts = scored.map_batches(partial_topk, batch_format="pandas").to_pandas()
    top = parts.sort_values(["score", "vec_id"], ascending=[False, True]).head(K)
    top = top.reset_index(drop=True)
    top["score"] = top.score.round(6)
    return top[["vec_id", "score"]]


@query(
    "q_corpus_prep",
    """
    WITH base AS (
        SELECT doc_id, text,
               CASE WHEN trim(text) = '' THEN 0
                    ELSE CAST(array_length(regexp_split_to_array(trim(text), '\\s+'))
                              AS BIGINT) END AS n_tokens,
               list_transform(regexp_extract_all(text, '[a-zA-ZÀ-ÿ]+'),
                              w -> lower(w)) AS words,
               CAST(CONCAT('0x', substr(md5(CAST(doc_id AS VARCHAR)), 1, 4))
                    AS INTEGER) AS h
        FROM documents
    ),
    kept AS (
        SELECT doc_id, n_tokens,
               CASE WHEN h < 52429 THEN 'train' ELSE 'val' END AS split
        FROM base
        WHERE n_tokens >= 5
          AND len(list_filter(words, w -> list_contains(
                ['a','and','are','for','in','is','it','of','on','that',
                 'the','to','was','with','you'], w))) >= 1
          AND h < 58982
    )
    SELECT split, CAST(COUNT(*) AS BIGINT) AS n_docs,
           CAST(SUM(n_tokens) AS BIGINT) AS sum_tokens
    FROM kept GROUP BY split ORDER BY split
    """,
)
def q_corpus_prep(sf_dir: str) -> pd.DataFrame:
    """The composed training-corpus prep chain as ONE streaming pipeline —
    token count -> min-length filter -> language keep (>= 1 English
    stopword, the langid fragment) -> deterministic md5 train/val split ->
    per-split aggregate. Every stage is a vectorized per-batch transform
    fused into a single ``map_batches`` (no intermediate materialization,
    no shuffle until the final 2-key aggregate); each fragment reuses the
    kernel its standalone query already hash-checks (``text.token_count``,
    the stopword membership of ``q_langid``, the split hash of
    ``q_sample_split``), and the SQL twin composes the same fragments —
    the evidence that chained operators stay exact end-to-end."""
    import hashlib

    from . import text as tx
    from .ops import partial_groupby_sum

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    EN = tx.STOPWORDS["en"]

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        n_tok = tx.token_count(df.text)
        words = df.text.fillna("").str.findall(tx._WORD_RE)
        c_en = words.map(lambda ws: sum(1 for w in ws if w.lower() in EN))
        h = np.array(
            [int(hashlib.md5(str(d).encode()).hexdigest()[:4], 16) for d in df.doc_id],
            dtype=np.int64,
        )
        keep = (n_tok >= 5) & (c_en.to_numpy() >= 1) & (h < 58982)
        out = pd.DataFrame(
            {
                "split": np.where(h[keep] < 52429, "train", "val"),
                "n_tokens": n_tok[keep],
            }
        )
        return out

    agg = partial_groupby_sum(
        ds.map_batches(prep, batch_format="pandas"), "split", ["n_tokens"],
        count_alias="n_docs",
    )
    df = agg.to_pandas().sort_values("split").reset_index(drop=True)
    df["n_docs"] = df.n_docs.astype(np.int64)
    df["sum_tokens"] = df.sum_n_tokens.astype(np.int64)
    return df[["split", "n_docs", "sum_tokens"]]


@query(
    "q_decontaminate",
    r"""
    WITH toks AS (
        SELECT doc_id,
               list_filter(regexp_split_to_array(lower(text), '\s+'), x -> x <> '') AS ws
        FROM documents
    ),
    grams AS (
        SELECT DISTINCT doc_id,
               ws[CAST(i AS INTEGER)] || ' ' || ws[CAST(i AS INTEGER)+1] || ' ' ||
               ws[CAST(i AS INTEGER)+2] AS g
        FROM toks, UNNEST(range(1, len(ws) - 1)) AS t(i)
    ),
    bench AS (SELECT DISTINCT g FROM grams WHERE doc_id % 199 = 0),
    hits AS (
        SELECT g.doc_id, CAST(COUNT(*) AS BIGINT) AS n_hits
        FROM grams g JOIN bench USING (g)
        WHERE g.doc_id % 199 <> 0
        GROUP BY g.doc_id
    )
    SELECT doc_id, n_hits FROM hits ORDER BY doc_id
    """,
)
def q_decontaminate(sf_dir: str, bench_mod: int = 199) -> pd.DataFrame:
    """Benchmark DECONTAMINATION — the pre-training hygiene pass that drops
    training documents overlapping an evaluation set. The benchmark here is
    the deterministic ``doc_id % bench_mod == 0`` slice of the corpus (a
    stand-in for a real eval set); a training doc is reported with the
    count of its DISTINCT word-3-grams that appear anywhere in the
    benchmark's gram set.

    100-TB shape: the benchmark gram set is EVAL-scale (bounded by the
    benchmark corpus, not the training corpus), so it is built with a
    distributed per-batch distinct pass, unioned once on the driver, and
    ``ray.put`` as a sorted uint64 array; the training side is then a pure
    MAP-side membership scan (batch-vectorized shingling + one
    searchsorted per batch) — the corpus never shuffles. Same FNV-id gram
    family as q_ngram_jaccard (exact barring 64-bit collisions)."""
    import ray

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def bench_grams(df: pd.DataFrame) -> pd.DataFrame:
        sub = df[df.doc_id % bench_mod == 0]
        if not len(sub):
            return pd.DataFrame({"gid": pd.array([], dtype=np.uint64)})
        ids = dd.word_ngram_ids_batch(sub.text.fillna("").tolist(), 3)
        flat = np.concatenate(ids) if ids else np.empty(0, np.uint64)
        return pd.DataFrame({"gid": np.unique(flat)})

    bench_df = ds.map_batches(bench_grams, batch_format="pandas").to_pandas()
    bench_ids = np.unique(bench_df.gid.to_numpy(dtype=np.uint64))
    bench_ref = ray.put(bench_ids)

    def scan(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df.doc_id % bench_mod != 0]
        if not len(df):
            return pd.DataFrame(
                {"doc_id": pd.array([], dtype=np.int64), "n_hits": pd.array([], dtype=np.int64)}
            )
        bench = ray.get(bench_ref)
        ids = dd.word_ngram_ids_batch(df.text.fillna("").tolist(), 3)
        sizes = np.array([len(s) for s in ids], dtype=np.int64)
        tags = np.repeat(np.arange(len(df)), sizes)
        flat = np.concatenate(ids) if len(df) else np.empty(0, np.uint64)
        if len(bench) and len(flat):
            pos = np.minimum(np.searchsorted(bench, flat), len(bench) - 1)
            member = bench[pos] == flat
        else:
            member = np.zeros(len(flat), dtype=bool)
        n_hits = np.bincount(tags[member], minlength=len(df))
        hit = n_hits > 0
        return pd.DataFrame(
            {
                "doc_id": df.doc_id.to_numpy(np.int64)[hit],
                "n_hits": n_hits[hit].astype(np.int64),
            }
        )

    out = ds.map_batches(scan, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


@query(
    "q_repetition_quality",
    r"""
    WITH toks AS (
        SELECT doc_id,
               list_filter(regexp_split_to_array(lower(text), '\s+'), x -> x <> '') AS ws
        FROM documents
    ),
    w AS (
        SELECT doc_id, CAST(len(ws) AS BIGINT) AS n_words,
               len(list_distinct(ws)) AS ndw
        FROM toks WHERE len(ws) > 0
    ),
    g2 AS (
        SELECT doc_id, ws[CAST(i AS INTEGER)] || ' ' || ws[CAST(i AS INTEGER)+1] AS g
        FROM toks, UNNEST(range(1, len(ws))) AS t(i)
    ),
    top2 AS (
        SELECT doc_id, MAX(c) AS maxc
        FROM (SELECT doc_id, g, COUNT(*) AS c FROM g2 GROUP BY doc_id, g)
        GROUP BY doc_id
    )
    SELECT w.doc_id, n_words,
           ROUND(1 - CAST(ndw AS DOUBLE) / n_words, 6) AS dup_word_frac,
           ROUND(2.0 * COALESCE(maxc, 0) / n_words, 6) AS top2_frac
    FROM w LEFT JOIN top2 ON w.doc_id = top2.doc_id
    ORDER BY w.doc_id
    """,
)
def q_repetition_quality(sf_dir: str) -> pd.DataFrame:
    """Gopher-style within-document REPETITION metrics — the quality
    signals a pre-training filter thresholds: duplicate-word fraction
    (1 - distinct/total) and the fraction of words covered by the most
    frequent word 2-gram. Pure map-side (one vectorized pass per batch,
    per-batch factorize for word codes — no cross-batch identity needed),
    so the corpus never shuffles; thresholds are the CALLER's policy, the
    operator reports the metrics."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def metrics(df: pd.DataFrame) -> pd.DataFrame:
        words_all: list[str] = []
        counts = np.empty(len(df), dtype=np.int64)
        for i, t in enumerate(df.text.fillna("")):
            ws = t.lower().split()
            words_all.extend(ws)
            counts[i] = len(ws)
        keep = counts > 0
        if not keep.any():
            return pd.DataFrame(
                {
                    "doc_id": pd.array([], dtype=np.int64),
                    "n_words": pd.array([], dtype=np.int64),
                    "dup_word_frac": pd.array([], dtype=float),
                    "top2_frac": pd.array([], dtype=float),
                }
            )
        codes, uniq = pd.factorize(np.array(words_all, dtype=object))
        codes = codes.astype(np.int64)
        K = np.int64(len(uniq) + 1)
        tags = np.repeat(np.arange(len(df), dtype=np.int64), counts)
        # distinct words per doc: unique (tag, code) pairs
        pair = tags * K + codes
        ndw = np.bincount(
            (np.unique(pair) // K).astype(np.int64), minlength=len(df)
        )
        # max 2-gram multiplicity per doc: gram key over in-doc adjacent
        # positions, sort, RLE, per-doc max over run lengths
        maxc = np.zeros(len(df), dtype=np.int64)
        if len(codes) > 1:
            same_doc = tags[1:] == tags[:-1]
            gt = tags[:-1][same_doc]
            ga = codes[:-1][same_doc]
            gb = codes[1:][same_doc]
            if len(gt):
                order = np.lexsort((gb, ga, gt))
                gt, ga, gb = gt[order], ga[order], gb[order]
                starts = np.flatnonzero(
                    np.concatenate(
                        [
                            [True],
                            (gt[1:] != gt[:-1])
                            | (ga[1:] != ga[:-1])
                            | (gb[1:] != gb[:-1]),
                        ]
                    )
                )
                lens = np.diff(np.concatenate([starts, [len(gt)]]))
                np.maximum.at(maxc, gt[starts], lens)
        nw = counts[keep].astype(np.float64)
        return pd.DataFrame(
            {
                "doc_id": df.doc_id.to_numpy(np.int64)[keep],
                "n_words": counts[keep],
                "dup_word_frac": np.round(1.0 - ndw[keep] / nw, 6),
                "top2_frac": np.round(2.0 * maxc[keep] / nw, 6),
            }
        )

    out = ds.map_batches(metrics, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


PACK_BUDGET = 2048  # tokens per training chunk (GPT-style doc packing)


@query(
    "q_pack_chunks",
    f"""
    WITH t AS (
        SELECT doc_id,
               CASE WHEN trim(text) = '' THEN 0
                    ELSE CAST(array_length(regexp_split_to_array(trim(text), '\\s+')) AS BIGINT)
               END AS n_tokens
        FROM documents
    ),
    c AS (
        SELECT doc_id, n_tokens,
               COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id
                        ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS prior
        FROM t
    )
    SELECT CAST(prior // {PACK_BUDGET} AS BIGINT) AS chunk_id,
           COUNT(*) AS n_docs, CAST(SUM(n_tokens) AS BIGINT) AS n_tokens,
           MIN(doc_id) AS first_doc, MAX(doc_id) AS last_doc
    FROM c GROUP BY chunk_id ORDER BY chunk_id
    """,
)
def q_pack_chunks(sf_dir: str) -> pd.DataFrame:
    """Token-budget SEQUENCE PACKING — the LLM-training prep op that
    concatenates the doc_id-ordered corpus and cuts it into fixed
    ``PACK_BUDGET``-token chunks; a doc belongs to the chunk containing
    its FIRST token (the standard doc-level assignment of GPT-style
    packing). The hard part at scale is the ORDERED GLOBAL PREFIX SUM of
    token counts; implemented as the classic two-pass distributed scan:

    1. tokenize once into a materialized int-only (doc_id, n_tokens)
       dataset (fixed block structure — blocks of a materialized dataset
       are stable ordered doc ranges because the source parquet is
       doc_id-ordered);
    2. per-block partial: ONE row per block (min_doc, sum) — the only
       thing the driver ever sees (k = num_blocks, not corpus rows);
       driver exclusive-prefix-sums the block sums into an offset per
       block, broadcast as a tiny dict keyed by the block's min doc_id;
    3. second pass over the SAME materialized blocks: within-block
       exclusive cumsum + the block offset = each doc's global prior,
       chunk_id = prior // budget; per-block partial chunk aggregates,
       then a small final groupby merges the (rare) chunks straddling a
       block edge.

    At 100 TB both passes stream; the driver holds one row per block."""
    import ray

    from .ops import derive_num_blocks, partial_groupby_sum

    nd = _nrows(sf_dir, "documents")
    docs = rd.read_parquet(
        _t(sf_dir, "documents"),
        columns=["doc_id", "text"],
        override_num_blocks=derive_num_blocks(nd, target_rows=4096),
    )

    def tokenize(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df.doc_id.to_numpy(np.int64),
                "n_tokens": tx.token_count(df.text),
            }
        )

    toks = docs.map_batches(tokenize, batch_format="pandas").materialize()

    def block_sum(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"min_doc": [int(df.doc_id.min())], "block_sum": [int(df.n_tokens.sum())]}
        )

    sums = (
        toks.map_batches(block_sum, batch_format="pandas", batch_size=None)
        .to_pandas()
        .sort_values("min_doc")
        .reset_index(drop=True)
    )
    offsets = {
        int(m): int(o)
        for m, o in zip(
            sums.min_doc, np.concatenate([[0], np.cumsum(sums.block_sum.to_numpy())[:-1]])
        )
    }
    off_ref = ray.put(offsets)

    def assign_chunks(df: pd.DataFrame) -> pd.DataFrame:
        off = ray.get(off_ref)
        df = df.sort_values("doc_id", kind="stable")
        n = df.n_tokens.to_numpy(np.int64)
        prior = off[int(df.doc_id.min())] + np.concatenate([[0], np.cumsum(n)[:-1]])
        chunk = (prior // PACK_BUDGET).astype(np.int64)
        g = df.assign(chunk_id=chunk).groupby("chunk_id", as_index=False).agg(
            n_docs=("doc_id", "size"),
            n_tokens=("n_tokens", "sum"),
            first_doc=("doc_id", "min"),
            last_doc=("doc_id", "max"),
        )
        return g

    partials = toks.map_batches(assign_chunks, batch_format="pandas", batch_size=None)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("chunk_id", as_index=False).agg(
            n_docs=("n_docs", "sum"),
            n_tokens=("n_tokens", "sum"),
            first_doc=("first_doc", "min"),
            last_doc=("last_doc", "max"),
        )

    out = merge(partials.to_pandas()).sort_values("chunk_id").reset_index(drop=True)
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out


@query(
    "q_dedup_corpus",
    f"""
    WITH RECURSIVE {_NGRAM_PAIRS_CTES},
    edges AS (
        SELECT doc_a AS u, doc_b AS v FROM njpairs
        UNION SELECT doc_b, doc_a FROM njpairs
    ),
    walk(u, label) AS (
        SELECT u, v FROM edges
        UNION
        SELECT e.u, w.label FROM edges e JOIN walk w ON w.u = e.v
    ),
    comp AS (
        SELECT u AS doc_id, LEAST(u, MIN(label)) AS component_id
        FROM walk GROUP BY u
    )
    SELECT d.doc_id,
           CASE WHEN trim(d.text) = '' THEN 0
                ELSE CAST(array_length(regexp_split_to_array(trim(d.text), '\\s+')) AS BIGINT)
           END AS n_tokens
    FROM documents d
    WHERE d.doc_id NOT IN (SELECT doc_id FROM comp WHERE doc_id <> component_id)
    ORDER BY d.doc_id
    """,
)
def q_dedup_corpus(sf_dir: str, threshold: float = 0.5, df_cap: int = 50) -> pd.DataFrame:
    """KEEP-CANONICAL corpus dedup end to end — the composed pipeline a
    training-data run actually executes: exact n-gram near-dup pair graph
    → distributed connected components → drop every cluster member except
    the canonical minimum → the surviving corpus (with token counts, ready
    for packing). The drop set is output-scale (bounded by the dup count),
    so it broadcasts via ``ray.put`` and the corpus-side anti-join is a
    map-side filter (``ops.broadcast_semi_anti_filter`` — the D4 pattern);
    the corpus itself never shuffles. The pair graph comes from the
    per-process cache (``ngram_jaccard_pairs_cached``) — computed once
    and shared with q_ngram_jaccard / q_dup_components."""
    import ray

    from . import graph
    from .ops import broadcast_semi_anti_filter

    pairs_df, nd = ngram_jaccard_pairs_cached(sf_dir, threshold, df_cap)
    pairs_ds = rd.from_pandas(pairs_df[["doc_a", "doc_b"]])
    cc = graph.connected_components(pairs_ds, nd).to_pandas()
    drop = (
        set(cc[cc.doc_id != cc.component_id].doc_id.tolist()) if len(cc) else set()
    )
    drop_ref = ray.put(np.array(sorted(drop), dtype=np.int64))

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    kept = broadcast_semi_anti_filter(docs, "doc_id", drop_ref, anti=True)

    def tokenize(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df.doc_id.to_numpy(np.int64),
                "n_tokens": tx.token_count(df.text),
            }
        )

    out = kept.map_batches(tokenize, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)
