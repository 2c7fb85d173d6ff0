"""Text / dedup / similarity queries over documents+embeddings, with DuckDB
oracles where SQL can express the op (otherwise rows-only; the pytest suite
carries the brute-force oracle instead). Importing this module populates the
same REGISTRY/ORACLE as ``relational``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from . import dedup as dd
from . import text as tx
from .ops import Broadcast, topk
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

    def fn(b: pa.Table) -> pa.Table:
        text = tx.as_text(b["text"])
        return pa.table(
            {"doc_id": b["doc_id"], "n_tokens": tx.token_count(text), "n_chars": pc.utf8_length(text)}
        )

    return ds.map_batches(fn, batch_format="pyarrow").to_pandas().sort_values("doc_id").reset_index(drop=True)


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

    def fn(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b["doc_id"], "n_tokens_bpe": tx.bpe_token_count(b["text"])})

    return (
        ds.map_batches(fn, batch_format="pyarrow")
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

    def fn(b: pa.Table) -> pa.Table:
        n_chars, n_punct = tx.punct_stats(b["text"])
        c, p = n_chars.fill_null(0).to_numpy(), n_punct.fill_null(0).to_numpy()
        ratio = np.round(np.where(c > 0, p / np.maximum(c, 1), 0.0), 6)
        return pa.table(
            {"doc_id": b["doc_id"], "n_chars": n_chars, "n_punct": n_punct, "punct_ratio": ratio}
        )

    return ds.map_batches(fn, batch_format="pyarrow").to_pandas().sort_values("doc_id").reset_index(drop=True)


@query(
    "q_exact_dedup_docs",
    """
    SELECT md5(text) AS content_hash, COUNT(*) AS n_docs, MIN(doc_id) AS first_doc
    FROM documents GROUP BY content_hash HAVING COUNT(*) > 1
    ORDER BY content_hash
    """,
)
def q_exact_dedup_docs(sf_dir: str) -> pd.DataFrame:
    """Exact dedup (SURVEY.md D1): vectorized content hash per batch →
    ``ops.supergroup_agg`` over one key per distinct doc; duplicate groups
    only."""
    from .ops import supergroup_agg

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(content_hash=tx.md5_hex(df.text))
        g = df.groupby("content_hash", sort=False, dropna=False).agg(
            n_docs=("doc_id", "size"), first_doc=("doc_id", "min")
        )
        return g.reset_index()

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("content_hash", sort=False, dropna=False).agg(
            n_docs=("n_docs", "sum"), first_doc=("first_doc", "min")
        )
        g = g.reset_index()
        return g[g.n_docs > 1]

    df = supergroup_agg("q_exact_dedup_docs", ds, ["content_hash"], partial, merge)
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
               COALESCE(len(words), 0) AS nw,
               len(list_filter(words, w -> list_contains({_STOPLIST_SQL['en']}, w))) AS c_en,
               len(list_filter(words, w -> list_contains({_STOPLIST_SQL['de']}, w))) AS c_de,
               len(list_filter(words, w -> list_contains({_STOPLIST_SQL['fr']}, w))) AS c_fr,
               len(list_filter(words, w -> list_contains({_STOPLIST_SQL['es']}, w))) AS c_es,
               CAST('0x' || substr(md5(norm), 1, 16) AS UBIGINT) AS fp_u
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
    out = ds.map_batches(tx.TextScorer(), batch_format="pyarrow", batch_size=512)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


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

_KIND_DOC, _KIND_PAIR = np.int8(0), np.int8(1)


def make_pair_halves(pairs: pd.DataFrame) -> pd.DataFrame:
    """Explode candidate ``(doc_a, doc_b)`` pairs into the doc-keyed half
    rows the verify tail's first shuffle consumes (side 0 keyed by doc_a,
    side 1 by doc_b). It runs as a map right after the pair generator's
    group map, and Ray fuses the two into one task."""
    a = pairs.doc_a.to_numpy(np.int64)
    b = pairs.doc_b.to_numpy(np.int64)
    n = len(a)
    return pd.DataFrame(
        {
            "key": np.concatenate([a, b]),
            "doc_a": np.concatenate([a, a]),
            "doc_b": np.concatenate([b, b]),
            "side": np.concatenate([np.zeros(n, np.int8), np.ones(n, np.int8)]),
            "kind": np.full(2 * n, _KIND_PAIR, np.int8),
            "text": np.full(2 * n, "", dtype=object),
        }
    )


def _jaccard_pairs_kernel(
    a: np.ndarray,
    b: np.ndarray,
    ta: np.ndarray,
    tb: np.ndarray,
    _unused,
    shingle_fn,
    threshold: float,
) -> pd.DataFrame:
    """Vectorized exact-Jaccard over aligned pair arrays (ids a/b, texts
    ta/tb) — the shared compute core of both verify paths. ``shingle_fn``
    maps a batch of texts to their sorted-unique uint64 id sets; the 5th
    parameter is unused (it held the per-doc form, and the benchmark's
    traced near-dup pass still passes one). Shingle each UNIQUE doc once
    in one batch call, then verify ALL pairs in one pass: concatenate both
    docs' sorted-unique shingle arrays per pair tagged with the pair
    index, lexsort, and count adjacent equal (tag, value) entries — that
    count IS |A ∩ B| because each side is unique, so a value appearing
    twice within one pair's span must come from both sides. Replaces a per-pair intersect1d loop that
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
    shingles = shingle_fn(texts_cat[first])
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


def verify_pairs_broadcast_ds(
    pairs: rd.Dataset,
    texts,
    threshold: float,
    shingle_fn,
) -> rd.Dataset:
    """MAP-SIDE exact-Jaccard verification for SMALL corpora: candidate
    pair batches verify in place against the broadcast ``doc_id -> text``
    table ``texts`` (from ``broadcast_texts_ref``). Zero additional
    shuffles — the shuffle-free sibling of ``verify_pairs_jaccard_ds``;
    ``verify_pairs`` runs it when the texts measure under the broadcast
    cap and the two-shuffle tail otherwise. Duplicate
    candidates arriving in DIFFERENT batches are verified twice and must
    be deduped by the caller if its generator can emit cross-batch
    duplicates (kept pairs are output-sparse, so a collect-side dedup is
    free). Only the batch's OWN docs ever materialize as Python strings
    (arrow ``take`` + to_numpy)."""

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
        tab, ids_sorted = texts.get()
        df = df.drop_duplicates(["doc_a", "doc_b"])
        a = df.doc_a.to_numpy().astype(np.int64)
        b = df.doc_b.to_numpy().astype(np.int64)
        ta = lookup(tab, ids_sorted, a)
        tb = lookup(tab, ids_sorted, b)
        return _jaccard_pairs_kernel(a, b, ta, tb, None, shingle_fn, threshold)

    # whole blocks as batches: candidates within a block heavily share
    # docs, so one kernel call per block shingles each unique doc once
    # instead of once per 1024-row slice
    return pairs.map_batches(verify_batch, batch_format="pandas", batch_size=None)


def broadcast_texts_ref(tabs: list[pa.Table]) -> Broadcast:
    """Broadcast the doc_id-sorted concatenation of the ``(doc_id, text)``
    ARROW blocks ``tabs`` that ``verify_pairs`` collected and measured
    under the broadcast cap; each worker process reads it as ``(table,
    its doc_id array)``. Stays arrow end to end — collecting through
    pandas materialized every text as a Python string in the calling
    process (~6 s at 1M docs); concatenating the blocks and sorting with
    pyarrow.compute is a buffer-level operation. The table maps zero-copy
    from the object store: an object-dtype pandas Series here cost a
    100 MB string unpickle per worker per query and, cached without
    eviction, grew worker heaps by the full corpus per call (measured
    13 → 66 s across three sf0.1 runs)."""
    schema = pa.schema([("doc_id", pa.int64()), ("text", pa.large_string())])
    tab = pa.concat_tables([t.cast(schema) for t in tabs if t.num_rows] or [schema.empty_table()])
    tab = tab.take(pc.sort_indices(tab["doc_id"])).combine_chunks()
    if tab["text"].null_count:
        tab = tab.set_column(1, "text", pc.fill_null(tab["text"], ""))
    return Broadcast(
        "verify_texts", tab, build=lambda t: (t, t["doc_id"].to_numpy(zero_copy_only=False))
    )


def verify_pairs_jaccard_ds(
    pairs: rd.Dataset,
    docs: rd.Dataset,
    nd: int | None,
    threshold: float,
    shingle_fn,
) -> rd.Dataset:
    """Distributed exact-Jaccard verification of candidate pairs — the
    shared tail of every text near-dup query (MinHash LSH, exact n-gram
    index). Nothing corpus- or candidate-scale ever reaches the driver:

    TWO ``ops.shuffle_groups`` calls, no broadcast: each candidate pair
    of ``pairs`` becomes two doc-keyed halves (``make_pair_halves``),
    shuffled with the (doc_id, text) stream on the doc key, which attaches
    each half its text (a distributed semi-join — the docs table crosses
    this shuffle exactly once and only pair-halves survive it); a second
    shuffle on the PAIR key reunites the halves and computes true Jaccard
    in-group with a per-group shingle cache. Global pair-dedup rides both
    shuffles for free (identical pairs — e.g. one pair found by several
    LSH bands or several shared shingles — land in the same group; their
    duplicate halves are dropped in-group), so there is no separate dedup
    shuffle and NO driver-side count barrier anywhere. ``nd`` (the corpus
    rows) sizes both fan-outs.

    ``shingle_fn`` maps a batch of texts -> their sorted-unique uint64 id
    sets and defines the Jaccard family (char shingles for MinHash, word
    n-grams for the exact index); the in-group shingle pass is one call
    over the group's unique docs. The kept-pair filter compares the
    ROUNDED (6 dp) Jaccard against ``threshold`` so SQL twins can mirror
    it exactly.
    """
    from .ops import shuffle_groups

    def doc_rows(df: pd.DataFrame) -> pd.DataFrame:
        ids = df.doc_id.to_numpy().astype(np.int64)
        n = len(ids)
        return pd.DataFrame(
            {
                "key": ids,
                "doc_a": np.zeros(n, np.int64),
                "doc_b": np.zeros(n, np.int64),
                "side": np.full(n, -1, np.int8),
                "kind": np.full(n, _KIND_DOC, np.int8),
                "text": df.text.fillna("").astype(object).to_numpy(),
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
        ph = g[g.kind == _KIND_PAIR].drop_duplicates(["doc_a", "doc_b", "side"])
        if not len(ph):
            return HALF_EMPTY
        d = g[g.kind == _KIND_DOC]
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

    def verify_group(g: pd.DataFrame) -> pd.DataFrame:
        # both halves of a pair land here; sort reunites them (side 0, 1).
        # A pair generated by several index buckets arrives several times
        # with IDENTICAL halves — the global pair-dedup happens here,
        # riding this shuffle instead of needing one of its own.
        g = g.drop_duplicates(["doc_a", "doc_b", "side"]).sort_values(
            ["doc_a", "doc_b", "side"], kind="stable"
        )
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
        return _jaccard_pairs_kernel(a, b, ta, tb, None, shingle_fn, threshold)

    halves = [
        pairs.map_batches(make_pair_halves, batch_format="pandas"),
        docs.map_batches(doc_rows, batch_format="pandas"),
    ]
    texts = shuffle_groups("verify_pairs.text", halves, ["key"], attach_text, nd)
    return shuffle_groups("verify_pairs.jaccard", [texts], ["doc_a", "doc_b"], verify_group, nd)


def verify_pairs(
    pairs: rd.Dataset,
    docs: rd.Dataset,
    nd: int | None,
    threshold: float,
    shingle_fn,
) -> rd.Dataset:
    """Exact-Jaccard verification of candidate pairs, broadcast or
    partitioned on the measured bytes of the texts it would broadcast.

    The ``(doc_id, text)`` Arrow blocks of ``docs`` are collected one at
    a time, summing their bytes, and the collect stops at the first block
    that takes the sum to the cap (a share ``ops.BROADCAST_SHARE`` of the
    object store). ``ops.under_cap`` decides and logs: under the cap the
    collected blocks are broadcast and the pairs verify map-side
    (``verify_pairs_broadcast_ds``); otherwise the two-shuffle tail runs
    on ``docs`` (``verify_pairs_jaccard_ds``), having read at most the
    cap plus one block of texts more. ``docs`` is never materialized
    whole."""
    from . import ops

    cap = ops.store_cap(ops.BROADCAST_SHARE)
    tabs, nbytes = [], 0
    for t in docs.iter_batches(batch_format="pyarrow", batch_size=None):
        tabs.append(t.select(["doc_id", "text"]))
        nbytes += tabs[-1].nbytes
        if nbytes >= cap:
            break
    if ops.under_cap("verify_pairs", sum(t.num_rows for t in tabs), nbytes, cap):
        return verify_pairs_broadcast_ds(pairs, broadcast_texts_ref(tabs), threshold, shingle_fn)
    return verify_pairs_jaccard_ds(pairs, docs, nd, threshold, shingle_fn)


def minhash_neardup_pairs(
    docs: rd.Dataset,
    nd: int,
    threshold: float = 0.6,
) -> pd.DataFrame:
    """MinHash+LSH near-dup core over any ``(doc_id, text)`` dataset,
    fully distributed (nothing corpus- or candidate-scale ever reaches
    the driver):

    1. shingle→minhash→band keys (vectorized ``MinHashStage``, exploded
       one row per (doc, band));
    2. ``ops.shuffle_groups`` on the band bucket with vectorized
       run-length pair generation inside each super-group (the same
       pattern as ``q_phash_neardup`` — per-bucket map_groups and the
       native join were measured 10-40x slower), per-group pair dedup;
    3. exact char-shingle-Jaccard verification (``verify_pairs``):
       map-side against the broadcast texts when they measure under the
       broadcast cap (every registry scale and the 300k bench corpus),
       else the ``verify_pairs_jaccard_ds`` tail (two super-group
       shuffles, global pair-dedup riding them, no broadcast or barrier).
       A pair found in two band super-groups is verified twice on the
       broadcast branch; kept pairs are sparse, so the dedup rides the
       driver collect.

    The super-group fan-out is derived from the corpus row count ``nd``.
    """
    from .ops import shuffle_groups

    # task pool (instance, not class): the stage's only state is the tiny
    # seeded hash family — elastic tasks beat a fixed 4-slot actor pool
    bands = docs.map_batches(
        dd.MinHashStage(), batch_format="pandas", batch_size=256
    )

    def band_key(df: pd.DataFrame) -> pd.DataFrame:
        bkey = dd.mix_band_key(df.band_hash.to_numpy(), df.band.to_numpy())
        return pd.DataFrame({"doc_id": df.doc_id, "bkey": bkey})

    def pairs_in_supergroup(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["bkey", "doc_id"], kind="stable").reset_index(drop=True)
        A, B = dd.bucket_pair_indices(g.bkey.to_numpy())
        if not len(A):
            return _PAIRGEN_EMPTY
        ids = g.doc_id.to_numpy()
        return pd.DataFrame({"doc_a": ids[A], "doc_b": ids[B]}).drop_duplicates(
            ["doc_a", "doc_b"]
        )

    keyed = bands.map_batches(band_key, batch_format="pandas")
    pairs = shuffle_groups("minhash_neardup.bands", [keyed], ["bkey"], pairs_in_supergroup, nd)
    res = verify_pairs(pairs, docs, nd, threshold, dd.char_shingles_batch).to_pandas()
    if not len(res):
        return _PAIRS_EMPTY
    res["doc_a"] = res.doc_a.astype(np.int64)
    res["doc_b"] = res.doc_b.astype(np.int64)
    return (
        res.drop_duplicates(["doc_a", "doc_b"])
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
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
) -> tuple[rd.Dataset, int]:
    """EXACT word-3-gram Jaccard near-dup — the deterministic sibling of
    MinHash (no LSH approximation, hence fully SQL-checkable):

    1. explode each doc into its DISTINCT word-3-gram ids
       (``dedup.word_ngram_postings``: grams are factorized batch-wide and
       each unique gram is FNV-hashed once, numpy passes per byte
       position, no per-doc or per-gram Python);
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
       ``verify_pairs`` (broadcast or two-shuffle tail on the measured
       text bytes), threshold on the 6-dp-rounded value exactly as the
       SQL twin does.
    """
    from .ops import derive_num_blocks, shuffle_groups

    nd = _nrows(sf_dir, "documents")
    docs = rd.read_parquet(
        _t(sf_dir, "documents"),
        columns=["doc_id", "text"],
        override_num_blocks=derive_num_blocks(nd, target_rows=2048),
    )

    GRAM_EMPTY = pd.DataFrame(
        {
            "doc_id": pd.array([], dtype=np.int64),
            "gid": pd.array([], dtype=np.int64),
        }
    )

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        rows, gid = dd.word_ngram_postings(df.text)
        if not len(gid):
            return GRAM_EMPTY
        return pd.DataFrame(
            {"doc_id": df.doc_id.to_numpy(np.int64)[rows], "gid": gid.astype(np.int64)}
        )

    CAND_EMPTY = pd.DataFrame(
        {
            "doc_a": pd.array([], dtype=np.int64),
            "doc_b": pd.array([], dtype=np.int64),
            "nsh": pd.array([], dtype=np.int64),
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
        # the exact global count in the pair-count shuffle)
        return (
            pd.DataFrame({"doc_a": ids[A], "doc_b": ids[B]})
            .groupby(["doc_a", "doc_b"], as_index=False)
            .size()
            .rename(columns={"size": "nsh"})
        )

    def shared_count_filter(g: pd.DataFrame) -> pd.DataFrame:
        # exact global shared-sub-cap-gram count per pair; only pairs
        # sharing >= min_shared grams go on to text verification. This
        # int-only shuffle is what keeps the query sub-quadratic in
        # PRACTICE too: 1-shared-gram coincidences dominate the raw
        # candidate set (1.13M of 1.13M+few-k at sf0.1) and die here
        # without ever touching document text. The pair-keyed shuffle
        # makes each surviving pair GLOBALLY unique, so neither verify
        # path needs a downstream dedup.
        g = g.groupby(["doc_a", "doc_b"], as_index=False)["nsh"].sum()
        g = g.loc[g.nsh >= min_shared]
        return g[["doc_a", "doc_b"]] if len(g) else _PAIRGEN_EMPTY

    postings = docs.map_batches(explode, batch_format="pandas", batch_size=512)
    cand_counts = shuffle_groups("ngram_jaccard.grams", [postings], ["gid"], pairs_in_supergroup, nd)
    pairs = shuffle_groups("ngram_jaccard.pairs", [cand_counts], ["doc_a", "doc_b"], shared_count_filter, nd)
    return verify_pairs(pairs, docs, nd, threshold, dd.word_ngram_ids_batch), nd


_NGRAM_PAIRS_CACHE: dict[str, tuple[pd.DataFrame, int]] = {}


def ngram_jaccard_pairs_cached(
    sf_dir: str, threshold: float = 0.5, df_cap: int = 50
) -> tuple[pd.DataFrame, int]:
    """Collected n-gram near-dup pair graph, computed ONCE per
    (sf_dir, params) per process — q_ngram_jaccard, q_dup_components and
    q_dedup_corpus all consume the same graph, so the three queries share
    one distributed computation instead of re-running the full
    explode/index/verify pipeline each. Caching the COLLECTED pairs is
    scale-safe because kept near-dup pairs are output-sparse (bounded by
    the true dup count, not the corpus); the key is the documents table's
    ``cache_path`` (absolute path, mtime in ns, size, params), so a
    rewritten table invalidates."""
    from .state.checkpoint import cache_path

    key = cache_path("ngram_pairs", _t(sf_dir, "documents"), float(threshold), int(df_cap))
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
    k rows (``ops.topk``) and the driver merge holds <= k x num_blocks
    rows — never the corpus. md5 (not FNV) so the DuckDB twin recomputes
    the same order; ties are impossible (distinct ids -> distinct
    digests)."""
    import hashlib

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        hx = [hashlib.md5(str(int(i)).encode()).hexdigest() for i in df.doc_id.to_numpy()]
        return pd.DataFrame(
            {"doc_id": df.doc_id.to_numpy(np.int64), "n_chars": df.n_chars.to_numpy(np.int64), "_h": hx}
        )

    out = topk("q_bottomk_sample", ds.map_batches(keyed, batch_format="pandas"), k, ["_h"], [False])
    return out.drop(columns="_h").sort_values("doc_id", ignore_index=True)


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

    def fn(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": batch["doc_id"], "simhash": dd.simhash64_batch(batch["text"])}
        )

    return ds.map_batches(fn, batch_format="pyarrow").to_pandas().sort_values("doc_id").reset_index(drop=True)


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
    """Brute-force cosine top-5 of the 10 query vectors (the ANN baseline,
    ``ann.topk_search``), ordered as the twin orders the rounded scores."""
    from . import ann

    qids, Qn = ann.query_vectors(_t(sf_dir, "embeddings"), range(10))
    df = ann.topk_search("q_ann_topk", _read(sf_dir, "embeddings", ["vec_id", "embedding"]), qids, Qn, 5)
    return df.drop(columns="rank").sort_values(
        ["query_id", "score", "neighbor_id"], ascending=[True, False, True], ignore_index=True
    )


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
        return dd.cosine_pairs(df.vec_id.to_numpy(), df.embedding.to_numpy(), 0.3)

    res = ds.groupby("label").map_groups(pairs_in_group, batch_format="pandas")
    return res.to_pandas().sort_values(["vec_a", "vec_b"]).reset_index(drop=True)


class LinearScorer:
    """Batched model-inference stage in the brief's canonical actor-pool
    shape: the 'model' (a weight vector + bias here; a real checkpoint in
    production) is read from its broadcast ONCE per actor in ``__init__``,
    and ``__call__`` scores each batch with one f64 GEMV —
    never per row, never re-fetched per batch. Swap the weight vector for
    any batched model and the plumbing (schema, concurrency, zero-copy
    batch flow) is unchanged."""

    def __init__(self, weights: Broadcast):
        w = weights.get()
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
    inference pattern as a first-class query: weights broadcast once,
    ``map_batches(LinearScorer, concurrency=4)`` actor pool (init-once
    model load), ``ops.topk`` so only k rows per batch reach the driver.
    The SQL twin embeds the identical seeded weight constants
    and recomputes the dot product in f64 — inference output is
    hash-checked, not just smoke-tested."""
    import ray

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    weights = Broadcast("model_score", _scorer_weights())

    # size the pool BELOW the session's CPU count: an actor pool that
    # reserves every CPU starves the upstream read tasks (measured: a
    # 4-actor pool in a 4-CPU session deadlocks until the pool timeout)
    n_cpus = int(ray.cluster_resources().get("CPU", 4))
    pool = max(1, min(4, n_cpus - 2))
    scored = ds.map_batches(
        LinearScorer,
        fn_constructor_kwargs={"weights": weights},
        batch_format="pandas",
        concurrency=pool,
    )
    top = topk("q_model_score", scored, 20, ["score", "vec_id"], [True, False])
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

    from .ops import sum_by, supergroup_agg

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        n_tok = tx.token_count(df.text).fill_null(0).to_numpy()
        c_en = tx.stopword_counts(tx.letter_words(df.text))[:, 0]
        h = np.array(
            [int(hashlib.md5(str(d).encode()).hexdigest()[:4], 16) for d in df.doc_id],
            dtype=np.int64,
        )
        keep = (n_tok >= 5) & (c_en >= 1) & (h < 58982)
        return pd.DataFrame(
            {
                "split": np.where(h[keep] < 52429, "train", "val"),
                "n_docs": 1,
                "sum_tokens": n_tok[keep],
            }
        )

    df = supergroup_agg(
        "q_corpus_prep", ds.map_batches(prep, batch_format="pandas"), ["split"],
        sum_by(["split"]), sum_by(["split"]),
    )
    df = df.sort_values("split").reset_index(drop=True)
    df["n_docs"] = df.n_docs.astype(np.int64)
    df["sum_tokens"] = df.sum_tokens.astype(np.int64)
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
    broadcast as a sorted uint64 array; the training side is then a pure
    MAP-side membership scan (batch-vectorized shingling + one
    searchsorted per batch) — the corpus never shuffles. Same FNV-id gram
    family as q_ngram_jaccard (exact barring 64-bit collisions)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def bench_grams(df: pd.DataFrame) -> pd.DataFrame:
        sub = df[df.doc_id % bench_mod == 0]
        if not len(sub):
            return pd.DataFrame({"gid": pd.array([], dtype=np.uint64)})
        return pd.DataFrame({"gid": np.unique(dd.word_ngram_postings(sub.text)[1])})

    bench_df = ds.map_batches(bench_grams, batch_format="pandas").to_pandas()
    bench_ids = np.unique(bench_df.gid.to_numpy(dtype=np.uint64))
    bench_set = Broadcast("decontaminate", bench_ids)

    def scan(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df.doc_id % bench_mod != 0]
        if not len(df):
            return pd.DataFrame(
                {"doc_id": pd.array([], dtype=np.int64), "n_hits": pd.array([], dtype=np.int64)}
            )
        bench = bench_set.get()
        ids = dd.word_ngram_ids_batch(df.text)
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
        words, tags = tx.flat(tx.words(df.text))
        counts = np.bincount(tags, minlength=len(df))
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
        enc = pc.dictionary_encode(words)
        codes = enc.indices.to_numpy().astype(np.int64)
        K = np.int64(len(enc.dictionary) + 1)
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
    from .ops import derive_num_blocks

    nd = _nrows(sf_dir, "documents")
    docs = rd.read_parquet(
        _t(sf_dir, "documents"),
        columns=["doc_id", "text"],
        override_num_blocks=derive_num_blocks(nd, target_rows=4096),
    )

    def tokenize(df: pd.DataFrame) -> pd.DataFrame:
        # a null text adds no tokens, as the twin's SUM skips its NULL
        return pd.DataFrame(
            {
                "doc_id": df.doc_id.to_numpy(np.int64),
                "n_tokens": tx.token_count(df.text).fill_null(0).to_numpy(),
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
    offsets = Broadcast("pack_chunks", offsets)

    def assign_chunks(df: pd.DataFrame) -> pd.DataFrame:
        off = offsets.get()
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
    so it is broadcast and the corpus-side anti-join is a
    map-side filter (``ops.broadcast_semi_anti_filter`` — the D4 pattern);
    the corpus itself never shuffles. The pair graph comes from the
    per-process cache (``ngram_jaccard_pairs_cached``) — computed once
    and shared with q_ngram_jaccard / q_dup_components."""
    from . import graph
    from .ops import broadcast_semi_anti_filter

    pairs_df, nd = ngram_jaccard_pairs_cached(sf_dir, threshold, df_cap)
    pairs_ds = rd.from_pandas(pairs_df[["doc_a", "doc_b"]])
    cc = graph.connected_components(pairs_ds, nd).to_pandas()
    drop = (
        set(cc[cc.doc_id != cc.component_id].doc_id.tolist()) if len(cc) else set()
    )
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    kept = broadcast_semi_anti_filter(
        docs, "doc_id", np.array(sorted(drop), dtype=np.int64), anti=True
    )

    def tokenize(b: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": b["doc_id"].cast(pa.int64()), "n_tokens": tx.token_count(b["text"])}
        )

    out = kept.map_batches(tokenize, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)
