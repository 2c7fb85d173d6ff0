"""Deduplication operators (build brief: exact, MinHash+LSH, SimHash,
n-gram Jaccard, embedding-cosine near-dup).

Designed Ray-Data-first:

- **exact**: content-hash column in a vectorized ``map_batches`` →
  per-hash aggregate through ``ops.supergroup_agg`` (``q_exact_dedup_docs``,
  ``q_dedup_first_event``);
- **MinHash+LSH**: per-batch shingle→minhash (vectorized over the universal
  hash family), explode to (band, band_hash, doc_id) rows, groupby bands →
  candidate pairs within buckets → verify true n-gram Jaccard;
- **SimHash**: 64-bit token-hash majority vote per doc;
- **embedding near-dup**: LSH sign-bucket (random hyperplanes) →
  within-bucket exact cosine — the scale path; brute-force all-pairs is the
  small-scale oracle.

All hashing is seeded & engine-stable (no Python ``hash``). Text is
tokenized only by ``text`` (W, the words of the DuckDB twins): the kernels
here take a batch of texts, read its tokens flat from Arrow and loop in
Python only to md5 batch-unique tokens.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from . import text as tx

_FNV_OFFSET = np.uint64(1469598103934665603)
_FNV_PRIME = np.uint64(1099511628211)
_U64_MAX = np.uint64(0xFFFFFFFFFFFFFFFF)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (public-domain constant mix) —
    uint64 in, uint64 out, wrapping arithmetic."""
    x = np.asarray(x, dtype=np.uint64)
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _bytes(texts) -> tuple[np.ndarray, np.ndarray]:
    """The UTF-8 bytes of a string column as its Arrow buffers: (data,
    offsets), row i being ``data[offsets[i]:offsets[i + 1]]``."""
    arr = tx.as_text(texts)
    _, off, data = arr.buffers()
    offs = np.frombuffer(off, np.int64)[arr.offset : arr.offset + len(arr) + 1]
    return (np.frombuffer(data, np.uint8) if data else np.empty(0, np.uint8)), offs


def _stable_token_ids(tokens) -> np.ndarray:
    """FNV-1a 64 of each token string → uint64 ids. Vectorized across
    tokens straight from the Arrow buffers: one pass per BYTE POSITION, so
    cost is O(max_len) numpy kernels instead of a Python loop per byte."""
    data, offs = _bytes(tokens)
    lens = np.diff(offs)
    h = np.full(len(lens), _FNV_OFFSET, dtype=np.uint64)
    for j in range(int(lens.max()) if len(lens) else 0):
        active = np.flatnonzero(lens > j)
        h[active] = (h[active] ^ data[offs[active] + j].astype(np.uint64)) * _FNV_PRIME
    return h


def _row_unique(vals: np.ndarray, rows: np.ndarray, n_rows: int) -> list[np.ndarray]:
    """Sorted-unique values of each of ``n_rows`` rows, one array per row
    (empty for rows with no values): one (row, value) lexsort +
    adjacent-unique."""
    if not n_rows:
        return []
    order = np.lexsort((vals, rows))
    rows, vals = rows[order], vals[order]
    keep = np.ones(len(vals), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]) | (vals[1:] != vals[:-1])
    return np.split(vals[keep], np.cumsum(np.bincount(rows[keep], minlength=n_rows))[:-1])


def char_shingles_batch(texts, k: int = 5) -> list[np.ndarray]:
    """k-byte shingle id sets (unique uint64, sorted) of a batch of texts.

    The normalized text is W joined by ``" "``, padded with spaces to k
    bytes. All normalized docs are ONE Arrow byte buffer: the k FNV-1a
    passes run once over it, valid windows (those fully inside a doc) are
    gathered by index, and per-doc unique is a single (doc, hash) lexsort
    + adjacent-unique. (Byte windows, not codepoint windows — identical
    for ASCII, equally valid as a shingle family otherwise.)"""
    sep = pa.scalar(" ", pa.large_string())
    norm = pc.fill_null(pc.binary_join(tx.words(texts), sep), "")
    a, offs = _bytes(pc.ascii_rpad(norm, k, " "))
    a, offs = a[offs[0] : offs[-1]], offs - offs[0]
    D = len(offs) - 1
    if not D:
        return []
    n = len(a) - k + 1
    h = np.full(n, _FNV_OFFSET, dtype=np.uint64)
    for j in range(k):
        h = (h ^ a[j : j + n].astype(np.uint64)) * _FNV_PRIME
    # valid windows = all except the k-1 positions straddling each doc
    # boundary (window starts are position-ordered, so the masked stream
    # is still doc-ordered and aligns with the repeat-built tags)
    mask = np.ones(n, dtype=bool)
    mask[(offs[1:-1, None] + np.arange(-(k - 1), 0)[None, :]).ravel()] = False
    tags = np.repeat(np.arange(D, dtype=np.int64), np.diff(offs) - k + 1)
    return _row_unique(h[mask], tags, D)


def char_shingles(text: str, k: int = 5) -> np.ndarray:
    """``char_shingles_batch`` of one text."""
    return char_shingles_batch([text], k)[0]


_NGRAM = 3  # the word n-gram of the n-gram-Jaccard / decontamination twins


def word_ngram_postings(texts) -> tuple[np.ndarray, np.ndarray]:
    """(row, id) of each DISTINCT word 3-gram of each row, row-sorted — the
    gram family the exact n-gram-Jaccard query and its DuckDB twin share:
    the 3-grams of W (a row shorter than 3 words has none; the SQL side
    generates no grams when len(ws) < 3 either), a gram's id being the
    FNV-1a 64 of its ``" "``-joined string. Grams are factorized
    batch-wide, so each distinct gram is joined and hashed once."""
    toks, row = tx.flat(tx.words(texts))
    enc = pc.dictionary_encode(toks)
    codes, V = enc.indices.to_numpy().astype(np.int64), len(enc.dictionary)
    n = _NGRAM
    starts = np.arange(len(row) - n + 1)
    starts = starts[row[starts] == row[starts + n - 1]]  # grams inside one row
    if not len(starts):
        return np.empty(0, np.int64), np.empty(0, np.uint64)
    gram = codes[starts]
    for j in range(1, n):
        gram = np.unique(gram * V + codes[starts + j], return_inverse=True)[1]
    first = np.unique(gram, return_index=True)[1]
    words = enc.dictionary.take(codes[starts[first][:, None] + np.arange(n)].ravel())
    grams = pa.ListArray.from_arrays(pa.array(np.arange(0, len(words) + 1, n, dtype=np.int32)), words)
    ids = _stable_token_ids(pc.binary_join(grams, pa.scalar(" ", words.type)))
    G = len(first)
    pair = np.unique(row[starts] * G + gram)
    return pair // G, ids[pair % G]


def word_ngram_ids_batch(texts) -> list[np.ndarray]:
    """Sorted-unique uint64 ids of each row's distinct word 3-grams — the
    verify-side shingle family for exact n-gram Jaccard
    (``relational_ml.q_ngram_jaccard``). Jaccard over these ids equals
    Jaccard over the gram strings barring 64-bit collisions."""
    rows, ids = word_ngram_postings(texts)
    return _row_unique(ids, rows, len(texts))


class MinHasher:
    """Vectorized MinHash over the universal multiply-add family
    h_i(x) = (a_i * x + b_i) mod 2^64 with odd a_i — pure uint64 wrapping
    arithmetic, no object-dtype bignum math. Seeded, stateful
    (actor-friendly)."""

    def __init__(self, num_hashes: int = 64, seed: int = 7):
        rng = np.random.default_rng(seed)
        self.a = (
            rng.integers(1, (1 << 62) - 1, size=num_hashes).astype(np.uint64)
            * np.uint64(2)
            + np.uint64(1)
        )
        self.b = rng.integers(0, (1 << 62) - 1, size=num_hashes).astype(np.uint64)
        self.num_hashes = num_hashes

    def signature(self, shingle_ids: np.ndarray) -> np.ndarray:
        """(H,) uint64 signature of one shingle set (empty → all-max)."""
        if len(shingle_ids) == 0:
            return np.full(self.num_hashes, _U64_MAX, dtype=np.uint64)
        x = np.asarray(shingle_ids, dtype=np.uint64)
        out = np.empty(self.num_hashes, dtype=np.uint64)
        for i in range(self.num_hashes):
            out[i] = (self.a[i] * x + self.b[i]).min()
        return out

    def signatures_batch(self, shingle_sets: list[np.ndarray]) -> np.ndarray:
        """(D, H) uint64 signatures for a batch of shingle sets: concatenate
        all ids once, then for each hash run a contiguous 1-D multiply-add +
        ``np.minimum.reduceat`` over the strip. The loop is over the H hash
        functions only (each pass fully vectorized over every shingle of
        every doc) — NOT over docs. A broadcast outer product
        ``a[:,None] * concat[None,:]`` computes the same thing but hits
        numpy's strided uint64 slow path, measured 150x slower on a 1M-id
        strip."""
        D = len(shingle_sets)
        out = np.full((D, self.num_hashes), _U64_MAX, dtype=np.uint64)
        lens = np.array([len(s) for s in shingle_sets], dtype=np.int64)
        nz = np.flatnonzero(lens)
        if not len(nz):
            return out
        concat = np.concatenate([np.asarray(shingle_sets[i], dtype=np.uint64) for i in nz])
        starts = np.concatenate([[0], np.cumsum(lens[nz])[:-1]])
        sig = np.empty((len(nz), self.num_hashes), dtype=np.uint64)
        for i in range(self.num_hashes):
            sig[:, i] = np.minimum.reduceat(self.a[i] * concat + self.b[i], starts)
        out[nz] = sig
        return out


def lsh_band_keys(sigs: np.ndarray, bands: int = 16) -> np.ndarray:
    """(D, H) uint64 signatures → (D, bands) positive int64 band keys.
    Each band's r values are folded with a splitmix64 chain — vectorized
    across the whole batch (r numpy passes)."""
    sigs = np.atleast_2d(np.asarray(sigs, dtype=np.uint64))
    D, H = sigs.shape
    r = H // bands
    chunks = sigs[:, : bands * r].reshape(D, bands, r)
    h = np.full((D, bands), np.uint64(0x51_7C_C1_B7_27_22_0A_95), dtype=np.uint64)
    for j in range(r):
        h = splitmix64(h ^ chunks[:, :, j])
    h = h ^ np.arange(bands, dtype=np.uint64)[None, :]
    return (h & np.uint64(0x7FFFFFFFFFFFFFFF)).astype(np.int64)


def md5_token_ids(tokens) -> np.ndarray:
    """First 64 bits of md5 per token → uint64. md5 (not FNV / Python
    hash) so ANY engine can recompute the same ids — the DuckDB SimHash
    oracle relies on it."""
    raw = tx.as_text(tokens).cast(pa.large_binary()).to_pylist()
    return np.array(
        [int.from_bytes(hashlib.md5(b).digest()[:8], "big") for b in raw], dtype=np.uint64
    )


def simhash64_batch(texts) -> np.ndarray:
    """SimHash per row: signed bit-vote over the md5 ids of its W tokens,
    engine-stable AND SQL-reproducible (see relational_ml.q_simhash's
    DuckDB twin). Each batch-UNIQUE token is md5-hashed once (pure-Python
    md5 dominates the stage) and bit votes accumulate with a single
    ``np.add.reduceat`` over the token stream."""
    toks, doc_idx = tx.flat(tx.words(texts))
    out = np.zeros(len(texts), dtype=np.int64)
    if not len(toks):
        return out
    enc = pc.dictionary_encode(toks)
    inv = enc.indices.to_numpy()
    ids = md5_token_ids(enc.dictionary)
    signs = (
        2 * ((ids[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(np.int32)
        - 1
    )  # (U, 64) in {-1, +1}
    # dedupe (doc, token) pairs with counts BEFORE the (M, 64) outer
    # product: the full (N, 64) per-occurrence matrix is ~64x token-stream
    # bytes (1.4 GB on a repetitive 2.7M-token batch); M = per-doc-unique
    # pairs is bounded by vocabulary x docs
    pair = (doc_idx.astype(np.uint64) << np.uint64(32)) | inv.astype(np.uint64)
    upair, counts = np.unique(pair, return_counts=True)
    pd_doc = (upair >> np.uint64(32)).astype(np.int64)
    pd_tok = (upair & np.uint64(0xFFFFFFFF)).astype(np.int64)
    # int32 end-to-end: |votes| <= doc token count (< 2^31); this host's
    # memory bandwidth is the limit, so halving element width matters
    contrib = counts[:, None].astype(np.int32) * signs[pd_tok]  # (M, 64)
    starts = np.flatnonzero(np.concatenate([[True], pd_doc[1:] != pd_doc[:-1]]))
    votes = np.add.reduceat(contrib, starts, axis=0)
    weights = np.uint64(1) << np.arange(64, dtype=np.uint64)
    u = ((votes > 0).astype(np.uint64) * weights[None, :]).sum(axis=1, dtype=np.uint64)
    out[pd_doc[starts]] = u.view(np.int64)
    return out


class MinHashStage:
    """map_batches stage: text → minhash signature → LSH band keys,
    exploded to one output row per (doc, band). The whole batch is
    signed in one vectorized pass (``MinHasher.signatures_batch``)."""

    def __init__(self, num_hashes: int = 64, bands: int = 16, shingle_k: int = 5, seed: int = 7):
        self.mh = MinHasher(num_hashes, seed)
        self.bands = bands
        self.k = shingle_k

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        shingles = char_shingles_batch(batch["text"], self.k)
        sigs = self.mh.signatures_batch(shingles)
        keys = lsh_band_keys(sigs, self.bands)  # (D, bands)
        D = len(batch)
        return pd.DataFrame(
            {
                "doc_id": np.repeat(batch["doc_id"].to_numpy(), self.bands),
                "band": np.tile(np.arange(self.bands, dtype=np.int64), D),
                "band_hash": keys.ravel(),
            }
        )


def bucket_pair_indices(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All within-bucket (i < j) row-index pairs of a key-sorted array,
    fully vectorized: run-length encode the buckets, then for each distinct
    bucket SIZE stack that size's buckets into a (B, m) index matrix and
    emit its triu pairs in one shot — a Python loop only over the handful
    of distinct sizes, never over buckets or rows."""
    n = len(sorted_keys)
    if n < 2:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    starts = np.flatnonzero(np.concatenate([[True], sorted_keys[1:] != sorted_keys[:-1]]))
    lens = np.diff(np.concatenate([starts, [n]]))
    out_a: list[np.ndarray] = []
    out_b: list[np.ndarray] = []
    for m in np.unique(lens[lens >= 2]):
        s = starts[lens == m]
        idx = s[:, None] + np.arange(m)[None, :]  # (B, m)
        ii, jj = np.triu_indices(int(m), k=1)
        out_a.append(idx[:, ii].ravel())
        out_b.append(idx[:, jj].ravel())
    if not out_a:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.concatenate(out_a), np.concatenate(out_b)


def mix_band_key(band_hash: np.ndarray, band: np.ndarray) -> np.ndarray:
    """Fold (band index, 63-bit band hash) into one positive int64 bucket
    key WITHOUT truncation: splitmix64 of the xor with a band-salted odd
    constant. Distinct (band, band_hash) buckets collide with probability
    ~2^-63 (the round-2 ``(band_hash << 5) | band`` dropped the hash's top
    bits, so distinct buckets could alias deterministically)."""
    bh = np.asarray(band_hash).astype(np.uint64)
    bd = np.asarray(band).astype(np.uint64)
    mixed = splitmix64(bh ^ (bd * np.uint64(0x9E3779B97F4A7C15)))
    return (mixed & np.uint64(0x7FFFFFFFFFFFFFFF)).astype(np.int64)


# ---------------------------------------------------------------------------
# embedding near-dup
# ---------------------------------------------------------------------------


def normalize_rows(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def cosine_pairs(ids: np.ndarray, embeddings, threshold: float) -> pd.DataFrame:
    """Every pair of rows with ``vec_a < vec_b`` whose cosine is at least
    ``threshold``, from one all-pairs product of the normalized rows:
    ``vec_a``, ``vec_b`` (int64) and ``cos`` rounded to 4 places, as the
    SQL twins' ``ROUND(list_cosine_similarity(a, b), 4)``; ``ids`` and
    ``embeddings`` are one group's columns."""
    vn = normalize_rows(np.vstack(embeddings).astype(np.float64))
    sims = vn @ vn.T
    order = np.argsort(ids)
    ids, sims = ids[order], sims[np.ix_(order, order)]
    ii, jj = np.triu_indices(len(ids), k=1)
    keep = sims[ii, jj] >= threshold
    return pd.DataFrame(
        {
            "vec_a": ids[ii[keep]].astype(np.int64),
            "vec_b": ids[jj[keep]].astype(np.int64),
            "cos": np.round(sims[ii, jj][keep], 4),
        }
    )


def cosine_topk(queries: np.ndarray, corpus: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force cosine top-k (baseline ANN): normalized matmul per batch.
    Returns (indices (Q,k), scores (Q,k)) ordered by (-score, index)."""
    qn = normalize_rows(queries)
    cn = normalize_rows(corpus)
    sims = qn @ cn.T
    # deterministic order: by -score then index
    k = min(k, sims.shape[1])
    part = np.argpartition(-sims, k - 1, axis=1)[:, :k]
    ps = np.take_along_axis(sims, part, axis=1)
    order = np.lexsort((part, -ps), axis=1)
    idx = np.take_along_axis(part, order, axis=1)
    sc = np.take_along_axis(ps, order, axis=1)
    return idx, sc


def hyperplane_planes(dim: int, n_planes: int = 12, seed: int = 11) -> np.ndarray:
    """The seeded random hyperplane matrix (dim, n_planes) — exposed so the
    DuckDB oracle can embed the same constants."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(dim, n_planes))


def hyperplane_buckets(vecs: np.ndarray, n_planes: int = 12, seed: int = 11) -> np.ndarray:
    """LSH sign buckets from random hyperplanes → int64 bucket per row (the
    scale path for near-dup: only same-bucket pairs are compared)."""
    planes = hyperplane_planes(vecs.shape[1], n_planes, seed)
    signs = (np.asarray(vecs, dtype=np.float64) @ planes) > 0
    weights = (1 << np.arange(n_planes)).astype(np.int64)
    return (signs @ weights).astype(np.int64)


def synth_documents(
    out_dir: str,
    n: int = 300_000,
    vocab: int = 4096,
    words_per_doc: int = 40,
    dup_rate: float = 0.01,
    seed: int = 11,
) -> str:
    """Deterministic synthetic text corpus for the near-dup SCALE demo
    (cached under ``out_dir`` keyed by params, same pattern as
    ``ann.synth_embeddings``). The last ``round(n*dup_rate)`` docs are
    near-copies of uniformly chosen earlier docs with 2 of
    ``words_per_doc`` words resubstituted — a sparse planted pair set
    (char-shingle Jaccard ≈ 0.8–0.9, well above the 0.6 demo threshold)
    over an otherwise-random background whose cross-doc Jaccard is ~0.
    Written as a DIRECTORY of ~16k-row files: Ray's parquet read
    parallelizes per FILE, and a single-file corpus serialized the whole
    read into one task — ds.stats() showed the 1M MinHash stage at ~3x
    effective parallelism on 32 CPUs because maps could only start as the
    lone reader trickled blocks out (the repo's input-layout rule,
    re-learned)."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from .state.checkpoint import publish

    path = os.path.join(
        out_dir, f"docs-n{n}-v{vocab}-w{words_per_doc}-d{dup_rate}-s{seed}-v2"
    )
    if os.path.isdir(path):  # published whole: existing dir == complete
        return path
    rng = np.random.default_rng(seed)
    lens = rng.integers(4, 9, size=vocab)
    letters = rng.integers(97, 123, size=(vocab, 8), dtype=np.uint8)
    words = np.array(
        [bytes(letters[i, : lens[i]]).decode() for i in range(vocab)], dtype=object
    )
    n_dup = int(round(n * dup_rate))
    n_base = n - n_dup
    idx = rng.integers(0, vocab, size=(n, words_per_doc))
    src = rng.integers(0, n_base, size=n_dup)
    idx[n_base:] = idx[src]
    mut_pos = rng.integers(0, words_per_doc, size=(n_dup, 2))
    rows = np.arange(n_base, n)
    for j in range(2):
        idx[rows, mut_pos[:, j]] = rng.integers(0, vocab, size=n_dup)
    texts = [" ".join(row) for row in words[idx]]
    tab = pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array(texts, pa.string()),
            # planted lineage (NOT read by the pipeline — pytest ground truth)
            "src_id": pa.array(
                np.concatenate([np.full(n_base, -1, np.int64), src.astype(np.int64)])
            ),
        }
    )
    per_file = 16384
    with publish(path) as tmp:
        os.makedirs(tmp)
        for fi, lo in enumerate(range(0, n, per_file)):
            pq.write_table(
                tab.slice(lo, per_file),
                os.path.join(tmp, f"part-{fi:05d}.parquet"),
                row_group_size=4096,
            )
    return path
