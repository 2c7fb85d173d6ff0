"""Deduplication operators (build brief: exact, MinHash+LSH, SimHash,
n-gram Jaccard, embedding-cosine near-dup).

Designed Ray-Data-first:

- **exact**: content-hash column in a vectorized ``map_batches`` →
  hash-partitioned ``groupby(hash)`` keep-first (ops.exact_dedup_first);
- **MinHash+LSH**: per-batch shingle→minhash (vectorized over the universal
  hash family), explode to (band, band_hash, doc_id) rows, groupby bands →
  candidate pairs within buckets → verify true n-gram Jaccard;
- **SimHash**: 64-bit token-hash majority vote per doc;
- **embedding near-dup**: LSH sign-bucket (random hyperplanes) →
  within-bucket exact cosine — the scale path; brute-force all-pairs is the
  small-scale oracle.

All hashing is seeded & engine-stable (no Python ``hash``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

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


def _stable_token_ids(tokens) -> np.ndarray:
    """FNV-1a 64 of each token string → uint64 ids. Vectorized across
    tokens: one pass per BYTE POSITION (padded matrix), so cost is
    O(max_len) numpy kernels instead of a Python loop per byte."""
    toks = list(tokens)
    if not toks:
        return np.empty(0, dtype=np.uint64)
    bs = [t.encode() for t in toks]
    lens = np.array([len(b) for b in bs], dtype=np.int64)
    maxlen = int(lens.max()) if len(lens) else 0
    arr = np.zeros((len(bs), maxlen), dtype=np.uint8)
    for i, b in enumerate(bs):
        arr[i, : len(b)] = np.frombuffer(b, dtype=np.uint8)
    h = np.full(len(bs), _FNV_OFFSET, dtype=np.uint64)
    for j in range(maxlen):
        active = lens > j
        h[active] = (h[active] ^ arr[active, j].astype(np.uint64)) * _FNV_PRIME
    return h


def char_shingles(text: str, k: int = 5) -> np.ndarray:
    """k-byte shingle id set of normalized text (unique uint64, sorted).

    Fully vectorized: the normalized text's bytes → sliding k-byte windows
    → FNV-1a in k numpy passes → ``np.unique``. (Byte windows, not
    codepoint windows — identical for ASCII, equally valid as a shingle
    family otherwise.)"""
    norm = " ".join(text.lower().split())
    data = norm.encode()
    if len(data) < k:
        data = data.ljust(k)
    a = np.frombuffer(data, dtype=np.uint8)
    n = len(a) - k + 1
    h = np.full(n, _FNV_OFFSET, dtype=np.uint64)
    for j in range(k):
        h = (h ^ a[j : j + n].astype(np.uint64)) * _FNV_PRIME
    return np.unique(h)


def char_shingles_batch(texts, k: int = 5) -> list[np.ndarray]:
    """Batch form of ``char_shingles`` — byte-identical per-doc results,
    one vectorized pass for the whole batch: all normalized docs
    concatenate into ONE byte buffer, the k FNV passes run once over it,
    valid windows (those fully inside a doc) are gathered by index, and
    per-doc unique is a single (doc, hash) lexsort + adjacent-unique.
    Python per doc is just normalize+encode — the per-doc numpy dispatch
    (~40% of the 1M-doc MinHash stage) is gone."""
    bufs = []
    for t in texts:
        norm = " ".join((t or "").lower().split())
        b = norm.encode()
        if len(b) < k:
            b = b.ljust(k)
        bufs.append(b)
    D = len(bufs)
    if not D:
        return []
    lens = np.array([len(b) for b in bufs], dtype=np.int64)
    offs = np.concatenate([[0], np.cumsum(lens)[:-1]])
    a = np.frombuffer(b"".join(bufs), dtype=np.uint8)
    n = len(a) - k + 1
    h = np.full(n, _FNV_OFFSET, dtype=np.uint64)
    for j in range(k):
        h = (h ^ a[j : j + n].astype(np.uint64)) * _FNV_PRIME
    # valid windows = all except the k-1 positions straddling each doc
    # boundary (window starts are position-ordered, so the masked stream
    # is still doc-ordered and aligns with the repeat-built tags)
    counts = lens - k + 1
    if D > 1:
        bad = (offs[1:][:, None] + np.arange(-(k - 1), 0)[None, :]).ravel()
        mask = np.ones(n, dtype=bool)
        mask[bad] = False
        vals = h[mask]
    else:
        vals = h
    tags = np.repeat(np.arange(D, dtype=np.int64), counts)
    order = np.lexsort((vals, tags))
    tags, vals = tags[order], vals[order]
    keep = np.concatenate(
        [[True], (tags[1:] != tags[:-1]) | (vals[1:] != vals[:-1])]
    )
    tags, vals = tags[keep], vals[keep]
    out: list[np.ndarray] = [np.empty(0, np.uint64)] * D
    starts = np.flatnonzero(np.concatenate([[True], tags[1:] != tags[:-1]]))
    ends = np.concatenate([starts[1:], [len(tags)]])
    for s, e in zip(starts, ends):
        out[tags[s]] = vals[s:e]
    return out


def jaccard_u64(a: np.ndarray, b: np.ndarray) -> float:
    """Jaccard of two sorted-unique uint64 arrays (vectorized set ops)."""
    if not len(a) and not len(b):
        return 1.0
    inter = len(np.intersect1d(a, b, assume_unique=True))
    u = len(a) + len(b) - inter
    return inter / u if u else 0.0


def word_ngram_list(text: str, n: int = 3) -> list[str]:
    """Distinct word n-grams of lowercased whitespace-split text; EMPTY
    for docs shorter than n tokens: the family the exact n-gram-Jaccard
    query and its DuckDB twin share — the SQL side generates no grams when
    len(ws) < n either."""
    toks = text.lower().split()
    if len(toks) < n:
        return []
    seen: set[str] = set()
    out: list[str] = []
    for i in range(len(toks) - n + 1):
        g = " ".join(toks[i : i + n])
        if g not in seen:
            seen.add(g)
            out.append(g)
    return out


def word_ngram_ids(text: str, n: int = 3) -> np.ndarray:
    """Sorted-unique uint64 FNV ids of the distinct word n-grams — the
    verify-side shingle family for exact n-gram Jaccard
    (``relational_ml.q_ngram_jaccard``). Jaccard over these ids equals
    Jaccard over the gram strings barring 64-bit collisions."""
    return np.unique(_stable_token_ids(word_ngram_list(text, n)))


def word_ngram_ids_batch(texts, n: int = 3) -> list[np.ndarray]:
    """Batch form of ``word_ngram_ids`` — byte-identical per-doc results.
    Gram strings are still built per doc (``word_ngram_list`` already
    dedups in insertion order), but hashing is amortized batch-wide:
    factorize every gram across the batch and FNV-hash each DISTINCT
    gram once (one ``_stable_token_ids`` padded-matrix pass instead of
    one per doc — the same pattern the n-gram explode stage uses)."""
    grams_all: list[str] = []
    counts = np.empty(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        gs = word_ngram_list(t or "", n)
        grams_all.extend(gs)
        counts[i] = len(gs)
    if not grams_all:
        return [np.empty(0, np.uint64)] * len(texts)
    import pandas as pd

    codes, uniq = pd.factorize(np.array(grams_all, dtype=object))
    ids = _stable_token_ids(uniq)[codes]
    offs = np.concatenate([[0], np.cumsum(counts)])
    # per-doc grams are already distinct strings; distinct strings hash to
    # distinct-or-colliding ids exactly as in the per-doc path, and
    # np.unique matches its sort+dedup
    return [
        np.unique(ids[offs[i] : offs[i + 1]]) for i in range(len(texts))
    ]


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


def lsh_bands(sig: np.ndarray, bands: int = 16) -> np.ndarray:
    """Band keys of a single signature (thin wrapper over the batch form)."""
    return lsh_band_keys(np.asarray(sig, dtype=np.uint64)[None, :], bands)[0]


def md5_token_ids(tokens) -> np.ndarray:
    """First 64 bits of md5 per token → uint64. md5 (not FNV / Python
    hash) so ANY engine can recompute the same ids — the DuckDB SimHash
    oracle relies on it."""
    import hashlib

    return np.array(
        [int(hashlib.md5(t.encode()).hexdigest()[:16], 16) for t in tokens],
        dtype=np.uint64,
    )


def simhash64(text: str) -> int:
    """SimHash: signed bit-vote over md5 token hashes (unique tokens
    hashed once, votes weighted by count — identical result, fewer
    hashes). Engine-stable AND SQL-reproducible (see
    relational_ml.q_simhash's DuckDB twin)."""
    toks = text.lower().split()
    if not toks:
        return 0
    uniq, counts = np.unique(np.array(toks, dtype=object), return_counts=True)
    ids = md5_token_ids(uniq)
    bits = ((ids[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(
        np.int64
    )
    votes = (counts[:, None] * (2 * bits - 1)).sum(axis=0)
    v = 0
    for k in np.flatnonzero(votes > 0):
        v |= 1 << int(k)
    return v - (1 << 64) if v >= 1 << 63 else v


def simhash64_batch(texts) -> np.ndarray:
    """Vectorized SimHash over a whole batch — identical results to
    ``simhash64`` per doc, but each batch-UNIQUE token is md5-hashed once
    (the per-doc path re-hashed shared vocabulary doc by doc; pure-Python
    md5 dominated the stage) and bit votes accumulate with a single
    ``np.add.reduceat`` over the concatenated token stream."""
    toks_per_doc = [t.lower().split() for t in texts]
    lens = np.array([len(t) for t in toks_per_doc], dtype=np.int64)
    out = np.zeros(len(toks_per_doc), dtype=np.int64)
    n_tok = int(lens.sum())
    if not n_tok:
        return out
    all_toks = np.array([w for ts in toks_per_doc for w in ts], dtype=object)
    # hash-based factorize, not np.unique: sorting 10^5 object strings is
    # Python-comparison-bound and was slower than the per-doc md5 it replaced
    inv, uniq = pd.factorize(all_toks, sort=False)
    ids = md5_token_ids(uniq)
    signs = (
        2 * ((ids[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(np.int32)
        - 1
    )  # (U, 64) in {-1, +1}
    # dedupe (doc, token) pairs with counts BEFORE the (M, 64) outer
    # product: the full (N, 64) per-occurrence matrix is ~64x token-stream
    # bytes (1.4 GB on a repetitive 2.7M-token batch); M = per-doc-unique
    # pairs is bounded by vocabulary x docs
    doc_idx = np.repeat(np.arange(len(toks_per_doc), dtype=np.int64), lens)
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
        texts = batch["text"].fillna("")
        shingles = char_shingles_batch(list(texts), self.k)
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


def supergroup_of(keys: np.ndarray, num_groups: int = 64) -> np.ndarray:
    """Coarse shuffle key: splitmix64 of the bucket key mod num_groups.
    All rows of one LSH bucket land in one super-group, so per-group
    scheduling overhead is paid ~num_groups times instead of once per
    bucket (measured 10-40x on 10^5-bucket band tables — Ray's per-group
    map_groups and its groupby aggregate are both per-bucket-cost-bound,
    and the native join was slower still). Pass
    ``ops.derive_num_groups(input_rows)`` so fan-out scales with the
    corpus instead of pinning 64 reduce tasks at 100 TB."""
    return (splitmix64(keys.astype(np.uint64)) % np.uint64(num_groups)).astype(np.int64)


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
