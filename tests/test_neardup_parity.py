"""Brute-force parity oracles for the distributed LSH near-dup pipelines.

The distributed paths (groupby(band).map_groups pair-gen, in-group /
broadcast-verify) must produce EXACTLY the pairs a driver-side all-pairs
brute force produces at small scale:

- phash: with max_hamming <= 3 the 4x16-bit band LSH is exact by
  pigeonhole, so the query must equal brute-force hamming <= 3.
- minhash: the query must equal brute-force "share >= 1 LSH band AND true
  shingle-Jaccard >= threshold" over all pairs.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import reference_oracle as ro
from test_ops import decisions

SF = "/root/testdata/sf0.001"


def _registry():
    from citygml2objv2_ray import relational, relational_ext, relational_ml  # noqa: F401

    return relational.REGISTRY


def jaccard_u64(a: np.ndarray, b: np.ndarray) -> float:
    """Jaccard of two sorted-unique uint64 arrays (vectorized set ops)."""
    if not len(a) and not len(b):
        return 1.0
    inter = len(np.intersect1d(a, b, assume_unique=True))
    u = len(a) + len(b) - inter
    return inter / u if u else 0.0


def lsh_bands(sig: np.ndarray, bands: int = 16) -> np.ndarray:
    """Band keys of a single signature (the batch form on one row)."""
    from citygml2objv2_ray import dedup as dd

    return dd.lsh_band_keys(np.asarray(sig, dtype=np.uint64)[None, :], bands)[0]


def minhash_bruteforce(docs: pd.DataFrame, threshold: float) -> pd.DataFrame:
    """Every pair of ``docs`` (doc_id, text) that shares an LSH band and
    whose true char-shingle Jaccard is at least ``threshold``."""
    from citygml2objv2_ray import dedup as dd

    docs = docs.sort_values("doc_id").reset_index(drop=True)
    mh = dd.MinHasher(64, 7)
    shingles = [ro.char_shingles(t) for t in docs.text.fillna("")]
    sigs = mh.signatures_batch(shingles)
    keys = dd.lsh_band_keys(sigs, 16)
    ids = docs.doc_id.to_numpy()
    ii, jj = np.triu_indices(len(ids), k=1)
    share = (keys[ii] == keys[jj]).any(axis=1)
    rows = []
    for a, b in zip(ii[share], jj[share]):
        j = round(jaccard_u64(shingles[a], shingles[b]), 6)
        if j >= threshold:
            rows.append((int(ids[a]), int(ids[b]), j))
    want = pd.DataFrame(rows, columns=["doc_a", "doc_b", "jaccard"]).sort_values(
        ["doc_a", "doc_b"]
    ).reset_index(drop=True)
    if len(want):
        want["doc_a"] = want.doc_a.astype(np.int64)
        want["doc_b"] = want.doc_b.astype(np.int64)
    return want


def verify_branches(caplog) -> list[str]:
    """The branch of every near-dup verify decision logged since the last
    ``caplog.clear()``."""
    return [b for s, b, *_ in decisions(caplog) if s == "verify_pairs"]


class TestPhashNeardupParity:
    def test_matches_bruteforce(self, ray_session):
        from citygml2objv2_ray import worlds
        from citygml2objv2_ray.codecs import hamming64

        got = _registry()["q_phash_neardup"](SF)

        p, _, _ = worlds.load_world(worlds.sf_of_dir(SF))
        t = pq.read_table(p, columns=["image_id", "phash"])
        ids = np.array(t["image_id"].to_pylist())
        ph = np.asarray(t["phash"])
        order = np.argsort(ids)
        ids, ph = ids[order], ph[order]
        ii, jj = np.triu_indices(len(ids), k=1)
        hd = hamming64(ph[ii], ph[jj])
        keep = hd <= 3
        want = (
            pd.DataFrame(
                {
                    "img_a": ids[ii[keep]],
                    "img_b": ids[jj[keep]],
                    "hamming": hd[keep].astype(np.int64),
                }
            )
            .sort_values(["img_a", "img_b"])
            .reset_index(drop=True)
        )
        assert len(want) > 0, "fixture should contain designed near-dups"
        pd.testing.assert_frame_equal(got.reset_index(drop=True), want)


class TestMinhashNeardupParity:
    def test_matches_bruteforce(self, ray_session):
        got = _registry()["q_minhash_neardup"](SF)
        docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
        want = minhash_bruteforce(docs, 0.6)
        pd.testing.assert_frame_equal(got.reset_index(drop=True), want, check_dtype=bool(len(want)))


class TestMinhashKernels:
    def test_signature_matches_batch(self):
        from citygml2objv2_ray import dedup as dd

        mh = dd.MinHasher(32, 5)
        sets = [dd.char_shingles(t) for t in ["hello world", "", "abcabcabc", "x"]]
        batch = mh.signatures_batch(sets)
        for i, s in enumerate(sets):
            assert np.array_equal(mh.signature(s), batch[i])

    def test_band_keys_match_single(self):
        from citygml2objv2_ray import dedup as dd

        mh = dd.MinHasher(64, 5)
        sig = mh.signature(dd.char_shingles("the quick brown fox"))
        assert np.array_equal(lsh_bands(sig, 16), dd.lsh_band_keys(sig[None, :], 16)[0])
        assert (dd.lsh_band_keys(sig[None, :], 16) >= 0).all()

    def test_similar_docs_share_bands_dissimilar_dont(self):
        from citygml2objv2_ray import dedup as dd

        mh = dd.MinHasher(64, 7)
        a = "the quick brown fox jumps over the lazy dog " * 20
        b = a + "and then some extra tail text"
        c = "completely different content about maritime law " * 20
        ka = lsh_bands(mh.signature(dd.char_shingles(a)), 16)
        kb = lsh_bands(mh.signature(dd.char_shingles(b)), 16)
        kc = lsh_bands(mh.signature(dd.char_shingles(c)), 16)
        assert (ka == kb).any()
        assert not (ka == kc).any()


class TestSimhashBatch:
    def test_batch_equals_per_doc(self):
        """Property: the vectorized batch SimHash (batch-unique md5 +
        pair-dedup reduceat) equals the per-doc reference on arbitrary
        token streams including empties and unicode."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from citygml2objv2_ray import dedup as dd

        fixed = ["", "  ", "the the the", "a b c", "Ünïcode tökens ünïcode", "x"]
        assert np.array_equal(
            dd.simhash64_batch(fixed),
            np.array([ro.simhash64(t) for t in fixed], dtype=np.int64),
        )

        word = st.text(alphabet="abcdefg", min_size=1, max_size=4)
        doc = st.lists(word, max_size=30).map(" ".join)

        @settings(max_examples=50, deadline=None)
        @given(st.lists(doc, max_size=20))
        def check(texts):
            got = dd.simhash64_batch(texts)
            want = np.array([ro.simhash64(t) for t in texts], dtype=np.int64)
            assert np.array_equal(got, want)

        check()


class TestPairGenCore:
    def test_bucket_pair_indices_matches_bruteforce(self):
        """Property: the run-length pair generator equals the O(n^2) brute
        force on any sorted key array."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from citygml2objv2_ray.dedup import bucket_pair_indices

        @settings(max_examples=200, deadline=None)
        @given(st.lists(st.integers(0, 8), max_size=60))
        def check(keys):
            k = np.sort(np.asarray(keys, dtype=np.int64))
            A, B = bucket_pair_indices(k)
            got = {(int(a), int(b)) for a, b in zip(A, B)}
            want = {
                (i, j)
                for i in range(len(k))
                for j in range(i + 1, len(k))
                if k[i] == k[j]
            }
            assert got == want

        check()

    def test_supergroup_partitioning_invariance(self, ray_session):
        """The pair set must not depend on how rows are partitioned into
        blocks (the super-group of a row is a pure function of its
        bucket)."""
        import ray.data as rd

        from citygml2objv2_ray import dedup as dd
        from citygml2objv2_ray.ops import shuffle_groups

        rng = np.random.default_rng(3)
        n = 500
        df = pd.DataFrame(
            {
                "doc_id": np.arange(n, dtype=np.int64),
                "bkey": rng.integers(0, 80, size=n).astype(np.int64),
            }
        )

        def pairs_in_supergroup(g):
            g = g.sort_values(["bkey", "doc_id"], kind="stable").reset_index(drop=True)
            A, B = dd.bucket_pair_indices(g.bkey.to_numpy())
            ids = g.doc_id.to_numpy()
            return pd.DataFrame({"a": ids[A], "b": ids[B]})

        results = []
        for nblocks in (1, 7, 32):
            ds = rd.from_pandas(df).repartition(nblocks)
            out = (
                shuffle_groups("test", [ds], ["bkey"], pairs_in_supergroup, n)
                .to_pandas()
                .sort_values(["a", "b"])
                .reset_index(drop=True)
            )
            results.append(out)
        pd.testing.assert_frame_equal(results[0], results[1])
        pd.testing.assert_frame_equal(results[0], results[2])


class TestNgramJaccardParity:
    def test_matches_bruteforce(self, ray_session):
        """Exact inverted-index path == driver all-pairs word-3-gram Jaccard
        over pairs sharing >= 2 grams (the query's candidate rule; the
        df-cap can only DROP candidates and at this scale no gram exceeds
        it, so the index must be exhaustive over that rule)."""
        got = _registry()["q_ngram_jaccard"](SF)

        docs = (
            pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        grams = [set(ro.word_ngram_list(t)) for t in docs.text.fillna("")]
        ids = docs.doc_id.to_numpy()
        rows = []
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                ga, gb = grams[a], grams[b]
                if not ga or not gb:
                    continue
                inter = len(ga & gb)
                if inter < 2:
                    continue
                j = round(inter / (len(ga) + len(gb) - inter), 6)
                if j >= 0.5:
                    rows.append((int(ids[a]), int(ids[b]), j))
        want = (
            pd.DataFrame(rows, columns=["doc_a", "doc_b", "jaccard"])
            .sort_values(["doc_a", "doc_b"])
            .reset_index(drop=True)
        )
        assert len(want) > 0, "fixture should contain designed near-dups"
        want["doc_a"] = want.doc_a.astype(np.int64)
        want["doc_b"] = want.doc_b.astype(np.int64)
        pd.testing.assert_frame_equal(got.reset_index(drop=True), want)

    def test_pair_cache_sees_a_rewrite_under_the_same_mtime(self, ray_session, tmp_path):
        """The per-process pair cache is keyed by ``cache_path`` (absolute
        path, mtime in ns, size, params): a documents table rewritten with
        other texts and its old mtime restored is not served the old
        pairs."""
        import os
        import shutil

        from citygml2objv2_ray import relational_ml

        path = tmp_path / "documents.parquet"
        shutil.copy(f"{SF}/documents.parquet", path)
        first, _ = relational_ml.ngram_jaccard_pairs_cached(str(tmp_path))
        assert len(first) > 0, "fixture should contain designed near-dups"
        st = os.stat(path)
        docs = pq.read_table(path)
        ids = docs["doc_id"].to_pylist()
        texts = [f"alpha{i} beta{i} gamma{i} delta{i} epsilon{i}" for i in ids]
        pq.write_table(docs.set_column(docs.schema.get_field_index("text"), "text", pa.array(texts)), path)
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
        assert os.stat(path).st_mtime_ns == st.st_mtime_ns and os.stat(path).st_size != st.st_size
        again, nd = relational_ml.ngram_jaccard_pairs_cached(str(tmp_path))
        assert len(again) == 0 and nd == len(ids)

    def test_word_ngram_list_semantics(self):
        assert ro.word_ngram_list("one two") == []
        assert ro.word_ngram_list("A b c") == ["a b c"]
        assert ro.word_ngram_list("a b c a b c") == ["a b c", "b c a", "c a b"]
        ids = ro.word_ngram_ids("a b c d")
        assert len(ids) == 2 and np.all(np.diff(ids.astype(np.uint64)) > 0)


class TestBottomkSample:
    def test_exact_and_partition_invariant(self, ray_session):
        """Bottom-k == driver-side sort by md5(doc_id); identical result
        regardless of read block count (union-mergeability)."""
        import hashlib

        import ray.data as rd

        got = _registry()["q_bottomk_sample"](SF)
        docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "n_chars"]).to_pandas()
        docs["_h"] = [hashlib.md5(str(int(i)).encode()).hexdigest() for i in docs.doc_id]
        want = (
            docs.sort_values("_h").head(100).drop(columns="_h")
            .sort_values("doc_id").reset_index(drop=True)
        )
        want["doc_id"] = want.doc_id.astype(np.int64)
        want["n_chars"] = want.n_chars.astype(np.int64)
        pd.testing.assert_frame_equal(got.reset_index(drop=True), want)
        assert len(got) == 100


class TestSynthDocumentsScaleDemo:
    """The bench scale demo's corpus generator: deterministic, cached, and
    its planted near-dup pairs are fully recovered by the distributed
    MinHash plan (recall 1.0 expected at J≈0.85 with 16x4 LSH bands)."""

    def test_deterministic_and_planted_pairs_recovered(self, ray_session, tmp_path):
        import ray.data as rd

        from citygml2objv2_ray import dedup as dd
        from citygml2objv2_ray.ops import derive_num_blocks
        from citygml2objv2_ray.relational_ml import minhash_neardup_pairs

        p1 = dd.synth_documents(str(tmp_path / "a"), n=2000, dup_rate=0.02)
        p2 = dd.synth_documents(str(tmp_path / "b"), n=2000, dup_rate=0.02)
        t1, t2 = pq.read_table(p1), pq.read_table(p2)
        assert t1.equals(t2)  # deterministic across directories
        truth = t1.to_pandas()
        dup = truth[truth.src_id >= 0]
        planted = {
            (min(a, b), max(a, b)) for a, b in zip(dup.doc_id, dup.src_id)
        }
        assert len(planted) == 40
        docs = rd.read_parquet(
            p1,
            columns=["doc_id", "text"],
            override_num_blocks=derive_num_blocks(2000, target_rows=512),
        )
        pairs = minhash_neardup_pairs(docs, 2000, threshold=0.6)
        found = set(zip(pairs.doc_a, pairs.doc_b))
        assert planted <= found  # every planted pair recovered
        # background false positives are possible only via real Jaccard
        # >= 0.6 coincidences; verify any extras are genuine
        assert (pairs.jaccard >= 0.6).all()


class TestJaccardKernelBranches:
    """The verify kernel dispatches between three exact algorithms by data
    shape (bitset for small shingle universes, inverted-index co-occurrence,
    pair-expanded sort for hot-shingle degenerates) — all three must match
    a per-pair intersect1d brute force bit for bit."""

    @staticmethod
    def _brute(a, b, ta, tb, thr, fn):
        rows = []
        for i in range(len(a)):
            sa, sb = fn(ta[i]), fn(tb[i])
            inter = len(np.intersect1d(sa, sb, assume_unique=True))
            u = len(sa) + len(sb) - inter
            j = round(inter / u, 6) if u else 1.0
            rows.append((int(a[i]), int(b[i]), j))
        df = pd.DataFrame(rows, columns=["doc_a", "doc_b", "jaccard"])
        return df[df.jaccard >= thr].reset_index(drop=True)

    def _check(self, texts, thr, fn, batch_fn):
        from citygml2objv2_ray import relational_ml as rml

        rng = np.random.default_rng(3)
        arr = np.array(texts, dtype=object)
        ids = np.arange(len(arr), dtype=np.int64)
        a = rng.choice(ids, 800)
        b = rng.choice(ids, 800)
        k = a != b
        a, b = a[k], b[k]
        got = (
            rml._jaccard_pairs_kernel(a, b, arr[a], arr[b], fn, batch_fn, thr)
            .reset_index(drop=True)
            .astype({"doc_a": np.int64, "doc_b": np.int64})
        )
        want = self._brute(a, b, arr[a], arr[b], thr, fn)
        pd.testing.assert_frame_equal(got, want)
        return got

    def test_small_universe_bitset(self):
        # tiny alphabet -> few distinct shingles -> bitset branch
        from citygml2objv2_ray import dedup as dd

        rng = np.random.default_rng(5)
        texts = [
            "".join(rng.choice(list("ab cd"), rng.integers(0, 60)).tolist())
            for _ in range(120)
        ]
        texts[3] = ""
        self._check(texts, 0.2, ro.char_shingles, dd.char_shingles_batch)

    def test_large_universe(self):
        # long random strings over a wide alphabet -> falls past the bitset
        # cap into the inverted/expanded branches
        import string

        from citygml2objv2_ray import dedup as dd

        rng = np.random.default_rng(6)
        alpha = list(string.ascii_letters + string.digits + " ")
        texts = ["".join(rng.choice(alpha, 400).tolist()) for _ in range(80)]
        texts += texts[:8]  # exact dups -> jaccard 1.0 pairs
        self._check(texts, 0.1, ro.char_shingles, dd.char_shingles_batch)

    def test_degenerate_identical_corpus(self):
        # every doc identical -> hot shingles -> expand fallback, all 1.0
        from citygml2objv2_ray import dedup as dd

        got = self._check(
            ["the same text in every document of this corpus"] * 100,
            0.5,
            ro.char_shingles,
            dd.char_shingles_batch,
        )
        assert (got.jaccard == 1.0).all() and len(got)

    def test_word_ngram_family(self):
        from citygml2objv2_ray import dedup as dd

        rng = np.random.default_rng(7)
        vocab = ["alpha", "beta", "gamma", "delta", "eps"]
        texts = [
            " ".join(rng.choice(vocab, rng.integers(0, 12)).tolist())
            for _ in range(100)
        ]
        self._check(texts, 0.2, ro.word_ngram_ids, dd.word_ngram_ids_batch)


class TestVerifyPathEquality:
    """A broadcast share of 0 sends the verify down the two-shuffle tail;
    the default share broadcasts the sf0.001 texts. Both give the same
    kept pairs, and the log shows which branch ran."""

    def test_broadcast_equals_shuffle(self, ray_session, monkeypatch, caplog):
        """The map-side broadcast verify (small corpora) and the fully
        distributed two-shuffle verify must produce identical kept pairs."""
        import ray.data as rd

        from citygml2objv2_ray import ops
        from citygml2objv2_ray import relational_ml as rml
        from citygml2objv2_ray.ops import derive_num_blocks

        docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        nd = docs.num_rows

        def pairs(share: float, branch: str) -> pd.DataFrame:
            monkeypatch.setattr(ops, "BROADCAST_SHARE", share)
            caplog.clear()
            ds = rd.read_parquet(
                f"{SF}/documents.parquet",
                columns=["doc_id", "text"],
                override_num_blocks=derive_num_blocks(nd, target_rows=2048),
            )
            got = rml.minhash_neardup_pairs(ds, nd, 0.6)
            assert verify_branches(caplog) == [branch]
            return got

        caplog.set_level(logging.INFO, logger="citygml2objv2_ray.ops")
        a = pairs(ops.BROADCAST_SHARE, "gather")
        b = pairs(0.0, "shuffle")
        assert len(a) > 0
        pd.testing.assert_frame_equal(
            a.reset_index(drop=True), b.reset_index(drop=True)
        )

    def test_ngram_broadcast_equals_shuffle(self, ray_session, monkeypatch, caplog):
        """The same two verify paths under the exact word-3-gram index."""
        from citygml2objv2_ray import ops
        from citygml2objv2_ray import relational_ml as rml

        def pairs(share: float, branch: str) -> pd.DataFrame:
            monkeypatch.setattr(ops, "BROADCAST_SHARE", share)
            caplog.clear()
            ds, _ = rml.ngram_jaccard_pairs_ds(SF, 0.5)
            df = ds.to_pandas().astype({"doc_a": np.int64, "doc_b": np.int64})
            assert verify_branches(caplog) == [branch]
            return df.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)

        caplog.set_level(logging.INFO, logger="citygml2objv2_ray.ops")
        a, b = pairs(ops.BROADCAST_SHARE, "gather"), pairs(0.0, "shuffle")
        assert len(a) > 0
        pd.testing.assert_frame_equal(a, b)

    def test_empty_corpus_on_both_branches(self, ray_session, monkeypatch, caplog):
        """A corpus with no documents gives no pairs on either branch (the
        broadcast table of no blocks is an empty table, not an error)."""
        import ray.data as rd

        from citygml2objv2_ray import ops
        from citygml2objv2_ray import relational_ml as rml

        docs = pd.DataFrame({"doc_id": np.array([], np.int64), "text": pd.Series([], dtype=object)})
        caplog.set_level(logging.INFO, logger="citygml2objv2_ray.ops")
        for share, branch in ((ops.BROADCAST_SHARE, "gather"), (0.0, "shuffle")):
            monkeypatch.setattr(ops, "BROADCAST_SHARE", share)
            caplog.clear()
            got = rml.minhash_neardup_pairs(rd.from_pandas(docs), 0, 0.6)
            assert verify_branches(caplog) == [branch]
            assert len(got) == 0 and list(got.columns) == ["doc_a", "doc_b", "jaccard"]

    def test_gate_counts_bytes_not_rows(self, ray_session, monkeypatch, caplog):
        """Two corpora of 240 documents each, one of short texts and one of
        long ones: at a cap between their measured text bytes the short
        corpus broadcasts and the long one shuffles, and both give the
        brute-force pairs. A row-count gate sends both the same way."""
        import ray
        import ray.data as rd

        from citygml2objv2_ray import ops
        from citygml2objv2_ray import relational_ml as rml

        rng = np.random.default_rng(4)
        vocab = np.array([f"w{i}" for i in range(3000)])

        def corpus(words: int) -> pd.DataFrame:
            texts = [" ".join(rng.choice(vocab, words)) for _ in range(200)]
            texts += [t + " tail" for t in texts[:40]]  # 40 planted near-copies
            return pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64), "text": texts})

        short, long = corpus(12), corpus(400)
        assert len(short) == len(long)

        def run(docs: pd.DataFrame) -> tuple[pd.DataFrame, tuple]:
            caplog.clear()
            got = rml.minhash_neardup_pairs(rd.from_pandas(docs).repartition(4), len(docs), 0.6)
            (decision,) = [d for d in decisions(caplog) if d[0] == "verify_pairs"]
            return got, decision

        caplog.set_level(logging.INFO, logger="citygml2objv2_ray.ops")
        (_, (*_, short_bytes, _)), (_, (*_, long_bytes, _)) = run(short), run(long)
        assert short_bytes < long_bytes
        store = ray.cluster_resources()["object_store_memory"]
        cap = (short_bytes + long_bytes) // 2
        monkeypatch.setattr(ops, "BROADCAST_SHARE", (cap + 0.5) / store)
        for docs, branch in ((short, "gather"), (long, "shuffle")):
            got, (_, logged, _, _, logged_cap) = run(docs)
            assert (logged, logged_cap) == (branch, cap)
            want = minhash_bruteforce(docs, 0.6)
            assert len(want) >= 40
            pd.testing.assert_frame_equal(got.reset_index(drop=True), want)
