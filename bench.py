#!/usr/bin/env python
"""Benchmark harness (driver contract).

Default: run the headline pipelines over $GRAFT_SF_DIR (default
/root/testdata/sf0.1) with ray.init(num_cpus=$RAY_GRAFT_CPUS or 32) and
write the full record (every query timing) as JSON under .bench_records/,
then print ONE short JSON line (at most 1500 characters), headline first:

    {"metric": ..., "value": <headline sec>, "unit": "sec",
     "throughput_rows_s": ..., "sf": ..., "num_cpus": N, "rows": ...,
     "queries": <count>, "record": "<path of the full record>"}

--scaling: run the headline pipeline in FRESH processes at N and 4N CPUs
(default 4 vs 16) on the same (pre-generated, page-warmed) input,
INTERLEAVED best-of-N per level, and print both throughputs + scaling
efficiency + a hardware-ceiling control (the sandbox proxy for the north
rule's N vs 4N node criterion — see BASELINE.md).
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import subprocess
import sys
import time
import uuid

REPO = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, REPO)
os.environ["PYTHONPATH"] = REPO + os.pathsep + os.environ.get("PYTHONPATH", "")

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
# scaling runs use a larger input so both levels are compute-dominated (the
# ~3s fixed pipeline head/tail otherwise dwarfs the 32-cpu level; at 100TB
# the fixed cost is irrelevant, so the proxy must amortize it too)
SCALING_SF = float(os.environ.get("GRAFT_SCALING_SF", "0.4"))
RECORD_DIR = os.path.join(REPO, ".bench_records")


def _init_ray():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=NUM_CPUS,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    # measured +10% throughput: reservation capped the fused stage's tasks
    ctx.op_resource_reservation_enabled = False


@contextlib.contextmanager
def _verify_decisions():
    """Collect ``(site, branch, rows, bytes, cap)`` of every near-dup verify
    decision that ``ops.under_cap`` logs inside the block."""
    seen: list[tuple] = []
    handler = logging.Handler()
    handler.addFilter(lambda r: bool(r.args) and r.args[0] == "verify_pairs")
    handler.emit = lambda r: seen.append(r.args)
    ops_log = logging.getLogger("citygml2objv2_ray.ops")
    level = ops_log.level
    ops_log.addHandler(handler)
    ops_log.setLevel(logging.INFO)
    try:
        yield seen
    finally:
        ops_log.removeHandler(handler)
        ops_log.setLevel(level)


def run_bench() -> dict:
    _init_ray()

    from citygml2objv2_ray import worlds
    from citygml2objv2_ray.pipelines.flagship import run_flagship
    from citygml2objv2_ray import (  # noqa: F401
        relational,
        relational_ext,
        relational_ml,
        relational_stats,
        streaming,
    )

    sf = worlds.sf_of_dir(SF_DIR)
    # world generation is one-time input materialization (cached, untimed)
    images_path, surfaces, footprints = worlds.load_world(sf, parallelism=NUM_CPUS)
    # warm the page cache so we measure compute+shuffle, not first disk read
    for root, _, files in os.walk(images_path):
        for f in files:
            with open(os.path.join(root, f), "rb") as fh:
                while fh.read(1 << 22):
                    pass

    queries: dict[str, float] = {}

    # headline: flagship spatial-join + tile assignment. Two runs; report
    # the warm one (steady-state — worker processes and page cache hot,
    # matching the sustained regime a 100TB run operates in).
    headline = None
    for _ in range(2):
        out_root = f"/tmp/citygml2objv2_ray_bench/{uuid.uuid4().hex[:8]}"
        t0 = time.perf_counter()
        res = run_flagship(
            images_path, surfaces, footprints, out_root, resume=False
        )
        dt = time.perf_counter() - t0
        headline = dt if headline is None else min(headline, dt)
    queries["flagship_spatial_join"] = round(headline, 3)
    n_rows = res.rows_written

    # secondary pipelines over the driver testdata tables — includes the
    # near-dup long tail so driver-side-materialization regressions in the
    # non-flagship pipelines are visible (VERDICT r1 item 8)
    for name in [
        "q1_pricing_summary",
        "q_count_by_flag",
        "q_window_hourly",
        "q_sliding_window",
        "q_sessionize",
        "q_dedup_first_event",
        "q_term_counts_salted",
        "q_join_native",
        "q_ann_topk",
        "q_exact_dedup_docs",
        "q_phash_neardup",
        "q_minhash_neardup",
        "q_embedding_neardup_lsh",
        "q_quantiles_exact",
        "q_topk_per_group",
        "q_stream_window_hourly",
        "q_simhash",
        "q_ngram_jaccard",
        "q_bottomk_sample",
        "q_heavy_hitters",
        "q_asof_join",
        "q_tfidf_top_terms",
        "q_bloom_join",
        "q_group_quantiles",
        "q_rollup",
        "q_event_deltas",
        "q_pivot_events",
        "q_running_total",
        "q_left_join",
        "q_weighted_sample",
        "q_json_extract",
        "q_kmv_distinct",
        "q_funnel",
        "q_embedding_stats",
        "q_histogram",
        "q_correlation",
        "q_full_outer_join",
        "q_set_ops",
        "q_gap_fill",
        "q_above_group_avg",
        "q_moving_avg",
        "q_stream_dedup",
        "q_stream_sessionize",
        "q_stream_interval_join",
        "q_model_score",
        "q_cms_counts",
        "q_partition_pruned_scan",
        "q_interval_join",
        "q_string_agg",
        "q_json_source",
        "q_csv_source",
        "q_global_sort_slice",
        "q_corpus_prep",
        "q_pack_chunks",
        "q_dedup_corpus",
        "q_decontaminate",
        "q_repetition_quality",
    ]:
        fn = relational.REGISTRY[name]
        t0 = time.perf_counter()
        fn(SF_DIR)
        queries[name] = round(time.perf_counter() - t0, 3)

    # OBJ conversion path: triangulate the world surfaces and write
    # per-class OBJ (single materialization, streamed class writers)
    import ray.data as rd

    from citygml2objv2_ray.pipelines.geometry import surfaces_dataset, triangulate_surfaces
    from citygml2objv2_ray.sinks.obj import write_obj_per_class

    t0 = time.perf_counter()
    out_dir = f"/tmp/citygml2objv2_ray_bench/obj-{uuid.uuid4().hex[:8]}"
    write_obj_per_class(triangulate_surfaces(surfaces_dataset(surfaces)), out_dir)
    queries["obj_convert"] = round(time.perf_counter() - t0, 3)

    # ANN scale demo: exact full-scan vs centroid-partitioned IVF over a
    # 1M-vector synthetic clustered corpus. Corpus + index are one-time
    # cached inputs (like the world); the timed entries are the searches —
    # IVF's partition pruning must beat the full scan (VERDICT r2 item 1).
    from citygml2objv2_ray import ann

    emb = ann.synth_embeddings(
        "/tmp/ann_demo", n=int(os.environ.get("GRAFT_ANN_N", "1000000"))
    )
    ann.ivf_query_cached(emb, range(20), k=5, n_lists=64, nprobe=6)  # build/warm
    t0 = time.perf_counter()
    brute_res = ann.brute_search_distributed(emb, range(20), k=5)
    queries["ann_brute_1m"] = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()
    ivf_res = ann.ivf_query_cached(emb, range(20), k=5, n_lists=64, nprobe=6)
    queries["ann_ivf_1m"] = round(time.perf_counter() - t0, 3)
    # recall@5 of the pruned search vs the exact scan (the quality side of
    # the 1.7x pruning speedup — both results are already in hand)
    bsets = brute_res.groupby("query_id").neighbor_id.apply(set)
    isets = ivf_res.groupby("query_id").neighbor_id.apply(set)
    hits = sum(len(bsets[q] & isets.get(q, set())) for q in bsets.index)
    queries["ann_ivf_recall_at5"] = round(hits / (5 * len(bsets)), 3)

    # MinHash near-dup scale demo (VERDICT r2 item 2): the full distributed
    # LSH + verify plan over a synthetic 300k-doc corpus with a sparse
    # planted dup set — 60x the sf0.1 documents table, nothing driver-side.
    import ray.data as _rd

    from citygml2objv2_ray import dedup as _dd
    from citygml2objv2_ray import ops as _ops
    from citygml2objv2_ray.ops import derive_num_blocks
    from citygml2objv2_ray.relational_ml import minhash_neardup_pairs

    n_docs = int(os.environ.get("GRAFT_MINHASH_N", "300000"))
    docs_path = _dd.synth_documents("/tmp/neardup_demo", n=n_docs)
    t0 = time.perf_counter()
    mh_docs = _rd.read_parquet(
        docs_path,
        columns=["doc_id", "text"],
        override_num_blocks=derive_num_blocks(n_docs, target_rows=2048),
    )
    with _verify_decisions() as seen:
        mh_pairs = minhash_neardup_pairs(mh_docs, n_docs, threshold=0.6)
    queries["minhash_neardup_300k"] = round(time.perf_counter() - t0, 3)
    queries["minhash_neardup_300k_pairs"] = int(len(mh_pairs))
    ((_, branch, _, nbytes, cap),) = seen
    queries["minhash_neardup_300k_verify_branch"] = branch
    queries["minhash_neardup_300k_verify_bytes"] = nbytes
    queries["minhash_neardup_300k_verify_cap"] = cap

    # same corpus through the two-shuffle verify tail (the branch a corpus
    # whose texts exceed the broadcast cap takes, as a 100-TB one does):
    # a broadcast share of 0 forces it, so regressions in the scale path
    # stay visible although this corpus broadcasts by default
    t0 = time.perf_counter()
    mh_docs2 = _rd.read_parquet(
        docs_path,
        columns=["doc_id", "text"],
        override_num_blocks=derive_num_blocks(n_docs, target_rows=2048),
    )
    share, _ops.BROADCAST_SHARE = _ops.BROADCAST_SHARE, 0.0
    try:
        mh_pairs_sh = minhash_neardup_pairs(mh_docs2, n_docs, threshold=0.6)
    finally:
        _ops.BROADCAST_SHARE = share
    queries["minhash_neardup_300k_shuffle"] = round(time.perf_counter() - t0, 3)
    assert len(mh_pairs_sh) == len(mh_pairs), (len(mh_pairs_sh), len(mh_pairs))

    # connected-components scale demo (VERDICT r3 item 5): dup CLUSTERS of
    # the 300k corpus's verified pair graph — hash-to-min over supergroup
    # shuffles, rounds-to-fixpoint recorded (the O(log n) claim's datapoint)
    from citygml2objv2_ray import graph as _graph

    cc_stats: dict = {}
    t0 = time.perf_counter()
    cc = _graph.connected_components(
        _rd.from_pandas(mh_pairs[["doc_a", "doc_b"]]), n_docs, stats_out=cc_stats
    ).to_pandas()
    queries["cc_300k_pairs"] = round(time.perf_counter() - t0, 3)
    queries["cc_300k_rounds"] = int(cc_stats.get("rounds", -1))
    queries["cc_300k_components"] = int(cc.component_id.nunique())

    # per-group quantile scale demo: 1M rows x 100k distinct keys — the
    # cardinality regime where Ray's per-key groupby machinery degrades
    # (50s measured for a plain count at 250k keys); the supergroup
    # RLE-vectorized path must stay in single-digit seconds
    from citygml2objv2_ray.relational_stats import group_quantile_disc

    def synth_kv(batch):
        import numpy as _np
        import pandas as _pd

        i = batch["id"].to_numpy()
        h = (i * 2654435761) % (1 << 32)
        return _pd.DataFrame(
            {
                "k": (i % 100_000).astype(_np.int64),
                "v": (h / float(1 << 32)).astype(_np.float64),
            }
        )

    kv = _rd.range(1_000_000, override_num_blocks=64).map_batches(
        synth_kv, batch_format="pandas"
    )
    t0 = time.perf_counter()
    n_keys = len(group_quantile_disc(kv, "k", "v"))
    queries["group_quantiles_1m_100k_keys"] = round(time.perf_counter() - t0, 3)
    assert n_keys == 100_000, n_keys

    # streaming scale demo (VERDICT r3 item 1): 10M-row sharded streaming
    # tumbling window — shard pool FED FROM map_batches tasks (range-
    # stamped ordered delivery, per-shard watermarks), 8 shards, no
    # iter_batches/driver data loop anywhere; the driver receives only the
    # finalized window rows. Input is a one-time cached synthetic table.
    from citygml2objv2_ray import streaming as _st

    n_ev = int(os.environ.get("GRAFT_STREAM_N", "10000000"))
    ev_path = _st.synth_events("/tmp/stream_demo", n=n_ev)
    t0 = time.perf_counter()
    _wdf, wstats = _st.stream_window(ev_path, n_shards=8, batch_size=65536)
    dt = time.perf_counter() - t0
    queries["stream_window_10m"] = round(dt, 3)
    queries["stream_window_10m_rows_s"] = int(n_ev / dt)
    assert wstats["n_processed"] == n_ev and wstats["late_dropped"] == 0, wstats

    # streaming sessionize at the same scale: 10M events x 500k users, per
    # user-hash shards, watermark-expired sessions, no driver data loop —
    # output is corpus-scale (~9.9M sessions at these params: worst case,
    # nearly every event its own session), so the shards SPILL to parquet
    # (collect=False) and the driver sees only file paths
    t0 = time.perf_counter()
    spaths, sstats = _st.stream_sessionize_path(
        ev_path, n_shards=8, batch_size=65536, collect=False
    )
    dt = time.perf_counter() - t0
    n_sessions = int(_rd.read_parquet(spaths).count()) if spaths else 0
    queries["stream_sessionize_10m"] = round(dt, 3)
    queries["stream_sessionize_10m_rows_s"] = int(n_ev / dt)
    queries["stream_sessionize_10m_sessions"] = n_sessions
    assert sstats["n_processed"] == n_ev and sstats["late_dropped"] == 0, sstats
    import shutil as _sh

    if spaths:
        _sh.rmtree(os.path.dirname(spaths[0]), ignore_errors=True)

    # streaming dedup at the same scale (VERDICT r4 item 3): keep-first on
    # (user_id, event_type) — 4M distinct keys over 10M rows, spill mode;
    # kept rows are checked row-identical to the batch keep-first via a
    # DuckDB (count, min-event_id-per-key checksum) comparison over the
    # same parquet
    t0 = time.perf_counter()
    dpaths, dstats = _st.stream_dedup_path(
        ev_path, n_shards=8, batch_size=65536, collect=False
    )
    dt = time.perf_counter() - t0
    queries["stream_dedup_10m"] = round(dt, 3)
    queries["stream_dedup_10m_rows_s"] = int(n_ev / dt)
    queries["stream_dedup_10m_kept"] = int(dstats["n_seen"])
    assert dstats["n_seen"] + dstats["n_dropped"] == n_ev, dstats
    import duckdb as _duck

    got = _duck.sql(
        f"SELECT COUNT(*) AS n, SUM(event_id) AS s FROM read_parquet({dpaths!r})"
    ).fetchone()
    want = _duck.sql(
        f"""SELECT COUNT(*) AS n, CAST(SUM(m) AS BIGINT) AS s FROM (
              SELECT MIN(event_id) AS m FROM read_parquet('{ev_path}')
              GROUP BY user_id, event_type)"""
    ).fetchone()
    assert got == want, (got, want)
    if dpaths:
        _sh.rmtree(os.path.dirname(dpaths[0]), ignore_errors=True)

    return {
        "metric": "spatial-join + tile-assignment throughput",
        "value": round(headline, 3),
        "unit": "sec",
        "queries": queries,
        "sf": sf,
        "num_cpus": NUM_CPUS,
        "rows": n_rows,
        "throughput_rows_s": round(n_rows / headline, 1) if headline > 0 else None,
    }


def write_record(result: dict) -> str:
    """The full result as JSON under RECORD_DIR; returns its path."""
    os.makedirs(RECORD_DIR, exist_ok=True)
    path = os.path.join(
        RECORD_DIR, f"bench-{time.strftime('%Y%m%d-%H%M%S')}-{uuid.uuid4().hex[:6]}.json"
    )
    with open(path, "w") as f:
        json.dump(result, f)
    return path


def headline_line(result: dict, record_path: str) -> str:
    """The final stdout line: the headline fields first, the query count
    and the full record's path; no per-query timings, so its length does
    not grow with the number of queries."""
    head = {
        k: result.get(k)
        for k in ("metric", "value", "unit", "throughput_rows_s", "sf", "num_cpus", "rows")
    }
    head["queries"] = len(result.get("queries", {}))
    head["record"] = record_path
    return json.dumps(head)


def run_scaling_child() -> dict:
    """One scaling level: the flagship at GRAFT_SCALING_SF in this fresh
    process (run 1 warms worker processes + page cache; the best of the
    remaining runs is the reported steady-state — a 100TB job runs in that
    regime). GRAFT_SCALING_RUNS controls measured runs per child."""
    import time as _time
    import uuid as _uuid

    _init_ray()
    from citygml2objv2_ray import worlds
    from citygml2objv2_ray.pipelines.flagship import run_flagship

    n_runs = int(os.environ.get("GRAFT_SCALING_RUNS", "3"))
    images_path, surfaces, footprints = worlds.load_world(SCALING_SF, parallelism=NUM_CPUS)
    best = None
    rows = 0
    for i in range(1 + n_runs):  # first run warms, then measured runs
        out_root = f"/tmp/citygml2objv2_ray_bench/{_uuid.uuid4().hex[:8]}"
        t0 = _time.perf_counter()
        res = run_flagship(
            images_path, surfaces, footprints, out_root, resume=False,
        )
        dt = _time.perf_counter() - t0
        rows = res.rows_written
        if i > 0:
            best = dt if best is None else min(best, dt)
    return {"sec": round(best, 3), "rows": rows, "num_cpus": NUM_CPUS, "sf": SCALING_SF}


def hw_control(lo: int, hi: int) -> float:
    """Hardware parallel-efficiency control: plain multiprocessing (no Ray),
    fixed zlib+numpy work per worker — the same instruction mix as the
    decode-dominated pipeline. wall(lo)/wall(hi) is the ceiling the HOST
    grants for lo→hi scaling at this moment (this sandbox VM's effective
    memory bandwidth / steal varies over time; see BASELINE.md)."""
    import multiprocessing as mp

    def one(nw: int) -> float:
        t0 = time.perf_counter()
        with mp.get_context("spawn").Pool(nw) as p:
            p.map(_burn, range(nw))
        return time.perf_counter() - t0

    one(lo)  # warm pool spawn path
    return min(one(lo), one(lo)) / min(one(hi), one(hi))


def _burn(n: int) -> float:
    import zlib

    import numpy as np

    rng = np.random.default_rng(n)
    data = rng.integers(0, 256, size=(1 << 20,), dtype=np.uint8).tobytes()
    t0 = time.perf_counter()
    for _ in range(30):
        zlib.decompress(zlib.compress(data, 1))
    return time.perf_counter() - t0


def run_scaling() -> dict:
    """Same job, fresh processes, N vs 4N CPUs (the sandbox proxy for the
    north rule's N vs 4N node criterion — see BASELINE.md).

    The lo and hi levels are run INTERLEAVED (lo,hi,lo,hi,...), one
    measured run per child process, best-of per level: this VM's effective
    parallel capacity drifts up to 4x over minutes, so sequential
    lo-then-hi measurement lets a host-state change masquerade as
    (anti-)scaling — round-2 measured 0.42 "efficiency" purely from a slow
    window landing on the hi level. Interleaving bounds that bias to one
    pair."""

    def one(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), GRAFT_SCALING_RUNS="1")
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--scaling-child"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    # N vs 4N CPUs. Default 4 → 16: this VM's memory bandwidth saturates
    # around ~20 workers on the decode-type work mix (measured with a pure
    # multiprocessing control: 8→32 plain-zlib scaling is itself only 0.79),
    # so 8→32 measures the hardware knee, not the engine. 4→16 sits under
    # the knee and isolates software scaling. Override with
    # GRAFT_SCALING_LO/HI to reproduce either pair.
    lo = int(os.environ.get("GRAFT_SCALING_LO", "4"))
    hi = int(os.environ.get("GRAFT_SCALING_HI", "16"))
    pairs = int(os.environ.get("GRAFT_SCALING_PAIRS", "3"))
    best: dict[int, dict] = {}
    for _ in range(pairs):
        for ncpu in (lo, hi):
            r = one(ncpu)
            if ncpu not in best or r["sec"] < best[ncpu]["sec"]:
                best[ncpu] = r
    r_lo, r_hi = best[lo], best[hi]
    hw = hw_control(lo, hi)
    tp_lo = r_lo["rows"] / r_lo["sec"]
    tp_hi = r_hi["rows"] / r_hi["sec"]
    eff = tp_hi / (tp_lo * (hi / lo))
    return {
        "metric": f"scaling efficiency (num_cpus {lo} -> {hi}, interleaved fresh processes, best-of-{pairs}, steady-state)",
        f"sec_{lo}": r_lo["sec"],
        f"sec_{hi}": r_hi["sec"],
        f"throughput_rows_s_{lo}": round(tp_lo, 1),
        f"throughput_rows_s_{hi}": round(tp_hi, 1),
        "scaling_efficiency": round(eff, 3),
        "hardware_ceiling": round(hw, 3),
        "software_scaling_efficiency": round(min(1.0, eff / hw), 3),
        "sf": r_lo["sf"],
        "rows": r_lo["rows"],
    }


if __name__ == "__main__":
    if "--scaling-child" in sys.argv:
        result = run_scaling_child()
        import ray

        ray.shutdown()
        print(json.dumps(result))
    elif "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        result = run_bench()
        import ray

        ray.shutdown()
        print(headline_line(result, write_record(result)))
