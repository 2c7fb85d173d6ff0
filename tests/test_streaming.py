"""Streaming windowed aggregation: watermark/late-data semantics and
equality with the batch tumbling window (the SQL twin is exercised by
tests/test_oracle.py and the driver gate)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


def _alive(class_name: str) -> set:
    """Ids of the actors of a class that are not DEAD: ALIVE, or still
    being created (a run can fail before its shards finish starting)."""
    from ray._private import state

    return {
        aid
        for aid, a in state.actors().items()
        # a class defined in a function is named "f.<locals>.Cls"
        if a["ActorClassName"].split(".")[-1] == class_name and a["State"] != "DEAD"
    }


def _assert_cleaned_up(alive_before: dict, spill_root) -> None:
    """No actor started by the failed run is left ALIVE or starting
    (``ray.kill`` is asynchronous, so poll briefly) and nothing is left
    under the spill root."""
    import time

    deadline = time.monotonic() + 30
    while True:
        leaked = {c: _alive(c) - before for c, before in alive_before.items()}
        if not any(leaked.values()) or time.monotonic() > deadline:
            break
        time.sleep(0.2)
    assert not any(leaked.values()), leaked
    assert list(spill_root.iterdir()) == []


class TestStreamWindow:
    def test_equals_batch_window(self, ray_session):
        from citygml2objv2_ray.relational import REGISTRY
        from citygml2objv2_ray import streaming  # noqa: F401
        from citygml2objv2_ray.streaming import stream_window_hourly

        got, stats = stream_window_hourly(SF)
        want = REGISTRY["q_window_hourly"](SF)
        assert stats["late_dropped"] == 0
        assert stats["open_windows"] == 0
        pd.testing.assert_frame_equal(
            got.reset_index(drop=True), want.reset_index(drop=True)
        )

    def test_watermark_finalizes_incrementally(self, ray_session):
        """Windows must be emitted as the watermark passes them — not all
        at flush time."""
        import ray

        from citygml2objv2_ray.streaming import WindowedStreamAggregator

        W = 100
        agg = WindowedStreamAggregator.remote(W, allowed_lateness_us=0)
        b1 = pd.DataFrame({"event_type": ["a", "a"], "ts_us": [10, 150], "value": [1.0, 2.0]})
        out1 = ray.get(agg.ingest.remote(b1))  # watermark 150 → window [0,100) final
        assert [(r["window_start"], r["n"]) for r in out1] == [(0, 1)]
        b2 = pd.DataFrame({"event_type": ["a"], "ts_us": [320], "value": [3.0]})
        out2 = ray.get(agg.ingest.remote(b2))  # watermark 320 → [100,200) and [200,300) (empty) → only open ones emit
        assert [(r["window_start"], r["n"]) for r in out2] == [(100, 1)]
        rest = ray.get(agg.flush.remote())
        assert [(r["window_start"], r["n"]) for r in rest] == [(300, 1)]
        ray.kill(agg)

    def test_late_event_dropped_not_mutating(self, ray_session):
        """An event for an already-finalized window increments late_dropped
        and never changes emitted results (exactly-once window output)."""
        import ray

        from citygml2objv2_ray.streaming import WindowedStreamAggregator

        W = 100
        agg = WindowedStreamAggregator.remote(W, allowed_lateness_us=0)
        out = ray.get(
            agg.ingest.remote(
                pd.DataFrame({"event_type": ["a"], "ts_us": [250], "value": [1.0]})
            )
        )
        assert out == []  # [200,300) still open
        out = ray.get(
            agg.ingest.remote(
                pd.DataFrame({"event_type": ["a"], "ts_us": [400], "value": [1.0]})
            )
        )  # watermark 400 finalizes [200,300)
        assert [(r["window_start"], r["n"]) for r in out] == [(200, 1)]
        # a straggler for the finalized window
        out = ray.get(
            agg.ingest.remote(
                pd.DataFrame({"event_type": ["a"], "ts_us": [210], "value": [9.0]})
            )
        )
        assert out == []
        stats = ray.get(agg.stats.remote())
        assert stats["late_dropped"] == 1
        rest = ray.get(agg.flush.remote())
        # only the [400,500) window remains; the finalized [200,300) is untouched
        assert [(r["window_start"], r["n"]) for r in rest] == [(400, 1)]
        ray.kill(agg)


class TestStreamingDedup:
    def test_incremental_emission_and_exactly_once(self, ray_session):
        """Each key is emitted exactly once, in the micro-batch of its
        FIRST arrival; later occurrences only bump n_dropped."""
        import ray as _ray

        from citygml2objv2_ray.streaming import StreamingDeduper

        d = StreamingDeduper.remote()
        b1 = pd.DataFrame({"key": ["a", "b", "a"], "v": [1, 2, 3]})
        out1 = _ray.get(d.ingest.remote(b1))
        assert out1.key.tolist() == ["a", "b"] and out1.v.tolist() == [1, 2]
        b2 = pd.DataFrame({"key": ["b", "c"], "v": [4, 5]})
        out2 = _ray.get(d.ingest.remote(b2))
        assert out2.key.tolist() == ["c"] and out2.v.tolist() == [5]
        stats = _ray.get(d.stats.remote())
        assert stats == {"n_seen": 3, "n_dropped": 2}
        _ray.kill(d)

    def test_stream_equals_batch_dedup(self, ray_session):
        """Sharded pool union == single-pass keep-first over arrival order."""
        from citygml2objv2_ray.streaming import stream_dedup_first

        df, stats = stream_dedup_first("/root/testdata/sf0.001", n_shards=3)
        import duckdb

        want = duckdb.sql(
            """SELECT event_id FROM (
                 SELECT event_id, ROW_NUMBER() OVER (
                   PARTITION BY user_id, event_type ORDER BY event_id) rn
                 FROM read_parquet('/root/testdata/sf0.001/events.parquet'))
               WHERE rn = 1 ORDER BY event_id"""
        ).df()
        assert sorted(df.event_id.tolist()) == want.event_id.tolist()
        assert stats["n_seen"] == len(want)


class TestOrderedRouting:
    def test_reorder_buffer_applies_in_seq_order(self, ray_session):
        """Slices delivered OUT of order (as parallel routing tasks do)
        must be applied in arrival-seq order — late-drop accounting is
        order-sensitive, so a swapped application would change results."""
        import ray

        from citygml2objv2_ray.streaming import WindowedStreamAggregator

        W = 100
        agg = WindowedStreamAggregator.remote(W, allowed_lateness_us=0, start_seq=0)
        # stream: seq 0-1 has ts 10,150; seq 2 has ts 320 — delivered 2 first
        b2 = pd.DataFrame({"event_type": ["a"], "ts_us": [320], "value": [3.0]})
        b1 = pd.DataFrame({"event_type": ["a", "a"], "ts_us": [10, 150], "value": [1.0, 2.0]})
        ray.get(agg.ingest_range.remote(2, 2, b2))  # buffered, NOT applied
        st = ray.get(agg.stats.remote())
        assert st["n_processed"] == 0  # nothing applied until seq 0 arrives
        ray.get(agg.ingest_range.remote(0, 1, b1))  # applies 0-1 then 2
        out = ray.get(agg.drain.remote())
        got = [(r["window_start"], r["n"]) for r in out["rows"]]
        assert got == [(0, 1), (100, 1), (300, 1)]
        assert out["stats"]["late_dropped"] == 0
        ray.kill(agg)

    def test_routed_gap_headers_advance_empty_shards(self, ray_session):
        """A shard owning no rows of a batch still gets the range stamp
        (None payload) so its reorder buffer never stalls."""
        import ray

        from citygml2objv2_ray.streaming import StreamingDeduper

        d = StreamingDeduper.remote(start_seq=0)
        ray.get(d.ingest_range.remote(0, 9, None))  # empty slice, range advances
        b = pd.DataFrame({"event_id": [10], "key": ["k"], "v": [1]})
        ray.get(d.ingest_range.remote(10, 10, b))
        out = ray.get(d.drain.remote())
        assert out["rows"].key.tolist() == ["k"]
        assert out["stats"] == {"n_seen": 1, "n_dropped": 0}
        ray.kill(d)


class TestStreamSessionize:
    def test_equals_batch_sessionize(self, ray_session):
        from citygml2objv2_ray import relational_ext  # noqa: F401 - registers q_sessionize
        from citygml2objv2_ray.relational import REGISTRY
        from citygml2objv2_ray.streaming import stream_sessionize

        got, stats = stream_sessionize(SF, n_shards=3)
        want = REGISTRY["q_sessionize"](SF)
        assert stats["late_dropped"] == 0
        pd.testing.assert_frame_equal(
            got.reset_index(drop=True), want.reset_index(drop=True)
        )

    def test_sessions_finalize_midstream_and_late_events_drop(self, ray_session):
        """A session whose end+gap fell below the watermark is finalized
        mid-stream: a later in-session-range event must be DROPPED as late
        (exactly-once emission), not merged into the emitted session."""
        import ray

        from citygml2objv2_ray.streaming import StreamingSessionizer

        GAP = 100
        s = StreamingSessionizer.remote(GAP, allowed_lateness_us=0, start_seq=0)
        b1 = pd.DataFrame({"user_id": [7, 7], "event_id": [0, 1], "e": [10, 50]})
        ray.get(s.ingest_range.remote(0, 1, b1))
        # watermark 50: session [10,50] not final yet (50+100 >= 50)
        b2 = pd.DataFrame({"user_id": [7], "event_id": [2], "e": [500]})
        ray.get(s.ingest_range.remote(2, 2, b2))
        # watermark 500 > 50+100: session 1 finalized; event 500 pending
        late = pd.DataFrame({"user_id": [7], "event_id": [3], "e": [60]})
        ray.get(s.ingest_range.remote(3, 3, late))  # e < watermark → dropped
        out = ray.get(s.drain.remote())
        rows = out["rows"].sort_values("session_id").reset_index(drop=True)
        assert rows.session_id.tolist() == [1, 2]
        assert rows.n_events.tolist() == [2, 1]
        assert rows.session_end.tolist() == [50, 500]  # late 60 NOT merged
        assert out["stats"]["late_dropped"] == 1
        ray.kill(s)


class TestRouteStreamInputShapes:
    def test_multi_file_input_routes_in_order(self, ray_session, tmp_path):
        """Ordered delivery must survive an input split across several
        parquet files (read tasks produce per-file contiguous batches in
        file order) — the shard pool's result still equals the batch
        window."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from citygml2objv2_ray.streaming import stream_window

        rng = np.random.default_rng(9)
        n, base = 3000, 1_700_000_000_000_000
        ts = base + np.arange(n, dtype=np.int64) * 1_000_000 + rng.integers(
            -500_000, 500_000, size=n
        )
        vals = rng.random(n)
        d = tmp_path / "events3"
        d.mkdir()
        for i, sl in enumerate([slice(0, 1000), slice(1000, 2100), slice(2100, n)]):
            ids = np.arange(n, dtype=np.int64)[sl]
            pq.write_table(
                pa.table(
                    {
                        "event_id": pa.array(ids),
                        "event_type": pa.array([f"t{j % 3}" for j in ids]),
                        "ts": pa.array(ts[sl], type=pa.timestamp("us")),
                        "value": pa.array(vals[sl]),
                    }
                ),
                str(d / f"part-{i:02d}.parquet"),
            )
        got, stats = stream_window(str(d), n_shards=3, batch_size=256)
        assert stats["n_processed"] == n and stats["late_dropped"] == 0
        want = (
            pd.DataFrame(
                {
                    "event_type": [f"t{j % 3}" for j in range(n)],
                    "window_start": (ts // 3_600_000_000) * 3_600,
                    "value": vals,
                }
            )
            .groupby(["event_type", "window_start"], as_index=False)
            .agg(n=("value", "size"), sum_value=("value", "sum"))
        )
        want["sum_value"] = want.sum_value.round(4)
        want = want.sort_values(["event_type", "window_start"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_non_dense_seq_rejected(self, ray_session, tmp_path, monkeypatch):
        """A source whose arrival-seq column has gaps must fail loudly —
        silent gaps would stall or misorder every shard — and clean up
        after itself: no shard actor left alive, no spill dir left on
        disk (collect and spill mode)."""
        import tempfile

        import pyarrow as pa
        import pyarrow.parquet as pq

        from citygml2objv2_ray.streaming import stream_dedup_path, stream_window

        ids = np.array([0, 1, 3, 4], dtype=np.int64)  # gap at 2
        pq.write_table(
            pa.table(
                {
                    "event_id": pa.array(ids),
                    "event_type": pa.array(["a"] * 4),
                    "user_id": pa.array(ids),
                    "ts": pa.array(
                        np.full(4, 1_700_000_000_000_000, dtype=np.int64),
                        type=pa.timestamp("us"),
                    ),
                    "value": pa.array([1.0] * 4),
                }
            ),
            str(tmp_path / "gap.parquet"),
        )
        spill = tmp_path / "spill"
        spill.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(spill))
        before = {c: _alive(c) for c in ("WindowedStreamAggregator", "StreamingDeduper")}
        with pytest.raises(Exception, match="DENSE arrival-seq|dense") as w_failed:
            stream_window(str(tmp_path / "gap.parquet"), n_shards=2, batch_size=16)
        with pytest.raises(Exception, match="DENSE arrival-seq|dense") as d_failed:
            stream_dedup_path(
                str(tmp_path / "gap.parquet"), n_shards=2, batch_size=16, collect=False
            )
        _assert_cleaned_up(before, spill)  # tracebacks still held: no GC help
        assert w_failed.traceback and d_failed.traceback


class TestShardedRunnerFailure:
    def test_shard_failure_kills_shards_and_removes_spill(
        self, ray_session, tmp_path, monkeypatch
    ):
        """A shard that fails mid-stream (after a spill part is already on
        disk) makes ``run_sharded`` raise, and the runner kills every
        shard and removes the spill dir before the error propagates."""
        import tempfile

        import ray

        from citygml2objv2_ray.streaming import _Shard, run_sharded

        @ray.remote(num_cpus=0)
        class FailingShard(_Shard):
            def __init__(self, **shard):
                super().__init__(**shard)
                self.n_slices = 0

            def _apply(self, df):
                self.n_slices += 1
                if self.n_slices >= 2:
                    raise RuntimeError("injected shard failure")
                self._emit(df)
                self._spill()  # a part is on disk before the failure

            def stats(self):
                return {"n_slices": self.n_slices}

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        before = {"FailingShard": _alive("FailingShard")}
        # hold the traceback (and with it the runner's frame and its actor
        # handles) so the check sees the runner's own cleanup, not GC
        with pytest.raises(Exception, match="injected shard failure") as failed:
            run_sharded(
                f"{SF}/events.parquet",
                ["event_id", "user_id"],
                lambda **kw: FailingShard.remote(**kw),
                None,
                "user_id",
                n_shards=2,
                batch_size=64,
                collect=False,
            )
        _assert_cleaned_up(before, tmp_path)
        assert failed.traceback

    def test_shard_death_kills_shards_and_removes_spill(
        self, ray_session, tmp_path, monkeypatch
    ):
        """A shard PROCESS that dies mid-stream (after a spill part is on
        disk) — the actor-died path, not a raised exception — also makes
        ``run_sharded`` raise with every shard killed and the spill dir
        removed."""
        import os
        import tempfile

        import ray

        from citygml2objv2_ray.streaming import _Shard, run_sharded

        @ray.remote(num_cpus=0)
        class DyingShard(_Shard):
            def __init__(self, **shard):
                super().__init__(**shard)
                self.n_slices = 0

            def _apply(self, df):
                self.n_slices += 1
                if self.n_slices >= 2:
                    os._exit(1)
                self._emit(df)
                self._spill()  # a part is on disk before the death

            def stats(self):
                return {"n_slices": self.n_slices}

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        before = {"DyingShard": _alive("DyingShard")}
        with pytest.raises(Exception) as failed:
            run_sharded(
                f"{SF}/events.parquet",
                ["event_id", "user_id"],
                lambda **kw: DyingShard.remote(**kw),
                None,
                "user_id",
                n_shards=2,
                batch_size=64,
                collect=False,
            )
        _assert_cleaned_up(before, tmp_path)
        assert failed.traceback


class TestSpillEqualsCollect:
    def test_spill_union_equals_collected(self, ray_session, tmp_path, monkeypatch):
        """collect=False (per-shard parquet parts) and collect=True (rows
        kept in shard memory) are the same output for every spilling
        operator."""
        import tempfile

        import pyarrow.parquet as pq

        from citygml2objv2_ray.streaming import (
            stream_dedup_path,
            stream_interval_join_path,
            stream_sessionize_path,
        )

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        ev = f"{SF}/events.parquet"
        for fn, order in (
            (stream_dedup_path, ["event_id"]),
            (stream_sessionize_path, ["user_id", "session_id"]),
            (stream_interval_join_path, ["purchase_id"]),
        ):
            want, wstats = fn(ev, n_shards=3)
            paths, stats = fn(ev, n_shards=3, collect=False)
            assert stats == wstats, fn.__name__
            assert paths and all(p.startswith(str(tmp_path)) for p in paths)
            got = (
                pd.concat([pq.read_table(p).to_pandas() for p in paths], ignore_index=True)
                .sort_values(order)
                .reset_index(drop=True)
            )
            pd.testing.assert_frame_equal(
                got[want.columns], want, check_dtype=False, obj=fn.__name__
            )


class TestStreamIntervalJoin:
    def test_equals_batch_interval_join(self, ray_session):
        from citygml2objv2_ray import relational_ext  # noqa: F401 - registers q_interval_join
        from citygml2objv2_ray.relational import REGISTRY
        from citygml2objv2_ray.streaming import stream_interval_join

        got, stats = stream_interval_join(SF, n_shards=3)
        want = REGISTRY["q_interval_join"](SF)
        assert stats["late_dropped"] == 0
        pd.testing.assert_frame_equal(
            got.reset_index(drop=True), want.reset_index(drop=True), check_dtype=False
        )

    def test_purchase_finalizes_once_and_clicks_prune(self, ray_session):
        """A purchase emits exactly once when the watermark passes it; a
        later click inside its window must NOT mutate the count (it drops
        as late); click buffers prune to the window+lateness horizon."""
        import ray

        from citygml2objv2_ray.streaming import StreamingIntervalJoiner

        W = 100
        j = StreamingIntervalJoiner.remote(W, allowed_lateness_us=0, start_seq=0)
        b1 = pd.DataFrame(
            {
                "user_id": [1, 1, 1],
                "event_id": [0, 1, 2],
                "event_type": ["click", "click", "purchase"],
                "e": [10, 40, 50],
            }
        )
        ray.get(j.ingest_range.remote(0, 2, b1))  # wm=50: purchase not final
        # advance watermark far: purchase@50 finalizes with 2 clicks;
        # clicks below wm-W prune away
        b2 = pd.DataFrame(
            {"user_id": [1], "event_id": [3], "event_type": ["click"], "e": [500]}
        )
        ray.get(j.ingest_range.remote(3, 3, b2))
        # a late click inside the finalized purchase's window → dropped
        late = pd.DataFrame(
            {"user_id": [1], "event_id": [4], "event_type": ["click"], "e": [45]}
        )
        ray.get(j.ingest_range.remote(4, 4, late))
        out = ray.get(j.drain.remote())
        rows = out["rows"].sort_values("purchase_id").reset_index(drop=True)
        assert rows.purchase_id.tolist() == [2]
        assert rows.n_recent_clicks.tolist() == [2]  # late click NOT counted
        assert out["stats"]["late_dropped"] == 1
        # click@500 remains buffered at drain time only until flush;
        # clicks@10,40 were pruned when wm hit 500 (500-100 > 40)
        ray.kill(j)


class TestShardCountInvariance:
    def test_results_identical_across_shard_counts(self, ray_session):
        """Sharding is an execution detail: 1, 2, and 5 shards must produce
        byte-identical results for every streaming operator (keys never
        split across shards; per-shard watermarks only ever DELAY
        finalization, never change it when nothing drops)."""
        from citygml2objv2_ray.streaming import (
            stream_dedup_first,
            stream_interval_join,
            stream_sessionize,
            stream_window_hourly,
        )

        for fn in (stream_window_hourly, stream_dedup_first, stream_sessionize,
                   stream_interval_join):
            ref = None
            for ns in (1, 2, 5):
                df, stats = fn(SF, n_shards=ns)
                assert stats.get("late_dropped", 0) == 0, fn.__name__
                if ref is None:
                    ref = df
                else:
                    pd.testing.assert_frame_equal(
                        df.reset_index(drop=True), ref.reset_index(drop=True)
                    )


@pytest.mark.slow
class TestShardCountInvarianceAtScale:
    def test_interval_join_1m_shard_invariant(self, ray_session):
        import os

        """VERDICT r4 item 7: shard-count invariance of the stream-stream
        interval join at >= 1M rows (the sf-scale test above only covers
        ~10^3 events). 2 vs 8 shards over a 1M-row synthetic stream must
        emit byte-identical (purchase_id, n_recent_clicks) rows with zero
        late drops; the spill path (collect=False) must union to the same
        frame as the collected path."""
        import shutil

        import pyarrow.parquet as pq_

        from citygml2objv2_ray.streaming import (
            stream_interval_join_path,
            synth_events,
        )

        ev = synth_events(
            "/tmp/stream_demo_test",
            n=1_000_000,
            type_names=["click", "purchase", "view", "scroll"],
        )
        ref = None
        for ns in (2, 8):
            df, stats = stream_interval_join_path(
                ev, n_shards=ns, batch_size=65536
            )
            assert stats["late_dropped"] == 0 and stats["n_processed"] == 1_000_000
            if ref is None:
                ref = df
                assert len(ref) > 100_000  # purchases actually joined
            else:
                pd.testing.assert_frame_equal(
                    df.reset_index(drop=True), ref.reset_index(drop=True)
                )
        # spill path equivalence (ADVICE r4: emitted rows must not
        # concentrate in actor memory — per-shard parquet, driver gets paths)
        paths, stats = stream_interval_join_path(
            ev, n_shards=8, batch_size=65536, collect=False
        )
        assert stats["late_dropped"] == 0
        parts = [pq_.read_table(p).to_pandas() for p in paths]
        got = (
            pd.concat(parts, ignore_index=True)
            .sort_values("purchase_id")
            .reset_index(drop=True)
            .astype({"purchase_id": np.int64, "n_recent_clicks": np.int64})
        )
        pd.testing.assert_frame_equal(got, ref.reset_index(drop=True))
        if paths:
            shutil.rmtree(os.path.dirname(paths[0]), ignore_errors=True)
