"""Streaming windowed aggregation + streaming dedup with watermarks and
late-data handling — the §2.F capability neither the reference (pure
batch, SURVEY.md §2.F "Streaming/windows/watermarks: none") nor Ray Data
natively has.

Semantics (the standard event-time model):

- events arrive in micro-batches in ARRIVAL order (not event-time order);
- each event lands in the tumbling window ``floor(ts / width)``;
- the WATERMARK is ``max(event ts seen) - allowed_lateness``;
- a window [w, w+width) is EMITTED (finalized) once the watermark passes
  its end; events arriving for an already-finalized window are counted in
  ``late_dropped`` instead of mutating emitted results — exactly-once
  window output.

Shape (the 100-TB form, no driver data loop): the stream is routed to a
SHARDED ACTOR POOL from inside ``map_batches`` tasks — each task
hash-routes its batch's rows by key and pushes the slices directly into
the shard actors; the driver only ever sees the finalized window rows /
spill-file paths at drain time. Keys are sharded by hash so each actor's
state is ~(keys / n_shards) and every shard keeps its OWN watermark over
its substream.

Ordered delivery under task parallelism: map_batches tasks complete in
arbitrary order, but arrival-order semantics need each shard to process
its substream in stream order. Every batch of the source is a CONTIGUOUS
range of a dense arrival-sequence column (``event_id`` for the events
table — the same column the SQL twin anchors ROW_NUMBER on); the router
stamps every slice with the batch's [lo, hi] range and sends the stamp to
EVERY shard (empty slices as ``None``), and each shard holds a reorder
buffer that applies slices strictly in sequence order. This is the same
per-partition ordered-delivery + per-shard watermark design Kafka/Flink
deployments use; the reorder buffer is bounded by the executor's in-flight
task window (backpressure), not by the stream length.

With ``allowed_lateness`` >= the stream's true disorder, nothing drops and
the finalized output EQUALS the batch tumbling-window aggregate — which
gives the streaming path a DuckDB SQL oracle for free
(q_stream_window_hourly). Sharding preserves that equality exactly: a
key's events all land in one shard and are processed in arrival order, and
a subsequence's disorder never exceeds the full stream's.

Adding an operator: ``run_sharded`` is the one runner (read → start seq →
spawn shards → route by key hash → drain → stats sum → spill or collect,
with every shard killed and the spill dir removed on failure). A new
operator is a ``_Shard`` subclass (``_WatermarkShard`` for event-time
ones) that supplies only ``_apply``/``_finish``/``stats``, plus a public
function that calls ``run_sharded`` with its columns, ``prep`` and key —
never another hand-rolled routing loop.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import numpy as np
import pandas as pd

import ray

# the dense arrival-sequence column every routed source carries
SEQ_COL = "event_id"
# emitted rows a shard buffers before writing a spill part (spill mode)
SPILL_ROWS = 65536


class _Shard:
    """Base of every shard actor: applies range-stamped micro-batch slices
    in arrival-sequence order regardless of the order the routing tasks
    deliver them, and owns the emitted-row buffer — spilled to per-shard
    parquet parts when the shard has a ``spill_dir``, kept in memory for
    ``drain`` otherwise. Subclasses supply only the operator: ``_apply``
    (one in-order slice; emitted rows go through ``_emit``), ``_finish``
    (end of stream) and ``stats``."""

    def __init__(self, start_seq: int | None = None, spill_dir: str | None = None, shard_id: int = 0):
        self._next = None if start_seq is None else int(start_seq)
        self._pending: dict[int, tuple[int, object]] = {}
        self.spill_dir = spill_dir
        self.shard_id = int(shard_id)
        self._emitted: list = []
        self._emitted_rows = 0
        self._paths: list[str] = []

    def ingest_range(self, lo: int, hi: int, df) -> bool:
        """One stamped slice of the stream (this shard's rows of the
        source batch covering arrival seq [lo, hi]; ``None`` if the shard
        owns none of them). Applies every consecutive pending slice."""
        lo, hi = int(lo), int(hi)
        if self._next is None:
            # fallback for direct/test use only: assumes the FIRST stamp
            # delivered is the stream start. The routed pipelines always
            # pass start_seq (parquet_col_min) — with parallel routers an
            # out-of-order first delivery would otherwise strand earlier
            # ranges in the buffer until drain.
            self._next = lo
        self._pending[lo] = (hi, df)
        while self._next in self._pending:
            nxt, d = self._pending.pop(self._next)
            if d is not None and len(d):
                self._apply(d)
            self._next = nxt + 1
        return True

    def _emit(self, out: pd.DataFrame) -> None:
        if len(out):
            self._emitted.append(out)
            self._emitted_rows += len(out)
            if self.spill_dir is not None and self._emitted_rows >= SPILL_ROWS:
                self._spill()

    def _output(self, out: pd.DataFrame) -> pd.DataFrame:
        """Hook: emitted rows → the operator's output schema."""
        return out

    def _rows(self):
        return self._output(pd.concat(self._emitted, ignore_index=True)) if self._emitted else None

    def _spill(self) -> None:
        import pyarrow as pa
        import pyarrow.parquet as pq

        # no makedirs: the runner owns the dir, and a shard still spilling
        # after a failed run's cleanup must not re-create it
        path = os.path.join(
            self.spill_dir, f"shard{self.shard_id:03d}-part{len(self._paths):05d}.parquet"
        )
        pq.write_table(pa.Table.from_pandas(self._rows(), preserve_index=False), path)
        self._paths.append(path)
        self._emitted, self._emitted_rows = [], 0

    def _finish(self) -> None:
        """Hook: end of stream — finalize whatever state is still open."""

    def drain(self) -> dict:
        """Routed-path terminal call: apply any slices still buffered (a gap
        here means the source's seq column wasn't dense — apply in order
        anyway rather than losing data), finalize, then return the
        spill-part paths (spill mode) or the in-memory rows, plus stats."""
        for lo in sorted(self._pending):
            _, d = self._pending.pop(lo)
            if d is not None and len(d):
                self._apply(d)
        self._finish()
        rows = None
        if self.spill_dir is None:
            rows, self._emitted = self._rows(), []
        elif self._emitted:
            self._spill()
        return {"rows": rows, "paths": self._paths, "stats": self.stats()}


@ray.remote(num_cpus=0)
class WindowedStreamAggregator(_Shard):
    """Shard actor holding open tumbling-window aggregates keyed by
    (event_type, window_start) FOR ITS KEY RANGE, with its own watermark;
    emits finalized windows as the watermark advances. ``num_cpus=0``:
    the routing tasks own the CPU slots; shard work is short bursts
    (in a real cluster these would be a dedicated pool)."""

    def __init__(self, width_us: int, allowed_lateness_us: int, **shard):
        super().__init__(**shard)
        self.width = int(width_us)
        self.lateness = int(allowed_lateness_us)
        self.open: dict[tuple, list] = {}  # (etype, wstart) → [n, sum_value]
        self.watermark = np.iinfo(np.int64).min
        self.finalized_max = np.iinfo(np.int64).min  # highest finalized window end
        self.late_dropped = 0
        self.n_processed = 0

    # window output is key-bounded (never spills): emitted rows stay the
    # dicts of the direct API below
    def _apply(self, df) -> None:
        self._emitted.extend(self.ingest(df))

    def _finish(self) -> None:
        self._emitted.extend(self.flush())

    def _rows(self) -> list[dict]:
        return self._emitted

    def ingest(self, df: pd.DataFrame) -> list[dict]:
        """One arrival-order micro-batch (event_type, ts_us, value) →
        list of finalized window rows emitted by this batch's watermark
        advance. (Direct API — the routed path goes through
        ``ingest_range`` and accumulates emissions for ``drain``.)"""
        ts = df["ts_us"].to_numpy()
        self.n_processed += len(ts)
        wstart = (ts // self.width) * self.width
        # events for windows finalized BEFORE this batch are late drops
        late = wstart < self.finalized_max
        self.late_dropped += int(late.sum())
        live = df[~late].assign(wstart=wstart[~late])
        g = live.groupby(["event_type", "wstart"], sort=False).agg(
            n=("value", "size"), sum_value=("value", "sum")
        )
        for (etype, w), row in g.iterrows():
            acc = self.open.setdefault((etype, int(w)), [0, 0.0])
            acc[0] += int(row.n)
            acc[1] += float(row.sum_value)
        if len(ts):
            self.watermark = max(self.watermark, int(ts.max()) - self.lateness)
        return self._emit_ready()

    def _emit_ready(self) -> list[dict]:
        out = []
        for (etype, w) in sorted(k for k in self.open if k[1] + self.width <= self.watermark):
            n, s = self.open.pop((etype, w))
            out.append(
                dict(event_type=etype, window_start=w, n=n, sum_value=s)
            )
            self.finalized_max = max(self.finalized_max, w + self.width)
        return out

    def flush(self) -> list[dict]:
        """End of stream: finalize every remaining open window."""
        self.watermark = np.iinfo(np.int64).max
        return self._emit_ready()

    def stats(self) -> dict:
        return {
            "late_dropped": self.late_dropped,
            "open_windows": len(self.open),
            "n_processed": self.n_processed,
        }


@ray.remote(num_cpus=0)
class StreamingDeduper(_Shard):
    """Actor pool shard for streaming exact dedup: holds the seen-key set
    for ITS hash range and emits only first occurrences, incrementally.
    Keys are sharded by hash so each actor's state is ~(distinct keys /
    n_shards) — the 100 TB form is this same pool with more shards (state
    never concentrates), exactly the brief's "shared mutable index" case
    that a stateless map can't express."""

    def __init__(self, etype_names: list[str] | None = None, **shard):
        super().__init__(**shard)
        self._seen_sorted = np.empty(0, dtype=np.int64)
        self._recent = np.empty(0, dtype=np.int64)
        self.n_dropped = 0
        # dictionary-decode hook: routed frames carry event_type as a
        # small-int code (all-int frames serialize ~10x faster through the
        # object store than per-row object strings); the string column is
        # reconstructed only at the spill/drain boundary
        self.etype_names = list(etype_names) if etype_names is not None else None

    def _output(self, out: pd.DataFrame) -> pd.DataFrame:
        if self.etype_names is None:
            return out
        codes = out.etype_code.to_numpy()
        return out.drop(columns=["etype_code", "key"]).assign(
            event_type=np.asarray(self.etype_names, dtype=object)[codes]
        )

    def _apply(self, df) -> None:
        self._emit(self.ingest(df))

    def ingest(self, df: pd.DataFrame) -> pd.DataFrame:
        """One arrival-order micro-batch slice (this shard's keys only) →
        the rows whose key is seen for the FIRST time, in arrival order.

        Seen-key state is a big SORTED array plus a small recent tier
        (merged in when it passes 64k): membership is two searchsorted
        passes. A python-set ``isin`` re-materialized the whole set as an
        object array every batch — measured as the dominant cost at 10M
        rows / 4M keys."""
        arr = df["key"].to_numpy()
        first_in_batch = ~df["key"].duplicated().to_numpy()
        novel_mask = first_in_batch & ~self._member(arr)
        out = df[novel_mask]
        if novel_mask.any():
            self._recent = np.union1d(self._recent, arr[novel_mask]) if len(self._recent) else np.unique(arr[novel_mask])
            if len(self._recent) >= 65536:
                self._seen_sorted = (
                    np.union1d(self._seen_sorted, self._recent)
                    if len(self._seen_sorted)
                    else self._recent
                )
                self._recent = self._recent[:0]
        self.n_dropped += int(len(df) - len(out))
        return out

    def _member(self, arr: np.ndarray) -> np.ndarray:
        mask = np.zeros(len(arr), dtype=bool)
        for tier in (self._seen_sorted, self._recent):
            if len(tier):
                pos = np.minimum(np.searchsorted(tier, arr), len(tier) - 1)
                mask |= tier[pos] == arr
        return mask

    def stats(self) -> dict:
        return {"n_seen": int(len(self._seen_sorted) + len(self._recent)), "n_dropped": self.n_dropped}


def routed_start_seq(path: str) -> int:
    """First arrival-seq value for a ROUTED pipeline. Raises instead of
    returning None: the reorder buffer's first-stamp fallback is safe only
    for direct single-caller/test use — under parallel routers an
    out-of-order first delivery would strand early ranges until drain and
    then apply them past the watermark (silent late-drop corruption)."""
    from .ops import parquet_col_min

    start = parquet_col_min(path, SEQ_COL)
    if start is None:
        raise ValueError(
            f"routed streaming needs the stream's first {SEQ_COL!r}; both the "
            f"parquet-footer stats and the fallback scan failed for {path}"
        )
    return start


def route_stream(ds, shards: list, key: str, prep=None, batch_size: int = 8192) -> int:
    """Push an arrival-ordered Dataset into a shard-actor pool from INSIDE
    ``map_batches`` tasks — the driver never touches the row stream. Each
    batch must be a contiguous range of the dense ``SEQ_COL``; after
    ``prep``, rows go to shard ``hash(key) % n_shards`` and the router
    stamps every shard's slice with the batch's range (``None`` for shards
    owning no rows of it) so the reorder buffers can apply slices in exact
    stream order under any task interleaving. Router tasks ``ray.get`` the
    acks, which both guarantees full completion before the terminal
    aggregate returns and gives the pool natural backpressure. Returns
    total rows routed (the terminal ``sum`` that drives execution)."""
    n_shards = np.uint64(len(shards))

    def route(df: pd.DataFrame) -> pd.DataFrame:
        seq = df[SEQ_COL].to_numpy()
        if not len(seq):
            return pd.DataFrame({"n_routed": [0]})
        lo, hi = int(seq.min()), int(seq.max())
        if hi - lo + 1 != len(df):
            raise ValueError(
                f"stream source needs a DENSE arrival-seq column; batch "
                f"[{lo},{hi}] has {len(df)} rows"
            )
        if not np.all(seq[1:] > seq[:-1]):  # restore arrival order in-batch
            df = df.iloc[np.argsort(seq, kind="stable")].reset_index(drop=True)
        if prep is not None:
            df = prep(df)
        s = pd.util.hash_pandas_object(df[key], index=False).to_numpy() % n_shards
        acks = []
        for i, shard in enumerate(shards):
            sub = df[s == i]
            acks.append(shard.ingest_range.remote(lo, hi, sub if len(sub) else None))
        ray.get(acks)
        return pd.DataFrame({"n_routed": [len(df)]})

    acks_ds = ds.map_batches(route, batch_format="pandas", batch_size=batch_size)
    return int(acks_ds.sum(on="n_routed") or 0)


def run_sharded(
    events_path: str,
    columns: list[str],
    make_shard,
    prep,
    key: str,
    n_shards: int = 4,
    batch_size: int = 8192,
    collect: bool = True,
):
    """The one runner behind every streaming operator: read ``columns`` of
    the arrival-ordered parquet source, start ``n_shards`` actors via
    ``make_shard(start_seq=, spill_dir=, shard_id=)``, route ``prep``-ed
    batches to them by ``key`` hash (``route_stream``), drain, and sum the
    shards' stats (plus ``n_shards``).

    ``collect=True`` returns (list of non-empty per-shard rows, stats) —
    rows stay in shard memory until the drain. ``collect=False`` has the
    shards spill to per-shard parquet parts under a fresh ``mkdtemp`` dir
    and returns (part paths, stats); the dir is removed when no part was
    written. On ANY failure every shard is killed and the spill dir
    removed before the error propagates."""
    import ray.data as rd

    ds = rd.read_parquet(events_path, columns=columns)
    start = routed_start_seq(events_path)
    spill_dir = None if collect else tempfile.mkdtemp(prefix="stream_spill_")
    shards: list = []
    try:
        shards = [
            make_shard(start_seq=start, spill_dir=spill_dir, shard_id=i) for i in range(n_shards)
        ]
        route_stream(ds, shards, key, prep=prep, batch_size=batch_size)
        drains = ray.get([s.drain.remote() for s in shards])
    except BaseException:
        if spill_dir is not None:
            shutil.rmtree(spill_dir, ignore_errors=True)
        raise
    finally:
        for s in shards:
            ray.kill(s)
    stats = {k: int(sum(d["stats"][k] for d in drains)) for k in drains[0]["stats"]}
    stats["n_shards"] = n_shards
    if collect:
        return [d["rows"] for d in drains if d["rows"] is not None and len(d["rows"])], stats
    paths = [p for d in drains for p in d["paths"]]
    if not paths:
        shutil.rmtree(spill_dir, ignore_errors=True)
    return paths, stats


def _int_frame(*columns: str) -> pd.DataFrame:
    return pd.DataFrame({c: np.empty(0, np.int64) for c in columns})


def _epoch_us(ts: pd.Series) -> np.ndarray:
    return ts.values.astype("datetime64[us]").astype(np.int64)


def _collected(parts: list[pd.DataFrame], columns: list[str], order: list[str]) -> pd.DataFrame:
    """Collect-mode output: the shards' rows as one frame in ``columns``
    order, sorted by ``order``."""
    df = pd.concat(parts, ignore_index=True) if parts else pd.DataFrame(columns=columns)
    return df[columns].sort_values(order).reset_index(drop=True)


def stream_window(
    events_path: str,
    width_us: int = 3_600_000_000,
    allowed_lateness_us: int = 86_400_000_000,
    batch_size: int = 8192,
    n_shards: int = 4,
) -> tuple[pd.DataFrame, dict]:
    """Sharded streaming tumbling-window aggregate over an events parquet
    table (event_id, event_type, ts, value), arrival order = read order =
    event_id order. No driver data loop: ``route_stream`` pushes the rows
    shard-ward from map_batches tasks; the driver collects only the
    finalized window rows at drain. With default lateness >= the table's
    disorder, the result equals the batch tumbling window."""

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"event_type": df.event_type, "ts_us": _epoch_us(df.ts), "value": df.value}
        )

    parts, stats = run_sharded(
        events_path,
        ["event_id", "event_type", "ts", "value"],
        lambda **kw: WindowedStreamAggregator.remote(width_us, allowed_lateness_us, **kw),
        prep,
        "event_type",
        n_shards=n_shards,
        batch_size=batch_size,
    )
    emitted = [r for rows in parts for r in rows]
    df = pd.DataFrame(emitted, columns=["event_type", "window_start", "n", "sum_value"])
    if len(df):
        df["window_start"] = (df.window_start // 1_000_000).astype(np.int64)  # epoch s
        df["n"] = df.n.astype(np.int64)
        df["sum_value"] = df.sum_value.round(4)
    return df.sort_values(["event_type", "window_start"]).reset_index(drop=True), stats


def stream_window_hourly(
    sf_dir: str,
    width_us: int = 3_600_000_000,
    allowed_lateness_us: int = 86_400_000_000,
    batch_size: int = 8192,
    n_shards: int = 4,
) -> tuple[pd.DataFrame, dict]:
    """`stream_window` over the driver events table of ``sf_dir``."""
    from .relational import _t

    return stream_window(_t(sf_dir, "events"), width_us, allowed_lateness_us, batch_size, n_shards)


from .relational import query  # noqa: E402


@query(
    "q_stream_window_hourly",
    """
    SELECT event_type,
           CAST(epoch(date_trunc('hour', ts)) AS BIGINT) AS window_start,
           COUNT(*) AS n, ROUND(SUM(value), 4) AS sum_value
    FROM events GROUP BY event_type, window_start
    ORDER BY event_type, window_start
    """,
)
def q_stream_window_hourly(sf_dir: str) -> pd.DataFrame:
    """The STREAMING path (arrival order + per-shard watermarks + late-data
    drops, routed to the shard pool from map_batches tasks) must finalize
    to exactly the batch tumbling-window answer when allowed_lateness
    covers the stream's disorder — the DuckDB twin is the batch window
    SQL."""
    return stream_window_hourly(sf_dir)[0]


def stream_dedup_first(
    sf_dir: str, n_shards: int = 4, batch_size: int = 8192, collect: bool = True
):
    """Streaming exact dedup of the driver events table on
    (user_id, event_type) — see ``stream_dedup_path``."""
    from .relational import _t

    return stream_dedup_path(_t(sf_dir, "events"), n_shards, batch_size, collect)


def stream_dedup_path(
    events_path: str, n_shards: int = 4, batch_size: int = 8192, collect: bool = True
):
    """Streaming exact dedup of an events table on (user_id, event_type)
    in ARRIVAL order, sharded by key hash across the actor pool and FED
    FROM map_batches tasks (no driver data loop): every shard emits its
    first occurrences incrementally; the union of the shards' output is
    the keep-first dedup of the whole stream. With arrival order == table
    order, the finalized output EQUALS the batch keep-first-by-arrival
    dedup — a free SQL oracle, like the windowed stream above.

    ``collect=True`` returns (DataFrame sorted by arrival, stats);
    ``collect=False`` has the shards spill to per-shard parquet parts and
    returns (spill paths, stats) — the 100-TB form, where the output stays
    a partitioned parquet dataset."""
    import duckdb

    # dictionary-encode event_type ONCE (driver-side distinct scan of the
    # one column) so every routed frame is all-int: the original per-row
    # string key build + object-dtype slices through the object store were
    # the measured bottleneck at 10M rows (0.16M rows/s; int frames ~1M)
    etypes = sorted(
        r[0]
        for r in duckdb.sql(
            f"SELECT DISTINCT event_type FROM read_parquet('{events_path}')"
        ).fetchall()
    )
    et_arr = np.array(etypes, dtype=object)
    n_et = len(etypes)

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        code = np.searchsorted(et_arr, df.event_type.to_numpy())
        uid = df.user_id.to_numpy(np.int64)
        return pd.DataFrame(
            {
                "event_id": df.event_id.to_numpy(np.int64),
                "user_id": uid,
                "etype_code": code.astype(np.int16),
                "key": uid * np.int64(n_et) + code,
            }
        )

    parts, stats = run_sharded(
        events_path,
        ["event_id", "user_id", "event_type"],
        lambda **kw: StreamingDeduper.remote(etype_names=etypes, **kw),
        prep,
        "key",
        n_shards=n_shards,
        batch_size=batch_size,
        collect=collect,
    )
    if not collect:
        return parts, stats
    # each key's first arrival is unique, so sorting by the arrival seq
    # (event_id) restores global arrival order across shards
    return _collected(parts, ["event_id", "user_id", "event_type"], ["event_id"]), stats


@query(
    "q_stream_dedup",
    """
    SELECT event_id, user_id, event_type
    FROM (SELECT event_id, user_id, event_type,
                 ROW_NUMBER() OVER (PARTITION BY user_id, event_type
                                    ORDER BY event_id) AS rn
          FROM events)
    WHERE rn = 1 ORDER BY event_id
    """,
)
def q_stream_dedup(sf_dir: str) -> pd.DataFrame:
    """Streaming keep-first dedup (sharded stateful actor pool fed from
    map_batches tasks, incremental emission) must equal the batch
    keep-first-by-arrival-order dedup. Arrival order is the parquet read
    order, which for the events table is event_id order — so the SQL twin
    anchors ROW_NUMBER on event_id (deterministic under any DuckDB scan
    parallelism)."""
    return stream_dedup_first(sf_dir)[0]


class _WatermarkShard(_Shard):
    """Event-time shard: events below the shard watermark (max ``e`` seen
    minus ``allowed_lateness``) are dropped and counted; the rest go to
    ``_buffer`` and ``_finalize_ready`` emits what the watermark has made
    final. Finalizing runs in WATERMARK QUANTA (once the watermark has
    advanced by >= ``quantum_us``, and at end of stream), not per slice:
    a finalize pass re-sorts the pending backlog (bounded by the lateness
    horizon), and running it less often changes NO output — late drops
    depend on the watermark alone and finality is monotone in it."""

    def __init__(self, quantum_us: int, allowed_lateness_us: int, **shard):
        super().__init__(**shard)
        self.quantum = int(quantum_us)
        self.lateness = int(allowed_lateness_us)
        self.watermark = np.iinfo(np.int64).min
        self._last_finalize_wm = np.iinfo(np.int64).min
        self.late_dropped = 0
        self.n_processed = 0

    def _apply(self, df: pd.DataFrame) -> None:
        self.n_processed += len(df)
        e = df.e.to_numpy()
        late = e < self.watermark
        self.late_dropped += int(late.sum())
        self._buffer(df[~late])
        self.watermark = max(self.watermark, int(e.max()) - self.lateness)
        if self.watermark - self._last_finalize_wm >= self.quantum:
            self._finalize_ready()
            self._last_finalize_wm = self.watermark

    def _finish(self) -> None:
        self.watermark = np.iinfo(np.int64).max
        self._finalize_ready()


@ray.remote(num_cpus=0)
class StreamingSessionizer(_WatermarkShard):
    """Shard actor for streaming SESSION windows (30-min inactivity gap):
    holds the pending (not-yet-finalizable) events of ITS user-hash range
    plus a per-user emitted-session counter, and finalizes a session as
    soon as the shard watermark passes ``session_end + gap`` — at that
    point no in-lateness event can extend or merge it, so emission is
    exactly-once and (with lateness >= the stream's disorder) the union of
    emissions EQUALS the batch sessionization, giving the streaming path
    q_sessionize's SQL twin for free. Events arriving below the watermark
    are dropped and counted (same contract as the window aggregator).

    State per shard is bounded by the lateness horizon: pending holds only
    events within (watermark, max_ts] plus open session tails — nothing
    grows with stream length."""

    def __init__(self, gap_us: int, allowed_lateness_us: int, **shard):
        super().__init__(gap_us, allowed_lateness_us, **shard)
        self.gap = int(gap_us)
        self._pending_df = _int_frame("user_id", "event_id", "e")
        self._sess_count: dict = {}  # user_id → sessions emitted so far

    def _buffer(self, live: pd.DataFrame) -> None:
        # live: (user_id, event_id, e) — e = event-time epoch µs
        self._pending_df = pd.concat([self._pending_df, live], ignore_index=True)

    def _finalize_ready(self) -> None:
        g = self._pending_df
        if not len(g):
            return
        g = g.sort_values(["user_id", "e", "event_id"], kind="stable").reset_index(drop=True)
        u = g.user_id.to_numpy()
        e = g.e.to_numpy()
        new_user = np.concatenate([[True], u[1:] != u[:-1]])
        new_s = new_user | np.concatenate([[True], np.diff(e) > self.gap])
        run_id = np.cumsum(new_s) - 1  # 0-based maximal-run index
        # a run is final iff no in-lateness event can still extend it:
        # watermark > run_end + gap (run_end = max e of the run)
        run_end = np.zeros(run_id[-1] + 1, dtype=np.int64)
        np.maximum.at(run_end, run_id, e)
        final_run = run_end + self.gap < self.watermark
        fin_mask = final_run[run_id]
        fin = g[fin_mask]
        self._pending_df = g[~fin_mask]
        if not len(fin):
            return
        rid = run_id[fin_mask]
        starts = np.flatnonzero(np.concatenate([[True], rid[1:] != rid[:-1]]))
        fu = fin.user_id.to_numpy()[starts]
        fe = fin.e.to_numpy()
        counts = np.diff(np.concatenate([starts, [len(fin)]]))
        ends = fe[np.concatenate([starts[1:] - 1, [len(fin) - 1]])]
        # per-user session numbering continues across finalizations; runs
        # of one user finalize in time order by construction (a later run
        # can only finalize at a later-or-equal watermark)
        sid = np.empty(len(starts), dtype=np.int64)
        for j, user in enumerate(fu):
            nxt = self._sess_count.get(user, 0) + 1
            self._sess_count[user] = nxt
            sid[j] = nxt
        self._emit(
            pd.DataFrame(
                {
                    "user_id": fu,
                    "session_id": sid,
                    "n_events": counts.astype(np.int64),
                    "session_start": fe[starts].astype(np.int64),
                    "session_end": ends.astype(np.int64),
                }
            )
        )

    def stats(self) -> dict:
        return {
            "late_dropped": self.late_dropped,
            "n_processed": self.n_processed,
            "pending": len(self._pending_df),
        }


def stream_sessionize_path(
    events_path: str,
    gap_us: int = 1_800_000_000,
    allowed_lateness_us: int = 86_400_000_000,
    batch_size: int = 8192,
    n_shards: int = 4,
    collect: bool = True,
):
    """Sharded streaming sessionization of an events parquet table (30-min
    gap), routed from map_batches tasks like the other streaming operators
    — no driver data loop. ``collect=True`` returns the finalized session
    frame (oracle path, output is key-bounded at sf scale);
    ``collect=False`` has the shards SPILL finalized sessions to per-shard
    parquet and returns (paths, stats) — the 100-TB form, since session
    output is corpus-scale."""

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"user_id": df.user_id, "event_id": df.event_id, "e": _epoch_us(df.ts)})

    parts, stats = run_sharded(
        events_path,
        ["event_id", "user_id", "ts"],
        lambda **kw: StreamingSessionizer.remote(gap_us, allowed_lateness_us, **kw),
        prep,
        "user_id",
        n_shards=n_shards,
        batch_size=batch_size,
        collect=collect,
    )
    if not collect:
        return parts, stats
    df = _collected(
        parts,
        ["user_id", "session_id", "n_events", "session_start", "session_end"],
        ["user_id", "session_id"],
    )
    return df.astype({c: np.int64 for c in df.columns[1:]}), stats


def stream_sessionize(
    sf_dir: str,
    gap_us: int = 1_800_000_000,
    allowed_lateness_us: int = 86_400_000_000,
    batch_size: int = 8192,
    n_shards: int = 4,
) -> tuple[pd.DataFrame, dict]:
    """`stream_sessionize_path` over the driver events table of ``sf_dir``."""
    from .relational import _t

    return stream_sessionize_path(
        _t(sf_dir, "events"), gap_us, allowed_lateness_us, batch_size, n_shards
    )


@query(
    "q_stream_sessionize",
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
def q_stream_sessionize(sf_dir: str) -> pd.DataFrame:
    """STREAMING session windows (sharded stateful pool, watermark-expired
    sessions, exactly-once emission) must finalize to exactly the batch
    sessionization when allowed_lateness covers the stream's disorder —
    the DuckDB twin is q_sessionize's batch SQL."""
    return stream_sessionize(sf_dir)[0]


@ray.remote(num_cpus=0)
class StreamingIntervalJoiner(_WatermarkShard):
    """Shard actor for a STREAM-STREAM windowed (interval) join: count the
    left-stream events ('click') in the ``window_us`` up to each
    right-stream event ('purchase'), per user — the streaming form of
    ``q_interval_join``. State is bounded by the (window + lateness)
    horizon, never the stream:

    - a purchase FINALIZES once the watermark passes its event time (no
      in-lateness click with e <= purchase_e can still arrive), emitting
      (purchase_id, n_recent_clicks) exactly once;
    - clicks are PRUNED once ``e < watermark - window`` — every purchase
      that could still count them has finalized or will look later;
    - events below the watermark at arrival drop and count (both streams).

    Counting inside a finalize pass is the same double backward
    ``merge_asof`` against the per-user click cumcount as the batch
    operator (O((C+P) log), no pair expansion), run once per watermark
    quantum. With lateness >= the stream's disorder nothing drops and the
    emitted rows EQUAL the batch interval join — q_interval_join's SQL
    twin checks the streaming path for free."""

    def __init__(self, window_us: int, allowed_lateness_us: int, **shard):
        super().__init__(window_us, allowed_lateness_us, **shard)
        self.window = int(window_us)
        self._clicks = _int_frame("user_id", "e")
        self._purchases = _int_frame("user_id", "event_id", "e")

    def _buffer(self, live: pd.DataFrame) -> None:
        # live: (user_id, event_id, event_type, e)
        ck = live[live.event_type == "click"][["user_id", "e"]]
        pu = live[live.event_type == "purchase"][["user_id", "event_id", "e"]]
        self._clicks = pd.concat([self._clicks, ck], ignore_index=True)
        self._purchases = pd.concat([self._purchases, pu], ignore_index=True)

    def _finalize_ready(self) -> None:
        pur = self._purchases
        fin_mask = pur.e.to_numpy() < self.watermark
        self._purchases = pur[~fin_mask]
        if fin_mask.any():
            self._emit(self._count_window(pur[fin_mask]))
        self._prune_clicks()

    def _count_window(self, pur: pd.DataFrame) -> pd.DataFrame:
        ck = self._clicks.sort_values(["e", "user_id"], kind="stable")
        ck = ck.assign(cum=ck.groupby("user_id", sort=False).cumcount().to_numpy() + 1)
        hi = pur.sort_values("e", kind="stable")
        a1 = pd.merge_asof(hi, ck, on="e", by="user_id", direction="backward")
        lo = hi.assign(e=hi.e - self.window - 1)
        a2 = pd.merge_asof(
            lo.sort_values("e", kind="stable"), ck, on="e", by="user_id", direction="backward"
        )
        c_hi = a1.set_index("event_id").cum.fillna(0)
        c_lo = a2.set_index("event_id").cum.fillna(0)
        n = (c_hi - c_lo.reindex(c_hi.index).fillna(0)).astype(np.int64)
        return pd.DataFrame(
            {"purchase_id": n.index.to_numpy(np.int64), "n_recent_clicks": n.to_numpy()}
        )

    def _prune_clicks(self) -> None:
        keep = self._clicks.e.to_numpy() >= self.watermark - self.window
        self._clicks = self._clicks[keep]

    def stats(self) -> dict:
        return {
            "late_dropped": self.late_dropped,
            "n_processed": self.n_processed,
            "clicks_buffered": len(self._clicks),
        }


def stream_interval_join(
    sf_dir: str,
    window_us: int = 1_800_000_000,
    allowed_lateness_us: int = 86_400_000_000,
    batch_size: int = 8192,
    n_shards: int = 4,
) -> tuple[pd.DataFrame, dict]:
    """Sharded streaming interval join over the driver events table — see
    ``stream_interval_join_path``."""
    from .relational import _t

    return stream_interval_join_path(
        _t(sf_dir, "events"), window_us, allowed_lateness_us, batch_size, n_shards
    )


def stream_interval_join_path(
    events_path: str,
    window_us: int = 1_800_000_000,
    allowed_lateness_us: int = 86_400_000_000,
    batch_size: int = 8192,
    n_shards: int = 4,
    collect: bool = True,
):
    """Sharded streaming interval join over an events table, routed from
    map_batches tasks like the other streaming operators. Emitted
    (purchase_id, n_recent_clicks) rows scale with the purchase stream,
    so with ``collect=False`` each shard spills them to per-shard parquet
    and the driver receives only file paths (the 100-TB form, same spill
    contract as dedup/sessionize)."""

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": df.user_id,
                "event_id": df.event_id,
                "event_type": df.event_type,
                "e": _epoch_us(df.ts),
            }
        )

    parts, stats = run_sharded(
        events_path,
        ["event_id", "user_id", "event_type", "ts"],
        lambda **kw: StreamingIntervalJoiner.remote(window_us, allowed_lateness_us, **kw),
        prep,
        "user_id",
        n_shards=n_shards,
        batch_size=batch_size,
        collect=collect,
    )
    if not collect:
        return parts, stats
    return _collected(parts, ["purchase_id", "n_recent_clicks"], ["purchase_id"]).astype(np.int64), stats


@query(
    "q_stream_interval_join",
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
def q_stream_interval_join(sf_dir: str) -> pd.DataFrame:
    """STREAM-STREAM windowed join (sharded stateful pool, watermark-
    finalized purchases, horizon-pruned click buffers, exactly-once
    emission) must equal the batch interval join when allowed_lateness
    covers the stream's disorder — the DuckDB twin is q_interval_join's
    batch SQL."""
    return stream_interval_join(sf_dir)[0]


def synth_events(
    out_dir: str,
    n: int = 10_000_000,
    n_types: int = 8,
    n_users: int = 500_000,
    seed: int = 5,
    type_names: list[str] | None = None,
) -> str:
    """Deterministic synthetic events table for the streaming SCALE demos
    (cached under ``out_dir`` keyed by params, same pattern as
    ``dedup.synth_documents``): dense arrival-seq ``event_id`` 0..n-1 in
    row order, ~30-day event-time span with ±1 h jitter (disorder far
    below the default 24 h lateness, so the stream equals the batch
    window/sessionization), ``n_types`` event types, ``n_users`` users
    (the sessionizer's key space), 64k row groups so Ray splits the read
    into ~n/65536 blocks."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from .state.checkpoint import publish

    tag = "" if type_names is None else "-" + "_".join(type_names)[:40]
    path = os.path.join(
        out_dir, f"events-n{n}-t{n_types}-u{n_users}-s{seed}{tag}-v2.parquet"
    )
    if os.path.exists(path):
        return path
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    base = 1_700_000_000_000_000  # epoch µs
    span = 30 * 86_400_000_000
    step = span // max(n, 1)
    ts = base + np.arange(n, dtype=np.int64) * step + rng.integers(
        -3_600_000_000, 3_600_000_000, size=n, dtype=np.int64
    )
    if type_names is not None:
        types = np.array(list(type_names), dtype=object)
        n_types = len(types)
    else:
        types = np.array([f"type_{i:02d}" for i in range(n_types)], dtype=object)
    t = pa.table(
        {
            "event_id": pa.array(np.arange(n, dtype=np.int64)),
            "event_type": pa.array(types[rng.integers(0, n_types, size=n)]),
            "user_id": pa.array(rng.integers(0, n_users, size=n, dtype=np.int64)),
            "ts": pa.array(ts, type=pa.timestamp("us")),
            "value": pa.array(rng.random(n)),
        }
    )
    with publish(path) as tmp:
        pq.write_table(t, tmp, row_group_size=65536)
    return path
