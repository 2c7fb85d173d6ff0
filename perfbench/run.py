#!/usr/bin/env python3
"""Benchmark of citygml2objv2_ray: one workload per invocation.

    python3 perfbench/run.py --workload flagship --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py): ``flagship``, ``convert`` (both output
modes per job) and ``neardup``; BENCHMARK.json lists the first two, and the
layers of all three are traced in every traced run. One driver process
starts Ray with ``num_cpus`` equal to the host's CPU count and runs the
workload as a closed loop: one batch job at a time, the next starting only
after the previous one returned and its output passed the workload's check.

A run:

1. generates the inputs from ``--seed`` (once; cached under ``.perfbench/``);
2. sets up three times -- start Ray and load the inputs -- and runs the first
   job after each set-up on cold worker processes (with ``--trace 1``, once);
3. runs jobs until ``--seconds`` have passed (the steady state);
4. with ``--trace 1``: times an identity ``map_batches`` floor over the same
   input blocks, then makes a traced pass per workload (this one first, the
   others over their own inputs from the same seed) that calls each layer
   from the benchmark's own code with a span around each call.

End-to-end metrics (``--trace 0``): ``rows_s`` (input rows per second of
the median steady job, taken over the half of the steady jobs with the least
CPU steal, see ``quiet_median``), ``setup_s`` (median set-up), ``first_s``
(median first job), ``peak_mem_mb`` (peak RSS summed over this process and
every process it started, read from /proc). ``failed_frac`` and the input
generation time ``gen_s`` are in the full record. Per-layer metrics
(``--trace 1``): ``<layer>.busy_s`` and the layer's counts for every
workload's layers, ``ray.overhead_s`` (that steady job minus the summed
busy time of this workload's layers), ``ray.floor_s``, ``host.control_s``
(a fixed single-process zlib+numpy kernel, as a host-drift control) and
``trace.overhead_ratio``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record (every job's wall
time and check, spans, reconciliation) is written to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time
import traceback
import uuid
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
SETUP_ROUNDS = 3
OBJECT_STORE_BYTES = 512 << 20


# ---------------------------------------------------------------------------
# processes: Ray start/stop, RSS of the process tree
# ---------------------------------------------------------------------------


def _children() -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        out.setdefault(ppid, []).append(int(d))
    return out


def descendants(pid: int) -> list[int]:
    kids = _children()
    out, stack = [], list(kids.get(pid, []))
    while stack:
        p = stack.pop()
        out.append(p)
        stack.extend(kids.get(p, []))
    return out


def _rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 1e6
    except (OSError, IndexError, ValueError):
        return 0.0


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class PeakRss:
    """Samples the summed RSS of this process and its descendants (Ray's
    GCS, raylet and worker processes) in a background thread."""

    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.peak = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self) -> None:
        me = os.getpid()
        total = _rss_mb(me) + sum(_rss_mb(p) for p in descendants(me))
        self.peak = max(self.peak, total)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def start(self) -> None:
        self._sample()
        self._thread.start()

    def stop(self) -> None:
        if self._thread.is_alive():
            self._stop.set()
            self._thread.join()
            self._sample()


@functools.cache
def ray_temp_dir() -> str:
    """Ray's session dir, inside the work dir. Ray's sockets live under it
    and a socket path may not exceed 107 bytes (``/session_<date>_<pid>``
    and ``/sockets/plasma_store`` take up to 64 with a 7-digit pid), so a
    longer work dir is named through a directory fd that this process holds
    open for its whole life. Session dirs of earlier runs are removed."""
    d = os.path.join(WORK, "ray")
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    if len(d) <= 40:
        return d
    return f"/proc/{os.getpid()}/fd/{os.open(d, os.O_RDONLY | os.O_DIRECTORY)}"


def start_ray(attempts: int = 3) -> None:
    """Start a local Ray with one CPU slot per CPU this process may run on
    and a fixed object store (the inputs are tens of MB), so that neither
    depends on how much memory the host has free right now. A start that
    fails (a slow host can miss Ray's start-up timeouts) is cleaned up and
    tried again."""
    import logging

    import ray

    for i in range(attempts):
        try:
            ray.init(
                address="local",
                num_cpus=len(os.sched_getaffinity(0)),
                object_store_memory=OBJECT_STORE_BYTES,
                include_dashboard=False,
                logging_level="ERROR",
                log_to_driver=False,
                _temp_dir=ray_temp_dir(),
            )
            break
        except Exception:
            if i == attempts - 1:
                raise
            traceback.print_exc()
            stop_ray()
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def stop_ray(timeout: float = 15.0) -> None:
    """Shut Ray down and wait until every process this driver started has
    ended (killing any that outlive ``timeout``)."""
    import ray

    pids = descendants(os.getpid())
    ray.shutdown()
    deadline = time.monotonic() + timeout
    while any(_alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    for p in pids:
        if _alive(p):
            try:
                os.kill(p, signal.SIGKILL)
            except OSError:
                pass
    while any(_alive(p) for p in pids):
        time.sleep(0.05)


# ---------------------------------------------------------------------------
# host-drift control
# ---------------------------------------------------------------------------


def host_control(seed: int = 0, reps: int = 10) -> float:
    """A fixed single-process kernel with the decode-type instruction mix of
    the flagship (zlib over 1 MiB of seeded random bytes, built with numpy):
    its wall time tracks how fast this host is right now."""
    import numpy as np

    data = np.random.default_rng(seed).integers(0, 256, size=1 << 20, dtype=np.uint8).tobytes()
    t0 = time.perf_counter()
    for _ in range(reps):
        zlib.decompress(zlib.compress(data, 1))
    return time.perf_counter() - t0


def cpu_ticks() -> tuple[int, int]:
    """(all, steal) CPU ticks of the machine so far, from /proc/stat. Steal
    is time the hypervisor of a virtual machine gave its CPUs to other
    guests."""
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:9]]
    return sum(ticks), ticks[7]


def quiet_median(walls: list[float], steal: list[float]) -> float:
    """Median wall time of the half of the jobs with the lowest steal share.
    Steal comes in bursts, and a parallel job that runs through one waits for
    its slowest worker (up to 2x slower on a shared host); a program change
    does not move the steal share, so the selection favours no version."""
    quiet = sorted(zip(steal, walls))[: (len(walls) + 1) // 2]
    return _median([w for _, w in quiet])


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


class Loop:
    """Runs one workload's jobs one at a time and records each one."""

    def __init__(self, wl, state: dict):
        self.wl = wl
        self.state = state
        self.jobs: list[dict] = []

    def job(self, kind: str) -> dict:
        out = os.path.join(WORK, "runs", uuid.uuid4().hex[:12])
        rec = {"kind": kind, "ok": False}
        try:
            c0, t0 = cpu_ticks(), time.perf_counter()
            res = self.wl.run(self.state, out)
            rec["wall_s"] = time.perf_counter() - t0
            c1 = cpu_ticks()
            rec["steal"] = (c1[1] - c0[1]) / max(1, c1[0] - c0[0])
            digest = self.wl.check(self.state, res, out)
            first = self.state.setdefault("digest", digest)
            if digest != first:
                raise AssertionError(f"output digest {digest} != first run's {first}")
            rec["ok"] = True
        except Exception:  # a failed job is counted, recorded and the loop goes on
            rec["error"] = traceback.format_exc(limit=4)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        self.jobs.append(rec)
        return rec


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else float("nan")


def bench(name: str, seed: int, seconds: float, trace: bool, scale: float) -> dict:
    # imported before the timed set-ups: the first set-up of a process would
    # otherwise also pay for importing Ray
    import ray.data  # noqa: F401
    import workloads
    from spans import span_cost_s

    wl = workloads.make(name, scale)
    cache = os.path.join(WORK, "inputs")
    os.makedirs(cache, exist_ok=True)
    t0 = time.perf_counter()
    inputs = wl.generate(cache, seed)
    gen_s = time.perf_counter() - t0

    control = [host_control()]
    setup: list[float] = []
    first: list[float] = []
    steady: list[float] = []
    steal: list[float] = []
    floor: list[float] = []
    passes: dict = {}
    rounds = 1 if trace else SETUP_ROUNDS
    mem = PeakRss()
    loop = None
    try:
        # set-up and the cold first job are repeated for their medians; the
        # steady state runs on the last set-up
        for i in range(rounds):
            if i:
                stop_ray()
            t0 = time.perf_counter()
            start_ray()
            state = wl.load(inputs)
            setup.append(time.perf_counter() - t0)
            if loop is None:
                loop = Loop(wl, state)
            else:  # keeps what the checks stored (reference digest, pairs)
                loop.state.update(state)
            if i == rounds - 1:
                mem.start()
            rec = loop.job("first")
            if rec["ok"]:
                first.append(rec["wall_s"])
        t_end = time.perf_counter() + seconds
        while time.perf_counter() < t_end or len(steady) < 2:
            rec = loop.job("steady")
            if rec["ok"]:
                steady.append(rec["wall_s"])
                steal.append(rec["steal"])
            elif len([j for j in loop.jobs if not j["ok"]]) > 3:
                break
        mem.stop()
        control.append(host_control())

        if trace:
            for _ in range(3):
                t0 = time.perf_counter()
                try:
                    wl.floor(loop.state)
                except Exception:
                    loop.jobs.append({
                        "kind": "floor", "ok": False, "error": traceback.format_exc(limit=4),
                    })
                    break
                floor.append(time.perf_counter() - t0)
            # every workload's layers are traced, this one's first, so that
            # every per-layer metric is measured in every traced run
            for other in workloads.NAMES:
                w = wl if other == name else workloads.make(other, scale)
                try:
                    st = loop.state if w is wl else w.load(w.generate(cache, seed))
                    passes[other] = traced_pass(w, st)
                except Exception:
                    loop.jobs.append({
                        "kind": f"traced {other}", "ok": False,
                        "error": traceback.format_exc(limit=4),
                    })
    finally:
        mem.stop()
        stop_ray()

    jobs = loop.jobs if loop else []
    steady_s = quiet_median(steady, steal)
    failed = sum(1 for j in jobs if not j["ok"])
    rows = loop.state["rows"] if loop else 0
    result = {
        "workload": name,
        "seed": seed,
        "rows": rows,
        "row_unit": wl.row_unit,
        "num_cpus": len(os.sched_getaffinity(0)),
        "gen_s": gen_s,
        "setup_s": setup,
        "first_s": first,
        "steady_s": steady,
        "steady_steal": steal,
        "steady_quiet_s": steady_s,
        "host_control_s": control,
        "attempted": len(jobs),
        "failed": failed,
        "failed_frac": failed / len(jobs) if jobs else 1.0,
        "jobs": jobs,
        "e2e": {
            "rows_s": rows / steady_s if steady else 0.0,
            "setup_s": _median(setup),
            "first_s": _median(first),
            "peak_mem_mb": mem.peak,
        },
    }
    if trace:
        layers: dict = {}
        for tr, counts, _ in passes.values():
            layers.update({f"{k}.busy_s": v for k, v in tr.self_time().items() if k != "pass"})
            layers.update(counts)
        own = passes.get(name)
        busy_sum = sum(layers.get(f"{k}.busy_s", 0.0) for k in wl.layers)
        overhead = steady_s - busy_sum
        floor_s = _median(floor)
        layers.update({
            "ray.overhead_s": overhead,
            "ray.floor_s": floor_s,
            "host.control_s": _median(control),
            "trace.overhead_ratio": len(own[0].spans) * span_cost_s() / own[2] if own else 0.0,
        })
        result["per_layer"] = layers
        # the untraced steady job = this workload's layer busy time (traced
        # pass) + ray.overhead_s; the identity floor says how much of that
        # overhead the empty pipeline alone costs
        result["reconcile"] = {
            "steady_s": steady_s,
            "layer_busy_s": busy_sum,
            "ray_overhead_s": overhead,
            "ray_floor_s": floor_s,
            "overhead_minus_floor_s": overhead - floor_s,
            "busy_share_of_steady": busy_sum / steady_s,
            "accounted": 0.0 <= overhead,
            "traced_pass_s": own[2] if own else float("nan"),
            "trace_overhead_ratio": layers["trace.overhead_ratio"],
        }
        result["spans"] = {k: tr.record() for k, (tr, _, _) in passes.items()}
    return result


def traced_pass(wl, st: dict):
    """One traced pass of ``wl`` over ``st``: (tracer, counts, pass seconds)."""
    from spans import Tracer

    tr = Tracer()
    out = os.path.join(WORK, "runs", uuid.uuid4().hex[:12])
    os.makedirs(out)
    try:
        t0 = time.perf_counter()
        with tr.span("pass"):
            counts = wl.traced(st, tr, out)
        return tr, counts, time.perf_counter() - t0
    finally:
        shutil.rmtree(out, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input size relative to the benchmark's (smoke test)")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "citygml2objv2_ray")):
        print(f"citygml2objv2_ray not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    import workloads

    if args.workload not in workloads.NAMES:
        ap.error(f"--workload: choose from {', '.join(workloads.NAMES)}")
    # Ray workers import the package (and this directory's modules) from
    # PYTHONPATH, not from the driver's sys.path
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT, HERE] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    os.environ["TMPDIR"] = os.path.join(WORK, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)

    res = bench(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    path = os.path.join(WORK, "results", f"{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(path, "w") as f:
        json.dump(res, f, indent=1, default=str)

    # the metric names and units are the ones BENCHMARK.json declares
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.trace:
        values, group = res["per_layer"], "per_layer"
    else:
        values, group = res["e2e"], "end_to_end"
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in spec[group]
    }
    missing = sorted(set(metrics) - set(values))
    if missing:
        print(f"not measured (reported as 0): {', '.join(missing)}", file=sys.stderr)
    e = res["e2e"]
    print(
        f"{args.workload}: {res['rows']} {res['row_unit']}, rows_s={e['rows_s']:.1f} rows/s, "
        f"setup_s={e['setup_s']:.3f} s, first_s={e['first_s']:.3f} s, "
        f"peak_mem_mb={e['peak_mem_mb']:.1f} MB, failed_frac={res['failed_frac']:.3f} "
        f"({res['failed']}/{res['attempted']}); full record: {os.path.relpath(path, ROOT)}"
    )
    line = {
        "correct": res["failed"] == 0 and not missing,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    print(json.dumps(line, separators=(",", ":")), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
