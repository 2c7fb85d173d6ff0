#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size, untraced and
traced, once each. Asserts that every output check passed, that every metric
named in BENCHMARK.json is reported, and that the untraced result line stays
short enough for a 2000-character tail capture.

    python3 perfbench/smoke.py [workload ...]
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MAX_LINE = 1536


def run(workload: str, trace: int) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "0.1",
    ]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {p.returncode}\n{p.stderr[-3000:]}")
    line = p.stdout.strip().splitlines()[-1]
    # the traced line carries every per-layer metric and is longer
    if not trace and len(line) > MAX_LINE:
        raise SystemExit(f"{workload} trace={trace}: result line is {len(line)} bytes")
    return json.loads(line)


def main(names: list[str]) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = names or [w["name"] for w in spec["workloads"]]
    bad = []
    for name in names:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            res = run(name, trace)
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            ok = (
                res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
                and got == want
            )
            print(f"{name} trace={trace}: {'ok' if ok else 'FAIL'} "
                  f"({res['attempted']} jobs, {res['failed']} failed)", flush=True)
            if not ok:
                bad.append((name, trace, res, sorted(set(want) ^ set(got))))
    for name, trace, res, diff in bad:
        print(f"FAILED {name} trace={trace}: metric names differing: {diff}; {res}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
