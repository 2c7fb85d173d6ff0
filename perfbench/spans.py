"""In-memory span recorder for the benchmark's traced pass.

Spans are recorded around calls into the program's layers, from the
benchmark's own code; nothing inside the program is instrumented. Each span
keeps its name, start, end and the span that enclosed it, and the whole list
is written out once, with the run's record, when the benchmark ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(sid)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        """Add ``value`` to the counter ``name`` (counts are taken at the
        same layer boundaries as the spans)."""
        self.counts[name] = self.counts.get(name, 0) + value

    def self_time(self) -> dict[str, float]:
        """Seconds per span name over the finished spans, each span's
        duration minus the part of it that its child spans cover."""
        done = [s for s in self.spans if "end" in s]
        child: dict[int, float] = {}
        for s in done:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in done:
            d = s["end"] - s["start"] - child.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + d
        return out

    def record(self) -> dict:
        """The spans, with times relative to the first span's start, and the
        counters, for the run's JSON record."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        rows = [
            {**s, "start": s["start"] - t0, "end": s["end"] - t0} for s in self.spans
        ]
        return {"spans": rows, "counts": self.counts}


def span_cost_s(n: int = 20000) -> float:
    """Measured cost of recording one empty span on this host; multiplied by
    a pass's span count it gives the tracing overhead of that pass."""
    tr = Tracer()
    t0 = time.perf_counter()
    for _ in range(n):
        with tr.span("x"):
            pass
    return (time.perf_counter() - t0) / n
