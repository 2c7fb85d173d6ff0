"""bench.py's final stdout line stays short enough to be read back whole
from a 2000-character output tail, whatever the number of queries."""

from __future__ import annotations

import importlib.util
import json
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bench():
    spec = importlib.util.spec_from_file_location("bench", os.path.join(REPO, "bench.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_headline_line_short_and_parses(tmp_path):
    bench = _bench()
    # as many query timings as a full bench run records (about 80)
    queries = {f"q_secondary_pipeline_{i:02d}": 1.234 + i for i in range(80)}
    queries.update({"stream_window_10m": 17.08, "stream_window_10m_rows_s": 585480})
    result = {
        "metric": "spatial-join + tile-assignment throughput",
        "value": 2.345,
        "unit": "sec",
        "queries": queries,
        "sf": 0.1,
        "num_cpus": 32,
        "rows": 100000,
        "throughput_rows_s": 42643.9,
    }
    assert len(json.dumps(result)) > 2000  # the full record would overflow
    record = str(tmp_path / "bench-record.json")
    line = bench.headline_line(result, record)
    assert len(line) <= 1500
    head = json.loads(line)
    assert list(head)[:4] == ["metric", "value", "unit", "throughput_rows_s"]
    assert head["value"] == 2.345 and head["record"] == record


def test_record_holds_the_full_result(tmp_path, monkeypatch):
    bench = _bench()
    monkeypatch.setattr(bench, "RECORD_DIR", str(tmp_path))
    result = {"metric": "m", "value": 1.0, "queries": {"q1": 0.5}}
    path = bench.write_record(result)
    assert os.path.dirname(path) == str(tmp_path)
    with open(path) as f:
        assert json.load(f) == result
