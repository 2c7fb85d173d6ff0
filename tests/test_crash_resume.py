"""Failure-injection resume (VERDICT r3 item 8): a mid-run SIGKILL of a
`job.py` flagship run must lose nothing — the resumed run skips committed
partitions, re-processes uncommitted ones from scratch (partials wiped),
and the final output equals a clean run row-for-row.

The world is sf0.1 (100k images, 13 row-range read tasks on 4 CPUs):
generating an sf0.4 world spills about 5 GB to Ray's object-store spill
directory, which fails with ``OutOfDiskError`` on a host with under
~20 GB free disk.

Marked `slow` (excluded from the default suite by pytest.ini); run with

    python -m pytest -m slow tests/test_crash_resume.py -q

Each job subprocess owns its own local Ray session (job.py semantics), so
this file does not use the shared ray_session fixture.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

pytestmark = pytest.mark.slow

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SF = 0.1


def _job_cmd(out: str) -> list[str]:
    return [
        sys.executable,
        "-m",
        "citygml2objv2_ray.job",
        "--pipeline",
        "flagship",
        "--sf",
        str(SF),
        "--out",
        out,
    ]


def _env() -> dict:
    env = dict(os.environ)
    env["RAY_ADDRESS"] = "local"
    env["PYTHONPATH"] = REPO + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _metrics(out: str) -> list[dict]:
    path = os.path.join(out, "job_metrics.jsonl")
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _complete_parts(out: str, expected: dict[str, int]) -> set[str]:
    """Partitions complete by the count-based crash-resume criterion
    (ON-DISK parquet rows == hive-layout expected rows) — the same rule
    run_flagship's resume uses when no commit marker exists. Disk, not
    lineage: the log accumulates across crashed attempts."""
    sys.path.insert(0, REPO)
    from citygml2objv2_ray.ops import parquet_num_rows

    done = set()
    data = os.path.join(out, "data")
    for p, n in expected.items():
        d = os.path.join(data, f"part={p}")
        if os.path.isdir(d) and parquet_num_rows(d) == n:
            done.add(p)
    return done


def _output_ids(out: str):
    import pyarrow.dataset as pads

    sys.path.insert(0, REPO)
    from citygml2objv2_ray.state.checkpoint import CheckpointLog

    files = CheckpointLog(out).data_files()
    d = pads.dataset(files, format="parquet")
    return d.to_table(columns=["image_id"])["image_id"].to_pylist()


class TestCrashResume:
    def test_midrun_kill_then_resume_equals_clean(self, tmp_path):
        clean_out = str(tmp_path / "clean")
        crash_out = str(tmp_path / "crash")

        # clean reference run (also warms the /tmp world cache, so the
        # crashed run's kill window lands inside the PIPELINE, not worldgen)
        r = subprocess.run(
            _job_cmd(clean_out), env=_env(), cwd=REPO, capture_output=True, timeout=900
        )
        assert r.returncode == 0, r.stderr.decode()[-2000:]
        rows_clean = _metrics(clean_out)[-1]["rows"]
        assert rows_clean == int(SF * 1_000_000)
        ids_clean = sorted(_output_ids(clean_out))

        sys.path.insert(0, REPO)
        from citygml2objv2_ray.ops import parquet_footers
        from citygml2objv2_ray.pipelines.flagship import _hive_expected_rows
        from citygml2objv2_ray.worlds import world_dir

        images_path = os.path.join(world_dir(SF), "images")
        expected = _hive_expected_rows(parquet_footers(images_path))
        assert expected and sum(expected.values()) == rows_clean

        # crashed run(s): SIGKILL the whole process group (driver + its
        # local Ray) once >=2 partitions are count-complete but the run is
        # still mid-stream — the end-of-run commit pass never executes, so
        # resume must rely on the count-based completion criterion alone.
        # TWO consecutive mid-run crashes: the second kill exercises the
        # double-crash case where accumulated lineage counts would lie but
        # on-disk footer counts cannot.
        for attempt in range(2):
            p = subprocess.Popen(
                _job_cmd(crash_out),
                env=_env(),
                cwd=REPO,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                start_new_session=True,
            )
            deadline = time.time() + 600
            complete_at_kill: set[str] = set()
            finished = False
            try:
                while time.time() < deadline:
                    complete_at_kill = _complete_parts(crash_out, expected)
                    if len(complete_at_kill) >= 2 + attempt:
                        break
                    if p.poll() is not None:
                        finished = True
                        break
                    time.sleep(0.1)
            finally:
                if p.poll() is None:
                    os.killpg(os.getpgid(p.pid), signal.SIGKILL)
                    p.wait(timeout=60)
            assert not finished, "job finished before the kill window"
            assert len(complete_at_kill) >= 2, "no kill window before the deadline"
        remaining_after_kill = set(expected) - _complete_parts(crash_out, expected)
        assert remaining_after_kill, "kills landed after completion"

        # resumed run: same --out, default resume semantics
        r2 = subprocess.run(
            _job_cmd(crash_out), env=_env(), cwd=REPO, capture_output=True, timeout=900
        )
        assert r2.returncode == 0, r2.stderr.decode()[-2000:]

        # committed output == clean run: same rows, no dupes, no losses
        ids = _output_ids(crash_out)
        assert len(ids) == len(set(ids)), "duplicated rows after resume"
        assert sorted(ids) == ids_clean
        # and the resumed run did less work than a full run (real resume)
        rows_resumed = _metrics(crash_out)[-1]["rows"]
        assert rows_resumed < rows_clean
