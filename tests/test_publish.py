"""Write-once outputs: the one ``publish`` helper, the writers that go
through it (the synthetic world, the derived-table caches) and a lint
that keeps it the only place the package renames anything."""

from __future__ import annotations

import ast
import os
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "citygml2objv2_ray"


class TestPublish:
    def test_file_lands_only_on_success(self, tmp_path):
        from citygml2objv2_ray.state.checkpoint import publish

        path = str(tmp_path / "out.txt")
        with publish(path) as tmp:
            assert tmp.startswith(str(tmp_path / ".out.txt.tmp-"))
            with open(tmp, "w") as f:
                f.write("ok")
            assert not os.path.exists(path)
        assert open(path).read() == "ok"
        assert os.listdir(tmp_path) == ["out.txt"]

    @pytest.mark.parametrize("kind", ["file", "dir"])
    def test_failure_removes_temp_and_reraises(self, tmp_path, kind):
        from citygml2objv2_ray.state.checkpoint import publish

        with pytest.raises(KeyboardInterrupt):
            with publish(str(tmp_path / "out")) as tmp:
                if kind == "dir":
                    os.makedirs(os.path.join(tmp, "sub"))
                    open(os.path.join(tmp, "sub", "x"), "w").close()
                else:
                    open(tmp, "w").close()
                raise KeyboardInterrupt
        assert os.listdir(tmp_path) == []

    def test_unpublished_part_is_invisible_to_the_resume_count(self, tmp_path):
        """A part file written but not yet moved (what a SIGKILL leaves)
        is not counted by the flagship's on-disk resume check."""
        import pyarrow as pa

        from citygml2objv2_ray.ops import parquet_num_rows
        from citygml2objv2_ray.state.checkpoint import publish

        t = pa.table({"x": [1, 2, 3]})
        pq.write_table(t, str(tmp_path / "a.parquet"))
        with publish(str(tmp_path / "b.parquet")) as tmp:
            pq.write_table(t, tmp)
            assert parquet_num_rows(str(tmp_path)) == 3
        assert parquet_num_rows(str(tmp_path)) == 6

    def test_temp_paths_are_unique(self, tmp_path):
        from citygml2objv2_ray.state.checkpoint import publish

        path = str(tmp_path / "out")
        with publish(path) as a, publish(path) as b:
            assert a != b
            open(a, "w").close()
            open(b, "w").close()
        assert os.listdir(tmp_path) == ["out"]

    def test_lost_race_keeps_the_winners_dir(self, tmp_path):
        from citygml2objv2_ray.state.checkpoint import publish

        path = str(tmp_path / "index")
        with publish(path) as loser:
            os.makedirs(loser)
            open(os.path.join(loser, "mine"), "w").close()
            with publish(path) as winner:
                os.makedirs(winner)
                open(os.path.join(winner, "theirs"), "w").close()
        assert os.listdir(tmp_path) == ["index"]
        assert os.listdir(path) == ["theirs"]

    def test_other_rename_errors_raise(self, tmp_path):
        from citygml2objv2_ray.state.checkpoint import publish

        (tmp_path / "taken").write_text("a file, not a dir")
        with pytest.raises(OSError):
            with publish(str(tmp_path / "taken")) as tmp:
                os.makedirs(tmp)
        assert os.listdir(tmp_path) == ["taken"]

    def test_nested_blocks_publish_the_marker_last(self, tmp_path):
        from citygml2objv2_ray.state.checkpoint import publish

        index, marker = str(tmp_path / "ix"), str(tmp_path / "ix.centers.npy")
        with publish(marker) as tmp_marker:
            with publish(index) as tmp_dir:
                os.makedirs(tmp_dir)
            assert os.path.isdir(index) and not os.path.exists(marker)
            with open(tmp_marker, "wb") as f:
                np.save(f, np.eye(2))
        assert np.array_equal(np.load(marker), np.eye(2))
        assert sorted(os.listdir(tmp_path)) == ["ix", "ix.centers.npy"]


class FailPartway:
    """A file whose write stores half of its data, then fails."""

    def __init__(self, f):
        self.f = f

    def write(self, data):
        self.f.write(data[: len(data) // 2])
        raise OSError("disk full")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


@pytest.mark.parametrize("writer", ["mtl", "colorbar", "query_result"])
def test_failed_write_publishes_nothing(ray_session, sf_dir, tmp_path, monkeypatch, writer):
    """A write-once output whose write fails partway leaves no file under
    its final name and no temp file (a truncated ``colormap.mtl``,
    ``colorbar.png`` or ``<query>.parquet`` would look complete)."""
    import builtins
    import functools

    from citygml2objv2_ray import job
    from citygml2objv2_ray.sinks import colorbar, obj

    out = tmp_path / "out"
    out.mkdir()
    if writer == "query_result":

        def to_parquet(df, path, *a, **k):
            with builtins.open(path, "wb") as f:
                FailPartway(f).write(b"PAR1" * 64)

        monkeypatch.setattr(pd.DataFrame, "to_parquet", to_parquet)
        monkeypatch.setenv("PYTHONPATH", os.environ.get("PYTHONPATH", ""))
        argv = ["--pipeline", "q_distinct_event_types", "--sf-dir", sf_dir]
        write = functools.partial(job.run_job, job.build_parser().parse_args([*argv, "--out", str(out)]))
    else:
        module, fn, name = {
            "mtl": (obj, obj.write_mtl, "colormap.mtl"),
            "colorbar": (colorbar, colorbar.write_colorbar, "colorbar.png"),
        }[writer]
        monkeypatch.setattr(
            module, "open", lambda *a, **k: FailPartway(builtins.open(*a, **k)), raising=False
        )
        write = functools.partial(fn, str(out / name))
    with pytest.raises(OSError, match="disk full"):
        write()
    assert list(out.iterdir()) == []


def _renames(tree: ast.AST):
    """(enclosing function, line) of every ``os.rename`` / ``os.replace``
    call, ``import os as x`` and ``from os import rename`` included."""
    os_names, direct = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            os_names |= {a.asname or a.name for a in node.names if a.name == "os"}
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            direct |= {a.asname or a.name for a in node.names if a.name in ("rename", "replace")}

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            f = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn
            if isinstance(child, ast.Call):
                c = child.func
                if (
                    isinstance(c, ast.Attribute)
                    and c.attr in ("rename", "replace")
                    and isinstance(c.value, ast.Name)
                    and c.value.id in os_names
                ) or (isinstance(c, ast.Name) and c.id in direct):
                    yield f, child.lineno
            yield from visit(child, f)

    yield from visit(tree, None)


def test_publish_is_the_only_rename():
    """Every write-once output goes through ``state.checkpoint.publish``:
    no other function of the package renames a path."""
    found = [
        (str(p.relative_to(PACKAGE)), fn, line)
        for p in sorted(PACKAGE.rglob("*.py"))
        for fn, line in _renames(ast.parse(p.read_text(), str(p)))
    ]
    assert found, "the parse saw no rename at all, not even publish's"
    allowed = ("state/checkpoint.py", "publish")
    stray = [f"{p}:{line} in {fn}()" for p, fn, line in found if (p, fn) != allowed]
    assert not stray, stray


@pytest.fixture(scope="module")
def clean_world(ray_session, tmp_path_factory):
    from citygml2objv2_ray import synth

    return synth.generate_world(str(tmp_path_factory.mktemp("clean")), 0.0005, parallelism=2)


def _world_frames(paths: dict) -> dict:
    """The world's tables; images in ``image_id`` order (their file
    order is the write's)."""
    out = {k: pq.read_table(p).to_pandas() for k, p in paths.items()}
    out["images"]["part"] = out["images"].part.astype(np.int64)
    out["images"] = out["images"].sort_values("image_id").reset_index(drop=True)
    return out


class TestWorldRegeneration:
    """A world dir without ``_DONE`` (a run killed before it finished) is
    rebuilt from scratch: Ray's ``write_parquet`` appends by default, so
    writing into the old dir again doubled the images."""

    def test_rerun_after_lost_marker_does_not_double(self, ray_session, tmp_path):
        from citygml2objv2_ray import synth

        out = str(tmp_path / "world")
        synth.generate_world(out, 0.0005, parallelism=2)
        os.remove(os.path.join(out, "_DONE"))
        paths = synth.generate_world(out, 0.0005, parallelism=2)
        ids = pq.read_table(paths["images"], columns=["image_id"])["image_id"]
        assert len(ids) == 500
        assert len(set(ids.to_pylist())) == 500
        assert os.path.exists(os.path.join(out, "_DONE"))

    def test_partial_dir_is_replaced_by_a_clean_world(self, clean_world, tmp_path):
        from citygml2objv2_ray import synth

        want = _world_frames(clean_world)
        out = tmp_path / "world"
        part0 = out / "images" / "part=0"
        part0.mkdir(parents=True)
        clean_part0 = os.path.join(clean_world["images"], "part=0")
        first = sorted(os.listdir(clean_part0))[0]
        partial = pq.read_table(os.path.join(clean_part0, first)).slice(0, 7)
        pq.write_table(partial, str(part0 / "killed-run.parquet"))
        got = _world_frames(synth.generate_world(str(out), 0.0005, parallelism=2))
        assert got.keys() == want.keys()
        for k in want:
            pd.testing.assert_frame_equal(got[k], want[k], obj=k)
        assert sorted(os.listdir(out)) == [
            "_DONE", "footprints.parquet", "images", "surfaces.parquet"
        ]


def test_partition_scan_cache_follows_a_rewritten_source(
    ray_session, sf_dir, tmp_path, monkeypatch
):
    """The pruned-scan cache is keyed on the source's identity (mtime and
    size), not its path alone: a lineitem table rewritten in place with
    other rows is re-read, not served from the first table's cache."""
    import tempfile

    from citygml2objv2_ray.relational_ext import q_partition_pruned_scan

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "cache"))
    sf = tmp_path / "sf"
    sf.mkdir()
    full = pq.read_table(os.path.join(sf_dir, "lineitem.parquet"))

    def answer(t) -> pd.DataFrame:
        df = t.to_pandas()
        df = df[df.l_returnflag == "R"]
        rev = df.l_extendedprice * (1 - df.l_discount)
        g = rev.groupby(df.l_linestatus)
        return pd.DataFrame({"n": g.size(), "revenue": g.sum()}).reset_index()

    for rows in (np.arange(0, full.num_rows, 2), np.arange(1, full.num_rows, 3)):
        table = full.take(rows)
        pq.write_table(table, str(sf / "lineitem.parquet"))
        got, want = q_partition_pruned_scan(str(sf)), answer(table)
        assert got.l_linestatus.tolist() == want.l_linestatus.tolist()
        assert got.n.tolist() == want.n.tolist()
        np.testing.assert_allclose(got.revenue, want.revenue, atol=0.006)
    assert len(os.listdir(tmp_path / "cache" / "citygml2objv2_ray_part")) == 2
