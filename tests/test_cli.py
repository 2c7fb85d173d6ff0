"""CLI flag-surface parity (CityGML2OBJs.py:197-252): each reference
invocation shape must run end-to-end through the engine and produce the
corresponding artifacts."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope="module")
def gml_dir(ray_session, tmp_path_factory):
    from citygml2objv2_ray import synth
    from citygml2objv2_ray.sources.citygml import surfaces_to_gml

    surfaces, _ = synth.make_city(8, seed=42, corruption=0.0)
    d = tmp_path_factory.mktemp("gml")
    (d / "city.gml").write_bytes(surfaces_to_gml(surfaces))
    return d


def _run(argv):
    from citygml2objv2_ray.cli import build_parser, run

    return run(build_parser().parse_args(argv))


class TestCLI:
    def test_default_convert(self, gml_dir, tmp_path):
        out = _run(["-i", str(gml_dir), "-o", str(tmp_path)])
        assert "WallSurface" in out["obj"]
        assert (tmp_path / "colormap.mtl").exists()

    def test_polypreserve_ngon_faces(self, gml_dir, tmp_path):
        """-p 1: faces are n-gons over the cleaned rings, no triangles."""
        out = _run(["-i", str(gml_dir), "-o", str(tmp_path), "-p", "1"])
        path = out["obj"]["GroundSurface"]
        faces = [
            line.split()[1:]
            for line in open(path)
            if line.startswith("f ")
        ]
        assert faces and all(len(f) == 4 for f in faces)  # ground quads stay quads
        # vertex indices valid
        n_verts = sum(1 for line in open(path) if line.startswith("v "))
        assert max(int(i) for f in faces for i in f) <= n_verts

    def test_translate_gml_write(self, gml_dir, tmp_path):
        out = _run(["-i", str(gml_dir), "-o", str(tmp_path), "-tCw", "1"])
        # the translated city.gml is city_local_.gml (CityGMLTranslation.py:309)
        assert out["translated_gml"] == [str(tmp_path / "city_local_.gml")]
        assert (tmp_path / "translation_params.txt").exists()
        assert len(out["translation_params"]) == 3
        # translated file re-parses
        from citygml2objv2_ray.sources.citygml import parse_citygml_document

        rows = parse_citygml_document((tmp_path / "city_local_.gml").read_bytes(), "d")
        assert len(rows) > 0

    def test_translated_obj_equals_convert_of_written_gml(self, ray_session, tmp_path):
        """-tCw converts the translated surfaces it writes, holes included:
        its OBJ files equal, byte for byte, a plain convert of the
        ``city_local_.gml`` it wrote, and -tC alone writes the same OBJ."""
        from citygml2objv2_ray import synth
        from citygml2objv2_ray.pipelines.convert import convert
        from citygml2objv2_ray.sources.citygml import surfaces_to_gml

        surfaces, _ = synth.make_city(4, seed=1, corruption=0.0)
        src = tmp_path / "in"
        src.mkdir()
        (src / "city.gml").write_bytes(surfaces_to_gml(surfaces))
        tcw = _run(["-i", str(src), "-o", str(tmp_path / "tcw"), "-tCw", "1"])
        tc = _run(["-i", str(src), "-o", str(tmp_path / "tc"), "-tC", "1"])
        assert tc["translation_params"] == tcw["translation_params"] != [0, 0, 0]
        # city_local_.gml is the only GML of the -tCw output dir
        want = convert(str(tmp_path / "tcw"), str(tmp_path / "want"))
        assert set(tcw["obj"]) == set(tc["obj"]) == set(want)
        for sem, path in want.items():
            body = open(path, "rb").read()
            assert open(tcw["obj"][sem], "rb").read() == body, sem
            assert open(tc["obj"][sem], "rb").read() == body, sem

    def test_failed_tcw_write_publishes_nothing(self, gml_dir, tmp_path, monkeypatch):
        """A -tCw write that fails partway leaves neither the translated
        GML, nor the params file, nor any temp file behind."""
        import builtins

        from citygml2objv2_ray import cli

        class FailPartway:
            def __init__(self, f):
                self.f = f

            def write(self, data):
                self.f.write(data[: len(data) // 2])
                raise OSError("disk full")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

        monkeypatch.setattr(
            cli, "open", lambda *a, **k: FailPartway(builtins.open(*a, **k)), raising=False
        )
        out = tmp_path / "out"
        with pytest.raises(OSError, match="disk full"):
            _run(["-i", str(gml_dir), "-o", str(out), "-tCw", "1"])
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "flags",
        ["-t 1", "-tC 1", "-tCw 1", "-s 0", "-s 0 -t 1", "-s 0 -tCw 1"],
        ids=["-t", "-tC", "-tCw", "-s 0", "-s 0 -t", "-s 0 -tCw"],
    )
    def test_translate_modes_parse_each_document_once(self, ray_session, tmp_path, monkeypatch, flags):
        """-t, -tC, -tCw and -s 0 read one parse: a counting map over the
        surfaces Dataset sees every row of every document once, though the
        translation or the opening exclusion and the conversion all read
        the surfaces."""
        from collections import Counter

        import pyarrow as pa

        from citygml2objv2_ray import synth
        from citygml2objv2_ray.sources import citygml

        src = tmp_path / "in"
        src.mkdir()
        for seed in (1, 2):
            surfaces, _ = synth.make_city(3, seed=seed, corruption=0.0)
            (src / f"city{seed}.gml").write_bytes(citygml.surfaces_to_gml(surfaces))
        log = tmp_path / "parsed.log"
        read = citygml.read_citygml

        def counting_read(paths):
            def count(b: pa.Table) -> pa.Table:
                with open(log, "a") as f:
                    f.write("".join(f"{d}\n" for d in b["doc_id"].to_pylist()))
                return b

            return read(paths).map_batches(count, batch_format="pyarrow")

        monkeypatch.setattr(citygml, "read_citygml", counting_read)
        _run(["-i", str(src), "-o", str(tmp_path / "out"), *flags.split()])
        rows = Counter(read(sorted(map(str, src.iterdir()))).to_pandas().doc_id)
        seen = Counter(log.read_text().split())
        assert len(rows) == 2
        assert {d: seen[d] / n for d, n in rows.items()} == {d: 1.0 for d in rows}

    def test_tcw_writes_one_gml_per_document(self, ray_session, tmp_path):
        """Two documents that share building ids: -tCw writes each one's
        translation to its own <stem>_local_.gml, 3 buildings each, and
        the two hold the same buildings moved by the one params vector."""
        from citygml2objv2_ray import synth
        from citygml2objv2_ray.sources.citygml import parse_citygml_document, surfaces_to_gml

        src = tmp_path / "in"
        src.mkdir()
        for seed in (1, 2):
            surfaces, _ = synth.make_city(3, seed=seed, corruption=0.0)
            (src / f"city{seed}.gml").write_bytes(surfaces_to_gml(surfaces))
        out_dir = tmp_path / "out"
        out = _run(["-i", str(src), "-o", str(out_dir), "-tCw", "1"])
        want = [str(out_dir / "city1_local_.gml"), str(out_dir / "city2_local_.gml")]
        assert out["translated_gml"] == want
        assert sorted(p.name for p in out_dir.glob("*.gml")) == ["city1_local_.gml", "city2_local_.gml"]
        d = np.array(out["translation_params"], np.float64)
        for seed, path in zip((1, 2), want):
            got = pd.DataFrame(parse_citygml_document(open(path, "rb").read(), path))
            src_rows = pd.DataFrame(
                parse_citygml_document((src / f"city{seed}.gml").read_bytes(), path)
            )
            assert got.building_id.nunique() == got.building_seq.nunique() == 3
            assert got.poly_id.tolist() == src_rows.poly_id.tolist()
            for g, s in zip(got.exterior, src_rows.exterior):
                assert np.allclose(np.stack(g), np.stack(s) + d)

    def test_tcw_refuses_inputs_that_share_a_stem(self, gml_dir, tmp_path):
        """a.gml and a.xml would both translate to a_local_.gml: -tCw
        raises before it writes anything."""
        src = tmp_path / "in"
        src.mkdir()
        body = (gml_dir / "city.gml").read_bytes()
        (src / "a.gml").write_bytes(body)
        (src / "a.xml").write_bytes(body)
        out_dir = tmp_path / "out"
        with pytest.raises(ValueError, match="share a file stem"):
            _run(["-i", str(src), "-o", str(out_dir), "-tCw", "1"])
        assert not out_dir.exists()

    def test_separate_components(self, gml_dir, tmp_path):
        import pandas as pd

        out = _run(
            ["-i", str(gml_dir), "-o", str(tmp_path), "-sepC", "1", "-appW", "1", "-addBB", "1"]
        )
        assert out["n_component_files"] > 8
        idx = pd.read_parquet(out["sidecar"])
        assert {"building_id", "component_seq", "tx"} <= set(idx.columns)
        assert (idx.groupby("building_id").size() > 0).all()

    @pytest.mark.parametrize("shared_ids", [True, False], ids=["shared_ids", "distinct_ids"])
    def test_separate_components_of_two_documents(self, ray_session, tmp_path, shared_ids):
        """Two documents whose buildings share sequence numbers, and ids
        or not: every reported component file is on disk, and each
        building is translated by the centre of its own buffered bbox."""
        import pyarrow as pa
        import pandas as pd

        from citygml2objv2_ray import synth
        from citygml2objv2_ray.sources.citygml import surfaces_to_gml

        src = tmp_path / "in"
        src.mkdir()
        want = {}
        for seed in (1, 2):
            surfaces, _ = synth.make_city(3, seed=seed, corruption=0.0)
            if not shared_ids:
                bids = pa.array([f"s{seed}_{b}" for b in surfaces["building_id"].to_pylist()])
                surfaces = surfaces.set_column(1, "building_id", bids)
            path = src / f"city{seed}.gml"
            path.write_bytes(surfaces_to_gml(surfaces))
            for bid, g in surfaces.to_pandas().groupby("building_id"):
                pts = np.concatenate([np.stack(e) for e in g.exterior])
                want[str(path), bid] = ((pts.min(0) - 3.0) + (pts.max(0) + 3.0)) / 2
        out_dir = tmp_path / "out"
        out = _run(["-i", str(src), "-o", str(out_dir), "-sepC", "1", "-addBB", "1"])
        on_disk = sorted(p.name for p in out_dir.glob("*.obj"))
        assert len(on_disk) == out["n_component_files"]
        idx = pd.read_parquet(out["sidecar"])
        assert len(idx) == len(on_disk)
        assert idx.groupby(["doc_id", "building_seq"]).ngroups == len(want)
        for (doc, bid), g in idx.groupby(["doc_id", "building_id"]):
            assert (g[["tx", "ty", "tz"]].to_numpy() == want[doc, bid]).all(), (doc, bid)

    def test_tcw_empty_input_is_descriptive(self, tmp_path):
        """-tCw over a dir with no parseable surfaces must raise a clear
        error, not IndexError (ADVICE r2)."""
        empty = tmp_path / "empty_in"
        empty.mkdir()
        (empty / "junk.gml").write_bytes(b"<notcity/>")
        with pytest.raises(ValueError, match="no parseable CityGML surfaces"):
            _run(["-i", str(empty), "-o", str(tmp_path / "out"), "-tCw", "1"])


class TestCLISubprocess:
    def test_standalone_module_run_clean_env(self, gml_dir, tmp_path):
        """`python -m citygml2objv2_ray.cli` with a CLEAN env (no inherited
        PYTHONPATH) must succeed: main() owns its Ray session and must set
        PYTHONPATH itself so workers can deserialize the package's
        map_batches UDFs (ADVICE r2: workers don't inherit driver
        sys.path)."""
        import os
        import subprocess
        import sys

        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = {
            k: v
            for k, v in os.environ.items()
            if k not in ("PYTHONPATH",)
        }
        proc = subprocess.run(
            [sys.executable, "-m", "citygml2objv2_ray.cli",
             "-i", str(gml_dir), "-o", str(tmp_path)],
            cwd=repo,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert (tmp_path / "colormap.mtl").exists()
