"""End-to-end pipeline tests: geometry pipeline conformance against truth
columns, flagship spatial-join + tiling with resume, determinism across
parallelism (SURVEY.md §5.2)."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd


@pytest.fixture(scope="module")
def city(ray_session):
    from citygml2objv2_ray import synth

    surfaces, footprints = synth.make_city(40, seed=42)
    return surfaces, footprints


@pytest.fixture(scope="module")
def world(ray_session, tmp_path_factory):
    from citygml2objv2_ray import synth

    out = tmp_path_factory.mktemp("world")
    paths = synth.generate_world(str(out), 0.0005, parallelism=2)  # 500 images
    return paths


class TestGeometryPipeline:
    def test_triangle_areas_match_truth(self, city):
        from citygml2objv2_ray.pipelines.geometry import triangulate_surfaces

        surfaces, _ = city
        tris = triangulate_surfaces(rd.from_arrow(surfaces)).to_pandas()
        got = tris.groupby("poly_id").area.sum()
        truth = surfaces.to_pandas().set_index("poly_id")
        valid = truth[truth.truth_valid]
        for pid, row in valid.iterrows():
            assert got.get(pid, 0.0) == pytest.approx(row.truth_area, rel=1e-6), pid
        # invalid polygons must produce no triangles
        invalid = truth[~truth.truth_valid]
        for pid in invalid.index:
            assert pid not in got.index

    def test_clean_validate_flags_match_truth(self, city):
        from citygml2objv2_ray.stages.geometry import clean_validate

        surfaces, _ = city
        out = clean_validate(surfaces)
        assert out["valid"].to_pylist() == surfaces["truth_valid"].to_pylist()

    def test_opening_anti_join(self, city):
        from citygml2objv2_ray.pipelines.geometry import opening_anti_join

        surfaces, _ = city
        res = opening_anti_join(rd.from_arrow(surfaces)).to_pandas()
        assert not res.is_opening.any()
        sdf = surfaces.to_pandas()
        assert len(res) == (~sdf.is_opening).sum()

    def test_opening_anti_join_is_per_document(self, ray_session, tmp_path):
        """Two documents that share polygon ids: each keeps exactly its rows
        whose ``poly_id`` is not one of its own openings, whatever the
        other document's openings are named."""
        from citygml2objv2_ray import synth
        from citygml2objv2_ray.pipelines.geometry import opening_anti_join
        from citygml2objv2_ray.sources.citygml import read_citygml, surfaces_to_gml

        for seed in (1, 2):
            surfaces, _ = synth.make_city(3, seed=seed, corruption=0.0)
            (tmp_path / f"city{seed}.gml").write_bytes(surfaces_to_gml(surfaces))
        parsed = read_citygml(sorted(map(str, tmp_path.iterdir()))).materialize()
        df = parsed.to_pandas()
        res = opening_anti_join(parsed).to_pandas()
        sizes = {}
        for doc, g in df.groupby("doc_id"):
            kept = g[~g.poly_id.isin(g[g.is_opening].poly_id)]
            sizes[Path(doc).name] = len(g), len(kept)
            assert sorted(res[res.doc_id == doc].poly_id) == sorted(kept.poly_id), doc
        assert sizes == {"city1.gml": (25, 20), "city2.gml": (24, 19)}

    def test_opening_anti_join_drops_every_copy_of_an_opening(self, ray_session):
        """A Window with no gml:id nested in its WallSurface is reached by
        both features: both copies carry one poly_id, so the exclusion
        drops both and keeps the wall's own polygon."""
        from citygml2objv2_ray.pipelines.geometry import opening_anti_join
        from citygml2objv2_ray.schemas import SURFACES_SCHEMA
        from citygml2objv2_ray.sources.citygml import parse_citygml_document

        ring = "<gml:LinearRing><gml:posList>0 0 0 1 0 0 1 0 1 0 0 0</gml:posList></gml:LinearRing>"
        gml = f"""<core:CityModel xmlns:core="http://www.opengis.net/citygml/2.0"
            xmlns:bldg="http://www.opengis.net/citygml/building/2.0"
            xmlns:gml="http://www.opengis.net/gml">
          <core:cityObjectMember><bldg:Building gml:id="B1"><bldg:boundedBy>
            <bldg:WallSurface gml:id="W1">
              <gml:Polygon gml:id="P1"><gml:exterior>{ring}</gml:exterior></gml:Polygon>
              <bldg:opening><bldg:Window>
                <gml:Polygon><gml:exterior>{ring}</gml:exterior></gml:Polygon>
              </bldg:Window></bldg:opening>
            </bldg:WallSurface>
          </bldg:boundedBy></bldg:Building></core:cityObjectMember>
        </core:CityModel>""".encode()
        rows = parse_citygml_document(gml, "d.gml")
        assert [(r["semantic"], r["poly_id"], r["poly_seq"]) for r in rows] == [
            ("WallSurface", "P1", 0), ("WallSurface", "B1_p1", 1), ("Window", "B1_p1", 2),
        ]
        tab = pa.Table.from_pylist(rows, schema=SURFACES_SCHEMA)
        assert opening_anti_join(rd.from_arrow(tab)).to_pandas().poly_id.tolist() == ["P1"]

    def test_building_bboxes(self, city):
        from citygml2objv2_ray.pipelines.geometry import building_bboxes

        surfaces, _ = city
        df = building_bboxes(rd.from_arrow(surfaces))
        sdf = surfaces.to_pandas()
        one = sdf[sdf.building_id == df.building_id.iloc[0]]
        allpts = np.concatenate([np.vstack(list(r)) for r in one.exterior])
        assert df.xmin.iloc[0] == pytest.approx(allpts[:, 0].min() - 3.0)
        assert df.zmax.iloc[0] == pytest.approx(allpts[:, 2].max() + 3.0)

    def test_building_bboxes_skip_empty_rings(self, city):
        """A batch whose only row of a building has an empty exterior adds
        nothing to that building's bbox (its partial has no corners), as
        the twin's ``unnest`` adds no point."""
        from citygml2objv2_ray.pipelines.geometry import building_bboxes

        surfaces, _ = city
        empty = surfaces.slice(0, 1).to_pylist()[0] | {"exterior": [], "interiors": []}
        extra = pa.Table.from_pylist([empty], schema=surfaces.schema)
        want = building_bboxes(rd.from_arrow(surfaces))
        got = building_bboxes(rd.from_arrow([surfaces, extra]))
        pd.testing.assert_frame_equal(got, want)

    def test_building_bboxes_of_no_surfaces(self, ray_session):
        """Zero surfaces give zero rows with the same columns (Ray runs no
        batch of an empty input, so nothing else names them)."""
        from citygml2objv2_ray.pipelines.geometry import building_bboxes
        from citygml2objv2_ray.schemas import SURFACES_SCHEMA

        df = building_bboxes(rd.from_arrow(SURFACES_SCHEMA.empty_table()))
        assert len(df) == 0
        assert list(df.columns) == [
            "building_id", "xmin", "ymin", "zmin", "xmax", "ymax", "zmax", "tx", "ty", "tz",
        ]

    def test_global_min_and_translate_roundtrip(self, city):
        from citygml2objv2_ray.pipelines.geometry import (
            global_min_vertex,
            translate_surfaces,
        )

        surfaces, _ = city
        ds = rd.from_arrow(surfaces)
        mn = global_min_vertex(ds)
        moved = translate_surfaces(ds, mn)
        mn2 = global_min_vertex(moved)
        assert np.allclose(mn2, 0.0)
        back = translate_surfaces(moved, -mn)
        orig_pts = np.vstack(list(surfaces.to_pandas().exterior.iloc[0]))
        back_pts = np.vstack(list(back.to_pandas().exterior.iloc[0]))
        assert np.array_equal(orig_pts, back_pts)  # exactly invertible


# the flagship's one Ray operator, as Ray's stats name it: the row-range
# read, process and write fused
FUSED = "ReadParquetRowRanges->MapBatches(process)->MapBatches(PartitionedWriter)"


def _frame(res) -> pd.DataFrame:
    """A flagship run's written rows, comparable across runs."""
    df = res.assignments().to_pandas().sort_values("image_id").reset_index(drop=True)
    df["nn_ids"] = df.nn_ids.map(tuple)
    df["nn_dist"] = df.nn_dist.map(tuple)
    return df[sorted(df.columns)]


def _hot_partition(res) -> str:
    """The partition a flagship run wrote the most rows to."""
    return str(int(res.assignments().to_pandas().part.value_counts().idxmax()))


class TestFlagship:
    def test_end_to_end_and_truth(self, world, tmp_path):
        import pyarrow.parquet as pq

        from citygml2objv2_ray.pipelines.flagship import run_flagship

        surfaces = pq.read_table(world["surfaces"])
        footprints = pq.read_table(world["footprints"])
        res = run_flagship(
            world["images"], surfaces, footprints, str(tmp_path / "out")
        )
        adf = res.assignments().to_pandas()
        imgs = pq.read_table(world["images"]).to_pandas()
        assert res.rows_written == len(imgs)
        merged = adf.merge(
            imgs[["image_id", "truth_building_id", "truth_cell"]], on="image_id"
        )
        # cell reproduction is exact
        assert (merged.cell == merged.truth_cell).all()
        # containment agreement (overlapping footprints may differ in WHICH id)
        assert (
            merged.building_id.notna() == merged.truth_building_id.notna()
        ).all()
        # per-row invariants: caption equality + decoded-pixel check
        assert (merged.caption == imgs.set_index("image_id").caption[merged.image_id].values).all()
        assert merged.pixel_ok.all()
        # tile stats cover every observed cell
        stats = res.tile_stats.to_pandas()
        assert set(stats.cell) == set(adf.cell)
        assert stats.n.sum() == len(imgs)

    def test_partition_hash_pinned(self, world, tmp_path):
        """The hive layout and the resume prune both key on
        ``part_of_cell``, and cached worlds on disk were written with it:
        its values (and the shared splitmix64 / HLL hashes) must never
        drift. Expected values recorded before the hash copies were
        folded into ``dedup.splitmix64``."""
        import pyarrow.parquet as pq

        from citygml2objv2_ray.config import DEFAULT_CONFIG
        from citygml2objv2_ray.dedup import splitmix64
        from citygml2objv2_ray.pipelines.flagship import run_flagship
        from citygml2objv2_ray.sketch import hash_values
        from citygml2objv2_ray.spatial import part_of_cell

        x = np.array(
            [0, 1, -1, 42, -(1 << 40), (1 << 32) | 7, -(1 << 63), (1 << 63) - 1],
            dtype=np.int64,
        )
        want = [
            16294208416658607535, 10451216379200822465, 16490336266968443936,
            13679457532755275413, 9134131081349316203, 2868536809827192863,
            5196802822362493915, 3055647633038352039,
        ]
        assert [int(v) for v in splitmix64(x.astype(np.uint64))] == want
        assert [int(v) for v in hash_values(x)] == want
        assert [int(v) for v in hash_values(np.array(["a", "bc", ""], dtype=object))] == [
            5667979809800783955, 18187932125845110417, 5665620140241705579,
        ]
        assert part_of_cell(x, 16).tolist() == [15, 1, 0, 5, 11, 15, 11, 7]

        res = run_flagship(
            world["images"],
            pq.read_table(world["surfaces"]),
            pq.read_table(world["footprints"]),
            str(tmp_path / "out"),
            decode=False,
        )
        adf = res.assignments().to_pandas()
        assert len(adf) and (adf.cell < 0).any()  # negative cells covered
        np.testing.assert_array_equal(
            adf.part.astype(np.int64).to_numpy(),
            part_of_cell(adf.cell.to_numpy(np.int64), DEFAULT_CONFIG.n_output_parts),
        )

    # the 500-row, 16-file test world on the session's 4 CPUs: one task per
    # CPU (8192), one per 64 footer rows (8), and one per 16 rows (32, more
    # tasks than files)
    @pytest.mark.parametrize("write_batch_size,tasks", [(8192, 4), (64, 8), (16, 32)])
    def test_read_plan(self, world, tmp_path, caplog, write_batch_size, tasks):
        """Read, process and write run as ONE Ray operator, one task per
        equal row range, however many files there are. The plan is logged
        with its sizes, and the block-size cap it sets stays on the run's
        datasets."""
        import logging
        import re

        import pyarrow.parquet as pq
        import ray
        from ray.data import DataContext

        from citygml2objv2_ray.config import EngineConfig
        from citygml2objv2_ray.pipelines.flagship import run_flagship

        assert int(ray.cluster_resources()["CPU"]) == 4
        block_size = DataContext.get_current().target_max_block_size
        caplog.set_level(logging.INFO, logger="citygml2objv2_ray.ops")
        res = run_flagship(
            world["images"], pq.read_table(world["surfaces"]), pq.read_table(world["footprints"]),
            str(tmp_path / "out"), cfg=EngineConfig(write_batch_size=write_batch_size),
            resume=False, decode=False,
        )
        assert res.rows_written == 500
        operators = re.findall(r"^Operator \d+ (\S+): (\d+) tasks executed", res.ray_stats, re.M)
        assert operators == [(FUSED, str(tasks))], res.ray_stats
        assert "SplitBlocks" not in res.ray_stats
        lo, hi = 500 // tasks, -(-500 // tasks)
        line = re.search(
            r"flagship read: 16 pending files, 500 footer rows, 4 CPUs, 0 pruned partitions \[\] -> "
            rf"{tasks} read tasks of {lo}-{hi} rows, block cap (\d+) bytes",
            caplog.text,
        )
        assert line, caplog.text
        assert 0 < int(line[1]) < block_size
        assert DataContext.get_current().target_max_block_size == block_size

    @pytest.mark.parametrize(
        "layout,write_batch_size", [("single_file", 8192), ("single_file", 64), ("hive", 8192)]
    )
    def test_partial_resume_writes_only_the_missing_partitions(
        self, world, tmp_path, caplog, layout, write_batch_size
    ):
        """A rerun after some partitions committed writes exactly the
        others and ends equal to a clean run, with no image twice. One
        500-row input file is cut into 4 (8192) or 8 (64) row ranges and
        filtered per block in ``process``; a hive input does not list the
        committed partitions' files, and its ranges cut the pending rows.
        Either way the hot partition is written by several tasks."""
        import glob
        import logging
        import os
        import re
        import shutil

        import pyarrow.parquet as pq

        from citygml2objv2_ray.config import EngineConfig
        from citygml2objv2_ray.pipelines.flagship import IMAGE_COLUMNS, run_flagship
        from citygml2objv2_ray.state.checkpoint import CheckpointLog

        surfaces = pq.read_table(world["surfaces"])
        footprints = pq.read_table(world["footprints"])
        parts = sorted(p for p in os.listdir(world["images"]) if p.startswith("part="))
        committed = parts[::3]
        # an input of the committed partitions only: its run commits them
        first = str(tmp_path / ("first.parquet" if layout == "single_file" else "first"))
        if layout == "single_file":
            images = str(tmp_path / "images.parquet")
            pq.write_table(pq.read_table(world["images"], columns=IMAGE_COLUMNS), images)
            pq.write_table(
                pa.concat_tables(
                    pq.read_table(os.path.join(world["images"], p), columns=IMAGE_COLUMNS)
                    for p in committed
                ),
                first,
            )
        else:
            images = world["images"]
            os.makedirs(first)
            for p in committed:
                shutil.copytree(os.path.join(world["images"], p), os.path.join(first, p))

        want = run_flagship(images, surfaces, footprints, str(tmp_path / "clean"), decode=False)
        out = str(tmp_path / "out")
        cfg = EngineConfig(write_batch_size=write_batch_size)
        r1 = run_flagship(first, surfaces, footprints, out, cfg=cfg, decode=False)
        caplog.set_level(logging.INFO, logger="citygml2objv2_ray.ops")
        caplog.clear()
        r2 = run_flagship(images, surfaces, footprints, out, cfg=cfg, decode=False)

        done = {p.split("=", 1)[1] for p in committed}
        lin = CheckpointLog(out).read_lineage().to_pandas()
        assert set(lin[lin.run_id == r1.run_id].partition_id) == done
        written = set(lin[(lin.run_id == r2.run_id) & (lin.stage == "assign")].partition_id)
        assert written == {p.split("=", 1)[1] for p in parts} - done
        assert r1.rows_written + r2.rows_written == want.rows_written
        hot = _hot_partition(want)
        assert hot not in done
        assert len(glob.glob(os.path.join(out, "data", f"part={hot}", "*.parquet"))) >= 2

        operators = re.findall(r"^Operator \d+ (\S+):", r2.ray_stats, re.M)
        assert operators == [FUSED], r2.ray_stats
        got = _frame(r2)
        assert got.image_id.is_unique
        pd.testing.assert_frame_equal(got, _frame(want))
        if layout == "hive":
            pending = len(glob.glob(os.path.join(images, "part=*", "*.parquet"))) - len(
                glob.glob(os.path.join(first, "part=*", "*.parquet"))
            )
            assert f"{pending} pending files" in caplog.text
            assert f"{len(done)} pruned partitions" in caplog.text
        else:
            assert (
                "1 pending files, 500 footer rows, 4 CPUs, 0 pruned partitions [] -> "
                + ("4 read tasks of 125-125 rows" if write_batch_size == 8192 else "8 read tasks of 62-63 rows")
            ) in caplog.text

    def test_midrun_resume_redoes_a_partition_cut_across_tasks(self, world, tmp_path):
        """A crash before the commit pass, after one task wrote its share
        of the hot partition and before another did: the partition's
        on-disk rows fall short of its footer rows, so the rerun wipes and
        rewrites it, and takes every other partition as complete."""
        import glob
        import os

        import pyarrow.parquet as pq

        from citygml2objv2_ray.pipelines.flagship import run_flagship
        from citygml2objv2_ray.state.checkpoint import CheckpointLog

        surfaces = pq.read_table(world["surfaces"])
        footprints = pq.read_table(world["footprints"])
        out = str(tmp_path / "out")
        r1 = run_flagship(world["images"], surfaces, footprints, out, decode=False)
        want = _frame(r1)
        log = CheckpointLog(out)
        # the crash: no commit rows, and one task's file of the hot partition
        # never published
        for f in glob.glob(os.path.join(log.lineage_dir, "*.parquet")):
            if "assign:commit" in pq.read_table(f, columns=["stage"])["stage"].to_pylist():
                os.remove(f)
        hot = _hot_partition(r1)
        files = sorted(glob.glob(os.path.join(log.data_dir, f"part={hot}", "*.parquet")))
        assert len(files) >= 2
        os.remove(files[0])

        r2 = run_flagship(world["images"], surfaces, footprints, out, decode=False)
        lin = log.read_lineage().to_pandas()
        assert set(lin[(lin.run_id == r2.run_id) & (lin.stage == "assign")].partition_id) == {hot}
        assert r2.rows_written == int((want.part == int(hot)).sum())
        got = _frame(r2)
        assert got.image_id.is_unique
        pd.testing.assert_frame_equal(got, want)

    def test_resume_skips_completed(self, world, tmp_path):
        import pyarrow.parquet as pq

        from citygml2objv2_ray.pipelines.flagship import run_flagship

        surfaces = pq.read_table(world["surfaces"])
        footprints = pq.read_table(world["footprints"])
        out = str(tmp_path / "out")
        r1 = run_flagship(world["images"], surfaces, footprints, out, decode=False)
        assert r1.rows_written > 0
        r2 = run_flagship(world["images"], surfaces, footprints, out, decode=False)
        assert r2.rows_written == 0  # everything committed → all pruned
        # output rows are not duplicated
        adf = r2.assignments().to_pandas()
        assert adf.image_id.is_unique

    @pytest.mark.parametrize("layout", ["hive", "single_file"])
    def test_completed_rerun_keeps_tile_stats_schema(self, world, tmp_path, layout):
        """A rerun of a completed job returns tile stats with the schema of
        the fresh run: with a hive input it reads nothing, with one file it
        reads everything and writes nothing."""
        import pyarrow.parquet as pq

        from citygml2objv2_ray.config import EngineConfig
        from citygml2objv2_ray.pipelines.flagship import IMAGE_COLUMNS, run_flagship

        images = world["images"]
        if layout == "single_file":
            images = str(tmp_path / "images.parquet")
            pq.write_table(pq.read_table(world["images"], columns=IMAGE_COLUMNS), images)
        surfaces = pq.read_table(world["surfaces"])
        footprints = pq.read_table(world["footprints"])
        out = str(tmp_path / "out")
        r1 = run_flagship(images, surfaces, footprints, out, decode=False)
        r2 = run_flagship(images, surfaces, footprints, out, decode=False)
        assert r1.tile_stats.num_rows > 0 and r2.tile_stats.num_rows == 0
        assert r2.tile_stats.schema.equals(r1.tile_stats.schema), (
            r1.tile_stats.schema, r2.tile_stats.schema,
        )

    def test_knn_first_neighbor_is_containing_building(self, world, tmp_path):
        import pyarrow.parquet as pq

        from citygml2objv2_ray.pipelines.flagship import run_flagship

        surfaces = pq.read_table(world["surfaces"])
        footprints = pq.read_table(world["footprints"])
        res = run_flagship(
            world["images"], surfaces, footprints, str(tmp_path / "o2"), decode=False
        )
        adf = res.assignments().to_pandas()
        hit = adf[adf.building_id.notna()]
        # for images inside a rectangle footprint, the containing building's
        # centroid is usually (not always) the nearest — just require the
        # containing building among the k neighbours for >90%
        frac = np.mean([b in ids for b, ids in zip(hit.building_id, hit.nn_ids)])
        assert frac > 0.9


class TestMaskedMean:
    def test_masked_mean_is_true_pixel_mean(self, world, ray_session):
        """The fused clip's masked_mean must equal the mean of the ACTUAL
        decoded pixels inside the roof mask (recomputed independently)."""
        import pyarrow.parquet as pq
        import glob

        from citygml2objv2_ray import codecs
        from citygml2objv2_ray.pipelines.geometry import roof_tri2d
        from citygml2objv2_ray.stages.images import (
            PIXEL_SIZE,
            DecodeClip,
            cell_encode,
        )
        from test_raster_clip import _coverage_mask
        from citygml2objv2_ray.stages.join import SpatialJoin
        from citygml2objv2_ray.spatial import build_index

        surfaces = pq.read_table(world["surfaces"])
        footprints = pq.read_table(world["footprints"])
        files = sorted(glob.glob(world["images"] + "/**/*.parquet", recursive=True))
        tab = pa.concat_tables(
            [pq.read_table(f).drop_columns([]) for f in files[:6]]
        ).combine_chunks()
        batch = cell_encode(tab)
        sj = SpatialJoin(build_index(footprints))
        batch = sj(batch)
        tri2d = roof_tri2d(surfaces)
        out = DecodeClip(tri2d)(batch).to_pandas()
        src = tab.to_pandas().set_index("image_id")
        checked = 0
        for row in out.itertuples():
            if row.building_id is None or row.roof_coverage == 0:
                continue
            rgb = codecs.decode_image(src.loc[row.image_id, "bytes"], row.fmt)
            h, w = rgb.shape[:2]
            xs = row.cx - w * PIXEL_SIZE / 2 + (np.arange(w) + 0.5) * PIXEL_SIZE
            ys = row.cy - h * PIXEL_SIZE / 2 + (np.arange(h) + 0.5) * PIXEL_SIZE
            mask = _coverage_mask(xs, ys, tri2d[row.building_id])
            assert row.masked_mean == pytest.approx(float(rgb[mask].mean()))
            assert row.roof_coverage == pytest.approx(float(mask.mean()))
            checked += 1
        assert checked > 5

    def test_decode_clip_equals_rowwise_oracle(self, world, ray_session):
        """``DecodeClip`` over the whole test world gives, bit for bit, the
        columns of the per-image oracle (f64 phash, per-pixel GEMM clip)."""
        import glob

        import pyarrow.parquet as pq

        from citygml2objv2_ray.pipelines.geometry import roof_tri2d
        from citygml2objv2_ray.spatial import build_index
        from citygml2objv2_ray.stages.images import DecodeClip, cell_encode
        from citygml2objv2_ray.stages.join import SpatialJoin
        from reference_oracle import decode_clip_rowwise

        files = sorted(glob.glob(world["images"] + "/**/*.parquet", recursive=True))
        batch = cell_encode(pa.concat_tables(pq.read_table(f) for f in files).combine_chunks())
        batch = SpatialJoin(build_index(pq.read_table(world["footprints"])))(batch)
        tri2d = roof_tri2d(pq.read_table(world["surfaces"]))
        got = DecodeClip(tri2d)(batch)
        want = decode_clip_rowwise(batch, tri2d)
        assert (np.asarray(want["roof_coverage"]) > 0).sum() > 50
        for col in ("pixel_ok", "mean_intensity", "roof_coverage", "masked_mean"):
            g, w = np.asarray(got[col]), np.asarray(want[col])
            if g.dtype == np.float64:
                g, w = g.view(np.int64), w.view(np.int64)
            np.testing.assert_array_equal(g, w, err_msg=col)


class TestWorkerCache:
    def test_one_broadcast_per_worker_cache(self, world, ray_session, monkeypatch):
        """The per-process broadcast cache (``ops.Broadcast``) holds one
        entry per site, the current broadcast: a task built for a new job
        replaces the entry of the last one, and the join and decode
        entries do not evict each other."""
        import glob

        import pyarrow.parquet as pq

        from citygml2objv2_ray import ops
        from citygml2objv2_ray.pipelines.geometry import roof_tri2d
        from citygml2objv2_ray.spatial import build_index
        from citygml2objv2_ray.stages import images, join

        monkeypatch.setattr(ops, "_BROADCASTS", {})
        f = sorted(glob.glob(world["images"] + "/**/*.parquet", recursive=True))[0]
        batch = images.cell_encode(pq.read_table(f).slice(0, 16))
        index = build_index(pq.read_table(world["footprints"]))
        tri2d = roof_tri2d(pq.read_table(world["surfaces"]))
        jobs = []
        for _ in range(2):  # two jobs, two broadcasts
            out = images.make_decode_clip_task(tri2d)(join.make_join_task(index)(batch))
            assert out.num_rows == batch.num_rows
            assert sorted(ops._BROADCASTS) == ["decode_clip", "join"]
            assert isinstance(ops._BROADCASTS["join"][1], join.SpatialJoin)
            assert isinstance(ops._BROADCASTS["decode_clip"][1], images.DecodeClip)
            jobs.append(dict(ops._BROADCASTS))
        for site in ("join", "decode_clip"):
            assert jobs[0][site][0] != jobs[1][site][0], site
            assert jobs[0][site][1] is not jobs[1][site][1], site


class TestOrphanSweepWithoutLineage:
    def test_partial_dir_no_lineage_is_wiped_not_appended(self, world, tmp_path):
        """ADVICE r4 (medium): a crashed first attempt can rename a data
        file into a part= dir and die BEFORE appending its first lineage
        row. The resume sweep must wipe that orphan partial even when the
        lineage log is completely empty — appending to it would duplicate
        rows and break the exact-resume guarantee."""
        import os

        import pyarrow as pa
        import pyarrow.parquet as pq

        from citygml2objv2_ray.pipelines.flagship import run_flagship

        surfaces = pq.read_table(world["surfaces"])
        footprints = pq.read_table(world["footprints"])

        clean_out = str(tmp_path / "clean")
        r_clean = run_flagship(
            world["images"], surfaces, footprints, clean_out, decode=False
        )
        want = (
            r_clean.assignments()
            .to_pandas()
            .sort_values("image_id")
            .reset_index(drop=True)
        )

        # fresh out_root with an orphan partial partition and NO lineage
        out = str(tmp_path / "orphan")
        part_dir = os.path.join(out, "data", "part=0")
        os.makedirs(part_dir, exist_ok=True)
        pq.write_table(
            pa.table({"image_id": pa.array([999_999_001, 999_999_002], pa.int64())}),
            os.path.join(part_dir, "stale-partial.parquet"),
        )
        r = run_flagship(
            world["images"], surfaces, footprints, out, decode=False
        )
        got = (
            r.assignments().to_pandas().sort_values("image_id").reset_index(drop=True)
        )
        # the stale rows are gone and the output equals the clean run
        assert not got.image_id.isin([999_999_001, 999_999_002]).any()
        assert got.image_id.is_unique
        assert len(got) == len(want)
        assert got.image_id.tolist() == want.image_id.tolist()
