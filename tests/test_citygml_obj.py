"""CityGML source round-trips, OBJ assembly conformance, exact translation,
hulls — the reference-conversion parity suite (SURVEY.md §5.2 item 3)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

import ray.data as rd


@pytest.fixture(scope="module")
def city(ray_session):
    from citygml2objv2_ray import synth

    surfaces, footprints = synth.make_city(12, seed=42, corruption=0.0)
    return surfaces, footprints


class TestCityGMLRoundTrip:
    def test_gml_roundtrip_exact(self, city):
        from citygml2objv2_ray.sources.citygml import (
            parse_citygml_document,
            surfaces_to_gml,
        )

        surfaces, _ = city
        gml = surfaces_to_gml(surfaces)
        rows = parse_citygml_document(gml, doc_id="doc0000")
        assert len(rows) == surfaces.num_rows
        orig = surfaces.to_pandas()
        got = pd.DataFrame(rows)
        for i in range(len(orig)):
            o, g = orig.iloc[i], got.iloc[i]
            assert o.building_id == g.building_id
            assert o.semantic == g.semantic
            assert o.is_opening == g.is_opening
            assert np.array_equal(
                np.array([list(p) for p in o.exterior], dtype=np.float64),
                np.array(g.exterior, dtype=np.float64),
            ), f"row {i}"
            assert len(o.interiors) == len(g.interiors)
        # attrs survive (roofs carry irradiation)
        roof = got[got.semantic == "RoofSurface"]
        assert roof.attr_irradiation.notna().all()

    def test_read_citygml_ray_source(self, city, tmp_path):
        from citygml2objv2_ray.sources.citygml import read_citygml, surfaces_to_gml

        surfaces, _ = city
        df = surfaces.to_pandas()
        # split into two documents
        bids = sorted(df.building_id.unique())
        for i, chunk in enumerate([bids[:6], bids[6:]]):
            import pyarrow as pa

            sub = surfaces.filter(
                pa.array(df.building_id.isin(chunk).to_numpy())
            )
            (tmp_path / f"part{i}.gml").write_bytes(surfaces_to_gml(sub))
        ds = read_citygml([str(tmp_path / "part0.gml"), str(tmp_path / "part1.gml")])
        out = ds.to_pandas()
        assert len(out) == len(df)
        assert set(out.building_id) == set(df.building_id)
        assert out.groupby("semantic").size().to_dict() == df.groupby("semantic").size().to_dict()

    def test_version_sniff(self):
        from citygml2objv2_ray.sources.citygml import sniff_version
        import xml.etree.ElementTree as ET

        for ns, v in [
            ("http://www.opengis.net/citygml/1.0", "1.0"),
            ("http://www.opengis.net/citygml/2.0", "2.0"),
            ("http://www.opengis.net/citygml/3.0", "3.0"),
        ]:
            root = ET.fromstring(f'<CityModel xmlns="{ns}"/>')
            assert sniff_version(root) == v

    def test_malformed_ring_dropped_not_raised(self):
        from citygml2objv2_ray.sources.citygml import parse_citygml_document

        bad = b"""<CityModel xmlns:gml="http://www.opengis.net/gml" xmlns="http://www.opengis.net/citygml/2.0">
        <cityObjectMember><Building gml:id="b1"><boundedBy><WallSurface>
        <gml:Polygon><gml:exterior><gml:LinearRing><gml:posList>0 0 0 1 0</gml:posList></gml:LinearRing></gml:exterior></gml:Polygon>
        </WallSurface></boundedBy></Building></cityObjectMember></CityModel>"""
        rows = parse_citygml_document(bad, "d")
        assert rows == []  # dropped (len % 3 != 0), no assert/raise

    def test_envelope_reader(self):
        from citygml2objv2_ray.sources.citygml import read_envelope

        doc = b"""<CityModel xmlns:gml="http://www.opengis.net/gml">
        <gml:boundedBy><gml:Envelope srsName="EPSG:25832" srsDimension="3">
        <gml:lowerCorner>100.5 200.5 0</gml:lowerCorner>
        <gml:upperCorner>900.5 800.5 50</gml:upperCorner>
        </gml:Envelope></gml:boundedBy></CityModel>"""
        env = read_envelope(doc)
        assert env["srs_name"] == "EPSG:25832"
        assert env["srs_dimension"] == 3
        assert env["lower"] == [100.5, 200.5, 0.0]


class TestOBJ:
    def test_obj_roundtrip_triangle_set(self, city, tmp_path):
        from citygml2objv2_ray.pipelines.geometry import triangulate_surfaces
        from citygml2objv2_ray.sinks.obj import parse_obj, write_obj_per_class

        surfaces, _ = city
        tris_ds = triangulate_surfaces(rd.from_arrow(surfaces))
        tris_df = tris_ds.to_pandas()
        out = write_obj_per_class(tris_ds, str(tmp_path), name="m")
        assert set(out) == set(tris_df.semantic.unique())
        for cl, path in out.items():
            verts, faces = parse_obj(open(path).read())
            sub = tris_df[tris_df.semantic == cl]
            assert len(faces) == len(sub)
            # triangle SETS equal — OBJ text uses full-precision repr, so
            # the comparison is exact (SURVEY.md §7.4: compare sets, not order)
            got = {tuple(sorted(map(tuple, verts[f]))) for f in faces}
            want = {
                tuple(sorted(map(tuple, (tuple(r.p0), tuple(r.p1), tuple(r.p2)))))
                for r in sub.itertuples()
            }
            assert got == want, cl

    def test_obj_face_indices_valid(self, city, tmp_path):
        from citygml2objv2_ray.pipelines.geometry import triangulate_surfaces
        from citygml2objv2_ray.sinks.obj import parse_obj, write_obj_per_class

        surfaces, _ = city
        out = write_obj_per_class(
            triangulate_surfaces(rd.from_arrow(surfaces)), str(tmp_path), name="m"
        )
        for path in out.values():
            verts, faces = parse_obj(open(path).read())
            if len(faces):
                assert faces.min() >= 0 and faces.max() < len(verts)

    def test_per_class_write_single_upstream_execution(self, city, tmp_path):
        """write_obj_per_class must materialize the triangle table ONCE and
        filter cached blocks per class — never re-execute the upstream
        triangulation per semantic class (VERDICT r1 item 4)."""
        import pyarrow as pa
        import ray

        from citygml2objv2_ray.pipelines.geometry import triangulate_surfaces
        from citygml2objv2_ray.sinks.obj import write_obj_per_class

        surfaces, _ = city
        tris = triangulate_surfaces(rd.from_arrow(surfaces))
        expected = tris.count()

        @ray.remote
        class RowCounter:
            def __init__(self):
                self.n = 0

            def add(self, k):
                self.n += k

            def total(self):
                return self.n

        counter = RowCounter.remote()

        def count(b: pa.Table) -> pa.Table:
            ray.get(counter.add.remote(b.num_rows))
            return b

        counted = triangulate_surfaces(rd.from_arrow(surfaces)).map_batches(
            count, batch_format="pyarrow"
        )
        out = write_obj_per_class(counted, str(tmp_path), name="m")
        assert len(out) >= 3  # several semantic classes written
        assert ray.get(counter.total.remote()) == expected

    def test_mtl_writer(self, tmp_path):
        from citygml2objv2_ray.sinks.obj import write_mtl

        text = write_mtl(str(tmp_path / "colormap.mtl"))
        assert text.count("newmtl") == 101
        assert "Kd 0.0000 0.0000 0.0000" in text  # afmhot(0) = black
        assert "Kd 1.0000 1.0000 1.0000" in text  # afmhot(1) = white

    def test_convert_end_to_end(self, city, tmp_path):
        from citygml2objv2_ray.pipelines.convert import convert
        from citygml2objv2_ray.sinks.obj import parse_obj
        from citygml2objv2_ray.sources.citygml import surfaces_to_gml

        surfaces, _ = city
        gdir = tmp_path / "gml"
        gdir.mkdir()
        (gdir / "city.gml").write_bytes(surfaces_to_gml(surfaces))
        out = convert(str(gdir), str(tmp_path / "obj"), semantics=True)
        assert "WallSurface" in out and "RoofSurface" in out
        v, f = parse_obj(open(out["RoofSurface"]).read())
        assert len(f) > 0
        assert (tmp_path / "obj" / "colormap.mtl").exists()

    def test_translate_keeps_every_face(self, tmp_path, ray_session):
        """``-t`` moves holes with their exteriors, so it triangulates the
        same polygons: the same face count per class as no translation."""
        from citygml2objv2_ray import synth
        from citygml2objv2_ray.pipelines.convert import convert
        from citygml2objv2_ray.sources.citygml import surfaces_to_gml

        surfaces, _ = synth.make_city(4, seed=1, corruption=0.0)
        assert sum(map(len, surfaces["interiors"].to_pylist())), "the city has no hole"
        gdir = tmp_path / "gml"
        gdir.mkdir()
        (gdir / "city.gml").write_bytes(surfaces_to_gml(surfaces))

        def faces(translate):
            out = convert(str(gdir), str(tmp_path / f"obj{translate}"), translate=translate)
            return {
                sem: sum(line.startswith("f ") for line in open(path))
                for sem, path in out.items()
            }

        assert faces(True) == faces(False)


    @pytest.mark.parametrize("preserve", [False, True])
    def test_two_documents_keep_their_buildings(self, tmp_path, preserve, ray_session):
        """building_seq restarts in every document: two documents whose
        building_seq ranges overlap must give one ``o`` group per building,
        and each class file must be document A's sequential assembly
        followed by document B's, B's face indices shifted by A's vertex
        count."""
        import pyarrow as pa

        from reference_oracle import sequential_obj_assembly

        from citygml2objv2_ray import synth
        from citygml2objv2_ray.pipelines.convert import convert
        from citygml2objv2_ray.sources.citygml import (
            parse_citygml_document,
            surfaces_to_gml,
        )

        surfaces, _ = synth.make_city(10, seed=3, corruption=0.0)
        bids = surfaces.column("building_id").to_pylist()
        order = list(dict.fromkeys(bids))
        gdir = tmp_path / "gml"
        gdir.mkdir()
        docs = []
        for fname, chunk in (("a.gml", order[:5]), ("b.gml", order[5:])):
            gml = surfaces_to_gml(surfaces.filter(pa.array([b in chunk for b in bids])))
            (gdir / fname).write_bytes(gml)
            docs.append(pd.DataFrame(parse_citygml_document(gml, doc_id=fname)))
        a, b = docs
        assert set(a.building_seq) == set(b.building_seq)
        assert not set(a.building_id) & set(b.building_id)

        out = convert(str(gdir), str(tmp_path / "obj"), preserve=preserve)
        assert set(out) == set(a.semantic) | set(b.semantic)
        for sem, path in out.items():
            groups, verts, faces = [], [], []
            for line in open(path).read().splitlines():
                tag, *rest = line.split()
                if tag == "o":
                    groups.append(rest[0])
                elif tag == "v":
                    verts.append(tuple(map(float, rest)))
                elif tag == "f":
                    faces.append(tuple(map(int, rest)))
            want_groups = [
                bid for d in docs for bid in dict.fromkeys(d[d.semantic == sem].building_id)
            ]
            assert groups == want_groups, sem
            av, af = sequential_obj_assembly(a, sem, preserve=preserve)
            bv, bf = sequential_obj_assembly(b, sem, preserve=preserve)
            assert verts == av + bv, sem
            assert faces == af + [tuple(i + len(av) for i in f) for f in bf], sem

    def test_failed_write_publishes_nothing(self, city, tmp_path, monkeypatch):
        """A write that fails once a class file is open leaves neither that
        class file nor any temp file behind (a truncated OBJ would look
        complete)."""
        import builtins

        from citygml2objv2_ray.pipelines.geometry import triangulate_surfaces
        from citygml2objv2_ray.sinks import obj

        class FailAfterHeader:
            def __init__(self, f):
                self.f = f

            def write(self, text):
                if self.f.tell():
                    raise OSError("disk full")
                return self.f.write(text)

            def close(self):
                self.f.close()

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.close()

        monkeypatch.setattr(
            obj, "open", lambda *a, **k: FailAfterHeader(builtins.open(*a, **k)), raising=False
        )
        surfaces, _ = city
        with pytest.raises(OSError, match="disk full"):
            obj.write_obj_per_class(
                triangulate_surfaces(rd.from_arrow(surfaces)), str(tmp_path), name="m"
            )
        assert list(tmp_path.iterdir()) == []


class TestExactTranslation:
    def test_utm_scale_exact_roundtrip(self, ray_session):
        import pyarrow as pa

        from citygml2objv2_ray.exact import translate_exact
        from citygml2objv2_ray.schemas import SURFACES_SCHEMA

        # UTM-scale coordinates with 6-decimal precision
        ring = [
            [5400000.123456, 690000.654321, 100.000001],
            [5400010.999999, 690000.654321, 100.000001],
            [5400010.999999, 690010.111111, 100.000001],
            [5400000.123456, 690000.654321, 100.000001],
        ]
        hole = [
            [5400001.000001, 690001.000002, 100.000001],
            [5400002.500003, 690001.000002, 100.000001],
            [5400002.500003, 690002.250004, 100.000001],
            [5400001.000001, 690001.000002, 100.000001],
        ]
        row = dict(
            doc_id="d", building_id="b", building_seq=0, feature_id="f",
            semantic="RoofSurface", is_opening=False, poly_id="p", poly_seq=0,
            exterior=ring, interiors=[hole], attr_irradiation=None,
            truth_valid=True, truth_area=0.0,
        )
        tab = pa.Table.from_pylist([row], schema=SURFACES_SCHEMA)
        delta = np.array([-5400000, -690000, 0])
        moved_ds = translate_exact(rd.from_arrow(tab), delta)
        moved = moved_ds.to_pandas()
        back = translate_exact(moved_ds, -delta).to_pandas()
        got = np.array(back.exterior.iloc[0].tolist())
        assert np.array_equal(np.array(ring), got)  # bit-exact round trip
        got_hole = np.array(back.interiors.iloc[0][0].tolist())
        assert np.array_equal(np.array(hole), got_hole)  # holes too
        m = np.array(moved.exterior.iloc[0].tolist())
        # decimal-exact local coords (0.123456 survives exactly)
        assert m[0, 0] == 0.123456 and m[0, 1] == 0.654321
        h = np.array(moved.interiors.iloc[0][0].tolist())
        assert h[0, 0] == 1.000001 and h[1, 0] == 2.500003 and h[2, 1] == 2.250004

    def test_translation_params(self, city):
        from citygml2objv2_ray.exact import translation_params

        surfaces, _ = city
        p = translation_params(rd.from_arrow(surfaces))
        assert p.dtype == np.int64 and p[2] == 0
        assert p[0] < 0 and p[1] < 0  # negated means
        # the per-building loop: each building's min vertex, then the mean
        lows = [
            np.vstack([np.stack(r) for r in g.exterior if len(r)]).min(axis=0)
            for _, g in surfaces.to_pandas().groupby("building_id")
        ]
        mean = np.mean(lows, axis=0)
        assert p.tolist() == [-int(mean[0]), -int(mean[1]), 0]

    def test_translation_params_name_buildings_by_document(self, ray_session):
        """Two documents that share building ids, the second 1000 m away:
        each (document, building) has its own minimum in the mean, where
        keying on ``building_id`` alone would merge each pair first."""
        import pyarrow as pa

        from citygml2objv2_ray import synth
        from citygml2objv2_ray.arrow_utils import map_points
        from citygml2objv2_ray.exact import translation_params

        docs = []
        for doc, seed, shift in (("a.gml", 1, 0.0), ("b.gml", 2, 1000.0)):
            t, _ = synth.make_city(3, seed=seed, corruption=0.0)
            t = map_points(t, lambda p, d=shift: p + [d, d, 0.0])
            docs.append(t.set_column(0, "doc_id", pa.array([doc] * t.num_rows)))
        both = pa.concat_tables(docs)
        df = both.to_pandas()
        assert set(df[df.doc_id == "a.gml"].building_id) == set(df[df.doc_id == "b.gml"].building_id)
        lows = [
            np.vstack([np.stack(r) for r in g.exterior if len(r)]).min(axis=0)
            for _, g in df.groupby(["doc_id", "building_id"])
        ]
        mean = np.mean(lows, axis=0)
        p = translation_params(rd.from_arrow(both).repartition(3))
        assert p.tolist() == [-int(mean[0]), -int(mean[1]), 0]

    def test_translation_params_of_no_surfaces(self, ray_session):
        """A mean over no buildings has no value: zero surfaces raise an
        error that says so, not an AttributeError from inside the
        aggregate."""
        from citygml2objv2_ray.exact import translation_params
        from citygml2objv2_ray.schemas import SURFACES_SCHEMA

        with pytest.raises(ValueError, match="surfaces are empty"):
            translation_params(rd.from_arrow(SURFACES_SCHEMA.empty_table()))


class TestHull:
    def test_convex_hull_2d_square_plus_inner(self):
        from citygml2objv2_ray.hull import convex_hull_2d

        pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5], [0.2, 0.8]])
        h = convex_hull_2d(pts)
        assert len(h) == 4
        assert {tuple(p) for p in h} == {(0, 0), (1, 0), (1, 1), (0, 1)}

    def test_approx_window_hull_area(self):
        from citygml2objv2_ray.hull import approx_window_hull

        # vertical window 2x1 in the XZ plane
        win = np.array([[0, 5, 1], [2, 5, 1], [2, 5, 2], [0, 5, 2]], float)
        tris = approx_window_hull(win, seed_key="w1")
        n = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
        area = 0.5 * np.linalg.norm(n, axis=1).sum()
        assert area == pytest.approx(2.0, rel=1e-3)

    def test_perturb_deterministic(self):
        from citygml2objv2_ray.hull import perturb_points

        pts = np.zeros((4, 3))
        a = perturb_points(pts, "key1")
        b = perturb_points(pts, "key1")
        c = perturb_points(pts, "key2")
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.abs(a).max() <= 1e-6

    def test_corner_markers(self):
        from citygml2objv2_ray.hull import corner_marker_triangles

        # the bbox of (0,0,0)-(10,10,10) buffered by 3 m
        tris = corner_marker_triangles(np.full((1, 3), -3.0), np.full((1, 3), 13.0))
        assert tris.shape == (1, 8, 3, 3)
        assert np.array_equal(tris[0, 7], [[13, 13, 13], [14, 13, 13], [13, 14, 13]])
