"""Component separation, partitioned IVF ANN, multimodal plumbing tests."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd


def encode_wav(samples: np.ndarray, sample_rate: int) -> bytes:
    """16-bit mono PCM WAV via stdlib ``wave`` — the always-on REAL format."""
    import io
    import wave

    s = np.asarray(samples, dtype=np.int16)
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(int(sample_rate))
        w.writeframes(s.tobytes())
    return buf.getvalue()


@pytest.fixture(scope="module")
def city(ray_session):
    from citygml2objv2_ray import synth

    return synth.make_city(10, seed=42, corruption=0.0)


class TestComponents:
    def test_separate_components(self, city):
        from citygml2objv2_ray.pipelines.components import (
            component_sidecars,
            separate_components,
        )
        from citygml2objv2_ray.sinks.obj import parse_obj

        surfaces, _ = city
        comps = separate_components(rd.from_arrow(surfaces)).to_pandas()
        sdf = surfaces.to_pandas()
        assert len(comps) == len(sdf)  # one component per surface polygon
        # quad fast-path: 4-ring (5 pts with closure) walls get FULL
        # triangulation (5pt closed ring -> cleaned 4+1) — quads in our synth
        # are 5-point closed rings => len(ext)==5 → full path, 2 triangles
        walls = comps[comps.semantic == "WallSurface"]
        assert (walls.n_tri >= 2).all()
        # translation applied: per-building bbox mean removed → coords near 0
        assert comps.xmin.abs().max() < 100
        # obj text parses
        v, f = parse_obj(comps.obj_text.iloc[0])
        assert len(f) == comps.n_tri.iloc[0]
        assert len(v) == 3 * len(f)  # flat triplets, no dedup (E2 parity)

        side = component_sidecars(separate_components(rd.from_arrow(surfaces)))
        assert list(side.building_seq.values) == sorted(side.building_seq.values)

    def test_quad_fastpath_and_markers(self, city):
        from citygml2objv2_ray.pipelines.components import separate_components

        surfaces, _ = city
        comps = separate_components(
            rd.from_arrow(surfaces), corner_markers=True, approx_windows=True
        ).to_pandas()
        markers = comps[comps.semantic == "Marker"]
        assert (markers.n_tri == 8).all()
        assert markers.building_id.nunique() == comps.building_id.nunique()
        # approximated windows produce hull fans
        wins = comps[(comps.semantic == "Window")]
        if len(wins):
            assert (wins.n_tri >= 1).all()

    def test_rings_are_cleaned_at_config_decimals(self, ray_session):
        """The fast-path branch follows ``cfg.vertex_round_decimals``: a
        triangle with two corners 1e-7 apart has 3 distinct points at 9
        decimals (the quad fast path's one triangle) and 2 at 6 (empty);
        an L beside it takes the batched full path at both."""
        import dataclasses

        from citygml2objv2_ray.config import DEFAULT_CONFIG
        from citygml2objv2_ray.pipelines.components import separate_components
        from citygml2objv2_ray.schemas import SURFACES_SCHEMA

        sliver = [[0, 0, 0], [4, 0, 0], [4, 1e-7, 0], [0, 0, 0]]
        L = [[0, 0, 0], [2, 0, 0], [2, 1, 0], [1, 1, 0], [1, 2, 0], [0, 2, 0], [0, 0, 0]]
        rows = [
            dict(
                doc_id="d", building_id="b", building_seq=0, feature_id=f"f{i}",
                semantic="RoofSurface", is_opening=False, poly_id=f"p{i}", poly_seq=i,
                exterior=np.asarray(ring, float).tolist(), interiors=[],
                attr_irradiation=0.0, truth_valid=True, truth_area=0.0,
            )
            for i, ring in enumerate([sliver, L])
        ]
        surfaces = rd.from_arrow(pa.Table.from_pylist(rows, schema=SURFACES_SCHEMA))
        for decimals, n_tri in ((9, [1, 4]), (6, [0, 4])):
            cfg = dataclasses.replace(DEFAULT_CONFIG, vertex_round_decimals=decimals)
            comps = separate_components(surfaces, cfg).to_pandas()
            assert comps.sort_values("component_seq").n_tri.tolist() == n_tri, decimals


def _edge_case_surfaces():
    """Buildings of the rings where the batched pass could part from the
    per-building loop: an open ring (the full path drops its last point),
    a sliver that collapses at 6 decimals but not at 9, a zero-normal
    ring, holes, 3-point quads (closed, and open with 4 points), a ring
    of 12 points, empty and 2-point rings, windows; and two documents
    whose buildings share id and sequence number."""
    from citygml2objv2_ray.schemas import SURFACES_SCHEMA

    sq = lambda s, z=0.0: [[0, 0, z], [s, 0, z], [s, s, z], [0, s, z], [0, 0, z]]  # noqa: E731
    hole = [[1, 1, 0], [1, 2, 0], [2, 2, 0], [2, 1, 0], [1, 1, 0]]
    t = np.linspace(0, 2 * np.pi, 13)[:-1]
    circle = np.column_stack([5 + 3 * np.cos(t), 5 + 3 * np.sin(t), 2 + 0.1 * np.cos(t)])
    wall = [[0, 0, 0], [4, 0, 0], [4, 0, 3], [2, 0, 4], [0, 0, 3], [0, 0, 0]]
    buildings = {
        ("doc_a", "B1", 0): [
            (sq(4), [hole, [[2.5, 2.5, 0], [3, 2.5, 0], [3, 3, 0], [2.5, 2.5, 0]]], False),
            ([[0, 0, 0], [2, 0, 0], [2, 1, 0], [1, 1, 0], [1, 2, 0], [0, 2, 0]], [], False),
            ([[0, 0, 0], [4, 0, 0], [4, 1e-7, 0], [0, 0, 0]], [], False),
            ([[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0], [0, 0, 0]], [], False),
            ([[0, 0, 5], [1, 0, 5], [0, 1, 5], [0, 0, 5]], [], False),
            ([[0, 0, 5], [1, 0, 5], [1, 1, 5], [0, 1, 5]], [], False),
            (np.vstack([circle, circle[:1]]).tolist(), [], False),
            ([], [], False),
            ([[1, 1, 1], [1, 1, 1]], [], True),
            (wall, [], True),
            (sq(1, 2.0), [], True),
        ],
        ("doc_a", "B2", 1): [(sq(2, 7.0), [], False), (wall, [], True)],
        ("doc_b", "B1", 0): [(sq(3, -2.0), [hole], False), ([[9, 9, 9], [9, 9, 9]], [], False)],
    }
    rows = [
        dict(
            doc_id=doc, building_id=bid, building_seq=bseq, feature_id=f"{bid}_f{i}",
            semantic="Window" if opening else "WallSurface", is_opening=opening,
            poly_id=f"{doc}_{bid}_p{i}", poly_seq=i,
            exterior=np.asarray(ext, float).reshape(-1, 3).tolist(), interiors=holes,
            attr_irradiation=0.0, truth_valid=True, truth_area=0.0,
        )
        for (doc, bid, bseq), polys in buildings.items()
        for i, (ext, holes, opening) in enumerate(polys)
    ]
    return pa.Table.from_pylist(rows[::-1], schema=SURFACES_SCHEMA)


def _random_city(seed: int):
    from citygml2objv2_ray import synth

    return synth.make_city(12, seed=seed, corruption=0.3)[0]


@pytest.mark.parametrize("options", [(False, False), (True, True)], ids=["default", "appW_addBB"])
@pytest.mark.parametrize(
    "surfaces, decimals",
    [(_edge_case_surfaces, 9), (_edge_case_surfaces, 6), (lambda: _random_city(3), 9),
     (lambda: _random_city(4), 9)],
    ids=["edge_cases", "edge_cases_6dp", "city3", "city4"],
)
def test_components_equal_rowwise_oracle(ray_session, surfaces, decimals, options):
    """The super-group pass equals the per-building loop frame for frame,
    OBJ text included."""
    import dataclasses

    import reference_oracle as ro
    from citygml2objv2_ray.config import DEFAULT_CONFIG
    from citygml2objv2_ray.pipelines.components import separate_components

    table = surfaces()
    cfg = dataclasses.replace(DEFAULT_CONFIG, vertex_round_decimals=decimals)
    approx, markers = options
    got = separate_components(rd.from_arrow(table).repartition(3), cfg, approx, markers).to_pandas()
    got = got.sort_values(["doc_id", "building_seq", "component_seq"], ignore_index=True)
    want = ro.separate_components_rowwise(table.to_pandas(), cfg, approx, markers)
    pd.testing.assert_frame_equal(got, want, check_exact=True)


class TestIVFDistributed:
    def test_build_is_bounded_prunes_and_recall_holds(self, sf_dir, ray_session, tmp_path):
        """The partitioned IVF path must (a) train on a driver-side sample
        bounded by max_train — never the full embeddings table; (b) PRUNE:
        a search reads only the probed list_id partitions (VERDICT r2 item
        1); (c) keep recall vs brute force; (d) probing every list is exact:
        the same neighbours, in the same order, as brute force."""
        import os

        import pyarrow.parquet as pq

        from citygml2objv2_ray.ann import (
            ivf_build_partitioned,
            ivf_search_partitioned,
            sample_train_centroids,
        )
        from citygml2objv2_ray.dedup import cosine_topk

        ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
        n = ds.count()
        centers, n_sampled = sample_train_centroids(ds, n_lists=16, max_train=256)
        assert n_sampled <= 256 and n_sampled < n
        assert centers.shape[0] == 16

        idx = str(tmp_path / "ivf_idx")
        ivf_build_partitioned(ds, idx, n_lists=16, max_train=256)
        # the corpus is physically partitioned by centroid id
        parts = [d for d in os.listdir(idx) if d.startswith("list_id=")]
        assert len(parts) > 1
        # total indexed rows == corpus rows (no row lost in the build)
        assert sum(
            pq.ParquetFile(os.path.join(idx, d, f)).metadata.num_rows
            for d in parts
            for f in os.listdir(os.path.join(idx, d))
        ) == n

        # pruning: a narrow probe must read strictly fewer partitions and
        # rows than the whole corpus (20 queries x nprobe=6 can cover all
        # 16 lists at this tiny scale, so probe narrow here)
        _, stats = ivf_search_partitioned(
            idx, range(3), k=5, nprobe=2, return_stats=True
        )
        assert 0 < stats["partitions_read"] < stats["partitions_total"]
        assert 0 < stats["rows_scanned"] < n

        res = ivf_search_partitioned(idx, range(20), k=5, nprobe=6)
        res2 = ivf_search_partitioned(idx, range(20), k=5, nprobe=6)
        pd.testing.assert_frame_equal(res, res2)  # deterministic

        tab = pq.read_table(f"{sf_dir}/embeddings.parquet")
        df = tab.to_pandas()
        V = np.vstack(df.embedding.to_numpy()).astype(np.float64)
        ids = df.vec_id.to_numpy()
        order = np.argsort(ids)
        V, ids = V[order], ids[order]
        bi, _ = cosine_topk(V[:20], V, k=6)
        hits = total = 0
        for qi in range(20):
            exact = {int(ids[j]) for j in bi[qi] if ids[j] != ids[qi]}
            got = set(res[res.query_id == ids[qi]].neighbor_id.tolist())
            exact = set(list(exact)[:5]) if len(exact) > 5 else exact
            hits += len(got & exact)
            total += len(exact)
        assert hits / max(1, total) >= 0.6

        full = ivf_search_partitioned(idx, range(20), k=5, nprobe=16)
        for qi in range(20):
            exact = [int(ids[j]) for j in bi[qi] if ids[j] != ids[qi]][:5]
            assert full[full.query_id == ids[qi]].neighbor_id.tolist() == exact, qi


def _duplicate_corpus(path, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """400 rows of 12 distinct directions (the 8 axes and 4 vectors of
    four ones, scaled by 1, 2 or 4) under shuffled vec_ids, written as 8
    files so Ray reads it as several blocks. Every normalized entry and
    every cosine between them (0, 0.5, 1) is exact in binary, so equal
    vectors tie exactly in any GEMM. Returns (vec_ids, vectors) in file
    order."""
    import pyarrow.parquet as pq

    rng = np.random.default_rng(seed)
    dirs = np.vstack([np.eye(8), np.repeat(np.eye(2), 4, axis=1), np.tile(np.eye(2), 4)])
    V = (dirs[rng.integers(0, 12, 400)] * rng.choice([1.0, 2.0, 4.0], (400, 1))).astype(np.float32)
    ids = rng.permutation(400).astype(np.int64)
    path.mkdir()
    for i in range(8):
        sl = slice(50 * i, 50 * (i + 1))
        emb = pa.FixedSizeListArray.from_arrays(pa.array(V[sl].ravel()), 8).cast(pa.list_(pa.float32()))
        pq.write_table(pa.table({"vec_id": ids[sl], "embedding": emb}), path / f"part-{i}.parquet")
    return ids, V


def _exact_topk(ids: np.ndarray, V: np.ndarray, queries, k: int) -> pd.DataFrame:
    """(query_id, rank, neighbor_id, score): each query's k other rows by
    (cosine desc, vec_id asc), as the SQL twins' ROW_NUMBER order."""
    from citygml2objv2_ray.dedup import normalize_rows

    Vn = normalize_rows(V)
    rows = []
    for q in queries:
        i = int(np.flatnonzero(ids == q)[0])
        s = Vn @ Vn[i]
        keep = ids != q
        order = np.lexsort((ids[keep], -s[keep]))[:k]
        rows += [(q, r, int(ids[keep][j]), round(float(s[keep][j]), 4)) for r, j in enumerate(order)]
    return pd.DataFrame(rows, columns=["query_id", "rank", "neighbor_id", "score"]).astype(
        {"query_id": np.int64, "rank": np.int64, "neighbor_id": np.int64}
    )


class TestExactTies:
    """A corpus of duplicate vectors: every top-k path keeps (score desc,
    vec_id asc) however the rows fall into blocks."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_brute_ivf_and_topk_break_ties_by_vec_id(self, ray_session, tmp_path, seed):
        from citygml2objv2_ray import ann, ops

        ids, V = _duplicate_corpus(tmp_path / "emb", seed)
        path = str(tmp_path / "emb")
        queries = sorted(ids[:20].tolist())
        want = _exact_topk(ids, V, queries, 2)
        ds = rd.read_parquet(path)
        assert ds.materialize().num_blocks() > 1

        pd.testing.assert_frame_equal(ann.brute_search_distributed(path, queries, k=2), want)

        index = str(tmp_path / "ivf")
        ann.ivf_build_partitioned(ds, index, n_lists=4, max_train=400)
        got = ann.ivf_search_partitioned(index, queries, k=2, nprobe=4, query_source=path)
        pd.testing.assert_frame_equal(got, want)

        # every (query, row) pair as one candidate row, through the generic operator
        from citygml2objv2_ray.dedup import normalize_rows

        Vn = normalize_rows(V)
        qi = np.repeat(np.asarray(queries), len(ids))
        pairs = pd.DataFrame({
            "query_id": qi,
            "neighbor_id": np.tile(ids, len(queries)),
            "score": np.concatenate([Vn @ Vn[int(np.flatnonzero(ids == q)[0])] for q in queries]),
        })
        pairs = pairs[pairs.query_id != pairs.neighbor_id]
        top = ops.topk("test", rd.from_pandas(pairs).repartition(7), 2, ["score", "neighbor_id"], [True, False],
                       by=["query_id"])
        assert top.neighbor_id.tolist() == want.neighbor_id.tolist()
        assert top.query_id.tolist() == want.query_id.tolist()

    def test_ivf_with_no_query_vector_returns_the_empty_frame(self, ray_session, tmp_path):
        """A search whose ids are not in the corpus reads no partition and
        returns the empty 4-column frame and its stats."""
        from citygml2objv2_ray import ann

        _duplicate_corpus(tmp_path / "emb", 0)
        index = str(tmp_path / "ivf")
        ann.ivf_build_partitioned(rd.read_parquet(str(tmp_path / "emb")), index, n_lists=4, max_train=400)
        df, stats = ann.ivf_search_partitioned(index, [10**6], k=2, nprobe=2, return_stats=True)
        assert list(df.columns) == ["query_id", "rank", "neighbor_id", "score"] and len(df) == 0
        assert stats == {"partitions_read": 0, "partitions_total": 4, "rows_scanned": 0}


class TestMultimodal:
    def test_audio_plumbing(self, ray_session):
        from citygml2objv2_ray.stages.multimodal import (
            AUDIO_SCHEMA,
            AudioFeatures,
            encode_rawpcm,
        )

        rng = np.random.default_rng(1)
        rows = []
        for i in range(20):
            samples = (rng.normal(0, 3000, 1600)).astype(np.int16)
            rows.append(
                dict(
                    clip_id=f"c{i}", bytes=encode_rawpcm(samples, 16000),
                    fmt="rawpcm" if i % 2 == 0 else "mp3",
                    sample_rate=16000, caption=f"clip {i}",
                )
            )
        tab = pa.Table.from_pylist(rows, schema=AUDIO_SCHEMA)
        out = (
            rd.from_arrow(tab)
            .map_batches(AudioFeatures, batch_format="pyarrow", batch_size=8, concurrency=(1, 2))
            .to_pandas()
        )
        assert len(out) == 20
        assert "bytes" not in out.columns  # heavy column dropped
        ok = out[out.fmt == "rawpcm"]
        assert ok.decoded_ok.all()
        assert np.allclose(ok.duration_s, 0.1)
        stub = out[out.fmt == "mp3"]
        assert (~stub.decoded_ok).all()  # stubbed codec → flagged, not crashed

    def test_video_plumbing(self, ray_session):
        from citygml2objv2_ray.stages.multimodal import (
            VIDEO_SCHEMA,
            FrameSampler,
            encode_rawvid,
        )

        rng = np.random.default_rng(2)
        rows = []
        for i in range(6):
            frames = rng.integers(0, 256, size=(9, 8, 8, 3), dtype=np.uint8)
            rows.append(
                dict(
                    video_id=f"v{i}", bytes=encode_rawvid(frames), fmt="rawvid",
                    n_frames=9, w=8, h=8, caption=f"video {i}",
                )
            )
        tab = pa.Table.from_pylist(rows, schema=VIDEO_SCHEMA)
        out = (
            rd.from_arrow(tab)
            .map_batches(FrameSampler, fn_constructor_args=(3,), batch_format="pyarrow",
                         batch_size=4, concurrency=(1, 2))
            .to_pandas()
        )
        assert len(out) == 18  # 6 videos x 3 sampled frames
        assert set(out.frame_idx.unique()) == {0, 4, 8}

    def test_stub_raises_for_real_formats(self):
        from citygml2objv2_ray.stages.multimodal import (
            _decode_audio,
            _decode_video_frame,
            pyav_mod,
            soundfile_mod,
        )

        if soundfile_mod() is None:
            with pytest.raises(NotImplementedError):
                _decode_audio(b"ID3...", "mp3")
        if pyav_mod() is None:
            with pytest.raises(NotImplementedError):
                _decode_video_frame(b"\x00\x00\x00 ftypmp42", "mp4", 0)

    def test_wav_real_codec_roundtrip(self, ray_session):
        """The always-on REAL container format: 16-bit PCM WAV through the
        full AudioFeatures stage (stdlib ``wave`` decode, no fakes)."""
        from citygml2objv2_ray.stages.multimodal import (
            AUDIO_SCHEMA,
            AudioFeatures,
            _decode_audio,
        )

        rng = np.random.default_rng(7)
        samples = (rng.normal(0, 5000, 16000)).astype(np.int16)
        blob = encode_wav(samples, 16000)
        assert blob[:4] == b"RIFF" and blob[8:12] == b"WAVE"  # genuine container
        back, rate = _decode_audio(blob, "wav")
        assert rate == 16000 and np.array_equal(back, samples)

        rows = [
            dict(clip_id=f"w{i}", bytes=encode_wav(samples[: 1600 * (i + 1)], 16000),
                 fmt="wav", sample_rate=16000, caption=f"wav {i}")
            for i in range(6)
        ]
        tab = pa.Table.from_pylist(rows, schema=AUDIO_SCHEMA)
        out = (
            rd.from_arrow(tab)
            .map_batches(AudioFeatures, batch_format="pyarrow", batch_size=4,
                         concurrency=(1, 2))
            .to_pandas()
        )
        assert out.decoded_ok.all()
        assert np.allclose(sorted(out.duration_s), [0.1 * (i + 1) for i in range(6)])

    def test_soundfile_mp3_if_available(self):
        from citygml2objv2_ray.stages.multimodal import _decode_audio, soundfile_mod

        sf = soundfile_mod()
        if sf is None:
            pytest.skip("soundfile not in this container (optional codec shim)")
        import io

        samples = (np.sin(np.linspace(0, 100, 4000)) * 10000).astype(np.int16)
        buf = io.BytesIO()
        sf.write(buf, samples, 16000, format="FLAC")
        back, rate = _decode_audio(buf.getvalue(), "flac")
        assert rate == 16000 and len(back) == 4000

    def test_pyav_mp4_if_available(self):
        from citygml2objv2_ray.stages.multimodal import _decode_video_frame, pyav_mod

        av = pyav_mod()
        if av is None:
            pytest.skip("PyAV not in this container (optional codec shim)")
        import io

        buf = io.BytesIO()
        with av.open(buf, "w", format="mp4") as c:
            s = c.add_stream("h264", rate=5)
            s.width, s.height, s.pix_fmt = 16, 16, "yuv420p"
            for i in range(5):
                arr = np.full((16, 16, 3), i * 40, dtype=np.uint8)
                for pkt in s.encode(av.VideoFrame.from_ndarray(arr, format="rgb24")):
                    c.mux(pkt)
            for pkt in s.encode():
                c.mux(pkt)
        frame = _decode_video_frame(buf.getvalue(), "mp4", 2)
        assert frame.shape == (16, 16, 3)


class TestResize:
    def test_resize_stage(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from citygml2objv2_ray import codecs, synth
        from citygml2objv2_ray.stages.images import Resize

        _, fp = synth.make_city(5, seed=42)
        imgs = synth.make_image_rows(np.arange(12), fp, seed=42)
        out = (
            rd.from_arrow(imgs)
            .map_batches(Resize, fn_constructor_args=(16,), batch_format="pyarrow",
                         batch_size=4, concurrency=(1, 2))
            .to_pandas()
        )
        assert (out.w == 16).all() and (out.h == 16).all()
        for row in out.itertuples():
            dec = codecs.decode_image(row.bytes, row.fmt)
            assert dec.shape == (16, 16, 3)

    def test_block_mean_downscale_exact(self):
        from citygml2objv2_ray.stages.images import Resize

        rgb = np.zeros((32, 32, 3), dtype=np.uint8)
        rgb[:16] = 100
        rgb[16:] = 200
        small = Resize._resize(rgb, 2)
        assert small.shape == (2, 2, 3)
        assert np.all(small[0] == 100) and np.all(small[1] == 200)


class TestRequiredCodecs:
    """Env-gated tier-2 codec smoke (VERDICT r3 item 9): this container has
    no soundfile/PyAV, so by default this SKIPS with a reason like the
    if-available twins above. A richer deployment sets
    ``GRAFT_REQUIRE_CODECS=1`` in CI and this test then FAILS (not skips)
    unless one real compressed audio file and one real mp4 round-trip
    through the decode shims — proving the optional codec tier instead of
    silently skipping it."""

    def test_codecs_required_when_env_set(self):
        import os

        if not os.environ.get("GRAFT_REQUIRE_CODECS"):
            pytest.skip(
                "set GRAFT_REQUIRE_CODECS=1 where soundfile/PyAV are installed "
                "to enforce (not skip) the tier-2 codec paths"
            )
        import io

        from citygml2objv2_ray.stages.multimodal import (
            _decode_audio,
            _decode_video_frame,
            pyav_mod,
            soundfile_mod,
        )

        sf = soundfile_mod()
        av = pyav_mod()
        assert sf is not None, "GRAFT_REQUIRE_CODECS=1 but soundfile is missing"
        assert av is not None, "GRAFT_REQUIRE_CODECS=1 but PyAV is missing"

        samples = (np.sin(np.linspace(0, 100, 4000)) * 10000).astype(np.int16)
        fmt = "MP3" if "MP3" in sf.available_formats() else "FLAC"
        buf = io.BytesIO()
        sf.write(buf, samples, 16000, format=fmt)
        back, rate = _decode_audio(buf.getvalue(), fmt.lower())
        assert rate == 16000 and len(back) >= 3900  # mp3 may pad edges

        vbuf = io.BytesIO()
        with av.open(vbuf, "w", format="mp4") as c:
            s = c.add_stream("h264", rate=5)
            s.width, s.height, s.pix_fmt = 16, 16, "yuv420p"
            for i in range(5):
                arr = np.full((16, 16, 3), i * 40, dtype=np.uint8)
                for pkt in s.encode(av.VideoFrame.from_ndarray(arr, format="rgb24")):
                    c.mux(pkt)
            for pkt in s.encode():
                c.mux(pkt)
        frame = _decode_video_frame(vbuf.getvalue(), "mp4", 2)
        assert frame.shape == (16, 16, 3)
