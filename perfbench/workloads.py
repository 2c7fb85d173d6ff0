"""The benchmark's three workloads.

Each workload generates its inputs from the seed on the driver (no Ray),
loads them, runs one batch job through the program's public pipeline, checks
the job's output, runs an identity ``map_batches`` floor over the same input
blocks, and runs a traced pass: the same layers called one after another
from this file, with a span around each call.

Inputs are generated once per (workload, seed, size) and cached under the
benchmark's work directory; generation is never timed as set-up.
"""

from __future__ import annotations

import glob
import hashlib
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from citygml2objv2_ray.config import DEFAULT_CONFIG as CFG


class CheckError(Exception):
    """A job's output failed the workload's correctness check."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _cached(path: str, build) -> str:
    """Build ``path`` once: ``build(tmp)`` fills a temp dir that is then
    renamed into place, so an existing ``path`` is always complete."""
    if os.path.isdir(path):
        return path
    tmp = path + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    build(tmp)
    os.replace(tmp, path)
    return path


def _files_mb(paths: list[str]) -> float:
    return sum(os.path.getsize(p) for p in paths) / 1e6


def _identity(batch):
    return batch


# ---------------------------------------------------------------------------
# flagship: spatial join + tile assignment of image rows
# ---------------------------------------------------------------------------


class Flagship:
    """``run_flagship(resume=False)`` over a seeded images world: 30% of
    the images in one hot cell (``synth.HOT_FRACTION``), 16 output
    partitions, one building per 100 images (the sf ratio of
    ``synth.scale_counts``)."""

    name = "flagship"
    row_unit = "images"
    layers = (
        "build_index", "roof_tri2d", "read", "cell_encode", "join",
        "decode_clip", "write",
    )

    def __init__(self, n_images: int):
        self.n_images = n_images
        self.n_buildings = max(40, n_images // 100)

    def generate(self, cache: str, seed: int) -> str:
        from citygml2objv2_ray import synth
        from citygml2objv2_ray.spatial import part_of_cell

        def build(d: str) -> None:
            surfaces, footprints = synth.make_city(self.n_buildings, seed=seed)
            images = synth.make_image_rows(np.arange(self.n_images), footprints, seed=seed)
            cell = synth.grid_cell(
                np.asarray(images["cx"]), np.asarray(images["cy"]), CFG.cell_size
            )
            part = part_of_cell(cell, CFG.n_output_parts)
            # the hive layout of synth.generate_world: part=<p>/ dirs, rows
            # sorted by image_id, at most 4096 rows per file
            for p in np.unique(part):
                sub = images.filter(pa.array(part == p))
                pdir = os.path.join(d, "images", f"part={int(p)}")
                os.makedirs(pdir)
                for k, lo in enumerate(range(0, sub.num_rows, 4096)):
                    pq.write_table(
                        sub.slice(lo, 4096),
                        os.path.join(pdir, f"part-{k:05d}.parquet"),
                        row_group_size=4096,
                    )
            pq.write_table(surfaces, os.path.join(d, "surfaces.parquet"))
            pq.write_table(footprints, os.path.join(d, "footprints.parquet"))

        return _cached(os.path.join(cache, f"images-n{self.n_images}-s{seed}"), build)

    def load(self, inputs: str) -> dict:
        images = os.path.join(inputs, "images")
        files = sorted(glob.glob(os.path.join(images, "part=*", "*.parquet")))
        truth = pa.concat_tables(
            pq.read_table(f, columns=["image_id", "truth_cell", "truth_building_id"])
            for f in files
        )
        truth = truth.sort_by("image_id")
        return dict(
            images=images,
            files=files,
            surfaces=pq.read_table(os.path.join(inputs, "surfaces.parquet")),
            footprints=pq.read_table(os.path.join(inputs, "footprints.parquet")),
            truth=truth,
            rows=truth.num_rows,
        )

    def run(self, st: dict, out: str):
        from citygml2objv2_ray.pipelines.flagship import run_flagship

        return run_flagship(st["images"], st["surfaces"], st["footprints"], out, resume=False)

    def check(self, st: dict, res, out: str) -> str:
        from citygml2objv2_ray.state.checkpoint import CheckpointLog

        n = st["rows"]
        _require(res.rows_written == n, f"rows_written {res.rows_written} != {n} input rows")
        got = pa.concat_tables(
            pq.read_table(f, columns=["image_id", "cell", "building_id", "pixel_ok"])
            for f in CheckpointLog(out).data_files()
        ).sort_by("image_id")
        truth = st["truth"]
        _require(got.num_rows == n, f"{got.num_rows} rows on disk, {n} expected")
        _require(got["image_id"].equals(truth["image_id"]), "written image ids differ from input")
        _require(
            np.array_equal(np.asarray(got["cell"]), np.asarray(truth["truth_cell"])),
            "cell != truth_cell",
        )
        matched = np.asarray(got["building_id"].is_valid())
        _require(
            np.array_equal(matched, np.asarray(truth["truth_building_id"].is_valid())),
            "building matched != truth_building_id set",
        )
        _require(bool(np.asarray(got["pixel_ok"]).all()), "pixel_ok false on some rows")
        # integer-exact tile stats only: f64 coverage sums depend on the
        # order the acks arrive in
        ts = res.tile_stats.select(["cell", "sum_matched", "cov_px", "tile_px", "n"])
        return _sha(ts.to_pandas().to_csv(index=False).encode())

    def floor(self, st: dict) -> None:
        import ray.data as rd

        from citygml2objv2_ray.pipelines.flagship import IMAGE_COLUMNS

        (
            rd.read_parquet(st["images"], columns=IMAGE_COLUMNS)
            .map_batches(_identity, batch_format="pyarrow", batch_size=CFG.join_batch_size)
            .map_batches(_identity, batch_format="pyarrow", batch_size=CFG.write_batch_size)
            .count()
        )

    def traced(self, st: dict, tr, out: str) -> dict:
        from citygml2objv2_ray.pipelines.flagship import IMAGE_COLUMNS
        from citygml2objv2_ray.pipelines.geometry import roof_tri2d
        from citygml2objv2_ray.spatial import build_index, part_of_cell
        from citygml2objv2_ray.stages.images import DecodeClip, cell_encode
        from citygml2objv2_ray.stages.join import SpatialJoin
        from citygml2objv2_ray.state.checkpoint import CheckpointLog, PartitionedWriter

        with tr.span("build_index"):
            index = build_index(st["footprints"], CFG)
        with tr.span("roof_tri2d"):
            tri2d = roof_tri2d(st["surfaces"], CFG)
        join = SpatialJoin(index, CFG)
        dc = DecodeClip(tri2d, CFG)
        writer = PartitionedWriter(out, "traced", "assign", "part", "image_id")
        pending: list[pa.Table] = []

        def write(tabs: list[pa.Table]) -> None:
            with tr.span("write"):
                writer(pa.concat_tables(tabs))

        tabs = []
        for f in st["files"]:
            with tr.span("read"):
                tabs.append(pq.read_table(f, columns=IMAGE_COLUMNS))
        images = pa.concat_tables(tabs)
        tr.count("read.mb", images.nbytes / 1e6)
        # the pipeline's batch shapes: join_batch_size rows through the fused
        # cell/join/decode stage, write_batch_size rows per write
        for lo in range(0, images.num_rows, CFG.join_batch_size):
            b = images.slice(lo, CFG.join_batch_size)
            with tr.span("cell_encode"):
                b = cell_encode(b, CFG)
                part = part_of_cell(np.asarray(b["cell"]), CFG.n_output_parts)
                b = b.append_column("part", pa.array(part, pa.int64()))
            with tr.span("join"):
                b = join(b)
            tr.count("join.rows", b.num_rows)
            tr.count("join.matched", len(b["building_id"]) - b["building_id"].null_count)
            with tr.span("decode_clip"):
                b = dc(b)
            tr.count("decode_clip.clipped_rows", int((np.asarray(b["roof_coverage"]) > 0).sum()))
            tr.count("decode_clip.pixel_ok", int(np.asarray(b["pixel_ok"]).sum()))
            pending.append(b)
            if sum(t.num_rows for t in pending) >= CFG.write_batch_size:
                write(pending)
                pending = []
        if pending:
            write(pending)
        log = CheckpointLog(out)
        files = log.data_files()
        lineage = log.read_lineage()
        written = int(pc.sum(lineage["rows_out"]).as_py() or 0)
        _require(written == st["rows"], f"traced pass wrote {written} rows, {st['rows']} expected")
        c = tr.counts
        lookups = dc.decode.hits + dc.decode.misses
        return {
            "read.mb": c["read.mb"],
            "join.match_ratio": c["join.matched"] / c["join.rows"],
            "decode.cache_hit_ratio": dc.decode.hits / lookups if lookups else 0.0,
            "decode_clip.clipped_rows": int(c["decode_clip.clipped_rows"]),
            "decode_clip.pixel_ok_ratio": c["decode_clip.pixel_ok"] / c["join.rows"],
            "write.files": len(files),
            "write.mb": _files_mb(files),
            "write.lineage_rows": lineage.num_rows,
        }


# ---------------------------------------------------------------------------
# convert: CityGML -> OBJ, triangulated and -p
# ---------------------------------------------------------------------------


def _render_obj(interned: pd.DataFrame, out: str, name: str = "model") -> list[str]:
    """Per-class OBJ text from interned per-building rows, in the format of
    ``sinks.obj.write_obj_per_class`` (its render step runs inside a Ray
    job, so the traced pass renders here; the check compares the bytes
    with the pipeline's files)."""
    df = interned.sort_values(["semantic", "building_seq"], kind="stable")
    off = df.groupby("semantic").n_vertices.cumsum() - df.n_vertices
    preserve = "face_lens" in df.columns
    paths: list[str] = []
    for sem, g in df.groupby("semantic", sort=True):
        path = os.path.join(out, f"{name}-{sem}.obj")
        paths.append(path)
        with open(path, "w") as fh:
            fh.write("# citygml2objv2_ray OBJ export\n")
            for row, o in zip(g.itertuples(), off[g.index]):
                lines = [f"o {row.building_id}"]
                for p in np.asarray(row.verts, dtype=np.float64).reshape(-1, 3):
                    lines.append(f"v {p[0]!r} {p[1]!r} {p[2]!r}")
                fidx = np.asarray(row.faces, dtype=np.int64) + 1 + int(o)
                if preserve:
                    pos = 0
                    for ln in row.face_lens:
                        lines.append("f " + " ".join(str(i) for i in fidx[pos : pos + ln]))
                        pos += ln
                else:
                    for a, b, c in fidx.reshape(-1, 3):
                        lines.append(f"f {a} {b} {c}")
                fh.write("\n".join(lines))
                fh.write("\n")
    return paths


def _obj_digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(os.path.basename(p).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


# the job's two output modes: (name, preserve)
MODES = (("tri", False), ("p", True))


class Convert:
    """``pipelines.convert.convert`` over one seeded CityGML document from
    ``synth.make_city``, serialized with ``surfaces_to_gml``. One job
    converts the document twice: triangulated (the reference's default) and
    with ``preserve=True`` (``-p``), so a change that speeds one mode up and
    slows the other down shows in the same job."""

    name = "convert"
    row_unit = "polygons"
    layers = ("parse", "clean_validate", "triangulate", "obj_intern", "obj_write")

    def __init__(self, n_buildings: int):
        self.n_buildings = n_buildings

    def generate(self, cache: str, seed: int) -> str:
        from citygml2objv2_ray import synth
        from citygml2objv2_ray.sources.citygml import surfaces_to_gml

        def build(d: str) -> None:
            surfaces, _ = synth.make_city(self.n_buildings, seed=seed)
            # ONE document: building_seq restarts in every parsed document,
            # and the per-class OBJ assembly orders and offsets buildings by
            # building_seq alone
            os.makedirs(os.path.join(d, "gml"))
            with open(os.path.join(d, "gml", "city.gml"), "wb") as f:
                f.write(surfaces_to_gml(surfaces))
            pq.write_table(surfaces, os.path.join(d, "surfaces.parquet"))

        return _cached(os.path.join(cache, f"gml-b{self.n_buildings}-s{seed}"), build)

    def load(self, inputs: str) -> dict:
        surfaces = pq.read_table(os.path.join(inputs, "surfaces.parquet"))
        return dict(
            gml=os.path.join(inputs, "gml"),
            surfaces=surfaces,
            rows=surfaces.num_rows,
            n_valid=int(pc.sum(surfaces["truth_valid"]).as_py()),
        )

    def run(self, st: dict, out: str) -> dict:
        from citygml2objv2_ray.pipelines.convert import convert

        return {
            mode: convert(st["gml"], os.path.join(out, mode), preserve=preserve)
            for mode, preserve in MODES
        }

    def check(self, st: dict, res: dict, out: str) -> str:
        faces = 0
        for p in res["p"].values():
            with open(p) as f:
                faces += sum(1 for line in f if line.startswith("f "))
        _require(faces == st["n_valid"], f"-p: {faces} faces, {st['n_valid']} valid polygons")
        if not st.get("oracle_ok"):
            self._check_oracle(st, res["tri"])
            st["oracle_ok"] = True
        return "-".join(_obj_digest(list(res[mode].values())) for mode, _ in MODES)

    def _check_oracle(self, st: dict, res: dict) -> None:
        """Per-class vertices and faces of the triangulated OBJ against the
        sequential reference oracle (tests/reference_oracle.py), once per
        seed; later runs are held to the same digest."""
        import sys

        from citygml2objv2_ray.sinks.obj import parse_obj

        tests = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests")
        if tests not in sys.path:
            sys.path.insert(0, tests)
        from reference_oracle import sequential_obj_assembly

        df = st["surfaces"].to_pandas()
        for sem in sorted(set(df.semantic)):
            want_v, want_f = sequential_obj_assembly(df, sem)
            if sem not in res:
                _require(not want_f, f"{sem}: no OBJ written, oracle has {len(want_f)} faces")
                continue
            with open(res[sem]) as f:
                got_v, got_f = parse_obj(f.read())
            _require(
                np.array_equal(got_v, np.asarray(want_v, dtype=np.float64).reshape(-1, 3)),
                f"{sem}: vertices differ from the sequential oracle",
            )
            _require(
                np.array_equal(got_f, np.asarray(want_f, dtype=np.int64).reshape(-1, 3) - 1),
                f"{sem}: faces differ from the sequential oracle",
            )

    def floor(self, st: dict) -> None:
        import ray.data as rd

        for _ in MODES:
            (
                rd.read_binary_files(sorted(glob.glob(os.path.join(st["gml"], "*.gml"))))
                .map_batches(_identity, batch_format="pyarrow", batch_size=1)
                .map_batches(_identity, batch_format="pyarrow", batch_size=CFG.geometry_batch_size)
                .count()
            )

    def traced(self, st: dict, tr, out: str) -> dict:
        counts: dict = {}
        digests, uniq, refs = [], 0, 0
        for mode, preserve in MODES:
            before = tr.self_time()
            m = self._traced_mode(st, tr, os.path.join(out, mode), preserve)
            for k, v in tr.self_time().items():
                if v != before.get(k, 0.0):
                    counts[f"{mode}.{k}.busy_s"] = v - before.get(k, 0.0)
            digests.append(m.pop("digest"))
            u, r = m.pop("unique"), m.pop("refs")
            uniq, refs, m["dedup_ratio"] = uniq + u, refs + r, u / r
            counts.update({f"{mode}.{k}": v for k, v in m.items()})
        _require(
            st.get("digest") in (None, "-".join(digests)),
            "traced pass rendered different OBJ bytes than the pipeline",
        )
        counts.update({
            "parse.polygons": counts["tri.polygons"],
            "clean_validate.valid_ratio": counts["tri.valid_ratio"],
            "triangulate.triangles": counts["tri.triangles"],
            "obj_intern.dedup_ratio": uniq / refs,
            "obj_write.mb": counts["tri.obj_mb"] + counts["p.obj_mb"],
        })
        return counts

    def _traced_mode(self, st: dict, tr, out: str, preserve: bool) -> dict:
        from citygml2objv2_ray.schemas import SURFACES_SCHEMA
        from citygml2objv2_ray.sinks.obj import _intern_bucket_vectorized, _intern_building_rings
        from citygml2objv2_ray.sources.citygml import parse_citygml_document
        from citygml2objv2_ray.stages.geometry import Triangulator, clean_validate

        os.makedirs(out)
        tables = []
        for path in sorted(glob.glob(os.path.join(st["gml"], "*.gml"))):
            with open(path, "rb") as f:
                data = f.read()
            with tr.span("parse"):
                rows = parse_citygml_document(data, doc_id=path)
                tables.append(pa.Table.from_pylist(rows, schema=SURFACES_SCHEMA))
        surfaces = pa.concat_tables(tables)
        tri = Triangulator(CFG)
        parts, n_valid = [], 0
        for lo in range(0, surfaces.num_rows, CFG.geometry_batch_size):
            b = surfaces.slice(lo, CFG.geometry_batch_size)
            with tr.span("clean_validate"):
                v = clean_validate(b, CFG)
            n_valid += int(pc.sum(v["valid"]).as_py() or 0)
            if preserve:
                parts.append(v.filter(v["valid"]))
            else:
                with tr.span("triangulate"):
                    parts.append(tri(v))
        geo = pa.concat_tables(parts)
        with tr.span("obj_intern"):
            df = geo.to_pandas()
            df["_bucket"] = df.semantic.astype(str) + "|" + (df.building_seq // 64).astype(str)
            out_rows = []
            for _, g in df.groupby("_bucket", sort=False):
                if preserve:
                    for (sem, _), bg in g.groupby(["semantic", "building_id"], sort=False):
                        r = _intern_building_rings(bg, CFG.vertex_round_decimals)
                        r["semantic"] = sem
                        out_rows.append(r)
                else:
                    out_rows.append(_intern_bucket_vectorized(g, CFG.vertex_round_decimals))
            interned = pd.concat(out_rows, ignore_index=True)
        with tr.span("obj_write"):
            paths = _render_obj(interned, out)
        m = {
            "polygons": surfaces.num_rows,
            "valid_ratio": n_valid / surfaces.num_rows,
            "unique": int(interned.n_vertices.sum()),
            "refs": int(interned.faces.map(len).sum()),
            "obj_mb": _files_mb(paths),
            "digest": _obj_digest(paths),
        }
        if not preserve:
            m["triangles"] = geo.num_rows
        return m


# ---------------------------------------------------------------------------
# neardup: MinHash + LSH near-duplicate pairs
# ---------------------------------------------------------------------------


class Neardup:
    """``relational_ml.minhash_neardup_pairs`` over ``dedup.synth_documents``
    (1% planted near-copies); at this size the verify step takes the
    broadcast branch."""

    name = "neardup"
    row_unit = "documents"
    layers = ("minhash", "pairgen", "verify")
    threshold = 0.6

    def __init__(self, n_docs: int):
        self.n_docs = n_docs

    def generate(self, cache: str, seed: int) -> str:
        from citygml2objv2_ray import dedup

        return dedup.synth_documents(os.path.join(cache, "docs"), n=self.n_docs, seed=seed)

    def load(self, inputs: str) -> dict:
        truth = pq.read_table(inputs, columns=["doc_id", "src_id"]).to_pandas()
        dup = truth[truth.src_id >= 0]
        a, b = dup.src_id.to_numpy(), dup.doc_id.to_numpy()
        planted = set(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist()))
        return dict(path=inputs, rows=len(truth), planted=planted)

    def _docs(self, st: dict):
        import ray.data as rd

        from citygml2objv2_ray.ops import derive_num_blocks

        return rd.read_parquet(
            st["path"],
            columns=["doc_id", "text"],
            override_num_blocks=derive_num_blocks(st["rows"], target_rows=2048),
        )

    def run(self, st: dict, out: str):
        from citygml2objv2_ray.relational_ml import minhash_neardup_pairs

        return minhash_neardup_pairs(self._docs(st), st["rows"], threshold=self.threshold)

    def check(self, st: dict, pairs: pd.DataFrame, out: str) -> str:
        found = set(zip(pairs.doc_a.tolist(), pairs.doc_b.tolist()))
        missing = st["planted"] - found
        _require(not missing, f"{len(missing)} of {len(st['planted'])} planted pairs not found")
        st["found"] = found
        return _sha(pairs[["doc_a", "doc_b", "jaccard"]].to_csv(index=False).encode())

    def floor(self, st: dict) -> None:
        self._docs(st).map_batches(_identity, batch_format="pandas", batch_size=256).count()

    def traced(self, st: dict, tr, out: str) -> dict:
        from citygml2objv2_ray import dedup as dd
        from citygml2objv2_ray.relational_ml import _jaccard_pairs_kernel

        docs = pq.read_table(st["path"], columns=["doc_id", "text"]).to_pandas()
        stage = dd.MinHashStage()
        bands = []
        for lo in range(0, len(docs), 256):
            with tr.span("minhash"):
                bands.append(stage(docs.iloc[lo : lo + 256]))
        with tr.span("pairgen"):
            bands = pd.concat(bands, ignore_index=True)
            bkey = dd.mix_band_key(bands.band_hash.to_numpy(), bands.band.to_numpy())
            ids = bands.doc_id.to_numpy()
            order = np.lexsort((ids, bkey))
            A, B = dd.bucket_pair_indices(bkey[order])
            cand = pd.DataFrame({"doc_a": ids[order][A], "doc_b": ids[order][B]})
            cand = cand.drop_duplicates(["doc_a", "doc_b"])
        texts = docs.set_index("doc_id").text
        with tr.span("verify"):
            a, b = cand.doc_a.to_numpy(), cand.doc_b.to_numpy()
            kept = _jaccard_pairs_kernel(
                a, b, texts.loc[a].to_numpy(), texts.loc[b].to_numpy(),
                dd.char_shingles, dd.char_shingles_batch, self.threshold,
            )
        traced = set(zip(kept.doc_a.tolist(), kept.doc_b.tolist()))
        _require(traced == st.get("found", traced), "traced pass kept a different pair set")
        return {
            "minhash.band_rows": len(bands),
            "pairgen.candidates": len(cand),
            "verify.kept": len(kept),
            "verify.precision": len(kept) / len(cand) if len(cand) else 0.0,
        }


# workload name -> (class, benchmark size, smallest size). The end-to-end
# sizes keep a job's wall time mostly the program's own work: on a shared
# 4-vCPU host, log(wall) rose by about 2.5 per unit of CPU steal at 2000
# images or 64 buildings, and by about 1.3 at three times those sizes.
WORKLOADS = {
    "flagship": (Flagship, 5000, 200),
    "convert": (Convert, 160, 8),
    "neardup": (Neardup, 5000, 500),
}
NAMES = tuple(WORKLOADS)


def make(name: str, scale: float = 1.0):
    """The workload called ``name`` at ``scale`` times its benchmark size."""
    cls, size, smallest = WORKLOADS[name]
    return cls(max(smallest, int(size * scale)))
