"""Deterministic synthetic data (FIXTURES.md) — no external data.

Generates, from a single integer seed:

- a **city**: extruded rectangular buildings on a grid — GroundSurface,
  4 WallSurfaces (axis-aligned, so east/west walls are exactly YZ-parallel
  and north/south walls exercise the XZ projection branch), flat or gabled
  RoofSurface, one Window hole per some walls, Door openings — mirroring the
  reference's data model (SURVEY.md §1.1), with a ~5% corruption mix hitting
  the four ``isPolyValid`` clauses (polygon3dmodule.py:70-102);
- **footprints**: the 2-D ground rings + buffered bboxes + grid cell;
- an **images** fact table of (image_id, bytes, w, h, fmt, caption, phash)
  rows per ``BASELINE.json:input_hint``, with placement ground truth. A
  configurable fraction of images lands in ONE hot cell so the hot-key
  path is exercised (FIXTURES.md §3).

Everything is seeded via ``np.random.SeedSequence([seed, row_id])`` so any
row can be regenerated independently on any worker — generation itself runs
as a Ray Data pipeline (`ray.data.range(n).map_batches(...)`).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import codecs, geom
from .config import DEFAULT_CONFIG, EngineConfig
from .schemas import FOOTPRINTS_SCHEMA, IMAGES_SCHEMA, SURFACES_SCHEMA

WORLD_SEED = 42
HOT_FRACTION = 0.3  # fraction of buildings/images forced into the hot cell


def grid_cell(cx: np.ndarray, cy: np.ndarray, cell_size: float) -> np.ndarray:
    """H3/S2 stand-in: int64 cell = (ix << 32) | iy of the centroid on an
    integer grid (SURVEY.md §2.F). Vectorized."""
    ix = np.floor(np.asarray(cx, dtype=np.float64) / cell_size).astype(np.int64)
    iy = np.floor(np.asarray(cy, dtype=np.float64) / cell_size).astype(np.int64)
    return (ix << 32) | (iy & 0xFFFFFFFF)


# ---------------------------------------------------------------------------
# city (buildings / surfaces / footprints) — small side, generated driver-side
# ---------------------------------------------------------------------------


def _building_polys(bid: str, bseq: int, x0, y0, w, d, hgt, gabled, rng):
    """Surface polygons for one extruded box building. Returns list of dicts."""
    x1, y1 = x0 + w, y0 + d
    polys = []

    def add(sem, ring, holes=(), opening=False, attr=None):
        polys.append(
            dict(
                semantic=sem,
                exterior=np.asarray(ring, dtype=np.float64),
                interiors=[np.asarray(h, dtype=np.float64) for h in holes],
                is_opening=opening,
                attr=attr,
            )
        )

    # ground (normal down, CW seen from above — reference keeps document order)
    add("GroundSurface", [[x0, y0, 0], [x0, y1, 0], [x1, y1, 0], [x1, y0, 0], [x0, y0, 0]])
    # walls: south (y=y0, XZ branch), north, west (x=x0, YZ branch), east
    add("WallSurface", [[x0, y0, 0], [x1, y0, 0], [x1, y0, hgt], [x0, y0, hgt], [x0, y0, 0]])
    add("WallSurface", [[x1, y1, 0], [x0, y1, 0], [x0, y1, hgt], [x1, y1, hgt], [x1, y1, 0]])
    add("WallSurface", [[x0, y1, 0], [x0, y0, 0], [x0, y0, hgt], [x0, y1, hgt], [x0, y1, 0]])
    # east wall gets a window hole when wide enough
    if w > 4 and hgt > 4:
        wx, wz = x1, hgt / 2
        wy0, wy1 = y0 + d / 3, y0 + 2 * d / 3
        hole = [
            [wx, wy0, wz - 0.5],
            [wx, wy1, wz - 0.5],
            [wx, wy1, wz + 0.5],
            [wx, wy0, wz + 0.5],
            [wx, wy0, wz - 0.5],
        ]
        add(
            "WallSurface",
            [[x1, y0, 0], [x1, y1, 0], [x1, y1, hgt], [x1, y0, hgt], [x1, y0, 0]],
            holes=[hole],
        )
        add("Window", hole, opening=True)
    else:
        add("WallSurface", [[x1, y0, 0], [x1, y1, 0], [x1, y1, hgt], [x1, y0, hgt], [x1, y0, 0]])
    # a door opening on the south wall
    dx0 = x0 + w / 2 - 0.5
    add(
        "Door",
        [[dx0, y0, 0], [dx0 + 1, y0, 0], [dx0 + 1, y0, 2], [dx0, y0, 2], [dx0, y0, 0]],
        opening=True,
    )
    irr = float(np.round(rng.uniform(600, 1400), 1))
    if gabled:
        ridge = hgt + min(w, d) / 4
        ym = (y0 + y1) / 2
        add(
            "RoofSurface",
            [[x0, y0, hgt], [x1, y0, hgt], [x1, ym, ridge], [x0, ym, ridge], [x0, y0, hgt]],
            attr=irr,
        )
        add(
            "RoofSurface",
            [[x1, y1, hgt], [x0, y1, hgt], [x0, ym, ridge], [x1, ym, ridge], [x1, y1, hgt]],
            attr=irr,
        )
    else:
        add(
            "RoofSurface",
            [[x0, y0, hgt], [x1, y0, hgt], [x1, y1, hgt], [x0, y1, hgt], [x0, y0, hgt]],
            attr=irr,
        )
    return polys


def _corrupt(ring: np.ndarray, mode: int) -> tuple[np.ndarray, bool]:
    """Returns (corrupted ring, still_valid). Mode 3 (repeated consecutive
    point) is REPAIRED by ring cleaning — the reference cleans before it
    validates (CityGML2OBJs.py:110-135) — so it stays valid."""
    if mode == 0:  # unclosed
        return ring[:-1], False
    if mode == 1:  # too few points
        return ring[:3], False
    if mode == 2:  # non-planar: displace one vertex along the normal (> eps 0.01)
        r = ring.copy()
        n = geom.newell_normal(r)
        if not n.any():
            n = np.array([0.0, 0.0, 1.0])
        r[1] = r[1] + 0.5 * n
        return r, False
    # repeated consecutive point — cleaned away downstream
    return np.insert(ring, 1, ring[1], axis=0), True


def make_city(
    n_buildings: int,
    seed: int = WORLD_SEED,
    cfg: EngineConfig = DEFAULT_CONFIG,
    corruption: float = 0.05,
) -> tuple[pa.Table, pa.Table]:
    """Generate (surfaces, footprints) tables. ~30% of buildings go to one
    hot cell block; the rest spread over a sqrt-n x sqrt-n grid."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    n_hot = int(n_buildings * HOT_FRACTION)
    grid = max(2, int(np.ceil(np.sqrt(max(1, n_buildings - n_hot)))))
    spacing = 40.0

    srows: list[dict] = []
    frows: list[dict] = []
    for b in range(n_buildings):
        bid = f"bldg{b:06d}"
        if b < n_hot:  # hot cell: pack into one cell_size x cell_size block
            x0 = float(rng.uniform(2, cfg.cell_size - 22))
            y0 = float(rng.uniform(2, cfg.cell_size - 22))
        else:
            g = b - n_hot
            # start the cold grid one cell away so it never overlaps the hot cell
            x0 = cfg.cell_size + (g % grid) * spacing + float(rng.uniform(0, 8))
            y0 = cfg.cell_size + (g // grid) * spacing + float(rng.uniform(0, 8))
        w = float(rng.uniform(5, 16))
        d = float(rng.uniform(5, 16))
        hgt = float(rng.uniform(3, 15))
        gabled = bool(rng.random() < 0.4)
        polys = _building_polys(bid, b, x0, y0, w, d, hgt, gabled, rng)
        for pseq, p in enumerate(polys):
            ring = p["exterior"]
            valid = True
            if rng.random() < corruption and not p["is_opening"]:
                ring, valid = _corrupt(ring, int(rng.integers(0, 4)))
            area = geom.gml_area(ring, p["interiors"]) if valid else 0.0
            srows.append(
                dict(
                    doc_id=f"doc{b // 64:04d}",
                    building_id=bid,
                    building_seq=b,
                    feature_id=f"{bid}_f{pseq}",
                    semantic=p["semantic"],
                    is_opening=p["is_opening"],
                    poly_id=f"{bid}_p{pseq}",
                    poly_seq=pseq,
                    exterior=ring.tolist(),
                    interiors=[h.tolist() for h in p["interiors"]],
                    attr_irradiation=p["attr"],
                    truth_valid=valid,
                    truth_area=float(area),
                )
            )
        foot = np.array(
            [[x0, y0], [x0 + w, y0], [x0 + w, y0 + d], [x0, y0 + d], [x0, y0]]
        )
        c = foot[:-1].mean(axis=0)
        frows.append(
            dict(
                building_id=bid,
                footprint=foot.tolist(),
                xmin=x0,
                ymin=y0,
                xmax=x0 + w,
                ymax=y0 + d,
                cell=int(grid_cell([c[0]], [c[1]], cfg.cell_size)[0]),
            )
        )
    surfaces = pa.Table.from_pylist(srows, schema=SURFACES_SCHEMA)
    footprints = pa.Table.from_pylist(frows, schema=FOOTPRINTS_SCHEMA)
    return surfaces, footprints


# ---------------------------------------------------------------------------
# images fact table — generated as a Ray Data pipeline
# ---------------------------------------------------------------------------


def _raster(i: int, seed: int = WORLD_SEED) -> np.ndarray:
    """Deterministic per-id raster: a diverse two-axis sinusoid (frequency
    and phase derived from the id over a wide space) + seeded noise. Any
    row's raster is regenerable independently on any worker — duplicate
    rows re-call this with the SOURCE id."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3, int(i)]))
    w = h = int(rng.choice([32, 64]))
    fx = 1.0 + (int(i) * 2654435761 % 4096) / 256.0
    fy = 1.0 + (int(i) * 40503 % 2048) / 256.0
    phase = (int(i) % 509) / 509.0 * 2.0 * np.pi
    yy, xx = np.mgrid[0:h, 0:w]
    base = (
        128
        + 50 * np.sin(xx / w * np.pi * fx + phase)
        + 30 * np.cos(yy / h * np.pi * fy)
    )
    # per-id random coarse field: decorrelates the 8x8 block means so
    # unrelated tiles are phash-far apart (sinusoids alone average out at
    # block scale and collide)
    blob = np.kron(rng.normal(0, 45, size=(8, 8)), np.ones((h // 8, w // 8)))
    noise = rng.normal(0, 12, size=(h, w, 3))
    return np.clip((base + blob)[..., None] + noise, 0, 255).astype(np.uint8)


def make_image_rows(
    ids: np.ndarray,
    footprints: pa.Table,
    seed: int = WORLD_SEED,
    cfg: EngineConfig = DEFAULT_CONFIG,
) -> pa.Table:
    """Build image rows for the given integer row ids (vector-in, table-out;
    called from ``map_batches`` during parallel generation). Each image gets
    a deterministic raster, encoded bytes, caption and placement."""
    fx0 = np.asarray(footprints["xmin"])
    fy0 = np.asarray(footprints["ymin"])
    fx1 = np.asarray(footprints["xmax"])
    fy1 = np.asarray(footprints["ymax"])
    fbid = footprints["building_id"].to_pylist()
    fcell = np.asarray(footprints["cell"])
    hot_mask = fcell == fcell[0] if len(fcell) else np.zeros(0, bool)
    hot_idx = np.flatnonzero(hot_mask)
    n_f = len(fbid)

    rows = []
    for i in np.asarray(ids, dtype=np.int64):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2, int(i)]))
        u = rng.random()
        if u < HOT_FRACTION and len(hot_idx):  # hot-cell image
            j = int(hot_idx[rng.integers(0, len(hot_idx))])
            cx = float(rng.uniform(fx0[j], fx1[j]))
            cy = float(rng.uniform(fy0[j], fy1[j]))
            truth_b = fbid[j]
        elif u < 0.7 and n_f:  # inside a random footprint
            j = int(rng.integers(0, n_f))
            cx = float(rng.uniform(fx0[j], fx1[j]))
            cy = float(rng.uniform(fy0[j], fy1[j]))
            truth_b = fbid[j]
        elif u < 0.85 and n_f:  # near a footprint (within ~10 units outside)
            j = int(rng.integers(0, n_f))
            cx = float(fx1[j] + rng.uniform(0.5, 10.0))
            cy = float(fy1[j] + rng.uniform(0.5, 10.0))
            inside = (cx >= fx0) & (cx <= fx1) & (cy >= fy0) & (cy <= fy1)
            k = np.flatnonzero(inside)
            truth_b = fbid[int(k[0])] if len(k) else None
        else:  # open terrain
            cx = float(rng.uniform(-200, 1200))
            cy = float(rng.uniform(-200, 1200))
            inside = (cx >= fx0) & (cx <= fx1) & (cy >= fy0) & (cy <= fy1)
            k = np.flatnonzero(inside)
            truth_b = fbid[int(k[0])] if len(k) else None

        fmt = "png" if i % 2 == 0 else "jpeg"
        # raster with DESIGNED duplicate structure (world layout v7):
        # ~1% exact pixel copies and ~2% noisy near-copies of an earlier
        # tile (ground truth for exact/near dedup); everything else gets a
        # per-id diverse sinusoid so unrelated tiles are phash-far apart
        # (the v6 five-family pattern made near-dup pair counts quadratic).
        dup_u = rng.random()
        src = int(i)
        if i >= 16 and dup_u < 0.01:
            src = int(i) - int(rng.integers(1, 16))
            rgb = _raster(src, seed)
        elif i >= 16 and dup_u < 0.03:
            src = int(i) - int(rng.integers(1, 16))
            base_rgb = _raster(src, seed).astype(np.float64)
            rgb = np.clip(base_rgb + rng.normal(0, 2.0, size=base_rgb.shape), 0, 255).astype(
                np.uint8
            )
        else:
            rgb = _raster(int(i), seed)
        h, w = rgb.shape[0], rgb.shape[1]
        data = codecs.encode_image(rgb, fmt)
        decoded = codecs.decode_image(data, fmt)
        ph = codecs.phash64(decoded)
        cell = int(grid_cell([cx], [cy], cfg.cell_size)[0])
        cap = (
            f"aerial tile {i:012d} over building {truth_b} cell {cell}"
            if truth_b
            else f"aerial tile {i:012d} open terrain cell {cell}"
        )
        rows.append(
            dict(
                image_id=f"img{int(i):012d}",
                bytes=data,
                w=w,
                h=h,
                fmt=fmt,
                caption=cap,
                phash=ph,
                cx=cx,
                cy=cy,
                truth_building_id=truth_b,
                truth_cell=cell,
            )
        )
    return pa.Table.from_pylist(rows, schema=IMAGES_SCHEMA)


def scale_counts(sf: float) -> tuple[int, int]:
    """(n_images, n_buildings) for a scale factor, mirroring testdata sf's."""
    n_images = max(500, int(1_000_000 * sf))
    n_buildings = max(40, int(10_000 * sf))
    return n_images, n_buildings


def generate_world(
    out_dir: str,
    sf: float,
    seed: int = WORLD_SEED,
    cfg: EngineConfig = DEFAULT_CONFIG,
    parallelism: int = 32,
) -> dict[str, str]:
    """Materialize the synthetic world under ``out_dir`` as parquet:
    images/ (partitioned, generated via a Ray Data pipeline), surfaces.parquet,
    footprints.parquet. Idempotent: skips if a _DONE marker exists. A dir
    without one (left by a killed run) is cleared, and the world is built
    in a temp dir and published whole, so a rerun never appends to it."""
    import os
    import shutil

    import pyarrow.parquet as pq
    import ray.data as rd

    from .ops import Broadcast
    from .state.checkpoint import publish

    paths = {
        "images": os.path.join(out_dir, "images"),
        "surfaces": os.path.join(out_dir, "surfaces.parquet"),
        "footprints": os.path.join(out_dir, "footprints.parquet"),
    }
    if os.path.exists(os.path.join(out_dir, "_DONE")):
        return paths
    shutil.rmtree(out_dir, ignore_errors=True)
    with publish(out_dir) as tmp:
        os.makedirs(tmp)
        n_images, n_buildings = scale_counts(sf)
        surfaces, footprints = make_city(n_buildings, seed=seed, cfg=cfg)
        pq.write_table(surfaces, os.path.join(tmp, "surfaces.parquet"))
        pq.write_table(footprints, os.path.join(tmp, "footprints.parquet"))

        fp = Broadcast("world_footprints", footprints)

        class ImageGen:
            def __init__(self):
                self.fp = fp.get()

            def __call__(self, batch: pa.Table) -> pa.Table:
                return make_image_rows(np.asarray(batch["id"]), self.fp, seed=seed, cfg=cfg)

        def add_part(batch: pa.Table) -> pa.Table:
            # hive layout key: same part function the engine uses for resume,
            # so completed output partitions prune at the READ (COVERAGE F)
            from .spatial import part_of_cell

            cell = grid_cell(
                np.asarray(batch["cx"], dtype=np.float64),
                np.asarray(batch["cy"], dtype=np.float64),
                cfg.cell_size,
            )
            part = part_of_cell(cell, cfg.n_output_parts)
            return batch.append_column("part", pa.array(part, pa.int64()))

        (
            rd.range(n_images, override_num_blocks=parallelism * 4)
            .map_batches(
                ImageGen,
                batch_format="pyarrow",
                batch_size=512,
                # autoscaling with headroom: a fixed pool == num_cpus starves the
                # read/write task stages (observed deadlock)
                concurrency=(1, max(1, parallelism - 2)),
            )
            .map_batches(add_part, batch_format="pyarrow")
            # co-locate rows of a partition before the hive write: without this
            # every generator block fans out one small file PER part (measured
            # 512 files and a 35% read slowdown at sf0.4). Sorting by part ALONE
            # gives the range partitioner only 16 cut points and lumps >2GB of
            # binary into one block (Arrow 32-bit offset overflow at sf1);
            # image_id as a secondary key yields fine-grained boundaries
            .sort(["part", "image_id"])
            .write_parquet(
                os.path.join(tmp, "images"),
                partition_cols=["part"],
                # file/row-group sizing: one giant file per part starves read
                # parallelism at high CPU counts; per-block one-file-per-part
                # fans out hundreds of tiny files (35% slower). ~25k rows
                # (~170MB decoded, ~80MB on disk) per file splits well.
                max_rows_per_file=4096,
                row_group_size=4096,
            )
        )
        with open(os.path.join(tmp, "_DONE"), "w") as f:  # last: gates reuse
            f.write("ok")
    return paths
