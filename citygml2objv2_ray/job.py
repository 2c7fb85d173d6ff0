"""`ray job submit` entrypoint — the cluster-facing way to run the engine.

On a multi-node cluster the operator runs, from a checkout of this repo:

    ray job submit --working-dir . -- \
        python -m citygml2objv2_ray.job --pipeline flagship \
            --sf 1 --out /mnt/shared/flagship-run

The Job API ships the working dir to the cluster, sets RAY_ADDRESS on the
entrypoint, and streams this module's stdout back to the submitter. The
module therefore OWNS its Ray session (unlike ``__ray_entry__``, whose
session belongs to the test driver): it connects to whatever cluster
``RAY_ADDRESS`` points at (the job server's default) and falls back to a
local session when unset — so the exact same command line is testable on
one node (`RAY_ADDRESS=local python -m citygml2objv2_ray.job ...`), which
is how the pytest smoke test drives it.

Every run appends one JSON metrics line to ``<out>/job_metrics.jsonl``
(run id, pipeline, rows, wall, throughput) and prints the same line to
stdout — the per-run metrics record the north rule requires next to the
checkpoint log's per-partition lineage. Reruns with the same --out resume
from that checkpoint (completed partitions are pruned at the read).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import uuid


def _ensure_importable() -> None:
    """Ray workers inherit PYTHONPATH, not the driver's sys.path: export
    the package root BEFORE ray.init so map_batches UDFs deserialize on
    remote workers (same pattern as __ray_entry__ / cli.main)."""
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if pkg_root not in sys.path:
        sys.path.insert(0, pkg_root)
    os.environ["PYTHONPATH"] = (
        pkg_root + os.pathsep + os.environ.get("PYTHONPATH", "")
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="python -m citygml2objv2_ray.job")
    p.add_argument(
        "--pipeline",
        required=True,
        help="flagship | obj_convert | any registered query name (q_*)",
    )
    p.add_argument("--sf", type=float, default=0.1, help="world scale factor (flagship/obj)")
    p.add_argument(
        "--sf-dir",
        default="/root/testdata/sf0.01",
        help="testdata table dir for q_* queries",
    )
    p.add_argument("--out", required=True, help="output root (checkpoint log + results)")
    p.add_argument(
        "--no-resume",
        action="store_true",
        help="ignore an existing checkpoint log instead of resuming",
    )
    return p


def _connect() -> None:
    import ray

    if ray.is_initialized():  # pragma: no cover - embedded use
        return
    addr = os.environ.get("RAY_ADDRESS", "auto")
    try:
        ray.init(address=addr, include_dashboard=False, logging_level="ERROR")
    except ConnectionError:
        # no cluster to attach to (bare invocation outside `ray job submit`)
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")


def run_job(args) -> dict:
    _ensure_importable()
    _connect()
    import ray

    n_cpus = int(ray.cluster_resources().get("CPU", 4))
    rec: dict = {
        "run_id": uuid.uuid4().hex[:12],
        "pipeline": args.pipeline,
        "cluster_cpus": n_cpus,
        "nodes": len([n for n in ray.nodes() if n.get("Alive")]),
    }
    t0 = time.perf_counter()

    if args.pipeline == "flagship":
        from . import worlds
        from .pipelines.flagship import run_flagship

        images_path, surfaces, footprints = worlds.load_world(args.sf, parallelism=n_cpus)
        res = run_flagship(
            images_path,
            surfaces,
            footprints,
            args.out,
            resume=not args.no_resume,
        )
        rec.update(rows=res.rows_written, out=res.out_root)
    elif args.pipeline == "obj_convert":
        from . import worlds
        from .pipelines.geometry import surfaces_dataset, triangulate_surfaces
        from .sinks.obj import write_obj_per_class

        _, surfaces, _ = worlds.load_world(args.sf, parallelism=n_cpus)
        written = write_obj_per_class(
            triangulate_surfaces(surfaces_dataset(surfaces)), args.out
        )
        rec.update(rows=int(surfaces.num_rows), out=args.out, files=sorted(written))
    else:
        from . import (  # noqa: F401 - imports populate REGISTRY
            relational,
            relational_ext,
            relational_ml,
            relational_stats,
            streaming,
        )
        from .state.checkpoint import publish

        fn = relational.REGISTRY.get(args.pipeline)
        if fn is None:
            raise SystemExit(
                f"unknown pipeline {args.pipeline!r}; known: flagship, obj_convert, "
                + ", ".join(sorted(relational.REGISTRY))
            )
        out = fn(args.sf_dir)
        df = out.to_pandas() if hasattr(out, "to_pandas") else out
        os.makedirs(args.out, exist_ok=True)
        dest = os.path.join(args.out, f"{args.pipeline}.parquet")
        with publish(dest) as tmp:
            df.to_parquet(tmp)
        rec.update(rows=int(len(df)), out=dest)

    rec["wall_sec"] = round(time.perf_counter() - t0, 3)
    if rec.get("rows") and rec["wall_sec"] > 0:
        rec["rows_per_sec"] = round(rec["rows"] / rec["wall_sec"], 1)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "job_metrics.jsonl"), "a") as fh:
        fh.write(json.dumps(rec) + "\n")
    return rec


def main(argv=None) -> None:
    args = build_parser().parse_args(argv)
    rec = run_job(args)
    print(json.dumps(rec))
    import ray

    ray.shutdown()


if __name__ == "__main__":
    main()
