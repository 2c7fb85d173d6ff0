"""CLI with the reference's flag surface (CityGML2OBJs.py:197-252) — a
CityGML2OBJv2 user's invocation maps one-to-one:

    python CityGML2OBJs.py -i IN -o OUT [-s 1] [-g 1] [-v 1] [-t 1] [-p 1]
                           [-tC 1] [-tCw 1] [-sepC 1] [-appW 1] [-addBB 1]
becomes
    python -m citygml2objv2_ray.cli -i IN -o OUT [same flags]

``run`` reads the input once: one surfaces Dataset, which every mode
consumes. Flag mapping (reference file:line → engine behaviour):

- ``-s/--semantics``   (:202) per-class OBJ with openings as classes; off →
  openings anti-joined away (``pipelines.convert``).
- ``-g/--grouping``    (:204) ``o <building>`` group markers in the OBJ.
- ``-v/--validation``  (:209) accepted for parity; validation is ALWAYS on
  in this engine (the flat-ring kernel skips invalid polygons — the
  reference's -v 0 path feeds unvalidated rings to the triangulator and
  crashes on the corrupt fixtures; there is no useful "off").
- ``-t/--translate``   (:212) subtract the global lexicographic min vertex.
- ``-p/--polypreserve``(:215) SKIPTRI: polygons as n-gon faces, no
  triangulation (CityGML2OBJs.py:137-141).
- ``-tC/-tCw``         (:219,:223) dataset translation pre-pass: exact
  decimal-stable translation to a local CRS (int64 µm fixed point,
  ``exact.py`` — B21), holes included; every mode converts the translated
  surfaces. ``-tCw`` also writes one ``<input stem>_local_.gml`` per input
  document next to the output (E6) plus a translation-params record (E7).
- ``-sepC``            (:227) component separation: one OBJ per component
  + index/bbox sidecar parquet (``pipelines.components``).
- ``-appW``            (:231) approximate opening hulls inside -sepC.
- ``-addBB``           (:235) corner-marker triangles inside -sepC.
"""

from __future__ import annotations

import argparse
import os


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="citygml2objv2_ray")
    p.add_argument("-i", "--directory", required=True, help="input dir of .gml/.xml")
    p.add_argument("-o", "--results", required=True, help="output dir")
    p.add_argument("-s", "--semantics", type=int, default=1)
    p.add_argument("-g", "--grouping", type=int, default=1)
    p.add_argument("-v", "--validation", type=int, default=1)
    p.add_argument("-t", "--translate", type=int, default=0)
    p.add_argument("-p", "--polypreserve", type=int, default=0)
    p.add_argument("-tC", "--translateCityGML", type=int, default=0)
    p.add_argument("-tCw", "--translateCityGMLwrite", type=int, default=0)
    p.add_argument("-sepC", "--separateComponents", type=int, default=0)
    p.add_argument("-appW", "--approximateWindows", type=int, default=0)
    p.add_argument("-addBB", "--addBoundingBox", type=int, default=0)
    return p


def run(args) -> dict:
    import contextlib

    import pyarrow as pa

    from .exact import translate_exact, translation_params
    from .pipelines.components import component_sidecars, separate_components
    from .pipelines.convert import convert_surfaces, input_paths
    from .sources.citygml import read_citygml, surfaces_to_gml
    from .state.checkpoint import publish

    paths = input_paths(args.directory)
    # E6: each document's translation lands in <its stem>_local_.gml
    # (CityGMLTranslation.py:309)
    gml_of = {
        p: os.path.join(args.results, os.path.splitext(os.path.basename(p))[0] + "_local_.gml")
        for p in paths
    }
    if args.translateCityGMLwrite and len(set(gml_of.values())) < len(paths):
        raise ValueError(
            f"two inputs under {args.directory!r} share a file stem, and -tCw "
            "writes one <stem>_local_.gml per input"
        )
    os.makedirs(args.results, exist_ok=True)
    outputs: dict = {}
    surfaces = read_citygml(paths)

    if args.translateCityGML or args.translateCityGMLwrite:
        # the params and the translated surfaces read one parse
        surfaces = surfaces.materialize()
        try:
            delta = translation_params(surfaces)
        except ValueError as e:
            raise ValueError(
                f"no parseable CityGML surfaces found under {args.directory!r}; "
                "nothing to translate for -tC/-tCw"
            ) from e
        surfaces = translate_exact(surfaces, delta)
        outputs["translation_params"] = delta.tolist()
        if args.translateCityGMLwrite:
            # the GML and the conversion read one translation
            surfaces = surfaces.materialize()
            tab = pa.concat_tables(surfaces.iter_batches(batch_format="pyarrow", batch_size=None))
            docs = tab["doc_id"].to_pandas()
            rows_of = docs.groupby(docs, sort=False).indices
            params_path = os.path.join(args.results, "translation_params.txt")
            # every file lands, or none does
            with contextlib.ExitStack() as published:
                for doc, gml_path in gml_of.items():
                    rows = pa.array(rows_of.get(doc, []), pa.int64())
                    with open(published.enter_context(publish(gml_path)), "wb") as f:
                        f.write(surfaces_to_gml(tab.take(rows)))
                with open(published.enter_context(publish(params_path)), "w") as f:
                    f.write(" ".join(repr(float(x)) for x in delta) + "\n")
            outputs["translated_gml"] = list(gml_of.values())

    if args.separateComponents:
        comps = separate_components(
            surfaces,
            approx_windows=bool(args.approximateWindows),
            corner_markers=bool(args.addBoundingBox),
        ).materialize()
        # a document is named by its index in the sorted input list:
        # building_seq restarts in every document
        doc = {d: i for i, d in enumerate(paths)}

        def write_component_files(df):
            import pandas as pd

            paths_out = []
            for r in df.itertuples():
                p = os.path.join(
                    args.results,
                    f"d{doc[r.doc_id]:03d}_b{r.building_seq:06d}_c{r.component_seq:03d}.obj",
                )
                with publish(p) as tmp, open(tmp, "w") as f:
                    f.write(r.obj_text)
                paths_out.append(p)
            return pd.DataFrame({"path": paths_out})

        written = comps.map_batches(write_component_files, batch_format="pandas")
        outputs["n_component_files"] = written.count()
        sidecars = component_sidecars(comps)
        outputs["sidecar"] = os.path.join(args.results, "component_index.parquet")
        with publish(outputs["sidecar"]) as tmp:
            sidecars.to_parquet(tmp)
        return outputs

    outputs["obj"] = convert_surfaces(
        surfaces,
        args.results,
        semantics=bool(args.semantics),
        translate=bool(args.translate),
        preserve=bool(args.polypreserve),
        group_markers=bool(args.grouping),
    )
    return outputs


def main(argv=None) -> None:
    import ray

    # Ray workers inherit PYTHONPATH, not the driver's sys.path — without
    # this, a standalone `python -m citygml2objv2_ray.cli` run (package not
    # pip-installed) fails when workers deserialize map_batches UDFs.
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.environ["PYTHONPATH"] = (
        pkg_root + os.pathsep + os.environ.get("PYTHONPATH", "")
    )

    args = build_parser().parse_args(argv)
    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")
    out = run(args)
    for k, v in out.items():
        print(f"{k}: {v}")
    ray.shutdown()


if __name__ == "__main__":
    main()
