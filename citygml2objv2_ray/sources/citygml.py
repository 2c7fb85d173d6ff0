"""CityGML ingest source — the reference's A1-A12 readers re-expressed as a
Ray Data source (SURVEY.md §2.A).

A CityGML2OBJv2 user feeds a directory of ``.gml``/``.xml`` documents
(CityGML2OBJs.py:421-435). Here: ``read_citygml(paths)`` →
``ray.data.read_binary_files`` → per-document parse task → exploded
one-row-per-polygon Dataset with the SURFACES_SCHEMA — after which every
geometry pipeline (validate/triangulate/OBJ) applies unchanged.

Parsing uses stdlib ``xml.etree`` (no lxml in this container) with
LOCAL-NAME tag matching, which makes one parser serve CityGML 1.0/2.0/3.0
(the reference re-resolves a namespace table per version from a mutable
global — config.py:1-7, markup3dmodule.py:32-98; local-name matching is the
version-agnostic equivalent of its ``separate_string`` regex split,
componentseparationmodule.py:321-332). No version is carried: the
parse does not depend on it. ``sniff_version`` still reads it from the
root tag (CityGML2OBJs.py:436-489) for a caller that needs it.

Degradation parity: missing gml:id falls back to a per-document counter
(CityGML2OBJs.py:643-647); malformed posList (len % 3 != 0) drops the
polygon with a reason instead of asserting (markup3dmodule.py:132).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

import numpy as np
import pyarrow as pa

from ..config import OPENING_CLASSES, SEMANTIC_CLASSES
from ..schemas import SURFACES_SCHEMA

_BUILDING_TAGS = {"Building", "BuildingPart"}
# the reference's "other" city objects (CityGML2OBJs.py:597-603)
_OTHER_TAGS = {
    "Road", "PlantCover", "GenericCityObject", "CityFurniture",
    "ReliefFeature", "Tunnel", "WaterBody", "Bridge",
}
_SEMANTIC_TAGS = set(SEMANTIC_CLASSES)
_ATTR_TAGS = ("yearlyIrradiation", "irradiation", "totalIrradiation")


def _local(tag: str) -> str:
    """'{ns}Tag' → 'Tag' (componentseparationmodule.py:321-332 analog)."""
    return tag.rsplit("}", 1)[-1]


def sniff_version(root: ET.Element) -> str:
    """CityGML version from the root namespace (CityGML2OBJs.py:436-489)."""
    ns = root.tag[1:].split("}", 1)[0] if root.tag.startswith("{") else ""
    if "citygml/3" in ns or "/3.0" in ns:
        return "3.0"
    if "citygml/2.0" in ns or "/2.0" in ns:
        return "2.0"
    if "citygml/1.0" in ns or "/1.0" in ns:
        return "1.0"
    return "2.0"  # the reference defaults to 2.0 semantics


def _gml_id(el: ET.Element) -> str | None:
    for k, v in el.attrib.items():
        if _local(k) == "id":
            return v
    return None


def _parse_ring(ring_el: ET.Element) -> tuple[np.ndarray | None, str]:
    """LinearRing → (N,3) float64 (GMLpoints, markup3dmodule.py:122-148).
    Returns (None, reason) on malformed coordinate text."""
    coords: list[float] = []
    for el in ring_el.iter():
        tag = _local(el.tag)
        if tag == "posList" and el.text:
            try:
                coords = [float(x) for x in el.text.split()]
            except ValueError:
                return None, "bad_float"
            break
        if tag == "pos" and el.text:
            try:
                coords.extend(float(x) for x in el.text.split())
            except ValueError:
                return None, "bad_float"
    if not coords:
        return None, "empty_ring"
    if len(coords) % 3 != 0:
        return None, "not_xyz_triplets"  # reference asserts (markup3dmodule.py:132)
    return np.asarray(coords, dtype=np.float64).reshape(-1, 3), ""


def _polygon_rings(poly_el: ET.Element):
    """Polygon → (exterior, [interiors]) (polydecomposer,
    markup3dmodule.py:101-106)."""
    exterior, interiors = None, []
    for child in poly_el.iter():
        tag = _local(child.tag)
        if tag == "exterior":
            for ring in child.iter():
                if _local(ring.tag) == "LinearRing":
                    exterior, _ = _parse_ring(ring)
                    break
        elif tag == "interior":
            for ring in child.iter():
                if _local(ring.tag) == "LinearRing":
                    r, _ = _parse_ring(ring)
                    if r is not None:
                        interiors.append(r)
                    break
    return exterior, interiors


def _find_polygons(el: ET.Element) -> list[ET.Element]:
    """All descendant gml:Polygon (polygonFinder, markup3dmodule.py:109-119)."""
    return [e for e in el.iter() if _local(e.tag) == "Polygon"]


def parse_citygml_document(data: bytes, doc_id: str) -> list[dict]:
    """One CityGML document → exploded polygon rows (SURFACES_SCHEMA).

    Walks cityObjectMember (A4) → Building / other split (A5/A6) → semantic
    features + openings (§3.2) → polygons → rings. Polygons directly under
    a building that belong to no semantic feature get semantic='Other'.
    A polygon element has ONE ``poly_id`` however many features reach it
    (an opening nested in its wall is emitted under both), so the D4
    exclusion drops every copy of an opening.
    """
    root = ET.fromstring(data)
    rows: list[dict] = []
    bseq = pseq = 0
    fallback_counter = 0
    pids: dict[int, str] = {}  # polygon element → its poly_id, per object

    def emit(poly: ET.Element, oid: str, fid: str, semantic: str, attr=None) -> None:
        nonlocal pseq
        pid = pids.setdefault(id(poly), _gml_id(poly) or f"{oid}_p{pseq}")
        ext, ints = _polygon_rings(poly)
        if ext is None:
            return
        rows.append(
            dict(
                doc_id=doc_id, building_id=oid, building_seq=bseq, feature_id=fid,
                semantic=semantic, is_opening=semantic in OPENING_CLASSES,
                poly_id=pid, poly_seq=pseq,
                exterior=ext.tolist(), interiors=[r.tolist() for r in ints],
                attr_irradiation=attr, truth_valid=None, truth_area=None,
            )
        )
        pseq += 1

    members = [e for e in root.iter() if _local(e.tag) == "cityObjectMember"]
    for member in members:
        for obj in list(member):
            tag = _local(obj.tag)
            if tag in _BUILDING_TAGS:
                bid = _gml_id(obj)
                if bid is None:  # counter fallback (CityGML2OBJs.py:643-647)
                    bid = f"building_{fallback_counter}"
                    fallback_counter += 1
                pseq, pids = 0, {}
                # semantic features first (document order)
                for feat in obj.iter():
                    ftag = _local(feat.tag)
                    if ftag not in _SEMANTIC_TAGS:
                        continue
                    fid = _gml_id(feat) or f"{bid}_f{pseq}"
                    attr = None
                    for a in feat.iter():
                        if _local(a.tag) in _ATTR_TAGS and a.text:
                            try:
                                attr = float(a.text)
                            except ValueError:
                                pass
                            break
                    for poly in _find_polygons(feat):
                        emit(poly, bid, fid, ftag, attr)
                # unclaimed polygons → class 'Other' within the building
                for poly in _find_polygons(obj):
                    if id(poly) not in pids:
                        emit(poly, bid, f"{bid}_other", "Other")
                bseq += 1
            elif tag in _OTHER_TAGS:
                oid = _gml_id(obj) or f"other_{fallback_counter}"
                fallback_counter += 1
                pseq, pids = 0, {}
                for poly in _find_polygons(obj):
                    emit(poly, oid, oid, "Other")
                bseq += 1
    return rows


def read_envelope(data: bytes) -> dict:
    """Envelope/SRS reader (A11/A12: CityGMLTranslation.py:162-166,
    componentseparationmodule.py:123-133): srsName, srsDimension, corners."""
    root = ET.fromstring(data)
    out = dict(srs_name=None, srs_dimension=None, lower=None, upper=None)
    for el in root.iter():
        if _local(el.tag) == "Envelope":
            for k, v in el.attrib.items():
                if _local(k) == "srsName":
                    out["srs_name"] = v
                elif _local(k) == "srsDimension":
                    out["srs_dimension"] = int(v)
            for c in el:
                t = _local(c.tag)
                if t in ("lowerCorner", "upperCorner") and c.text:
                    vals = [float(x) for x in c.text.split()]
                    out["lower" if t == "lowerCorner" else "upper"] = vals
            break
    return out


def surfaces_to_gml(surfaces: pa.Table) -> bytes:
    """Serialize a surfaces table as a CityGML 2.0 document (the inverse of
    ``parse_citygml_document``; also the translated-GML sink E6,
    CityGMLTranslation.py:309). Round-trip tested."""
    NS = {
        "core": "http://www.opengis.net/citygml/2.0",
        "bldg": "http://www.opengis.net/citygml/building/2.0",
        "gml": "http://www.opengis.net/gml",
    }
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<core:CityModel xmlns:core="{NS["core"]}" xmlns:bldg="{NS["bldg"]}" xmlns:gml="{NS["gml"]}">',
    ]

    def ring_xml(ring, indent):
        flat = " ".join(repr(float(v)) for p in ring for v in p)
        return (
            f"{indent}<gml:LinearRing><gml:posList>{flat}</gml:posList></gml:LinearRing>"
        )

    def poly_xml(pid, ext, ints, indent):
        s = [f'{indent}<gml:Polygon gml:id="{pid}">']
        s.append(f"{indent}  <gml:exterior>")
        s.append(ring_xml(ext, indent + "    "))
        s.append(f"{indent}  </gml:exterior>")
        for hole in ints:
            s.append(f"{indent}  <gml:interior>")
            s.append(ring_xml(hole, indent + "    "))
            s.append(f"{indent}  </gml:interior>")
        s.append(f"{indent}</gml:Polygon>")
        return s

    df = surfaces.to_pandas()
    for bid, g in df.sort_values(["building_seq", "poly_seq"]).groupby(
        "building_id", sort=False
    ):
        out.append("  <core:cityObjectMember>")
        out.append(f'    <bldg:Building gml:id="{bid}">')
        for _, row in g.iterrows():
            sem = row.semantic
            if sem == "Other":
                out.extend(poly_xml(row.poly_id, row.exterior, list(row.interiors), "      "))
                continue
            container = "bldg:opening" if sem in OPENING_CLASSES else "bldg:boundedBy"
            out.append(f"      <{container}>")
            out.append(f'        <bldg:{sem} gml:id="{row.feature_id}">')
            if row.attr_irradiation is not None and not (
                isinstance(row.attr_irradiation, float) and np.isnan(row.attr_irradiation)
            ):
                out.append(
                    f"          <bldg:yearlyIrradiation>{row.attr_irradiation}</bldg:yearlyIrradiation>"
                )
            out.extend(poly_xml(row.poly_id, row.exterior, list(row.interiors), "          "))
            out.append(f"        </bldg:{sem}>")
            out.append(f"      </{container}>")
        out.append("    </bldg:Building>")
        out.append("  </core:cityObjectMember>")
    out.append("</core:CityModel>")
    return "\n".join(out).encode()


def read_citygml(paths):
    """Directory/list of .gml/.xml files → surfaces Dataset (one row per
    polygon). The file list forms the initial blocks; each document parses
    in its own task (documents are independent, like the reference's
    per-file loop at CityGML2OBJs.py:428)."""
    import ray.data as rd

    def parse(batch: pa.Table) -> pa.Table:
        all_rows: list[dict] = []
        for path, data in zip(batch["path"].to_pylist(), batch["bytes"].to_pylist()):
            all_rows.extend(parse_citygml_document(data, doc_id=path))
        if not all_rows:
            return SURFACES_SCHEMA.empty_table()
        return pa.Table.from_pylist(all_rows, schema=SURFACES_SCHEMA)

    ds = rd.read_binary_files(paths, include_paths=True)
    return ds.map_batches(parse, batch_format="pyarrow", batch_size=1)
