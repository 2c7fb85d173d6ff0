"""citygml2objv2_ray — a Ray-Data-native spatial-join + tiling engine.

Brand-new engine (NOT a port) with the query/data-processing capabilities of
tum-gis/CityGML2OBJv2, re-expressed as streaming ``ray.data.Dataset``
pipelines: ``map_batches`` over zero-copy Arrow batches, actor pools for
stateful stages (triangulation, image decode, spatial-join index), one
measured gather-or-shuffle grouped aggregate for the wide steps, and a
checkpoint/lineage log for resumable runs.

Reference semantics are catalogued in SURVEY.md; citations in docstrings are
``file:line`` into ``/root/reference``.
"""

__version__ = "0.1.0"
