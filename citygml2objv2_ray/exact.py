"""Exact coordinate translation (B21 — CityGMLTranslation.py:38-157,204-234).

The reference avoids float drift on UTM-scale coordinates (~1e6 with mm
precision) by doing hand-rolled decimal-STRING arithmetic. The columnar
equivalent: scaled int64 fixed-point. Coordinates are parsed from their
decimal representation into integer micrometres (exact for <= 6 decimal
places, the precision CityGML files carry), translated with integer adds
(exact by construction), and re-rendered. Exactness is by construction
rather than by 28-digit Decimal context.

Also: dataset-level translation parameters (D6,
CityGMLTranslation.py:171-197): mean of envelope/building lowerCorners,
negated, truncated to int — reproduced here as an aggregate over the
surfaces table.
"""

from __future__ import annotations

import numpy as np

import ray.data as rd

from .arrow_utils import map_points

SCALE = 10**6  # micrometre fixed point: exact for <= 6 decimals


def to_fixed(values: np.ndarray) -> np.ndarray:
    """float64 → int64 fixed point via DECIMAL-STRING parsing (repr of a
    float64 is its shortest exact decimal → parsing that string at 6 dp is
    exactly the reference's string arithmetic domain)."""
    out = np.empty(len(values), dtype=np.int64)
    for i, v in enumerate(np.asarray(values, dtype=np.float64)):
        s = repr(float(v))
        if "e" in s or "E" in s:
            out[i] = int(round(v * SCALE))
            continue
        neg = s.startswith("-")
        if neg:
            s = s[1:]
        whole, _, frac = s.partition(".")
        frac = (frac + "000000")[:6]
        mag = int(whole) * SCALE + int(frac)
        out[i] = -mag if neg else mag
    return out


def from_fixed(fixed: np.ndarray) -> np.ndarray:
    return np.asarray(fixed, dtype=np.int64) / SCALE


def translation_params(surfaces: rd.Dataset) -> np.ndarray:
    """Dataset translation parameters (D6): mean of per-building minimum
    vertices (the envelope lowerCorner analog), negated, truncated toward
    zero to whole units (CityGMLTranslation.py:171-197). A building is
    named by its document (``pipelines.geometry.dataset_extents`` with no
    buffer), so documents that share building ids do not merge; buildings
    with no exterior point stay out of the mean. Raises ``ValueError`` on
    surfaces without an exterior ring."""
    from .pipelines.geometry import dataset_extents

    lows = dataset_extents("translation_params", surfaces, 0.0)
    if lows.empty:
        raise ValueError(
            "translation_params: the surfaces are empty (no exterior ring), "
            "and a mean over no buildings has no value"
        )
    mean = lows[["xmin", "ymin"]].mean().to_numpy()
    return np.array([-int(mean[0]), -int(mean[1]), 0], dtype=np.int64)


def translate_exact(surfaces: rd.Dataset, delta_units: np.ndarray) -> rd.Dataset:
    """Exactly add integer ``delta_units`` (whole world units, per the
    reference's truncated params) to every vertex, holes included, through
    int64 fixed point. Exactly invertible: translate_exact(ds, d) then
    translate_exact(·, -d) is the identity bit-for-bit."""
    d_fixed = np.asarray(delta_units, dtype=np.int64) * SCALE

    def shift(pts: np.ndarray) -> np.ndarray:
        return np.stack(
            [from_fixed(to_fixed(pts[:, a]) + d_fixed[a]) for a in range(3)], axis=1
        )

    return surfaces.map_batches(lambda b: map_points(b, shift), batch_format="pyarrow")
