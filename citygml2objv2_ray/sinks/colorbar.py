"""E9: colorbar legend artifact (reference: plotcolorbar.py:31-77).

The reference renders a matplotlib ``afmhot`` colorbar with min/max tick
labels to PNG/PDF. This container has no matplotlib, so the ramp is drawn
closed-form (the same ``afmhot`` polynomial the MTL writer uses,
``sinks.obj.afmhot``) into the repo's own spec-conformant PNG codec
(``codecs.png_encode``), with tick labels rendered from a tiny 3x5 bitmap
font — no plotting dependency at all.
"""

from __future__ import annotations

import numpy as np

from ..state.checkpoint import publish

# 3x5 bitmap glyphs (rows of 3 bits, MSB left) — digits + the few symbols
# the reference's labels use (its last label is ">= vmax")
_FONT: dict[str, list[int]] = {
    "0": [0b111, 0b101, 0b101, 0b101, 0b111],
    "1": [0b010, 0b110, 0b010, 0b010, 0b111],
    "2": [0b111, 0b001, 0b111, 0b100, 0b111],
    "3": [0b111, 0b001, 0b111, 0b001, 0b111],
    "4": [0b101, 0b101, 0b111, 0b001, 0b001],
    "5": [0b111, 0b100, 0b111, 0b001, 0b111],
    "6": [0b111, 0b100, 0b111, 0b101, 0b111],
    "7": [0b111, 0b001, 0b010, 0b010, 0b010],
    "8": [0b111, 0b101, 0b111, 0b101, 0b111],
    "9": [0b111, 0b101, 0b111, 0b001, 0b111],
    "-": [0b000, 0b000, 0b111, 0b000, 0b000],
    ".": [0b000, 0b000, 0b000, 0b000, 0b010],
    ">": [0b100, 0b010, 0b001, 0b010, 0b100],
    "=": [0b000, 0b111, 0b000, 0b111, 0b000],
    " ": [0b000, 0b000, 0b000, 0b000, 0b000],
}


def _text_mask(text: str, scale: int = 2) -> np.ndarray:
    """(5*scale, 4*scale*len) bool mask of the rendered text."""
    cols = []
    for ch in text:
        rows = _FONT.get(ch, _FONT[" "])
        g = np.array(
            [[(r >> (2 - c)) & 1 for c in range(3)] for r in rows], dtype=bool
        )
        cols.append(np.pad(g, ((0, 0), (0, 1))))  # 1px letter spacing
    mask = np.concatenate(cols, axis=1) if cols else np.zeros((5, 0), bool)
    return np.kron(mask, np.ones((scale, scale), dtype=bool))


def write_colorbar(
    path: str,
    vmin: float = 350.0,
    vmax: float = 1300.0,
    bins: int = 101,
    width: int = 606,
    bar_height: int = 40,
    n_ticks: int = 5,
) -> str:
    """Write the afmhot colorbar legend PNG: the bucketized ramp (one
    column band per MTL bin, matching ``write_mtl``'s 101 materials), tick
    marks, and numeric labels (last label ``>= vmax`` as in the
    reference). Returns ``path``."""
    from ..codecs import png_encode
    from .obj import afmhot

    label_h = 16
    H = bar_height + 6 + label_h
    img = np.full((H, width, 3), 255, dtype=np.uint8)

    # bucketized ramp — column -> bin -> afmhot color (same quantization as
    # the MTL materials, generateMTL.py:31-52)
    cols = np.minimum((np.arange(width) * bins) // width, bins - 1)
    ramp = (afmhot(cols / (bins - 1)) * 255 + 0.5).astype(np.uint8)
    img[:bar_height, :, :] = ramp[None, :, :]

    # ticks + labels
    for t in range(n_ticks):
        frac = t / (n_ticks - 1)
        x = min(int(round(frac * (width - 1))), width - 1)
        img[bar_height : bar_height + 4, x, :] = 0
        val = vmin + frac * (vmax - vmin)
        txt = str(int(round(val)))
        if t == n_ticks - 1:
            txt = ">=" + txt
        mask = _text_mask(txt)
        x0 = min(max(0, x - mask.shape[1] // 2), width - mask.shape[1])
        y0 = bar_height + 6
        sub = img[y0 : y0 + mask.shape[0], x0 : x0 + mask.shape[1], :]
        sub[mask] = 0
    with publish(path) as tmp, open(tmp, "wb") as f:
        f.write(png_encode(img))
    return path
