"""Loop-and-slice twins of the grey-scale window operations.

The tests and the E8 benchmark compare the SciQL queries of
``repro.apps.imaging`` (erode, dilate, resolution reduction) with these;
no engine code calls them.
"""

from __future__ import annotations

import numpy as np


def _reference_morphology(image: np.ndarray, radius: int, maximum: bool) -> np.ndarray:
    out = np.full(
        image.shape, np.iinfo(np.int64).min if maximum else np.iinfo(np.int64).max
    )
    w, h = image.shape
    span = range(-radius, radius + 1)
    op = np.maximum if maximum else np.minimum
    for dx in span:
        for dy in span:
            xs = slice(max(0, -dx), min(w, w - dx))
            ys = slice(max(0, -dy), min(h, h - dy))
            xd = slice(max(0, dx), min(w, w + dx))
            yd = slice(max(0, dy), min(h, h + dy))
            out[xs, ys] = op(out[xs, ys], image[xd, yd])
    return out


def reference_erode(image: np.ndarray, radius: int = 1) -> np.ndarray:
    """Window minimum with edge clipping (matches MIN tiling)."""
    return _reference_morphology(image, radius, maximum=False)


def reference_dilate(image: np.ndarray, radius: int = 1) -> np.ndarray:
    """Window maximum with edge clipping (matches MAX tiling)."""
    return _reference_morphology(image, radius, maximum=True)


def reference_reduce(image: np.ndarray, factor: int = 2) -> np.ndarray:
    w, h = image.shape
    out_w, out_h = -(-w // factor), -(-h // factor)
    out = np.zeros((out_w, out_h), dtype=np.float64)
    for ox in range(out_w):
        for oy in range(out_h):
            block = image[
                ox * factor : (ox + 1) * factor, oy * factor : (oy + 1) * factor
            ]
            out[ox, oy] = block.mean()
    return out
