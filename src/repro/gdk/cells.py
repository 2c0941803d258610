"""Cell addressing: dimension coordinates → linear cell positions.

The one kernel behind table→array coercion (``Result.grid()``),
``array.cellindex`` and ``Array.cell_oids``.  An *axis* is a dimension
range as ``(start, step, size)``; cells are row-major, first axis
slowest — the layout ``array.series`` writes (paper Section 3).

Rows that came out of the dimension BATs untouched (or shifted by a
constant, or cut into whole-row fragments) still spell that series, and
then nothing per-row has to be computed: :func:`series_axes` recognises
the pattern in a few O(n) passes without sorting, and positions follow
from one rank vector of length ``size`` per axis.  Anything else takes
the general path — one ``divmod`` per axis, validity folded in once.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Union

import numpy as np

from repro.gdk.column import Column

Axis = tuple[int, int, int]
Coordinate = Union[Column, np.ndarray]

# Rows infer_axis probes for a unit step before a gcd pass over all rows.
_PROBES = 64


def _payload(coordinate: Coordinate) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Integer values and NULL mask of a coordinate column or ndarray."""
    if isinstance(coordinate, Column):
        values, mask = coordinate.values, coordinate.mask
    else:
        values, mask = np.asarray(coordinate), None
    if values.dtype.kind != "i":
        values = values.astype(np.int64)
    return values, mask


def infer_axis(values: np.ndarray) -> Axis:
    """Tightest axis covering *values*: step is the gcd of their gaps."""
    low, high = int(values.min()), int(values.max())
    if low == high:
        return low, 1, 1
    # The step divides every offset from ``low``, so a few probed rows
    # (at an odd stride, which does not resonate with power-of-two row
    # lengths) bound it from above: 1 there is 1 everywhere, and only
    # other answers need the gcd pass over all rows.
    probes = values[:: len(values) // _PROBES | 1]
    step = math.gcd(high - low, *np.subtract(probes, low, dtype=np.int64).tolist())
    if step != 1:
        step = int(np.gcd.reduce(np.subtract(values, low, dtype=np.int64)))
    return low, step, (high - low) // step + 1


def series_axes(columns: Sequence[np.ndarray]) -> Optional[list[Axis]]:
    """Axes of the row-major series *columns* spell, or None.

    Column *i* of a series holds ``start + step * k`` for ``k`` in
    ``range(size)``, each value repeated ``∏ sizes[i+1:]`` times and
    the whole sequence tiled ``∏ sizes[:i]`` times, so row *r* is cell
    *r* of an array with those axes.  A single row has no order to
    recognise (and is cheaper to address directly): None.
    """
    n = len(columns[0]) if columns else 0
    if n < 2:
        return None
    axes: list[Axis] = []
    outer, block = 1, n  # block = rows per tile of the enclosing axes
    for column in columns:
        first = int(column[0])
        changed = column[:block] != first
        repeat = int(changed.argmax())
        if not changed[repeat]:
            repeat = block
        if block % repeat:
            return None
        size = block // repeat
        step = int(column[repeat]) - first if size > 1 else 1
        if step <= 0 or first + step * (size - 1) > np.iinfo(column.dtype).max:
            return None
        expected = np.arange(size, dtype=column.dtype) * step + first
        tiles = column.reshape(outer, size, repeat)
        if not (tiles == expected[None, :, None]).all():
            return None
        axes.append((first, step, size))
        outer, block = outer * size, repeat
    return axes if block == 1 else None


def _axis_ranks(values: np.ndarray, axis: Axis) -> tuple[np.ndarray, np.ndarray]:
    """Per-value rank on *axis* (int64) and out-of-domain flags."""
    start, step, size = axis
    rank = np.subtract(values, start, dtype=np.int64)
    if step == 1:
        return rank, rank.view(np.uint64) >= size
    rank, remainder = np.divmod(rank, step)
    bad = rank.view(np.uint64) >= size
    bad |= remainder != 0
    return rank, bad


def _strides(axes: Sequence[Axis]) -> list[int]:
    strides = [1] * len(axes)
    for index in range(len(axes) - 2, -1, -1):
        strides[index] = strides[index + 1] * axes[index + 1][2]
    return strides


def _series_positions(series: list[Axis], axes: Sequence[Axis]) -> Optional[np.ndarray]:
    """Positions of a recognised series; None when row r is cell r."""
    if list(axes) == series:
        return None
    cells = 1
    for axis in axes:
        cells *= axis[2]
    positions = np.zeros((1,) * len(axes), dtype=np.int64)
    clean = True
    for index, ((start, step, size), axis, stride) in enumerate(
        zip(series, axes, _strides(axes))
    ):
        rank, bad = _axis_ranks(np.arange(size, dtype=np.int64) * step + start, axis)
        rank *= stride
        if bad.any():
            # Any bad axis drags the sum below zero: clamp once at the end.
            rank[bad] = -cells - 1
            clean = False
        shape = [1] * len(axes)
        shape[index] = size
        positions = positions + rank.reshape(shape)
    positions = positions.reshape(-1)
    if not clean:
        np.maximum(positions, -1, out=positions)
    return positions


def address_cells(
    coordinates: Sequence[Coordinate], axes: Optional[Sequence[Axis]] = None
) -> tuple[list[Axis], Optional[np.ndarray]]:
    """Axes and linear cell position of every row.

    *axes* default to the tightest ones covering the coordinate values
    (NULL coordinates contribute their payload, as they always have).
    Positions are ``-1`` for rows with a NULL or out-of-domain
    coordinate, and ``None`` when row *r* is exactly cell *r* of all
    ``∏ sizes`` cells, so callers can reshape instead of scatter.
    """
    payloads = [_payload(c) for c in coordinates]
    arrays = [values for values, _ in payloads]
    masks = [mask for _, mask in payloads if mask is not None]
    series = None if masks else series_axes(arrays)
    if axes is None:
        axes = series or [infer_axis(values) for values in arrays]
    axes = list(axes)
    if series is not None:
        return axes, _series_positions(series, axes)
    n = len(arrays[0]) if arrays else 0
    positions = np.zeros(n, dtype=np.int64)
    invalid = np.zeros(n, dtype=np.bool_)
    for mask in masks:
        invalid |= mask
    for values, axis, stride in zip(arrays, axes, _strides(axes)):
        rank, bad = _axis_ranks(values, axis)
        invalid |= bad
        if stride != 1:
            rank *= stride
        positions += rank
    positions[invalid] = -1
    return axes, positions


def cell_positions(
    coordinates: Sequence[Coordinate], axes: Sequence[Axis]
) -> np.ndarray:
    """Linear cell position of every row; ``-1`` where it has none."""
    _, positions = address_cells(coordinates, axes)
    if positions is None:
        positions = np.arange(len(coordinates[0]), dtype=np.int64)
    return positions
