"""Cell addressing: dimension coordinates → linear cell positions.

The one kernel behind table→array coercion (``Result.grid()``),
``array.cellindex`` and ``Array.cell_oids``; :func:`cell_position` is
its one-cell form, the arithmetic behind a predicate that pins every
dimension.  An *axis* is a dimension range as ``(start, step, size)``;
cells are row-major, first axis slowest — the layout ``array.series``
writes (paper Section 3).

Rows that spell that series need no per-row work: row *r* is cell *r*.
Two things say so.  A column built by :func:`series_column` carries a
*witness*, ``Column.series = (start, step, size, N, M)``, the five
numbers it was built from, and :func:`row_major_axes` composes the
witnesses of all coordinates in O(#dims).  Anything else (a shifted
dimension, whole-row fragments) is checked by :func:`series_axes` in a
few O(n) passes without sorting.  Anything that is not a series takes
the general path — one ``divmod`` per axis, validity folded in once.

The witness rule: only :func:`series_column` sets a witness, and
:func:`stamp_series` after checking every value (a farm loader's
dimension).  Every other column — a take, slice, partition, pack,
cast or replace of a witnessed one included — starts without one, and
no kernel writes a column's ``values`` in place, so a witness stays
true for the column's life.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Union

import numpy as np

from repro.errors import GDKError
from repro.gdk.atoms import Atom, coerce_array
from repro.gdk.column import Column

Axis = tuple[int, int, int]
#: ``array.series`` parameters ``(start, step, size, N, M)``: *size*
#: values ``start + step * k``, each repeated N times, the run tiled M times.
Series = tuple[int, int, int, int, int]
Coordinate = Union[Column, np.ndarray]

# Rows infer_axis probes for a unit step before a gcd pass over all rows.
_PROBES = 64


def _payload(coordinate: Coordinate) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Integer values and NULL mask of a coordinate column or ndarray."""
    if isinstance(coordinate, Column):
        values, mask = coordinate.values, coordinate.mask
    else:
        values, mask = np.asarray(coordinate), None
    if values.dtype.kind != "i":  # a double truncates, NULL where not finite
        source = Atom.DBL if values.dtype.kind == "f" else Atom.LNG
        values, mask = coerce_array(values, mask, source, Atom.LNG)
    return values, mask


def series_column(
    start: int, step: int, stop: int, inner: int, outer: int, atom: Atom = Atom.LNG
) -> Column:
    """The ``array.series`` value pattern as a column of *atom*, witnessed.

    Generates the dimension values ``start, start+step, ... < stop``,
    repeating each value ``inner`` (N) times consecutively, and the
    whole sequence ``outer`` (M) times (paper, Section 3).  A value
    *atom* cannot hold is NULL, and a column with NULLs has no witness.
    """
    if step <= 0:
        raise GDKError("array.series needs a positive step")
    if inner < 0 or outer < 0:
        raise GDKError("array.series repetition factors must be non-negative")
    run = np.arange(start, stop, step, dtype=np.int64)
    run, mask = coerce_array(run, None, Atom.LNG, atom)
    size = len(run)

    def spread(per_value: np.ndarray) -> np.ndarray:
        out = np.empty((outer, size, inner), dtype=per_value.dtype)
        out[...] = per_value[None, :, None]
        return out.reshape(-1)

    if mask is not None:
        return Column(atom, spread(run), spread(mask))
    column = Column(atom, spread(run))
    column.series = (start, step, size, inner, outer)
    return column


def stamp_series(column: Column, witness: Series) -> None:
    """Give *column* the *witness* if every value matches that series.

    A memory-mapped payload with rows is left without one: checking it
    would fault the whole file in, which a lazy open exists to avoid.
    """
    start, step, size, inner, outer = witness
    values = column.values
    if (
        column.mask is not None
        or values.dtype.kind != "i"
        or (isinstance(values, np.memmap) and len(values))
        or len(values) != size * inner * outer
    ):
        return
    run = np.arange(size, dtype=np.int64) * step + start
    if (values.reshape(outer, size, inner) == run[None, :, None]).all():
        column.series = witness


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


def _first_change(column: np.ndarray, block: int) -> int:
    """First row of ``column[:block]`` whose value differs from row 0.

    Probes rows 1, 2, 4, … and bisects between the last equal probe and
    the first unequal one, so it is exact whenever rows up to twice the
    answer spell two runs — as in every series; on other input it may
    be any row, which the caller's full check then rejects.
    """
    first = column[0]
    low, high = 0, 1
    while high < block and column[high] == first:
        low, high = high, 2 * high
    if high >= block:
        if column[block - 1] == first:
            return block
        high = block - 1
    while high - low > 1:
        middle = (low + high) // 2
        if column[middle] == first:
            low = middle
        else:
            high = middle
    return high


def series_axes(columns: Sequence[np.ndarray]) -> Optional[list[Axis]]:
    """Axes of the row-major series *columns* spell, or None.

    Column *i* of a series holds ``start + step * k`` for ``k`` in
    ``range(size)``, each value repeated ``∏ sizes[i+1:]`` times and
    the whole sequence tiled ``∏ sizes[:i]`` times, so row *r* is cell
    *r* of an array with those axes.  A single row has no order to
    recognise (and is cheaper to address directly): None.  Each
    column's layout is read from a few rows first, so most non-series
    input is rejected before any full pass.
    """
    n = len(columns[0]) if columns else 0
    if n < 2:
        return None
    layouts = []
    outer, block = 1, n  # block = rows per tile of the enclosing axes
    for column in columns:
        repeat = _first_change(column, block)
        if block % repeat:
            return None
        size = block // repeat
        first = int(column[0])
        step = int(column[repeat]) - first if size > 1 else 1
        last = first + step * (size - 1)
        if step <= 0 or last > np.iinfo(column.dtype).max or int(column[-1]) != last:
            return None
        layouts.append((first, step, size, repeat, outer))
        outer, block = outer * size, repeat
    if block != 1:
        return None
    for column, (first, step, size, repeat, outer) in zip(columns, layouts):
        expected = np.arange(size, dtype=column.dtype) * step + first
        tiles = column.reshape(outer, size, repeat)
        if not (tiles == expected[None, :, None]).all():
            return None
    return [(first, step, size) for first, step, size, _, _ in layouts]


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


def _witnessed_axes(coordinates: Sequence[Coordinate]) -> Optional[list[Axis]]:
    """Axes the coordinates' witnesses compose to, when they tile the
    row-major shape: dimension *i* repeats each value ``∏ sizes[i+1:]``
    times and its run ``∏ sizes[:i]`` times."""
    witnesses = [c.series if isinstance(c, Column) else None for c in coordinates]
    if not witnesses or None in witnesses:
        return None
    sizes = [size for _, _, size, _, _ in witnesses]
    for index, (_, _, _, inner, outer) in enumerate(witnesses):
        if inner != math.prod(sizes[index + 1:]) or outer != math.prod(sizes[:index]):
            return None
    # A one-value axis carries no step: it reads as 1, as series_axes says.
    return [(start, step if size > 1 else 1, size) for start, step, size, _, _ in witnesses]


def row_major_axes(coordinates: Sequence[Coordinate]) -> Optional[list[Axis]]:
    """Axes under which row *r* is cell *r*, or None.

    The witnesses answer in O(#dims); without them NULL-free integer
    payloads are checked by :func:`series_axes`.
    """
    axes = _witnessed_axes(coordinates)
    if axes is not None:
        return axes
    payloads = [_payload(c) for c in coordinates]
    if any(mask is not None for _, mask in payloads):
        return None
    return series_axes([values for values, _ in payloads])


def infer_axes(coordinates: Sequence[Coordinate]) -> list[Axis]:
    """Tightest axes covering every row (NULL coordinates contribute
    their payload, as they always have)."""
    return [infer_axis(_payload(c)[0]) for c in coordinates]


def locate_rows(
    coordinates: Sequence[Coordinate],
    axes: Sequence[Axis],
    series: Optional[list[Axis]],
) -> Optional[np.ndarray]:
    """Linear cell position of every row under *axes*.

    *series* is what :func:`row_major_axes` said of these rows.
    Positions are ``-1`` for rows with a NULL or out-of-domain
    coordinate, and ``None`` when row *r* is exactly cell *r* of all
    ``∏ sizes`` cells, so callers can reshape instead of scatter.
    """
    if series is not None:
        return _series_positions(series, axes)
    payloads = [_payload(c) for c in coordinates]
    n = len(payloads[0][0]) if payloads else 0
    positions = np.zeros(n, dtype=np.int64)
    invalid = np.zeros(n, dtype=np.bool_)
    for (values, mask), axis, stride in zip(payloads, axes, _strides(axes)):
        if mask is not None:
            invalid |= mask
        rank, bad = _axis_ranks(values, axis)
        invalid |= bad
        if stride != 1:
            rank *= stride
        positions += rank
    positions[invalid] = -1
    return positions


def address_cells(
    coordinates: Sequence[Coordinate], axes: Optional[Sequence[Axis]] = None
) -> tuple[list[Axis], Optional[np.ndarray]]:
    """Axes and linear cell position of every row (see :func:`locate_rows`).

    *axes* default to the tightest ones covering the coordinate values.
    """
    series = row_major_axes(coordinates)
    axes = list(axes) if axes is not None else series or infer_axes(coordinates)
    return axes, locate_rows(coordinates, axes, series)


def cell_position(coordinates: Sequence[object], axes: Sequence[Axis]) -> Optional[int]:
    """Linear position of the one cell *coordinates* name, or None.

    A coordinate that is not an integer (NULL, a non-integral number),
    off its axis's step or outside its range names no cell.
    """
    position = 0
    for value, (start, step, size), stride in zip(coordinates, axes, _strides(axes)):
        if not isinstance(value, int):
            return None
        rank, remainder = divmod(value - start, step)
        if remainder or not 0 <= rank < size:
            return None
        position += rank * stride
    return position


def cell_positions(
    coordinates: Sequence[Coordinate], axes: Sequence[Axis]
) -> np.ndarray:
    """Linear cell position of every row; ``-1`` where it has none."""
    _, positions = address_cells(coordinates, axes)
    if positions is None:
        positions = np.arange(len(coordinates[0]), dtype=np.int64)
    return positions
