"""Array ↔ table coercions (paper Section 2).

"Any array is turned into a corresponding table by selecting its
attributes; the dimensions form a compound primary key" — that
direction is trivial in our storage model (arrays already are column
sets).  The interesting direction is table → array: a SELECT whose
projection carries dimension qualifiers ``[x]`` produces "an unbounded
array with actual size derived from the dimension column expressions".

This module derives those actual sizes: given the values of a
coordinate column, it infers the tightest ``[start:step:stop)`` range
(step = gcd of the gaps between distinct values), and scatters row
values into the dense cell grid; absent cells become NULL holes (or a
caller-provided default, inherited "from the default values in the
original table").  Ranges and cell positions come from the addressing
kernel in :mod:`repro.gdk.cells`, which ``array.cellindex`` and
``Array.cell_oids`` share.
"""

from __future__ import annotations

import math
from typing import Any, Optional, Sequence

import numpy as np

from repro.errors import CoercionError
from repro.gdk.atoms import Atom
from repro.gdk.cells import (
    Axis,
    cell_positions,
    infer_axes,
    infer_axis,
    locate_rows,
    row_major_axes,
    series_column,
)
from repro.gdk.column import Column
from repro.catalog.objects import DimensionDef


def _dimension(name: str, axis: Axis) -> DimensionDef:
    start, step, size = axis
    return DimensionDef(name, Atom.INT, start, step, start + step * size)


def infer_dimension_range(values: Sequence[int], name: str = "dim") -> DimensionDef:
    """Tightest fixed range covering the distinct coordinate values.

    The step is the greatest common divisor of the gaps between the
    distinct values (1 for a single value), so every observed value is
    a valid dimension value.
    """
    if len(values) == 0:
        raise CoercionError(f"cannot infer dimension {name!r} from no values")
    return _dimension(name, infer_axis(np.asarray(values, dtype=np.int64)))


def rows_to_cells(
    coordinates: list[Column],
    dimensions: list[DimensionDef],
) -> np.ndarray:
    """Linear cell positions of each row; ``-1`` for out-of-domain rows."""
    if len(coordinates) != len(dimensions):
        raise CoercionError("coordinate column count differs from dimensions")
    return cell_positions(coordinates, [d.axis for d in dimensions])


def _valued_rows(values: list[Column]) -> Optional[np.ndarray]:
    """Rows with at least one non-NULL value, or None when that is every row."""
    if not values or any(column.mask is None for column in values):
        return None
    all_null = values[0].mask.copy()
    for column in values[1:]:
        all_null &= column.mask
    return np.flatnonzero(~all_null) if all_null.any() else None


def table_to_array_columns(
    coordinates: list[Column],
    values: list[Column],
    dimensions: Optional[list[DimensionDef]] = None,
    defaults: Optional[list[Any]] = None,
    dimension_names: Optional[list[str]] = None,
    skip_all_null_rows: bool = False,
) -> tuple[list[DimensionDef], list[Column]]:
    """Coerce row-wise columns into dense cell-aligned attribute columns.

    Returns the (inferred or given) dimensions plus one dense column
    per value column.  Cells not covered by any row take the matching
    default (NULL when defaults are omitted).  When several rows map to
    the same cell the last one wins, matching the overwrite semantics
    of SciQL INSERT.  With ``skip_all_null_rows`` rows whose every value
    is NULL do not participate in the scatter — a cell they alone cover
    stays a hole either way, but they can no longer clobber a real
    value that shares the cell (e.g. HAVING-masked anchors after a
    dimension-scaling projection like ``[x/2]``).  They still count
    when the dimensions are inferred.  Inferred from no row (and no
    witnessed shape), every dimension is empty.

    The cost is O(rows) with no sort; rows that already are the cells
    in row-major order come back as they are, without a scatter, and
    so do the remaining rows once the all-NULL ones are dropped.
    """
    series = row_major_axes(coordinates)
    if dimensions is None:
        names = dimension_names or [f"dim_{i}" for i in range(len(coordinates))]
        if series is None and coordinates and len(coordinates[0]) == 0:
            # No row, and no witnesses that compose to a shape: every
            # dimension is empty, at the start and step a witness stamps.
            starts = [c.series or (0, 1) for c in coordinates]
            dimensions = [_dimension(n, (w[0], w[1], 0)) for n, w in zip(names, starts)]
            return dimensions, list(values)
        axes = series or infer_axes(coordinates)
        dimensions = [_dimension(name, axis) for name, axis in zip(names, axes)]
    else:
        axes = [d.axis for d in dimensions]
    rows = None
    if skip_all_null_rows and (series != axes or defaults):
        rows = _valued_rows(values)
    if rows is not None:
        # All-NULL rows take no part: rank and scatter only the rest.
        coordinates = [column.take(rows) for column in coordinates]
        values = [column.take(rows) for column in values]
        series = row_major_axes(coordinates)
    positions = locate_rows(coordinates, axes, series)
    if positions is None:
        return dimensions, list(values)  # row r is cell r
    cell_count = 1
    for dimension in dimensions:
        cell_count *= dimension.size
    keep = positions >= 0
    targets = positions[keep]
    source_rows = np.flatnonzero(keep)
    dense: list[Column] = []
    for index, value_column in enumerate(values):
        default = defaults[index] if defaults else None
        base = Column.constant(value_column.atom, default, cell_count)
        dense.append(base.replace(targets, value_column.take(source_rows)))
    return dimensions, dense


def cells_to_rows(
    dimensions: list[DimensionDef],
    attributes: list[Column],
    drop_holes: bool = False,
) -> tuple[list[Column], list[Column]]:
    """Array → table: dimension value columns + attribute columns.

    With ``drop_holes`` rows whose every attribute is NULL (holes) are
    omitted — handy for sparse exports; the default keeps all cells,
    which is the paper's semantics for ``SELECT x, y, v FROM array``.
    """
    shape = tuple(d.size for d in dimensions)
    cell_count = int(np.prod(shape)) if shape else 0
    for attribute in attributes:
        if len(attribute) != cell_count:
            raise CoercionError("attribute column not cell-aligned")
    coordinate_columns = [
        series_column(
            dimension.start, dimension.step, dimension.stop,
            math.prod(shape[index + 1:]), math.prod(shape[:index]),
        )
        for index, dimension in enumerate(dimensions)
    ]
    if not drop_holes:
        return coordinate_columns, [a.copy() for a in attributes]
    hole = np.ones(cell_count, dtype=np.bool_)
    for attribute in attributes:
        hole &= attribute.effective_mask()
    keep = np.flatnonzero(~hole)
    return (
        [c.take(keep) for c in coordinate_columns],
        [a.take(keep) for a in attributes],
    )
