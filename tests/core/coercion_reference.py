"""Reference cell addressing and table→array coercion (test oracle).

The straightforward implementation the engine shipped before the
sort-free kernel in :mod:`repro.gdk.cells`: ``np.unique`` to infer a
dimension range, a per-row rank computation per dimension, and a
NULL-filled base column + ``take`` + ``replace`` scatter.  Kept here,
unoptimised, so property tests can require the kernel to agree with it
on positions, inferred dimensions, dense values, dtype and NaN holes.
"""

from __future__ import annotations

import math
from typing import Any, Optional, Sequence

import numpy as np

from repro.catalog.objects import DimensionDef
from repro.errors import CoercionError
from repro.gdk.atoms import Atom
from repro.gdk.column import Column


def infer_dimension_range(values: Sequence[int], name: str = "dim") -> DimensionDef:
    if len(values) == 0:
        raise CoercionError(f"cannot infer dimension {name!r} from no values")
    distinct = np.unique(np.asarray(values, dtype=np.int64))
    start = int(distinct[0])
    if len(distinct) == 1:
        return DimensionDef(name, Atom.INT, start, 1, start + 1)
    step = 0
    for gap in np.diff(distinct).tolist():
        step = math.gcd(step, int(gap))
    step = max(step, 1)
    stop = int(distinct[-1]) + step
    return DimensionDef(name, Atom.INT, start, step, stop)


def rank_of(dimension: DimensionDef, value: np.ndarray) -> np.ndarray:
    value = np.asarray(value, dtype=np.int64)
    offset = value - dimension.start
    rank = offset // dimension.step
    valid = (
        (value >= dimension.start)
        & (value < dimension.stop)
        & (offset % dimension.step == 0)
    )
    return np.where(valid, rank, -1)


def rows_to_cells(
    coordinates: list[Column], dimensions: list[DimensionDef]
) -> np.ndarray:
    n = len(coordinates[0]) if coordinates else 0
    positions = np.zeros(n, dtype=np.int64)
    valid = np.ones(n, dtype=np.bool_)
    stride = 1
    for dimension in dimensions:
        stride *= dimension.size
    for coordinate, dimension in zip(coordinates, dimensions):
        stride //= dimension.size
        rank = rank_of(dimension, coordinate.values.astype(np.int64))
        rank = np.where(coordinate.validity(), rank, -1)
        valid &= rank >= 0
        positions += np.where(rank >= 0, rank, 0) * stride
    return np.where(valid, positions, -1)


def table_to_array_columns(
    coordinates: list[Column],
    values: list[Column],
    dimensions: Optional[list[DimensionDef]] = None,
    defaults: Optional[list[Any]] = None,
    dimension_names: Optional[list[str]] = None,
    skip_all_null_rows: bool = False,
) -> tuple[list[DimensionDef], list[Column]]:
    if dimensions is None:
        names = dimension_names or [f"dim_{i}" for i in range(len(coordinates))]
        dimensions = [
            infer_dimension_range(c.values.astype(np.int64), name)
            for c, name in zip(coordinates, names)
        ]
    cell_count = 1
    for dimension in dimensions:
        cell_count *= dimension.size
    positions = rows_to_cells(coordinates, dimensions)
    keep = positions >= 0
    if skip_all_null_rows and values:
        all_null = values[0].effective_mask().copy()
        for value_column in values[1:]:
            all_null &= value_column.effective_mask()
        keep &= ~all_null
    targets = positions[keep]
    source_rows = np.flatnonzero(keep)
    dense: list[Column] = []
    for index, value_column in enumerate(values):
        default = defaults[index] if defaults else None
        if default is None:
            base = Column.nulls(value_column.atom, cell_count)
        else:
            base = Column.constant(value_column.atom, default, cell_count)
        dense.append(base.replace(targets, value_column.take(source_rows)))
    return dimensions, dense


def grids(
    coordinates: list[Column], values: list[Column], names: list[str]
) -> tuple[list[DimensionDef], list[np.ndarray]]:
    """What ``Result.to_array()`` used to compute: dimensions + grids."""
    dimensions, dense = table_to_array_columns(
        coordinates, values, dimension_names=names, skip_all_null_rows=True
    )
    shape = tuple(d.size for d in dimensions)
    return dimensions, [column.to_numpy().reshape(shape) for column in dense]
