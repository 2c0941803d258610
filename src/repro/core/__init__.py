"""SciQL core semantics: dimensions, tiling, coercions.

This package holds the paper's primary contribution in library form,
independent of the SQL surface: structural grouping
(:mod:`repro.core.tiling`) and array/table coercions
(:mod:`repro.core.coercion`).
"""

from repro.core.array import ArrayHandle
from repro.core.coercion import (
    cells_to_rows,
    infer_dimension_range,
    table_to_array_columns,
)
from repro.core.tiling import TileSpec, tile_aggregate

__all__ = [
    "ArrayHandle",
    "TileSpec",
    "cells_to_rows",
    "infer_dimension_range",
    "table_to_array_columns",
    "tile_aggregate",
]
