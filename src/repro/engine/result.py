"""Query results.

A :class:`Result` wraps the columns a plan delivered through
``sql.resultSet``.  Array-shaped results (queries with ``[dim]``
projection items) additionally expose a dense grid view via the
table→array coercion rules.  For the DB-API layer a result carries
the column atoms in ``meta`` (what ``Cursor.description`` reports) and
a columnar :meth:`to_numpy` export that never materialises Python
tuples.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

import numpy as np

from repro.errors import CoercionError, SciQLError
from repro.gdk.bat import BAT
from repro.gdk.column import Column
from repro.catalog.objects import DimensionDef
from repro.core.coercion import table_to_array_columns


def _column_to_numpy(column: Column) -> np.ndarray:
    """One column as an ndarray; NULLs become NaN (numeric) or None."""
    if column.mask is None:
        return column.values.copy()
    if column.atom.value in ("int", "lng", "dbl", "oid"):
        return column.to_numpy()  # float64 with NaN holes
    out = column.values.astype(object)
    out[column.mask] = None
    return out


class Result:
    """The outcome of one executed statement."""

    def __init__(
        self,
        kind: str = "none",
        names: Optional[list[str]] = None,
        columns: Optional[list[Column]] = None,
        meta: Optional[dict] = None,
        affected: int = 0,
        mal_text: str = "",
    ):
        self.kind = kind  # "table" | "array" | "none" (DDL/DML)
        self.names = names or []
        self.columns = columns or []
        self.meta = meta or {}
        self.affected = affected
        self.mal_text = mal_text

    # ------------------------------------------------------------------
    @classmethod
    def from_internal(cls, internal, affected: int, mal_text: str = "") -> "Result":
        columns = [bat.tail for bat in internal.bats]
        return cls(internal.kind, internal.names, columns, internal.meta, affected, mal_text)

    @property
    def is_query(self) -> bool:
        return self.kind in ("table", "array")

    @property
    def row_count(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def __len__(self) -> int:
        return self.row_count

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if not self.is_query:
            return f"Result(affected={self.affected})"
        return f"Result({self.kind}, {self.names}, {self.row_count} rows)"

    # ------------------------------------------------------------------
    # row-wise access
    # ------------------------------------------------------------------
    def rows(self) -> list[tuple]:
        """All rows as Python tuples (NULL → None)."""
        lists = [column.to_pylist() for column in self.columns]
        return list(zip(*lists)) if lists else []

    def column(self, name: str) -> list[Any]:
        """One column by name (first match) as Python values."""
        try:
            index = self.names.index(name)
        except ValueError:
            raise SciQLError(f"no result column {name!r}") from None
        return self.columns[index].to_pylist()

    def scalar(self) -> Any:
        """The single value of a 1×1 result."""
        if self.row_count != 1 or len(self.columns) != 1:
            raise SciQLError(
                f"scalar() needs a 1x1 result, got "
                f"{self.row_count}x{len(self.columns)}"
            )
        return self.columns[0].get(0)

    # ------------------------------------------------------------------
    # columnar access
    # ------------------------------------------------------------------
    def to_numpy(self) -> dict[str, np.ndarray]:
        """All columns as ndarrays (name -> array), no tuple detour.

        Numeric columns with NULLs widen to float64 with NaN holes
        (matching :meth:`grid`); string/bool columns with NULLs come
        back as object arrays holding ``None``.  Duplicate column
        names keep the first occurrence.
        """
        out: dict[str, np.ndarray] = {}
        for name, column in zip(self.names, self.columns):
            if name not in out:
                out[name] = _column_to_numpy(column)
        return out

    # ------------------------------------------------------------------
    # array-shaped access
    # ------------------------------------------------------------------
    def dimension_names(self) -> list[str]:
        """Names of dimension-qualified result columns."""
        return list(self.meta.get("dims", []))

    def value_names(self) -> list[str]:
        """Names of non-dimension result columns."""
        dims = set(self.dimension_names())
        return [name for name in self.names if name not in dims]

    def to_array(
        self,
    ) -> tuple[list[DimensionDef], dict[str, np.ndarray]]:
        """Coerce an array-shaped result to (dimensions, name → grid).

        A grid keeps its column's dtype; a numeric column with NULLs
        widens to float64 with NaN holes.  The dimension ranges are
        inferred per Section 2 (Section 3's ``array.series`` parameters
        when the dimensions came from the source array untouched).
        """
        if self.kind != "array":
            raise CoercionError("result is not array-shaped; use rows()")
        dim_names = self.dimension_names()
        if not dim_names:
            raise CoercionError("array result without dimension columns")
        name_to_column = {}
        for name, column in zip(self.names, self.columns):
            name_to_column.setdefault(name, column)
        names = self.value_names()
        dimensions, dense = table_to_array_columns(
            [name_to_column[name] for name in dim_names],
            [name_to_column[name] for name in names],
            dimension_names=dim_names,
            skip_all_null_rows=True,
        )
        shape = tuple(d.size for d in dimensions)
        grids = {
            name: column.to_numpy().reshape(shape)
            for name, column in zip(names, dense)
        }
        return dimensions, grids

    def grid(self, name: Optional[str] = None) -> np.ndarray:
        """Dense grid of one value column (the only one by default)."""
        _, grids = self.to_array()
        if name is None:
            if len(grids) != 1:
                raise CoercionError(
                    f"result has {len(grids)} value columns; name one of "
                    f"{sorted(grids)}"
                )
            return next(iter(grids.values()))
        try:
            return grids[name]
        except KeyError:
            raise CoercionError(f"no value column {name!r}") from None
