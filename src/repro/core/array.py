"""A Pythonic facade over stored SciQL arrays.

:class:`ArrayHandle` wraps one catalog array behind numpy-flavoured
accessors — every method is sugar over SciQL queries, so the handle
also documents, by construction, how each array idiom maps onto the
query language::

    handle = ArrayHandle.from_numpy(conn, "img", picture)
    handle[4:8, 4:8]              # zoom      -> WHERE x BETWEEN ...
    handle.tile((3, 3), "avg")    # smoothing -> GROUP BY img[x-1:x+2]...
    handle.shift((-1, 0))         # neighbour -> img[x-1][y]
    handle[2, 2] = 255            # INSERT INTO img VALUES (2, 2, 255)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Sequence

import numpy as np

from repro.errors import DimensionError, SciQLError

if TYPE_CHECKING:  # avoid a circular import; Connection is typing-only here
    from repro.engine import Connection


def _normalise_index(index) -> tuple:
    if not isinstance(index, tuple):
        index = (index,)
    return index


class ArrayHandle:
    """One stored SciQL array, addressed through Python conventions."""

    def __init__(self, connection: "Connection", name: str):
        self.connection = connection
        self.name = name.lower()
        self._array  # resolve eagerly so a bad name fails at handle creation

    @property
    def _array(self):
        # Re-resolve on every access: committed writes publish a *new*
        # catalog version with fresh object descriptors, so a cached
        # reference would read the pre-write snapshot forever.
        return self.connection.catalog.get_array(self.name)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        connection: "Connection",
        name: str,
        dimensions: Sequence[tuple[str, int, int, int]],
        attribute: str = "v",
        type_name: str = "INT",
        default: Any = 0,
    ) -> "ArrayHandle":
        """CREATE ARRAY with (name, start, step, stop) dimension specs."""
        dims_sql = ", ".join(
            f"{dim} INT DIMENSION[{start}:{step}:{stop}]"
            for dim, start, step, stop in dimensions
        )
        default_sql = "" if default is None else f" DEFAULT {default!r}"
        connection.execute(
            f"CREATE ARRAY {name} ({dims_sql}, "
            f"{attribute} {type_name}{default_sql})"
        )
        return cls(connection, name)

    @classmethod
    def from_numpy(
        cls,
        connection: "Connection",
        name: str,
        data: np.ndarray,
        dimension_names: Optional[Sequence[str]] = None,
        attribute: str = "v",
    ) -> "ArrayHandle":
        """Store a copy of a numpy array as a SciQL array
        (``register_array``: the dtype picks the atom, NaN is NULL)."""
        data = np.array(data)
        names = list(dimension_names or ("x", "y", "z", "w")[: data.ndim])
        if len(names) != data.ndim:
            raise DimensionError("dimension name count differs from data rank")
        connection.register_array(name, data, dims=names, attribute=attribute)
        return cls(connection, name)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self._array.shape()

    @property
    def ndim(self) -> int:
        return len(self._array.dimensions)

    @property
    def dimension_names(self) -> list[str]:
        return self._array.dimension_names()

    @property
    def attribute_names(self) -> list[str]:
        return [a.name for a in self._array.attributes]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dims = ", ".join(
            f"{d.name}{d.spec()}" for d in self._array.dimensions
        )
        return f"ArrayHandle({self.name}: {dims})"

    def _single_attribute(self, attribute: Optional[str]) -> str:
        if attribute is not None:
            return attribute
        if len(self._array.attributes) != 1:
            raise SciQLError(
                f"array {self.name!r} has several attributes; name one of "
                f"{self.attribute_names}"
            )
        return self._array.attributes[0].name

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def to_numpy(self, attribute: Optional[str] = None) -> np.ndarray:
        """All cells as an ndarray (NaN holes for numeric attributes)."""
        return self._array.grid(self._single_attribute(attribute))

    def __getitem__(self, index) -> Any:
        """Point access or rectangular zoom, in dimension value space."""
        index = _normalise_index(index)
        if len(index) != self.ndim:
            raise DimensionError(
                f"array {self.name!r} has {self.ndim} dimensions, "
                f"got {len(index)} subscripts"
            )
        attribute = self._single_attribute(None)
        conditions: list[str] = []
        point = True
        for dim, sub in zip(self._array.dimensions, index):
            if isinstance(sub, slice):
                point = False
                if sub.step not in (None, 1):
                    raise DimensionError("stepped slices are not supported")
                start = dim.start if sub.start is None else sub.start
                stop = dim.stop if sub.stop is None else sub.stop
                conditions.append(
                    f"{dim.name} BETWEEN {start} AND {stop - 1}"
                )
            else:
                conditions.append(f"{dim.name} = {int(sub)}")
        where = " AND ".join(conditions)
        if point:
            result = self.connection.execute(
                f"SELECT {attribute} FROM {self.name} WHERE {where}"
            )
            rows = result.rows()
            if not rows:
                raise DimensionError(f"cell {index} outside array {self.name!r}")
            return rows[0][0]
        dims = ", ".join(f"[{d.name}]" for d in self._array.dimensions)
        result = self.connection.execute(
            f"SELECT {dims}, {attribute} FROM {self.name} WHERE {where}"
        )
        return result.grid()

    def shift(self, deltas: Sequence[int], attribute: Optional[str] = None) -> np.ndarray:
        """Relative cell access: entry a becomes cell ``a + deltas``."""
        if len(deltas) != self.ndim:
            raise DimensionError("shift rank differs from array rank")
        attribute = self._single_attribute(attribute)
        refs = "".join(
            f"[{d.name}{'+' if delta >= 0 else ''}{delta}]" if delta else f"[{d.name}]"
            for d, delta in zip(self._array.dimensions, deltas)
        )
        dims = ", ".join(f"[{d.name}]" for d in self._array.dimensions)
        result = self.connection.execute(
            f"SELECT {dims}, {self.name}{refs}.{attribute} FROM {self.name}"
        )
        return result.grid()

    def tile(
        self,
        spans: Sequence[int | tuple[int, int]],
        aggregate: str = "avg",
        attribute: Optional[str] = None,
    ) -> np.ndarray:
        """Structural grouping: per-anchor aggregate over a tile.

        ``spans[i]`` is either an integer k (the range ``[d : d+k]``) or
        an explicit offset pair ``(lo, hi)`` for ``[d+lo : d+hi]``;
        centred 3×3 smoothing is ``spans=((-1, 2), (-1, 2))``.
        """
        if len(spans) != self.ndim:
            raise DimensionError("tile rank differs from array rank")
        attribute = self._single_attribute(attribute)
        brackets = []
        for dim, span in zip(self._array.dimensions, spans):
            if isinstance(span, tuple):
                lo, hi = span
            else:
                lo, hi = 0, int(span)
            lo_sql = f"{dim.name}{'+' if lo >= 0 else ''}{lo}" if lo else dim.name
            hi_sql = f"{dim.name}{'+' if hi >= 0 else ''}{hi}" if hi else dim.name
            brackets.append(f"[{lo_sql}:{hi_sql}]")
        dims = ", ".join(f"[{d.name}]" for d in self._array.dimensions)
        query = (
            f"SELECT {dims}, {aggregate.upper()}({attribute}) FROM {self.name} "
            f"GROUP BY {self.name}{''.join(brackets)}"
        )
        return self.connection.execute(query).grid()

    def to_rows(self, drop_holes: bool = False) -> list[tuple]:
        """Array→table coercion: (coordinates..., attributes...) tuples."""
        columns = ", ".join(self._array.column_names())
        result = self.connection.execute(f"SELECT {columns} FROM {self.name}")
        rows = result.rows()
        if not drop_holes:
            return rows
        width = len(self._array.dimensions)
        return [r for r in rows if any(v is not None for v in r[width:])]

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def __setitem__(self, index, value) -> None:
        """Point or rectangular assignment (UPDATE semantics)."""
        index = _normalise_index(index)
        if len(index) != self.ndim:
            raise DimensionError("subscript rank differs from array rank")
        attribute = self._single_attribute(None)
        conditions = []
        for dim, sub in zip(self._array.dimensions, index):
            if isinstance(sub, slice):
                start = dim.start if sub.start is None else sub.start
                stop = dim.stop if sub.stop is None else sub.stop
                conditions.append(f"{dim.name} BETWEEN {start} AND {stop - 1}")
            else:
                conditions.append(f"{dim.name} = {int(sub)}")
        value_sql = "NULL" if value is None else repr(value)
        self.connection.execute(
            f"UPDATE {self.name} SET {attribute} = {value_sql} "
            f"WHERE {' AND '.join(conditions)}"
        )

    def fill(self, expression: str, where: Optional[str] = None) -> int:
        """UPDATE every (matching) cell with a SciQL expression."""
        attribute = self._single_attribute(None)
        where_sql = f" WHERE {where}" if where else ""
        result = self.connection.execute(
            f"UPDATE {self.name} SET {attribute} = {expression}{where_sql}"
        )
        return result.affected

    def punch_holes(self, where: str) -> int:
        """DELETE matching cells (they become NULL holes)."""
        result = self.connection.execute(
            f"DELETE FROM {self.name} WHERE {where}"
        )
        return result.affected

    def resize(self, dimension: str, start: int, step: int, stop: int) -> None:
        """ALTER ARRAY ... SET RANGE."""
        self.connection.execute(
            f"ALTER ARRAY {self.name} ALTER DIMENSION {dimension} "
            f"SET RANGE [{start}:{step}:{stop}]"
        )

    def drop(self) -> None:
        """DROP ARRAY."""
        self.connection.execute(f"DROP ARRAY {self.name}")
