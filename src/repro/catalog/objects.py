"""Catalog object descriptors: columns, dimensions, tables, arrays.

A SciQL array differs from a table in one semantic point the whole
paper builds on: *all cells covered by the dimensions always exist
conceptually* (Section 1).  The catalog therefore materialises every
array at creation time — one BAT per dimension plus one per cell
attribute, exactly as Figure 3 shows — whereas tables start empty.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any, Optional

import numpy as np

from repro.errors import CatalogError, DimensionError, PersistenceError
from repro.gdk import dictenc
from repro.gdk.atoms import Atom
from repro.gdk.bat import BAT
from repro.gdk.cells import Coordinate, cell_positions
from repro.gdk.column import Column


class _SchemaEntry:
    """JSON form of a definition: its fields in order, the atom by value."""

    def to_json(self) -> dict:
        return {**asdict(self), "atom": self.atom.value}

    @classmethod
    def from_json(cls, entry: dict):
        return cls(**{**entry, "atom": Atom(entry["atom"])})


@dataclass
class ColumnDef(_SchemaEntry):
    """A non-dimensional attribute: name, atom type, optional DEFAULT.

    Omitting the default implies NULL (paper, Section 2).
    """

    name: str
    atom: Atom
    default: Any = None
    has_default: bool = False


@dataclass
class DimensionDef(_SchemaEntry):
    """A named dimension with range constraint ``[start:step:stop)``.

    The interval is right-open; a dimension is *fixed* when all three
    range expressions are literal (we keep only fixed and derived-fixed
    dimensions materialised; see :mod:`repro.core.coercion` for how
    unbounded dimensions obtain an actual size).
    """

    name: str
    atom: Atom
    start: int
    step: int
    stop: int

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise DimensionError(
                f"dimension {self.name}: step must be positive, got {self.step}"
            )
        if self.stop < self.start:
            raise DimensionError(
                f"dimension {self.name}: empty range [{self.start}:{self.step}:{self.stop}]"
            )

    @property
    def size(self) -> int:
        """Number of valid dimension values."""
        return max(0, math.ceil((self.stop - self.start) / self.step))

    def values(self) -> np.ndarray:
        """All valid dimension values, ascending."""
        return np.arange(self.start, self.stop, self.step, dtype=np.int64)

    def contains(self, value: int) -> bool:
        """True when *value* is a valid value of this dimension."""
        if value < self.start or value >= self.stop:
            return False
        return (value - self.start) % self.step == 0

    @property
    def axis(self) -> tuple[int, int, int]:
        """``(start, step, size)`` — the range as the cell kernel takes it."""
        return self.start, self.step, self.size

    def rank_of(self, value: np.ndarray) -> np.ndarray:
        """Position of dimension values within the range (vectorised).

        Out-of-domain values map to ``-1``.
        """
        return cell_positions([np.asarray(value)], [self.axis])

    def spec(self) -> str:
        """Render the range constraint as SciQL surface syntax."""
        return f"[{self.start}:{self.step}:{self.stop}]"


class _DeltaJournal:
    """What a table and an array share: one BAT per column, point updates,
    and a record of logical mutations for O(delta) durable commits.

    A transaction fork arms each cloned object with an empty journal
    (:meth:`_arm_journal`); every mutating method then appends one
    ``(method, payload)`` entry describing its *inputs* — the logical
    delta — and snapshots the resulting BAT bindings.  At commit time
    the WAL (:mod:`repro.engine.wal`) replays exactly these entries, so
    a durable commit costs O(changed rows), not O(database).

    The BAT-binding snapshot is the faithfulness check: code that
    assigns ``obj.bats[...]`` directly (bypassing the journaled
    methods) leaves the snapshot stale, and the WAL falls back to
    logging the object's full state instead of an incomplete delta.
    Objects built outside a fork carry ``journal = None`` and pay
    nothing.
    """

    journal: Optional[list] = None
    _journal_bats: Optional[dict] = None
    _journal_base: Optional[object] = None

    def _arm_journal(self, base: Optional[object] = None) -> None:
        self.journal = []
        self._journal_bats = dict(self.bats)
        self._journal_base = base

    def _disarm_journal(self) -> None:
        self.journal = None
        self._journal_bats = None
        self._journal_base = None

    def _journal_op(self, method: str, payload: dict) -> None:
        if self.journal is not None:
            self.journal.append((method, payload))
            self._journal_bats = dict(self.bats)

    def bind(self, column: str) -> BAT:
        """The storage BAT of one column (MAL's ``sql.bind``)."""
        try:
            return self.bats[column]
        except KeyError:
            raise CatalogError(f"{self.kind} {self.name}: no column {column!r}") from None

    def replace_values(self, column: str, oids: np.ndarray, values: Column) -> None:
        """Point-update one column / cell attribute at the given oids.

        Array INSERT/UPDATE/DELETE all reduce to this; a dimension is
        not updatable.
        """
        cdef = self._updatable_def(column)
        if values.atom is not cdef.atom:
            values = values.cast(cdef.atom)
        oids = np.asarray(oids, dtype=np.int64)
        self.bats[column] = self.bats[column].replace(oids, values)
        self._journal_op("replace_values", {"column": column, "oids": oids, "values": values})

    def journal_faithful(self) -> bool:
        """True when the journal provably covers every BAT rebinding."""
        if self.journal is None or self._journal_bats is None:
            return False
        if self._journal_bats.keys() != self.bats.keys():
            return False
        return all(
            self.bats[name] is bat for name, bat in self._journal_bats.items()
        )


class Table(_DeltaJournal):
    """A relational table: a bag of tuples stored column-wise in BATs."""

    kind = "table"

    def __init__(self, name: str, columns: list[ColumnDef]):
        if not columns:
            raise CatalogError(f"table {name}: needs at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise CatalogError(f"table {name}: duplicate column names")
        self.name = name
        self.columns = columns
        self.bats: dict[str, BAT] = {
            c.name: BAT.empty(c.atom) for c in columns
        }

    @property
    def count(self) -> int:
        """Number of tuples."""
        first = next(iter(self.bats.values()))
        return len(first)

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def schema_json(self) -> dict:
        """Kind and column definitions; :func:`object_from_schema` reads it."""
        return {"kind": self.kind, "columns": [c.to_json() for c in self.columns]}

    def column_def(self, name: str) -> ColumnDef:
        for column in self.columns:
            if column.name == name:
                return column
        raise CatalogError(f"table {self.name}: no column {name!r}")

    _updatable_def = column_def

    def clone(self) -> "Table":
        """Structural copy sharing the (immutable) storage BATs.

        Mutating operations rebind entries of ``self.bats`` with fresh
        BATs instead of mutating payloads in place, so a clone is a true
        copy-on-write snapshot: writes against the clone never surface
        in the original and vice versa.
        """
        other = Table.__new__(Table)
        other.name = self.name
        other.columns = list(self.columns)
        other.bats = dict(self.bats)
        other._arm_journal(self)
        return other

    def append_rows(self, columns: dict[str, Column]) -> int:
        """Bulk-append aligned columns; missing attributes get defaults."""
        lengths = {len(c) for c in columns.values()}
        if len(lengths) != 1:
            raise CatalogError("append: misaligned input columns")
        n = lengths.pop()
        for cdef in self.columns:
            if cdef.name in columns:
                incoming = columns[cdef.name]
                if incoming.atom is not cdef.atom:
                    incoming = incoming.cast(cdef.atom)
            elif cdef.has_default and cdef.default is not None:
                incoming = Column.constant(cdef.atom, cdef.default, n)
            else:
                incoming = Column.nulls(cdef.atom, n)
            appended = self.bats[cdef.name].append(BAT(incoming))
            # Re-evaluate dictionary encoding on the grown column before
            # the journal snapshots it, so WAL replay converges to the
            # same representation (a column can cross the cardinality
            # threshold — in either direction — mid-append).
            self.bats[cdef.name] = dictenc.maybe_encode_bat(appended)
        self._journal_op("append_rows", {"columns": dict(columns)})
        return n

    def delete_rows(self, oids: np.ndarray) -> int:
        """Physically remove rows (tables are bags; arrays never do this)."""
        keep = np.setdiff1d(
            np.arange(self.count, dtype=np.int64), np.asarray(oids, dtype=np.int64)
        )
        for name, bat in self.bats.items():
            self.bats[name] = BAT(bat.tail.take(keep), 0)
        self._journal_op(
            "delete_rows", {"oids": np.asarray(oids, dtype=np.int64)}
        )
        return self.count

    def clear(self) -> None:
        """Remove all tuples."""
        for cdef in self.columns:
            self.bats[cdef.name] = BAT.empty(cdef.atom)
        self._journal_op("clear", {})


class Array(_DeltaJournal):
    """A SciQL array: dimensions + cell attributes, fully materialised.

    Cells are stored in *dimension-major* order: the first declared
    dimension varies slowest (this matches the ``array.series``
    repetition factors of the paper's Figure 3).
    """

    kind = "array"

    def __init__(
        self,
        name: str,
        dimensions: list[DimensionDef],
        attributes: list[ColumnDef],
        materialise: bool = True,
    ):
        if not dimensions:
            raise CatalogError(f"array {name}: needs at least one dimension")
        if not attributes:
            raise CatalogError(f"array {name}: needs at least one cell attribute")
        names = [d.name for d in dimensions] + [a.name for a in attributes]
        if len(set(names)) != len(names):
            raise CatalogError(f"array {name}: duplicate column/dimension names")
        self.name = name
        self.dimensions = dimensions
        self.attributes = attributes
        self.bats: dict[str, BAT] = {}
        # ``materialise=False`` leaves the BATs to the caller — the farm
        # loader fills them from disk (possibly as lazy mmap windows);
        # materialising a large grid here just to overwrite it would
        # fault the whole heap into memory.
        if materialise:
            self.materialise()

    # ------------------------------------------------------------------
    # materialisation (paper Section 3, Figure 3)
    # ------------------------------------------------------------------
    @property
    def cell_count(self) -> int:
        """Total number of cells (product of dimension sizes)."""
        count = 1
        for dimension in self.dimensions:
            count *= dimension.size
        return count

    def shape(self) -> tuple[int, ...]:
        """Dimension sizes in declaration order."""
        return tuple(d.size for d in self.dimensions)

    def series_parameters(self, index: int) -> tuple[int, int]:
        """The (N, M) repetition factors of ``array.series`` for dimension i.

        N is the number of consecutive repetitions of each value, M the
        number of repetitions of the whole sequence — "determined by the
        position of a dimension in the array definition and the sizes of
        other dimensions" (Section 3).
        """
        sizes = self.shape()
        inner = 1
        for size in sizes[index + 1:]:
            inner *= size
        outer = 1
        for size in sizes[:index]:
            outer *= size
        return inner, outer

    def materialise(self) -> None:
        """(Re)create all BATs: series per dimension, filler per attribute."""
        from repro.mal.modules.array_mod import filler_column, series_column

        count = self.cell_count
        for index, dimension in enumerate(self.dimensions):
            inner, outer = self.series_parameters(index)
            column = series_column(
                dimension.start, dimension.step, dimension.stop, inner, outer
            )
            self.bats[dimension.name] = BAT(column.cast(dimension.atom))
        for attribute in self.attributes:
            default = attribute.default if attribute.has_default else None
            self.bats[attribute.name] = BAT(
                filler_column(count, default, attribute.atom)
            )

    def clone(self) -> "Array":
        """Structural copy sharing the (immutable) storage BATs.

        Same copy-on-write contract as :meth:`Table.clone`; dimension
        and attribute definition lists are copied so ``alter_dimension``
        on the clone never reshapes the original.
        """
        other = Array.__new__(Array)
        other.name = self.name
        other.dimensions = list(self.dimensions)
        other.attributes = list(self.attributes)
        other.bats = dict(self.bats)
        other._arm_journal(self)
        return other

    # ------------------------------------------------------------------
    # schema access
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return self.cell_count

    def column_names(self) -> list[str]:
        return [d.name for d in self.dimensions] + [a.name for a in self.attributes]

    def schema_json(self) -> dict:
        """Kind, dimension and attribute definitions (see :meth:`Table.schema_json`)."""
        return {
            "kind": self.kind,
            "dimensions": [d.to_json() for d in self.dimensions],
            "attributes": [a.to_json() for a in self.attributes],
        }

    def dimension_names(self) -> list[str]:
        return [d.name for d in self.dimensions]

    def is_dimension(self, name: str) -> bool:
        return any(d.name == name for d in self.dimensions)

    def dimension_def(self, name: str) -> DimensionDef:
        for dimension in self.dimensions:
            if dimension.name == name:
                return dimension
        raise CatalogError(f"array {self.name}: no dimension {name!r}")

    def dimension_index(self, name: str) -> int:
        for index, dimension in enumerate(self.dimensions):
            if dimension.name == name:
                return index
        raise CatalogError(f"array {self.name}: no dimension {name!r}")

    def attribute_def(self, name: str) -> ColumnDef:
        for attribute in self.attributes:
            if attribute.name == name:
                return attribute
        raise CatalogError(f"array {self.name}: no attribute {name!r}")

    _updatable_def = attribute_def

    def column_def(self, name: str) -> ColumnDef:
        """Uniform view: dimensions appear as not-null INT columns."""
        for dimension in self.dimensions:
            if dimension.name == name:
                return ColumnDef(dimension.name, dimension.atom)
        return self.attribute_def(name)

    # ------------------------------------------------------------------
    # cell addressing
    # ------------------------------------------------------------------
    def cell_oids(self, coordinates: list[Coordinate]) -> np.ndarray:
        """Linear cell oids for per-dimension coordinate arrays or columns.

        NULL coordinates and ones outside the dimension domains yield ``-1``.
        """
        if len(coordinates) != len(self.dimensions):
            raise DimensionError(
                f"array {self.name}: expected {len(self.dimensions)} coordinates"
            )
        return cell_positions(coordinates, [d.axis for d in self.dimensions])

    def grid(self, attribute: str) -> np.ndarray:
        """Cell values of one attribute as an ndarray of ``shape()``.

        NULL cells (holes) surface as ``numpy.nan`` for numeric atoms.
        """
        column = self.bind(attribute).tail
        return column.to_numpy().reshape(self.shape())

    # ------------------------------------------------------------------
    # mutation: SciQL semantics (Section 2)
    # ------------------------------------------------------------------
    def delete_cells(self, oids: np.ndarray) -> None:
        """DELETE "creates holes by assigning NULL" to every attribute."""
        for attribute in self.attributes:
            nulls = Column.nulls(attribute.atom, len(oids))
            self.bats[attribute.name] = self.bats[attribute.name].replace(oids, nulls)
        self._journal_op(
            "delete_cells", {"oids": np.asarray(oids, dtype=np.int64)}
        )

    def alter_dimension(self, name: str, start: int, step: int, stop: int) -> None:
        """ALTER ARRAY ... ALTER DIMENSION ... SET RANGE (Figure 1(f)).

        The array is re-materialised on the new shape; cells that exist
        in both shapes keep their values, new cells take the attribute
        default (or NULL without one).
        """
        index = self.dimension_index(name)
        old_dimensions = list(self.dimensions)
        old_values = {
            a.name: self.bats[a.name].tail.copy() for a in self.attributes
        }
        old_dim_columns = [self.bats[d.name].tail.values.copy() for d in self.dimensions]

        new_dimension = DimensionDef(name, self.dimensions[index].atom, start, step, stop)
        self.dimensions = (
            old_dimensions[:index] + [new_dimension] + old_dimensions[index + 1:]
        )
        self.materialise()

        # Remap surviving cells: their coordinates must be valid in the
        # new shape.
        coordinates = [np.asarray(values, dtype=np.int64) for values in old_dim_columns]
        new_oids = self.cell_oids(coordinates)
        surviving = new_oids >= 0
        targets = new_oids[surviving]
        for attribute in self.attributes:
            source = old_values[attribute.name]
            keep_positions = np.flatnonzero(surviving)
            self.bats[attribute.name] = self.bats[attribute.name].replace(
                targets, source.take(keep_positions)
            )
        self._journal_op(
            "alter_dimension",
            {"dimension": name, "start": start, "step": step, "stop": stop},
        )


def object_from_schema(entry: dict, bat_for) -> Table | Array:
    """Rebuild a stored object from ``{"name": ..., **obj.schema_json()}``.

    ``bat_for(column)`` supplies each storage BAT (a farm loader, or the
    ``bats`` of a WAL snapshot).  Entries are only ever read from the
    manifest and the log, so a malformed one is a
    :class:`PersistenceError` naming the object.
    """
    name = None
    try:
        name, kind = entry["name"], entry["kind"]
        if kind == "table":
            obj = Table(name, [ColumnDef.from_json(c) for c in entry["columns"]])
        elif kind == "array":
            dimensions = [DimensionDef.from_json(d) for d in entry["dimensions"]]
            attributes = [ColumnDef.from_json(a) for a in entry["attributes"]]
            obj = Array(name, dimensions, attributes, materialise=False)
        else:
            raise ValueError(f"unknown object kind {kind!r}")
        obj.bats = {column: bat_for(column) for column in obj.column_names()}
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistenceError(f"malformed schema entry for object {name!r}: {exc!r}") from None
    return obj
