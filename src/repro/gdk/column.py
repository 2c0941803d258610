"""Typed columns with explicit NULL masks.

A :class:`Column` is the physical payload of a BAT tail: a homogeneous
numpy array plus an optional boolean mask marking NULL positions
(``True`` means NULL).  Columns are the unit all kernel operators work
on; BATs merely pair a column with a void head (see :mod:`repro.gdk.bat`).

Columns are *immutable*: kernel operators return fresh columns
(:meth:`Column.replace` included) and never write ``values`` in place.
That is what lets a dimension column carry ``series``, the witness that
it spells ``array.series`` (see :mod:`repro.gdk.cells`); a fresh column
starts with ``series = None``.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import GDKError
from repro.gdk.atoms import NUMPY_DTYPE, Atom, coerce_array, coerce_items, coerce_scalar


class Column:
    """A homogeneous vector of one atom type with optional NULLs."""

    __slots__ = ("atom", "values", "mask", "series")

    def __init__(self, atom: Atom, values: np.ndarray, mask: np.ndarray | None = None):
        expected = NUMPY_DTYPE[atom]
        if not isinstance(values, np.ndarray):
            raise GDKError("Column values must be a numpy array")
        if values.dtype != expected:
            values = values.astype(expected)
        if mask is not None:
            if mask.shape != values.shape:
                raise GDKError("null mask shape differs from values shape")
            if mask.dtype != np.bool_:
                mask = mask.astype(np.bool_)
            if not mask.any():
                mask = None
        self.atom = atom
        self.values = values
        self.mask = mask
        self.series = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_pylist(cls, atom: Atom, items: Sequence[Any]) -> "Column":
        """Build a column from Python scalars converted by the one rule
        (:func:`~repro.gdk.atoms.coerce_scalar`); ``None`` is NULL."""
        return cls(atom, *coerce_items(atom, items))

    @classmethod
    def empty(cls, atom: Atom) -> "Column":
        """A zero-length column of the given atom."""
        return cls(atom, np.empty(0, dtype=NUMPY_DTYPE[atom]))

    @classmethod
    def constant(cls, atom: Atom, value: Any, count: int) -> "Column":
        """A column of *count* copies of one scalar (or NULL)."""
        if count < 0:
            raise GDKError("negative column length")
        coerced = coerce_scalar(value, atom)
        if coerced is None:  # a number *atom* cannot hold
            return cls.nulls(atom, count)
        return cls(atom, np.full(count, coerced, dtype=NUMPY_DTYPE[atom]))

    @classmethod
    def nulls(cls, atom: Atom, count: int) -> "Column":
        """A column of *count* NULLs."""
        if atom is Atom.STR:
            values = np.full(count, "", dtype=object)
        else:
            values = np.zeros(count, dtype=NUMPY_DTYPE[atom])
        mask = np.ones(count, dtype=np.bool_)
        return cls(atom, values, mask if count else None)

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.to_pylist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        return (
            self.atom is other.atom
            and len(self) == len(other)
            and self.to_pylist() == other.to_pylist()
        )

    def __hash__(self) -> int:  # columns are not hashable (mutable payload)
        raise TypeError("Column objects are unhashable")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        preview = ", ".join(repr(v) for v in self.to_pylist()[:8])
        suffix = ", ..." if len(self) > 8 else ""
        return f"Column({self.atom.value}, [{preview}{suffix}], n={len(self)})"

    # ------------------------------------------------------------------
    # null accounting
    # ------------------------------------------------------------------
    @property
    def has_nulls(self) -> bool:
        """True when at least one entry is NULL."""
        return self.mask is not None

    def null_count(self) -> int:
        """Number of NULL entries."""
        return 0 if self.mask is None else int(self.mask.sum())

    def validity(self) -> np.ndarray:
        """Boolean array, True where the entry is NOT NULL."""
        if self.mask is None:
            return np.ones(len(self), dtype=np.bool_)
        return ~self.mask

    def effective_mask(self) -> np.ndarray:
        """Boolean array, True where the entry IS NULL (always materialised)."""
        if self.mask is None:
            return np.zeros(len(self), dtype=np.bool_)
        return self.mask

    # ------------------------------------------------------------------
    # element access / conversion
    # ------------------------------------------------------------------
    def get(self, index: int) -> Any:
        """Python value at *index*; ``None`` for NULL."""
        if index < 0 or index >= len(self):
            raise GDKError(f"column index {index} out of range [0,{len(self)})")
        if self.mask is not None and self.mask[index]:
            return None
        value = self.values[index]
        return value.item() if isinstance(value, np.generic) else value

    def to_pylist(self) -> list[Any]:
        """Whole column as a list of Python scalars (``None`` for NULL)."""
        out = self.values.tolist()
        if self.mask is not None:
            for i in np.flatnonzero(self.mask):
                out[i] = None
        return out

    def to_numpy(self, null_value: Any = None) -> np.ndarray:
        """Values array with NULL positions replaced.

        Numeric atoms default to ``numpy.nan`` (widening to float64) when
        *null_value* is None; other atoms require an explicit filler.
        """
        if self.mask is None:
            return self.values.copy()
        if null_value is None:
            if self.atom in (Atom.INT, Atom.LNG, Atom.DBL, Atom.OID):
                out = self.values.astype(np.float64)
                out[self.mask] = np.nan
                return out
            raise GDKError(f"need an explicit null_value for {self.atom} columns")
        out = self.values.copy()
        out[self.mask] = null_value
        return out

    # ------------------------------------------------------------------
    # structural operations
    # ------------------------------------------------------------------
    def take(self, positions: np.ndarray) -> "Column":
        """Gather entries at *positions* (the kernel's fetch-join)."""
        positions = np.asarray(positions, dtype=np.int64)
        if len(positions) and (positions.min() < 0 or positions.max() >= len(self)):
            raise GDKError("take: position out of range")
        values = self.values[positions]
        mask = self.mask[positions] if self.mask is not None else None
        return Column(self.atom, values, mask)

    def take_with_invalid(self, positions: np.ndarray) -> "Column":
        """Gather like :meth:`take`, but positions ``< 0`` yield NULL.

        This implements the outer-join style fetch used for holes.
        """
        positions = np.asarray(positions, dtype=np.int64)
        invalid = positions < 0
        if len(positions) and len(self) == 0:
            # Fetching from an empty column: every position must be
            # invalid (outer-join misses); the result is all NULL.
            if not invalid.all():
                raise GDKError("take_with_invalid on empty column")
            return Column.nulls(self.atom, len(positions))
        safe = np.where(invalid, 0, positions)
        if len(safe) and safe.max() >= len(self):
            raise GDKError("take_with_invalid: position out of range")
        values = self.values[safe] if len(self) else self.values[:0]
        mask = invalid.copy()
        if self.mask is not None and len(self):
            mask |= self.mask[safe]
        return Column(self.atom, values, mask)

    def slice(self, start: int, stop: int) -> "Column":
        """Contiguous sub-column [start, stop)."""
        start = max(0, start)
        stop = min(len(self), stop)
        values = self.values[start:stop]
        mask = self.mask[start:stop] if self.mask is not None else None
        return Column(self.atom, values.copy(), None if mask is None else mask.copy())

    def view_slice(self, start: int, stop: int) -> "Column":
        """Zero-copy window [start, stop) sharing the payload arrays.

        Used by ``mat.partition``: a basic slice of a memory-mapped
        payload stays a :class:`numpy.memmap`, so an mmap-backed
        fragment only pages in the window it actually scans.
        Dictionary-encoded columns override this to slice their codes
        without decoding.
        """
        mask = self.mask[start:stop] if self.mask is not None else None
        return Column(self.atom, self.values[start:stop], mask)

    def concat(self, other: "Column") -> "Column":
        """Concatenation of two columns of the same atom."""
        if self.atom is not other.atom:
            raise GDKError(f"concat of {self.atom} and {other.atom}")
        values = np.concatenate([self.values, other.values])
        if self.mask is None and other.mask is None:
            mask = None
        else:
            mask = np.concatenate([self.effective_mask(), other.effective_mask()])
        return Column(self.atom, values, mask)

    def copy(self) -> "Column":
        """Deep copy."""
        return Column(
            self.atom,
            self.values.copy(),
            None if self.mask is None else self.mask.copy(),
        )

    def replace(self, positions: np.ndarray, replacement: "Column") -> "Column":
        """New column with *positions* overwritten by *replacement* entries.

        Mirrors MonetDB's ``BATreplace``: ``len(positions)`` must equal
        ``len(replacement)``.
        """
        if replacement.atom is not self.atom:
            raise GDKError(f"replace with {replacement.atom} into {self.atom}")
        positions = np.asarray(positions, dtype=np.int64)
        count = len(positions)
        if count != len(replacement):
            raise GDKError("replace: position/value length mismatch")
        if (
            count
            and count == len(self)
            and positions[0] == 0
            and positions[-1] == count - 1
            and (positions[1:] > positions[:-1]).all()
        ):
            # The dense range 0..n-1 overwrites every entry: the
            # replacement is the new column, nothing to copy or scatter.
            return replacement
        if count and (positions.min() < 0 or positions.max() >= len(self)):
            raise GDKError("replace: position out of range")
        values = self.values.copy()  # copy-on-write: snapshots keep the old one
        values[positions] = replacement.values
        if self.mask is None and replacement.mask is None:
            return Column(self.atom, values)  # no NULL on either side
        mask = self.effective_mask().copy()
        mask[positions] = replacement.effective_mask()
        return Column(self.atom, values, mask)

    # ------------------------------------------------------------------
    # casting
    # ------------------------------------------------------------------
    def cast(self, atom: Atom) -> "Column":
        """The column converted to another atom by the one rule
        (:func:`~repro.gdk.atoms.coerce_array`); NULLs stay NULL."""
        if atom is self.atom:
            return self.copy()
        return Column(atom, *coerce_array(self.values, self.mask, self.atom, atom))


def columns_aligned(columns: Iterable[Column]) -> int:
    """Assert all columns share one length and return it."""
    lengths = {len(c) for c in columns}
    if not lengths:
        return 0
    if len(lengths) != 1:
        raise GDKError(f"misaligned columns: lengths {sorted(lengths)}")
    return lengths.pop()
