"""Dictionary encoding for string columns.

A :class:`DictColumn` stores a string payload as an ``int32`` *codes*
array plus a sorted, duplicate-free *dictionary* of the distinct
values: ``values[i] == dictionary[codes[i]]``.  Because the dictionary
is sorted, code order **is** lexicographic value order — equality,
range and LIKE selections, joins and grouping all operate directly on
the integer codes (see :mod:`repro.gdk.select`, :mod:`repro.gdk.join`,
:mod:`repro.gdk.group`, :mod:`repro.gdk.strings`) and only result
materialisation decodes.

Everything not explicitly overridden falls back to the base
:class:`~repro.gdk.column.Column` implementation through the lazy
``values`` property, so an encoded column is observably byte-identical
to its plain twin by construction — the correctness bar of the
out-of-core storage work.

Encoding happens in two places:

* :func:`maybe_encode_bat` — the in-memory hook of
  ``Table.append_rows``: encodes once a string column reaches
  ``REPRO_DICT_MIN_ROWS`` rows *and* stays under the cardinality bound
  (a cheap prefix sample aborts early on high-cardinality data).  A
  column whose cardinality crosses the bound mid-append decays back to
  a plain payload on the next append.
* :func:`encode_values` — the farm format: ``save_bat`` always
  persists string payloads as codes + dictionary, whatever their
  cardinality (see :mod:`repro.gdk.persist`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import GDKError
from repro.gdk import storage
from repro.gdk.atoms import Atom
from repro.gdk.bat import BAT
from repro.gdk.column import Column

#: rows sampled for the cardinality early-abort.
_SAMPLE_ROWS = 4096


def _cardinality_bound(n: int) -> int:
    """Maximum dictionary size worth encoding for an *n*-row column."""
    return max(64, n // 4)


class DictColumn(Column):
    """A string column stored as int32 codes into a sorted dictionary."""

    __slots__ = ("codes", "dictionary", "_decoded")

    def __init__(
        self,
        atom: Atom,
        codes: np.ndarray,
        dictionary: np.ndarray,
        mask: np.ndarray | None = None,
    ):
        if atom is not Atom.STR:
            raise GDKError("dictionary encoding only applies to string columns")
        if codes.dtype != np.int32:
            codes = codes.astype(np.int32)
        if mask is not None:
            if mask.shape != codes.shape:
                raise GDKError("null mask shape differs from codes shape")
            if mask.dtype != np.bool_:
                mask = mask.astype(np.bool_)
            if not mask.any():
                mask = None
        self.atom = atom
        self.codes = codes
        self.dictionary = dictionary
        self._decoded = None
        self.mask = mask
        self.series = None

    # ``values`` overrides the base class slot with a lazy decode; the
    # result is cached so repeated fallback paths pay the gather once.
    @property
    def values(self) -> np.ndarray:  # type: ignore[override]
        if self._decoded is None:
            self._decoded = self.dictionary[
                np.asarray(self.codes, dtype=np.int64)
            ]
        return self._decoded

    def __len__(self) -> int:
        return len(self.codes)

    def get(self, index: int):
        if index < 0 or index >= len(self):
            raise GDKError(f"column index {index} out of range [0,{len(self)})")
        if self.mask is not None and self.mask[index]:
            return None
        return str(self.dictionary[int(self.codes[index])])

    # ------------------------------------------------------------------
    # structural operations that stay encoded
    # ------------------------------------------------------------------
    def take(self, positions: np.ndarray) -> "Column":
        positions = np.asarray(positions, dtype=np.int64)
        if len(positions) and (positions.min() < 0 or positions.max() >= len(self)):
            raise GDKError("take: position out of range")
        codes = np.asarray(self.codes)[positions]
        mask = self.mask[positions] if self.mask is not None else None
        return DictColumn(self.atom, codes, self.dictionary, mask)

    def view_slice(self, start: int, stop: int) -> "Column":
        mask = self.mask[start:stop] if self.mask is not None else None
        return DictColumn(self.atom, self.codes[start:stop], self.dictionary, mask)

    def slice(self, start: int, stop: int) -> "Column":
        start = max(0, start)
        stop = min(len(self), stop)
        codes = np.asarray(self.codes[start:stop]).copy()
        mask = self.mask[start:stop] if self.mask is not None else None
        return DictColumn(
            self.atom, codes, self.dictionary, None if mask is None else mask.copy()
        )

    def copy(self) -> "Column":
        return DictColumn(
            self.atom,
            np.asarray(self.codes).copy(),
            self.dictionary,
            None if self.mask is None else self.mask.copy(),
        )

    def concat(self, other: "Column") -> "Column":
        if self.atom is not other.atom:
            raise GDKError(f"concat of {self.atom} and {other.atom}")
        if isinstance(other, DictColumn):
            if other.dictionary is self.dictionary:
                codes = np.concatenate(
                    [np.asarray(self.codes), np.asarray(other.codes)]
                )
            else:
                joint, inverse = np.unique(
                    np.concatenate([self.dictionary, other.dictionary]),
                    return_inverse=True,
                )
                lut = inverse.astype(np.int32)
                left = lut[: len(self.dictionary)][np.asarray(self.codes)]
                right = lut[len(self.dictionary):][np.asarray(other.codes)]
                codes = np.concatenate([left, right])
                return DictColumn(self.atom, codes, joint, self._concat_mask(other))
            return DictColumn(self.atom, codes, self.dictionary, self._concat_mask(other))
        # plain tail appended onto an encoded one: decay to plain (the
        # append hook re-encodes when the result still qualifies).
        return Column(self.atom, self.values, self.mask).concat(other)

    def _concat_mask(self, other: "Column") -> np.ndarray | None:
        if self.mask is None and other.mask is None:
            return None
        return np.concatenate([self.effective_mask(), other.effective_mask()])


# ----------------------------------------------------------------------
# encoding entry points
# ----------------------------------------------------------------------
def encode_values(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(dictionary, int32 codes)`` of a string values array."""
    dictionary, codes = np.unique(values.astype(object), return_inverse=True)
    return dictionary, codes.astype(np.int32)


def maybe_encode(column: Column) -> Column:
    """Encode a qualifying plain string column; otherwise pass through."""
    if column.atom is not Atom.STR or isinstance(column, DictColumn):
        return column
    n = len(column)
    if n < storage.dict_min_rows():
        return column
    values = column.values
    if n > _SAMPLE_ROWS:
        sample = values[:_SAMPLE_ROWS]
        if len(np.unique(sample.astype(object))) > _cardinality_bound(len(sample)):
            return column
    dictionary, codes = encode_values(values)
    if len(dictionary) > _cardinality_bound(n):
        return column
    return DictColumn(Atom.STR, codes, dictionary, column.mask)


def maybe_encode_bat(bat: BAT) -> BAT:
    """BAT-level wrapper of :func:`maybe_encode` (the append-path hook)."""
    tail = maybe_encode(bat.tail)
    if tail is bat.tail:
        return bat
    return BAT(tail, bat.hseqbase)
