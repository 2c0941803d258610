"""Atom types of the GDK kernel.

MonetDB's kernel calls its scalar types *atoms*.  Every BAT tail is a
homogeneous sequence of one atom type.  We reproduce the atoms the SciQL
demo needs:

====  =======================  ==================
atom  Python / numpy carrier   SQL surface types
====  =======================  ==================
oid   ``numpy.int64``          (internal row ids)
bit   ``numpy.bool_``          BOOLEAN
int   ``numpy.int32``          INT, INTEGER
lng   ``numpy.int64``          BIGINT
dbl   ``numpy.float64``        REAL, DOUBLE, FLOAT
str   ``numpy.object_``        VARCHAR, STRING, CHAR
====  =======================  ==================

NULL handling follows the "explicit mask" strategy: a column carries an
optional boolean validity mask instead of in-band sentinel values, which
keeps numpy arithmetic exact for every domain value (MonetDB reserves
``int_nil`` etc.; a mask is the faithful Python equivalent).

This module is the one place that decides how a value is typed
(:func:`atom_for_python`, :func:`atom_for_dtype`) and converted — the
kernel's overflow rule: a number that does not fit the target atom is
NULL, and so is a non-finite double meeting an integer atom (a finite
one truncates); text that does not parse raises
:class:`~repro.errors.DataError`.  :func:`coerce_scalar` is the rule,
:func:`coerce_items` (``Column.from_pylist``) and :func:`coerce_array`
(``Column.cast``) apply it to many values, and :func:`comparand` types
the constant side of a comparison without narrowing a number.
"""

from __future__ import annotations

import enum
import math
from typing import Any, Iterable, Optional

import numpy as np

from repro.errors import DataError, GDKError, ProgrammingError, TypeError_


class Atom(enum.Enum):
    """Kernel-level scalar types ("atoms" in MonetDB parlance)."""

    OID = "oid"
    BIT = "bit"
    INT = "int"
    LNG = "lng"
    DBL = "dbl"
    STR = "str"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f":{self.value}"


#: numpy dtype used to store each atom.
NUMPY_DTYPE = {
    Atom.OID: np.dtype(np.int64),
    Atom.BIT: np.dtype(np.bool_),
    Atom.INT: np.dtype(np.int32),
    Atom.LNG: np.dtype(np.int64),
    Atom.DBL: np.dtype(np.float64),
    Atom.STR: np.dtype(object),
}


def atom_for_dtype(dtype: np.dtype) -> Atom:
    """The narrowest atom able to store an ndarray of *dtype*."""
    if dtype.kind == "b":
        return Atom.BIT
    if dtype.kind in "iu":
        return Atom.INT if dtype.itemsize <= 4 and dtype.kind == "i" else Atom.LNG
    if dtype.kind == "f":
        return Atom.DBL
    if dtype.kind in "OUS":
        return Atom.STR
    raise ProgrammingError(f"cannot store ndarrays of dtype {dtype} as an array")


#: value range ``(lowest, highest)`` of each integer atom.
INTEGER_RANGE = {
    atom: (-(2 ** (bits - 1)), 2 ** (bits - 1) - 1)
    for atom, bits in ((Atom.INT, 32), (Atom.LNG, 64), (Atom.OID, 64))
}

_LNG_LOWEST, _LNG_HIGHEST = INTEGER_RANGE[Atom.LNG]

#: Atoms on which arithmetic (+,-,*,/,%) is defined.
NUMERIC_ATOMS = (Atom.INT, Atom.LNG, Atom.DBL)

#: Widening order used to reconcile operand types (int < lng < dbl) —
#: the one rank table: kernels, the binder and the verifier all widen
#: through :func:`common_numeric` / :func:`widest`.
_NUMERIC_RANK = {Atom.INT: 0, Atom.LNG: 1, Atom.DBL: 2}


def is_numeric(atom: Atom) -> bool:
    """Return True for atoms that participate in arithmetic."""
    return atom in _NUMERIC_RANK


def common_numeric(left: Atom, right: Atom) -> Atom:
    """Return the widest of two numeric atoms (``int`` < ``lng`` < ``dbl``).

    Raises :class:`TypeError_` if either operand is not numeric.
    """
    if not is_numeric(left) or not is_numeric(right):
        raise TypeError_(f"incompatible types {left.value} and {right.value}")
    return left if _NUMERIC_RANK[left] >= _NUMERIC_RANK[right] else right


def widest(atoms: Iterable[Optional[Atom]]) -> Optional[Atom]:
    """Common atom of CASE branches, set-operation columns or arithmetic
    operands.  ``None`` — an untyped NULL or parameter — widens nothing;
    equal atoms are their own common atom, differing ones must be numeric."""
    merged = None
    for atom in atoms:
        if atom is not None:
            merged = atom if merged in (None, atom) else common_numeric(merged, atom)
    return merged


def atom_for_python(value: Any) -> Atom:
    """The atom of a non-NULL scalar.  A Python int types by magnitude:
    ``int``, else ``lng``, else (as SQLite types such a literal) ``dbl``.
    A ``numpy.int64`` is a declared ``lng`` however small — that is how
    ``COUNT``, an integer ``SUM`` or a ``CAST(.. AS BIGINT)`` travels."""
    if value is None:
        raise GDKError("cannot infer an atom type from NULL")
    if isinstance(value, (bool, np.bool_)):
        return Atom.BIT
    if isinstance(value, np.int64):
        return Atom.LNG
    if isinstance(value, (int, np.integer)):
        for atom in (Atom.INT, Atom.LNG):
            lowest, highest = INTEGER_RANGE[atom]
            if lowest <= value <= highest:
                return atom
        return Atom.DBL
    if isinstance(value, (float, np.floating)):
        return Atom.DBL
    if isinstance(value, str):
        return Atom.STR
    raise GDKError(f"no atom type for Python value {value!r}")


_TRUE, _FALSE = ("true", "t", "1"), ("false", "f", "0")


def _parse(text: str, atom: Atom) -> Any:
    """*text* as a value of *atom*'s kind, its range not yet checked."""
    try:
        if atom is Atom.BIT:
            word = text.strip().lower()
            if word in _TRUE or word in _FALSE:
                return word in _TRUE
            raise ValueError(text)
        if atom is Atom.STR:
            return text
        return float(text) if atom is Atom.DBL else int(text)
    except ValueError:
        raise DataError(f"cannot convert {text!r} to {atom.value}") from None


def coerce_scalar(value: Any, atom: Atom) -> Any:
    """*value* as the canonical Python carrier of *atom*: the one rule.

    ``None`` is NULL, and so is a number *atom* cannot hold; text that
    does not parse raises :class:`DataError`.  An int past ``lng`` is
    the double :func:`atom_for_python` types it as.
    """
    if value is None:
        return None
    if isinstance(value, np.generic):
        value = value.item()
    if type(value) is int and not _LNG_LOWEST <= value <= _LNG_HIGHEST:
        try:
            value = float(value)
        except OverflowError:  # past every double too
            return None
    if atom is Atom.STR:
        return str(value)
    if isinstance(value, str):
        value = _parse(value, atom)
    try:
        if atom is Atom.BIT:
            return bool(value)
        if atom is Atom.DBL:
            return float(value)
        if isinstance(value, float):
            if not math.isfinite(value):
                return None
            value = math.trunc(value)
        value = int(value)
    except (ValueError, TypeError):
        raise DataError(f"cannot convert {value!r} to {atom.value}") from None
    lowest, highest = INTEGER_RANGE[atom]
    return value if lowest <= value <= highest else None


def coerce_items(atom: Atom, items: Iterable[Any]) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """``(values, NULL mask)`` of *atom* for Python scalars."""
    converted = [coerce_scalar(item, atom) for item in items]
    if None not in converted:
        return np.array(converted, dtype=NUMPY_DTYPE[atom]), None
    filler = "" if atom is Atom.STR else 0
    values = [filler if value is None else value for value in converted]
    nulls = np.array([value is None for value in converted], dtype=np.bool_)
    return np.array(values, dtype=NUMPY_DTYPE[atom]), nulls


def coerce_array(
    values: np.ndarray, mask: Optional[np.ndarray], source: Atom, target: Atom
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """A *source* carrier array (NULL where *mask*) converted to *target*
    entry by entry as :func:`coerce_scalar` would, vectorised unless text.
    An integer array is range-checked when its dtype is wider than
    *target*'s or unsigned, so a ``uint64`` one loses values past ``lng``."""
    if source is Atom.STR or target is Atom.STR:
        items = values.tolist()
        if mask is not None:
            items = [None if null else item for item, null in zip(items, mask.tolist())]
        return coerce_items(target, items)
    if target is Atom.BIT:
        return values != 0, mask
    if target is Atom.DBL:
        return values.astype(np.float64), mask
    lowest, highest = INTEGER_RANGE[target]
    if source is Atom.DBL:
        values = np.trunc(values)
        # NaN fails both comparisons; 2**31 and 2**63 are exact doubles.
        bad = ~((values >= lowest) & (values < highest + 1))
    elif values.dtype.kind == "u" or values.dtype.itemsize > NUMPY_DTYPE[target].itemsize:
        bad = (values < lowest) | (values > highest)
    else:
        return values.astype(NUMPY_DTYPE[target]), mask
    if not bad.any():
        return values.astype(NUMPY_DTYPE[target]), mask
    values = np.where(bad, 0, values).astype(NUMPY_DTYPE[target])
    return values, bad if mask is None else mask | bad


def comparand(value: Any, atom: Atom) -> Any:
    """*value* in the type its comparison with an *atom* column runs in.

    A number meeting a numeric column is never narrowed (``v < 1.5`` is
    not ``v < 1``, ``i < 2**40`` holds for every INT ``i``); an integral
    double meeting an integer column becomes the exact int.  Text parses
    as *atom* first; anything else converts by :func:`coerce_scalar`.
    """
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, str):
        value = _parse(value, atom)
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not numeric or (atom is not Atom.DBL and atom not in INTEGER_RANGE):
        return coerce_scalar(value, atom)
    if atom is Atom.DBL:
        try:
            return float(value)
        except OverflowError:  # an int past every double
            return math.inf if value > 0 else -math.inf
    return int(value) if isinstance(value, float) and value.is_integer() else value


#: SQL surface type name -> atom.
SQL_TYPE_TO_ATOM = {
    "BOOLEAN": Atom.BIT,
    "BOOL": Atom.BIT,
    "TINYINT": Atom.INT,
    "SMALLINT": Atom.INT,
    "INT": Atom.INT,
    "INTEGER": Atom.INT,
    "BIGINT": Atom.LNG,
    "REAL": Atom.DBL,
    "FLOAT": Atom.DBL,
    "DOUBLE": Atom.DBL,
    "DECIMAL": Atom.DBL,
    "NUMERIC": Atom.DBL,
    "VARCHAR": Atom.STR,
    "CHAR": Atom.STR,
    "STRING": Atom.STR,
    "TEXT": Atom.STR,
    "CLOB": Atom.STR,
}


def atom_for_sql_type(name: str) -> Atom:
    """Map an SQL type keyword (case-insensitive) to its atom."""
    try:
        return SQL_TYPE_TO_ATOM[name.upper()]
    except KeyError:
        raise TypeError_(f"unsupported SQL type {name!r}") from None


#: sentinel standing in for NaN in loop-based (reference) kernel keys.
NAN_KEY = object()


def canon_key(value: Any) -> Any:
    """Join/group key canonicalization: NaN is one equal-to-itself value.

    The vectorized kernels get this from ``np.unique``/``searchsorted``
    (all NaNs land in one equivalence class); reference implementations
    route dict/set keys through here to match.
    """
    if isinstance(value, float) and value != value:
        return NAN_KEY
    return value
