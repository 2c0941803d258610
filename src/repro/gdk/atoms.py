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
"""

from __future__ import annotations

import enum
from typing import Any, Iterable, Optional

import numpy as np

from repro.errors import GDKError, TypeError_


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
    """Infer the narrowest atom able to carry a Python scalar."""
    if value is None:
        raise GDKError("cannot infer an atom type from NULL")
    if isinstance(value, (bool, np.bool_)):
        return Atom.BIT
    if isinstance(value, (int, np.integer)):
        iv = int(value)
        if -(2**31) <= iv < 2**31:
            return Atom.INT
        return Atom.LNG
    if isinstance(value, (float, np.floating)):
        return Atom.DBL
    if isinstance(value, str):
        return Atom.STR
    raise GDKError(f"no atom type for Python value {value!r}")


def coerce_scalar(value: Any, atom: Atom) -> Any:
    """Convert a Python scalar to the canonical carrier of *atom*.

    ``None`` passes through unchanged (it denotes NULL at every level).
    """
    if value is None:
        return None
    try:
        if atom is Atom.BIT:
            if isinstance(value, str):
                lowered = value.strip().lower()
                if lowered in ("true", "t", "1"):
                    return True
                if lowered in ("false", "f", "0"):
                    return False
                raise GDKError(f"cannot parse {value!r} as bit")
            return bool(value)
        if atom in (Atom.INT, Atom.LNG, Atom.OID):
            return int(value)
        if atom is Atom.DBL:
            return float(value)
        if atom is Atom.STR:
            return str(value)
    except (ValueError, TypeError) as exc:
        raise GDKError(f"cannot coerce {value!r} to {atom}") from exc
    raise GDKError(f"unknown atom {atom}")  # pragma: no cover


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
