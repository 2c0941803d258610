"""Element-wise calculator kernels (MAL modules ``calc``/``batcalc``).

Every operation accepts columns and/or Python scalars (scalars are
broadcast), propagates NULLs, and returns a fresh column.  Semantics
follow MonetDB/SQL where it matters for the demo queries:

* arithmetic on two integers stays integral; any double operand widens
  the result to double;
* integer division truncates toward zero (C semantics), and ``MOD``
  takes the sign of the dividend;
* division or modulo by zero yields NULL for the affected entries (the
  guarded-update evaluation of Section 2 evaluates *all* branches of a
  CASE, so entries that a guard excludes must not abort the query);
* comparisons yield ``bit`` with NULL when either side is NULL;
* AND/OR use SQL three-valued logic.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.errors import GDKError
from repro.gdk.atoms import NUMPY_DTYPE, Atom, atom_for_python, coerce_scalar, common_numeric
from repro.gdk.column import Column

ARITH_OPS = ("+", "-", "*", "/", "%")
COMPARE_OPS = ("==", "!=", "<", "<=", ">", ">=")


def _as_column(operand: Any, length: int, atom_hint: Atom | None = None) -> Column:
    """Broadcast a scalar to a column of *length*; pass columns through."""
    if isinstance(operand, Column):
        if len(operand) != length:
            raise GDKError(f"operand length {len(operand)} != {length}")
        return operand
    if operand is None:
        return Column.nulls(atom_hint or Atom.INT, length)
    atom = atom_hint or atom_for_python(operand)
    return Column.constant(atom, coerce_scalar(operand, atom), length)


def _operand_length(left: Any, right: Any) -> int:
    for operand in (left, right):
        if isinstance(operand, Column):
            return len(operand)
    raise GDKError("at least one operand must be a column")


def _combined_mask(*columns: Column) -> np.ndarray | None:
    mask: np.ndarray | None = None
    for column in columns:
        if column.mask is not None:
            mask = column.mask.copy() if mask is None else (mask | column.mask)
    return mask


def arithmetic(op: str, left: Any, right: Any) -> Column:
    """Binary arithmetic with numeric widening and NULL propagation."""
    if op not in ARITH_OPS:
        raise GDKError(f"unknown arithmetic operator {op!r}")
    length = _operand_length(left, right)
    lcol = _as_column(left, length)
    rcol = _as_column(right, length)
    out_atom = common_numeric(lcol.atom, rcol.atom)
    mask = _combined_mask(lcol, rcol)

    if op in ("/", "%") and out_atom is not Atom.DBL:
        divisor = int(right) if isinstance(right, (int, np.integer)) else rcol.values
        return _int_divmod(op, lcol.values, divisor, out_atom, mask)
    if op == "%":
        return _dbl_mod(lcol, rcol, mask)

    lvals = lcol.values.astype(np.float64)
    rvals = rcol.values.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if op == "+":
            result = lvals + rvals
        elif op == "-":
            result = lvals - rvals
        elif op == "*":
            result = lvals * rvals
        else:  # "/" with a double operand
            result = lvals / rvals
            zero = rvals == 0
            if zero.any():
                mask = zero if mask is None else (mask | zero)
            out_atom = Atom.DBL
    bad = ~np.isfinite(result)
    if bad.any():
        mask = bad if mask is None else (mask | bad)
        result = np.where(bad, 0.0, result)
    if out_atom is Atom.DBL:
        return Column(Atom.DBL, result, mask)
    return Column(out_atom, np.round(result).astype(NUMPY_DTYPE[out_atom]), mask)


def _dbl_mod(lcol: Column, rcol: Column, mask: np.ndarray | None) -> Column:
    lvals = lcol.values.astype(np.float64)
    rvals = rcol.values.astype(np.float64)
    zero = rvals == 0
    safe = np.where(zero, 1.0, rvals)
    result = np.fmod(lvals, safe)
    if zero.any():
        mask = zero if mask is None else (mask | zero)
    return Column(Atom.DBL, result, mask)


def _int_divmod(
    op: str,
    lvals: np.ndarray,
    divisor: np.ndarray | int,
    out_atom: Atom,
    mask: np.ndarray | None,
) -> Column:
    """Integer ``/`` and ``%`` with C semantics, in the result's own width.

    The quotient truncates toward zero and the remainder takes the
    dividend's sign; a zero divisor yields NULL.  A constant divisor (a
    Python int) needs no per-row zero handling and divides by
    multiplication inside NumPy.
    """
    dtype = NUMPY_DTYPE[out_atom]
    lvals = lvals.astype(dtype, copy=False)
    if isinstance(divisor, np.ndarray):
        divisor = divisor.astype(dtype, copy=False)
        zero = divisor == 0
        if zero.any():
            mask = zero if mask is None else (mask | zero)
            divisor = np.where(zero, 1, divisor)
    elif divisor == 0:
        return Column.nulls(out_atom, len(lvals))
    # INT_MIN / -1 wraps, as the narrowing cast always made it.
    with np.errstate(over="ignore"):
        quotient = lvals // divisor
    remainder = quotient * divisor
    np.subtract(lvals, remainder, out=remainder)
    # Floor rounds away from zero where the signs differ and the
    # division is inexact: step those rows back.
    adjust = remainder != 0
    adjust &= (lvals < 0) ^ (divisor < 0)
    if op == "/":
        quotient += adjust
        return Column(out_atom, quotient, mask)
    remainder -= np.multiply(adjust, divisor, dtype=dtype)
    return Column(out_atom, remainder, mask)


def negate(operand: Column) -> Column:
    """Unary minus."""
    if operand.atom is Atom.DBL:
        return Column(Atom.DBL, -operand.values, operand.mask)
    if operand.atom in (Atom.INT, Atom.LNG):
        return Column(operand.atom, -operand.values, operand.mask)
    raise GDKError(f"cannot negate {operand.atom}")


def absolute(operand: Column) -> Column:
    """ABS()."""
    if operand.atom in (Atom.INT, Atom.LNG, Atom.DBL):
        return Column(operand.atom, np.abs(operand.values), operand.mask)
    raise GDKError(f"no abs for {operand.atom}")


#: comparison with swapped operand order (a < b  ==  b > a).
_SWAPPED_COMPARE = {
    "==": "==", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<=",
}


def _compare_column_scalar(op: str, column: Column, scalar: Any) -> Column:
    """Column-vs-scalar comparison via broadcasting (no materialisation)."""
    if scalar is None:
        return Column.nulls(Atom.BIT, len(column))
    lvals: Any = column.values
    if column.atom is Atom.STR:
        value: Any = coerce_scalar(scalar, Atom.STR)
        lvals = lvals.astype(object)
    elif (
        column.atom in (Atom.INT, Atom.LNG, Atom.DBL, Atom.OID)
        and isinstance(scalar, (int, float, np.integer, np.floating))
        and not isinstance(scalar, (bool, np.bool_))
    ):
        # Numeric vs numeric: let numpy widen instead of truncating the
        # scalar to the column atom (1.5 must stay 1.5 against an INT
        # column, so v < 1.5 keeps v = 1).
        value = scalar.item() if isinstance(scalar, np.generic) else scalar
    else:
        value = coerce_scalar(scalar, column.atom)
    if op == "==":
        result = lvals == value
    elif op == "!=":
        result = lvals != value
    elif op == "<":
        result = lvals < value
    elif op == "<=":
        result = lvals <= value
    elif op == ">":
        result = lvals > value
    else:
        result = lvals >= value
    mask = None if column.mask is None else column.mask.copy()
    return Column(Atom.BIT, np.asarray(result, dtype=np.bool_), mask)


def compare(op: str, left: Any, right: Any) -> Column:
    """Comparison producing a bit column (NULL when either side is NULL)."""
    if op not in COMPARE_OPS:
        raise GDKError(f"unknown comparison {op!r}")
    # Scalar fast path: broadcast instead of building a constant column
    # (the hot case for parameterized point selects: col = ?).
    if isinstance(left, Column) and not isinstance(right, Column):
        return _compare_column_scalar(op, left, right)
    if isinstance(right, Column) and not isinstance(left, Column):
        return _compare_column_scalar(_SWAPPED_COMPARE[op], right, left)
    length = _operand_length(left, right)
    atom_hint = None
    for operand in (left, right):
        if isinstance(operand, Column):
            atom_hint = operand.atom
            break
    lcol = _as_column(left, length, atom_hint)
    rcol = _as_column(right, length, atom_hint)
    mask = _combined_mask(lcol, rcol)
    lvals, rvals = lcol.values, rcol.values
    if lcol.atom is Atom.STR or rcol.atom is Atom.STR:
        lvals = lvals.astype(object)
        rvals = rvals.astype(object)
    if op == "==":
        result = lvals == rvals
    elif op == "!=":
        result = lvals != rvals
    elif op == "<":
        result = lvals < rvals
    elif op == "<=":
        result = lvals <= rvals
    elif op == ">":
        result = lvals > rvals
    else:
        result = lvals >= rvals
    return Column(Atom.BIT, np.asarray(result, dtype=np.bool_), mask)


def logical_and(left: Any, right: Any) -> Column:
    """SQL three-valued AND."""
    length = _operand_length(left, right)
    lcol = _as_column(left, length, Atom.BIT)
    rcol = _as_column(right, length, Atom.BIT)
    lvals, lnull = lcol.values.astype(np.bool_), lcol.effective_mask()
    rvals, rnull = rcol.values.astype(np.bool_), rcol.effective_mask()
    # false AND anything = false; null only when neither side is false.
    false_l = ~lvals & ~lnull
    false_r = ~rvals & ~rnull
    result = lvals & rvals
    nulls = (lnull | rnull) & ~false_l & ~false_r
    return Column(Atom.BIT, result & ~nulls, nulls if nulls.any() else None)


def logical_or(left: Any, right: Any) -> Column:
    """SQL three-valued OR."""
    length = _operand_length(left, right)
    lcol = _as_column(left, length, Atom.BIT)
    rcol = _as_column(right, length, Atom.BIT)
    lvals, lnull = lcol.values.astype(np.bool_), lcol.effective_mask()
    rvals, rnull = rcol.values.astype(np.bool_), rcol.effective_mask()
    true_l = lvals & ~lnull
    true_r = rvals & ~rnull
    result = (lvals & ~lnull) | (rvals & ~rnull)
    nulls = (lnull | rnull) & ~true_l & ~true_r
    return Column(Atom.BIT, result | np.zeros_like(result), nulls if nulls.any() else None)


def logical_not(operand: Column) -> Column:
    """SQL NOT (NULL stays NULL)."""
    if operand.atom is not Atom.BIT:
        raise GDKError("NOT needs a bit column")
    return Column(Atom.BIT, ~operand.values.astype(np.bool_), operand.mask)


def isnull(operand: Column) -> Column:
    """IS NULL as a (never-null) bit column."""
    return Column(Atom.BIT, operand.effective_mask().copy())


def ifthenelse(condition: Column, then_value: Any, else_value: Any) -> Column:
    """Element-wise CASE: NULL/false conditions take the else branch...

    ...except that a NULL condition yields the *else* value, matching
    SQL's ``CASE WHEN cond``: an unknown condition does not fire.
    """
    if condition.atom is not Atom.BIT:
        raise GDKError("ifthenelse needs a bit condition")
    length = len(condition)
    atom_hint = None
    for operand in (then_value, else_value):
        if isinstance(operand, Column):
            atom_hint = operand.atom
            break
        if operand is not None and atom_hint is None:
            atom_hint = atom_for_python(operand)
    tcol = _as_column(then_value, length, atom_hint)
    ecol = _as_column(else_value, length, atom_hint)
    if tcol.atom is not ecol.atom:
        widened = common_numeric(tcol.atom, ecol.atom)
        tcol = tcol.cast(widened)
        ecol = ecol.cast(widened)
    fire = condition.values.astype(np.bool_) & condition.validity()
    values = np.where(fire, tcol.values, ecol.values)
    if tcol.atom is Atom.STR:
        values = values.astype(object)
    mask = np.where(fire, tcol.effective_mask(), ecol.effective_mask())
    return Column(tcol.atom, values, mask if mask.any() else None)


def concat_str(left: Any, right: Any) -> Column:
    """String concatenation (``||``)."""
    length = _operand_length(left, right)
    lcol = _as_column(left, length, Atom.STR).cast(Atom.STR)
    rcol = _as_column(right, length, Atom.STR).cast(Atom.STR)
    mask = _combined_mask(lcol, rcol)
    values = np.array(
        [str(a) + str(b) for a, b in zip(lcol.values, rcol.values)], dtype=object
    )
    return Column(Atom.STR, values, mask)


def apply_unary_math(name: str, operand: Column) -> Column:
    """Math functions used by the imaging demo (sqrt, floor, ceil, ...)."""
    functions: dict[str, Callable[[np.ndarray], np.ndarray]] = {
        "sqrt": np.sqrt,
        "floor": np.floor,
        "ceil": np.ceil,
        "ceiling": np.ceil,
        "round": np.round,
        "exp": np.exp,
        "log": np.log,
        "ln": np.log,
        "log10": np.log10,
        "sin": np.sin,
        "cos": np.cos,
        "tan": np.tan,
    }
    try:
        fn = functions[name.lower()]
    except KeyError:
        raise GDKError(f"unknown math function {name!r}") from None
    values = operand.values.astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        result = fn(values)
    bad = ~np.isfinite(result)
    mask = operand.mask
    if bad.any():
        mask = bad if mask is None else (mask | bad)
        result = np.where(bad, 0.0, result)
    if name.lower() in ("floor", "ceil", "ceiling", "round") and operand.atom in (
        Atom.INT,
        Atom.LNG,
    ):
        return Column(operand.atom, result.astype(NUMPY_DTYPE[operand.atom]), mask)
    return Column(Atom.DBL, result, mask)
