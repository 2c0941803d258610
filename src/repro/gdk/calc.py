"""Element-wise calculator kernels and the expression evaluator behind
the MAL modules ``calc`` (scalars) and ``batcalc`` (BATs).

:data:`KERNELS` is the one table of element-wise operations.  Every
kernel accepts columns and/or Python scalars (NumPy broadcasts the
scalars; ``None`` is NULL), propagates NULLs and returns a fresh
column.  ``batcalc.expr`` evaluates a whole expression through the
table (:func:`evaluate`); ``calc.<name>`` runs the same kernel over
one-row columns (:func:`scalar`), so a scalar and a BAT of the same
values cannot disagree.  Semantics follow MonetDB/SQL where it matters
for the demo queries:

* arithmetic computes in the result atom's own width: two integers stay
  integral (``int`` < ``lng``), any double operand widens the result to
  double;
* a result that does not fit its atom is NULL for that row — integer
  ``+ - *``, unary minus, ``ABS`` and ``MIN / -1`` overflow, a double
  result that is not finite, and division or modulo by zero alike (the
  guarded-update evaluation of Section 2 evaluates *all* branches of a
  CASE, so entries that a guard excludes must not abort the query);
* integer division truncates toward zero (C semantics), and ``MOD``
  takes the sign of the dividend;
* integer kernels decide from *spans*, never per row.  A span bounds an
  operand's payloads, NULL rows included; :func:`_span` reduces a leaf
  at most once per :func:`evaluate` call, and each step carries the span
  its kernel proved.  ``+ - *`` skip the exact overflow check when the
  corners of the operands' spans fit the atom (the corners are the new
  span), ``ABS`` the scan for ``MIN`` over a span above it, ``/`` and
  ``%`` by a positive constant over a span ``>= 0`` the sign fix-ups
  (floor and truncation agree: one ``//``, or ``&`` by a power of two);
* comparisons yield ``bit`` with NULL when either side is NULL;
* AND/OR use SQL three-valued logic; CASE takes the first branch whose
  condition is TRUE (an unknown condition does not fire).
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from typing import Any, Optional

import numpy as np

from repro.errors import GDKError, TypeError_
from repro.gdk import strings
from repro.gdk.atoms import (
    INTEGER_RANGE,
    NUMERIC_ATOMS,
    NUMPY_DTYPE,
    Atom,
    atom_for_python,
    common_numeric,
    comparand,
    widest,
)
from repro.gdk.column import Column

ARITH_OPS = ("+", "-", "*", "/", "%")
COMPARE_OPS = ("==", "!=", "<", "<=", ">", ">=")

_ARITH = dict(zip(ARITH_OPS, (np.add, np.subtract, np.multiply, np.true_divide, np.fmod)))
#: the same on Python integers, which never wrap: the overflow oracle.
_EXACT = dict(zip(ARITH_OPS, (operator.add, operator.sub, operator.mul)))
_COMPARE = dict(
    zip(COMPARE_OPS, (np.equal, np.not_equal, np.less, np.less_equal, np.greater, np.greater_equal))
)


# ----------------------------------------------------------------------
# operands: a column, or a scalar NumPy broadcasts
# ----------------------------------------------------------------------
def _operand_length(*operands: Any) -> int:
    length = None
    for operand in operands:
        if isinstance(operand, Column):
            if length is None:
                length = len(operand)
            elif len(operand) != length:
                raise GDKError(f"operand length {len(operand)} != {length}")
    if length is None:
        raise GDKError("at least one operand must be a column")
    return length


def _split(operand: Any) -> tuple[Any, Atom, Any]:
    """``(values, atom, NULL mask)`` of a column or a scalar.

    A mask is an array, ``None`` (no NULLs) or ``True`` (a NULL scalar,
    which types as ``int`` like an all-NULL column always did).
    """
    if isinstance(operand, Column):
        return operand.values, operand.atom, operand.mask
    if operand is None:
        return 0, Atom.INT, True
    atom = atom_for_python(operand)
    return (operand.item() if isinstance(operand, np.generic) else operand), atom, None


def _either(left: Any, right: Any) -> Any:
    """OR of two NULL masks; a shared or absent mask is never copied."""
    if left is None or left is right:
        return right
    if right is None:
        return left
    if left is True or right is True:
        return True
    return left | right


def _masked(atom: Atom, values: np.ndarray, mask: Any, bad: Any, length: int) -> Column:
    """Result column: operand NULLs plus the rows the kernel flagged."""
    if bad is not None and bad is not True and not np.ndim(bad):
        bad = True if bad else None  # flagged by a scalar operand: all rows or none
    mask = _either(mask, bad)
    if mask is True:
        return Column.nulls(atom, length)
    return Column(atom, values, mask)


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------
def arithmetic(op: str, left: Any, right: Any, known: Optional[dict] = None) -> Column:
    """Binary arithmetic with numeric widening and NULL propagation."""
    if op not in ARITH_OPS:
        raise GDKError(f"unknown arithmetic operator {op!r}")
    length = _operand_length(left, right)
    lvals, latom, lnull = _split(left)
    rvals, ratom, rnull = _split(right)
    atom = common_numeric(latom, ratom)
    mask = _either(lnull, rnull)
    if mask is True:
        return Column.nulls(atom, length)
    if atom is Atom.DBL:
        values, bad = _dbl_arith(op, lvals, rvals)
    elif op in ("/", "%"):
        values, bad = _int_divmod(op, lvals, rvals, atom, known)
    else:
        values, bad = _int_arith(op, lvals, rvals, atom, known)
    return _masked(atom, values, mask, bad, length)


def _span(values: Any, known: Optional[dict] = None) -> tuple[int, int]:
    """``(lo, hi)`` bounding an integer operand (a scalar: itself), *known*'s if it holds one."""
    if not isinstance(values, np.ndarray):
        return values, values
    held = None if known is None else known.get(id(values))
    if held is not None and held[0] is values:
        return held[1]
    span = (int(values.min()), int(values.max())) if len(values) else (0, 0)
    _proven(known, values, span)
    return span


def _proven(known: Optional[dict], values: np.ndarray, span: tuple) -> np.ndarray:
    """*values*; *known*, :func:`evaluate`'s ``{id(array): (array, span)}``, holds its span."""
    if known is not None:
        known[id(values)] = values, span
    return values


def _int_arith(
    op: str, lvals: Any, rvals: Any, atom: Atom, known: Optional[dict] = None
) -> tuple[np.ndarray, Any]:
    """Integer ``+ - *`` in the result atom's own width; overflow is NULL.

    Interval arithmetic over the operands' spans proves the common case
    overflow-free, which then is one native NumPy pass.  Only when a
    corner leaves the atom's range are the rows recomputed with Python
    integers, which never wrap, to find the ones that do not fit.
    """
    ufunc, dtype, (lowest, highest) = _ARITH[op], NUMPY_DTYPE[atom], INTEGER_RANGE[atom]
    lspan, rspan = _span(lvals, known), _span(rvals, known)
    corners = [_EXACT[op](left, right) for left in lspan for right in rspan]
    if lowest <= min(corners) and max(corners) <= highest:
        # Widen first: a mixed-width ufunc call is several times slower.  The
        # narrower operand (never both) widens into the output buffer.
        out = np.empty_like(lvals if isinstance(lvals, np.ndarray) else rvals, dtype)
        lvals, rvals = (
            np.copyto(out, v) or out if isinstance(v, np.ndarray) and v.dtype != dtype else v
            for v in (lvals, rvals)
        )
        ufunc(lvals, rvals, out=out, dtype=dtype)
        return _proven(known, out, (min(corners), max(corners))), None
    exact = ufunc(
        *(v.astype(object) if isinstance(v, np.ndarray) else v for v in (lvals, rvals))
    )
    bad = np.asarray((exact < lowest) | (exact > highest), dtype=np.bool_)
    return np.where(bad, 0, exact).astype(dtype), bad


def _dbl_arith(op: str, lvals: Any, rvals: Any) -> tuple[np.ndarray, Any]:
    """Double arithmetic; a zero divisor or a non-finite result is NULL."""
    lvals, rvals = (
        v.astype(np.float64, copy=False) if isinstance(v, np.ndarray) else float(v)
        for v in (lvals, rvals)
    )
    if op == "%":
        zero = rvals == 0
        return np.fmod(lvals, np.where(zero, 1.0, rvals)), zero
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        result = _ARITH[op](lvals, rvals)
    if (bad := ~np.isfinite(result)).any():
        result[bad] = 0.0
        return result, bad
    return result, None


def _int_divmod(
    op: str, lvals: Any, divisor: Any, atom: Atom, known: Optional[dict] = None
) -> tuple[np.ndarray, Any]:
    """Integer ``/`` and ``%`` with C semantics, in the result's own width.

    The quotient truncates toward zero and the remainder takes the
    dividend's sign; a zero divisor yields NULL, and so does the one
    quotient that does not fit, ``MIN / -1``.  A positive constant
    divisor over a span ``>= 0`` needs none of that (module docstring).
    """
    dtype = NUMPY_DTYPE[atom]
    if not isinstance(divisor, np.ndarray) and divisor > 0 and np.ndim(lvals):
        lo, hi = _span(lvals, known)
        if lo >= 0:
            lvals = lvals.astype(dtype, copy=False)
            if op == "/":
                return _proven(known, lvals // divisor, (lo // divisor, hi // divisor)), None
            if divisor & (divisor - 1) == 0:
                remainder = lvals & (divisor - 1)
            else:
                remainder = lvals // divisor
                remainder *= divisor
                np.subtract(lvals, remainder, out=remainder)
            return _proven(known, remainder, (0, min(hi, divisor - 1))), None
    lvals = np.asarray(lvals, dtype=dtype)
    bad = None
    if isinstance(divisor, np.ndarray):
        divisor = divisor.astype(dtype, copy=False)
        zero = divisor == 0
        if zero.any():
            bad = zero
            divisor = np.where(zero, 1, divisor)
    elif divisor == 0:
        return lvals, True
    with np.errstate(over="ignore"):  # MIN // -1 wraps; flagged below
        quotient = lvals // divisor
    remainder = quotient * divisor
    np.subtract(lvals, remainder, out=remainder)
    # Floor rounds away from zero where the signs differ and the
    # division is inexact: step those rows back.
    adjust = remainder != 0
    adjust &= (lvals < 0) ^ (divisor < 0)
    if op == "%":
        remainder -= np.multiply(adjust, divisor, dtype=dtype)
        return remainder, bad
    quotient += adjust
    minus_one = divisor == -1
    if np.any(minus_one):
        bad = _either(bad, minus_one & (lvals == INTEGER_RANGE[atom][0]))
    return quotient, bad


def negate(operand: Column, known: Optional[dict] = None) -> Column:
    """Unary minus (``-MIN`` does not fit and is NULL)."""
    if operand.atom is Atom.DBL:
        return Column(Atom.DBL, -operand.values, operand.mask)
    if operand.atom not in NUMERIC_ATOMS:
        raise GDKError(f"cannot negate {operand.atom}")
    return arithmetic("-", 0, operand, known)


def absolute(operand: Column, known: Optional[dict] = None) -> Column:
    """ABS() (``|MIN|`` does not fit and is NULL)."""
    if operand.atom not in NUMERIC_ATOMS:
        raise GDKError(f"no abs for {operand.atom}")
    values = np.abs(operand.values)
    if operand.atom is Atom.DBL:
        return Column(Atom.DBL, values, operand.mask)
    lo, hi = _span(operand.values, known)
    if lo > INTEGER_RANGE[operand.atom][0]:
        _proven(known, values, (max(lo, -hi, 0), max(hi, -lo)))
        return Column(operand.atom, values, operand.mask)
    return Column(operand.atom, values, _either(operand.mask, values < 0))


MATH = {
    "sqrt": np.sqrt, "floor": np.floor, "ceil": np.ceil, "ceiling": np.ceil,
    "round": np.round, "exp": np.exp, "log": np.log, "ln": np.log,
    "log10": np.log10, "sin": np.sin, "cos": np.cos, "tan": np.tan,
}
_ROUNDING = ("floor", "ceil", "ceiling", "round")


def apply_unary_math(operand: Column, name: str) -> Column:
    """Math functions used by the imaging demo (sqrt, floor, ceil, ...)."""
    try:
        fn = MATH[name.lower()]
    except KeyError:
        raise GDKError(f"unknown math function {name!r}") from None
    if name.lower() in _ROUNDING and operand.atom in (Atom.INT, Atom.LNG):
        return operand  # already integral: exact, however wide
    with np.errstate(invalid="ignore", divide="ignore"):
        result = fn(operand.values.astype(np.float64))
    if not (bad := ~np.isfinite(result)).any():
        return Column(Atom.DBL, result, operand.mask)
    return Column(Atom.DBL, np.where(bad, 0.0, result), _either(operand.mask, bad))


def cast(operand: Column, atom_name: str) -> Column:
    """CAST; a column already of the target atom passes through."""
    atom = Atom(atom_name)
    return operand if operand.atom is atom else operand.cast(atom)


# ----------------------------------------------------------------------
# comparison and three-valued logic
# ----------------------------------------------------------------------
def _side(operand: Any, other: Any, as_text: bool) -> tuple[Any, Any]:
    """``(values, NULL mask)`` of one comparison side, a scalar typed by ``atoms.comparand``."""
    if isinstance(operand, Column):
        values = operand.values
        return (np.asarray(values, dtype=object) if as_text else values), operand.mask
    if operand is None:
        return 0, True
    return comparand(operand, other.atom), None


def compare(op: str, left: Any, right: Any) -> Column:
    """Comparison producing a bit column (NULL when either side is NULL)."""
    if op not in COMPARE_OPS:
        raise GDKError(f"unknown comparison {op!r}")
    length = _operand_length(left, right)
    as_text = any(
        isinstance(operand, Column) and operand.atom is Atom.STR
        for operand in (left, right)
    )
    lvals, lnull = _side(left, right, as_text)
    rvals, rnull = _side(right, left, as_text)
    mask = _either(lnull, rnull)
    if mask is True:
        return Column.nulls(Atom.BIT, length)
    result = _COMPARE[op](lvals, rvals)
    return Column(Atom.BIT, np.asarray(result, dtype=np.bool_), mask)


def _bits(operand: Any) -> tuple[Any, Any]:
    """``(truth values, NULL mask)``; scalars as NumPy bools, which ``~`` inverts."""
    if isinstance(operand, Column):
        if operand.atom is not Atom.BIT:
            raise GDKError(f"a truth value needs a bit column, not {operand.atom}")
        return operand.values, operand.mask
    if operand is None:
        return np.False_, np.True_
    return np.bool_(operand), None


def _logical(left: Any, right: Any, absorbing: bool) -> Column:
    """Three-valued AND (*absorbing* FALSE) / OR (*absorbing* TRUE)."""
    _operand_length(left, right)
    lvals, lnull = _bits(left)
    rvals, rnull = _bits(right)
    combine = np.logical_or if absorbing else np.logical_and
    if lnull is None and rnull is None:
        return Column(Atom.BIT, combine(lvals, rvals))
    lnull = np.False_ if lnull is None else lnull
    rnull = np.False_ if rnull is None else rnull
    # A side decides the result when it is not NULL and holds the
    # absorbing value; otherwise a NULL on either side makes it unknown.
    decides = ((lvals == absorbing) & ~lnull) | ((rvals == absorbing) & ~rnull)
    unknown = (lnull | rnull) & ~decides
    values = decides if absorbing else combine(lvals, rvals) & ~unknown
    return Column(Atom.BIT, values, unknown)


def logical_and(left: Any, right: Any) -> Column:
    """SQL three-valued AND."""
    return _logical(left, right, False)


def logical_or(left: Any, right: Any) -> Column:
    """SQL three-valued OR."""
    return _logical(left, right, True)


def logical_not(operand: Column) -> Column:
    """SQL NOT (NULL stays NULL)."""
    values, mask = _bits(operand)
    return Column(Atom.BIT, ~values, mask)


def isnull(operand: Column) -> Column:
    """IS NULL as a (never-null) bit column."""
    return Column(Atom.BIT, operand.effective_mask())


def _select(fire: Any, then_values: Any, values: Any, atom: Atom) -> np.ndarray:
    """``np.where(fire, then, else)``.  Two integer scalars are selected by
    arithmetic, ``else + fire * (then - else)``: NumPy's ``where`` branches
    per row and is several times slower on an unpredictable condition."""
    if atom in INTEGER_RANGE and np.ndim(fire) and not np.ndim(then_values) and not np.ndim(values):
        step = int(then_values) - int(values)
        if INTEGER_RANGE[atom][0] <= step <= INTEGER_RANGE[atom][1]:
            out = fire.astype(NUMPY_DTYPE[atom])
            out *= step
            out += values
            return out
    return np.where(fire, then_values, values)


def case(*operands: Any) -> Column:
    """``case(cond, value[, cond, value ...], otherwise)`` element-wise.

    Each row takes the value of the first condition that is TRUE — a
    NULL condition does not fire — and *otherwise* when none is.  The
    branches widen to their common atom; a ``None`` branch is NULL.
    """
    if len(operands) < 3 or len(operands) % 2 == 0:
        raise GDKError("case needs (condition, value) pairs and an otherwise")
    length = _operand_length(*operands)
    atom = widest(
        branch.atom if isinstance(branch, Column) else atom_for_python(branch)
        for branch in operands[1::2] + operands[-1:]
        if branch is not None
    ) or Atom.INT
    dtype = NUMPY_DTYPE[atom]

    def payload(branch: Any) -> tuple[Any, Any]:
        if isinstance(branch, Column):
            column = branch if branch.atom is atom else branch.cast(atom)
            return column.values, column.mask
        column = Column.constant(atom, branch, 1)  # None is NULL
        return column.values.reshape(()), None if column.mask is None else True

    values, nulls = payload(operands[-1])
    for condition, branch in zip(operands[-3::-2], operands[-2::-2]):
        truth, unknown = _bits(condition)
        fire = truth if unknown is None else truth & ~unknown
        then_values, then_nulls = payload(branch)
        values = _select(fire, then_values, values, atom)
        nulls = _either(  # (fire & then) | (~fire & else), a NULL-free side folded
            None if then_nulls is None else fire & then_nulls,  # fresh, never fire's own array
            None if nulls is None else ~fire if nulls is True else ~fire & nulls,
        )
    nulls = None if nulls is None else np.broadcast_to(nulls, (length,))
    return Column(atom, np.asarray(np.broadcast_to(values, (length,)), dtype=dtype), nulls)


def concat_str(left: Any, right: Any) -> Column:
    """String concatenation (``||``)."""
    _operand_length(left, right)

    def texts(operand: Any) -> tuple[Any, Any]:
        if isinstance(operand, Column):
            column = operand if operand.atom is Atom.STR else operand.cast(Atom.STR)
            return column.values, column.mask
        if operand is None:
            return itertools.repeat(""), True
        return itertools.repeat(str(operand)), None

    (lvals, lnull), (rvals, rnull) = texts(left), texts(right)
    values = np.array([str(a) + str(b) for a, b in zip(lvals, rvals)], dtype=object)
    return _masked(Atom.STR, values, lnull, rnull, len(values))


# ----------------------------------------------------------------------
# the kernel table and the expression evaluator
# ----------------------------------------------------------------------
# The typing rules: ``rule(operand atoms, literal parameter)`` is the
# atom the kernel next to it returns; ``None`` stands for an atom only
# known at run time (an untyped parameter, a NULL literal).
def _arithmetic_atom(atoms: list, literal: Any) -> Optional[Atom]:
    atom = widest(atoms)
    if atom is not None and atom not in NUMERIC_ATOMS:
        raise TypeError_(f"arithmetic on non-numeric type {atom.value}")
    return atom


def _operand_atom(atoms: list, literal: Any) -> Optional[Atom]:
    return atoms[0]


def _math_atom(atoms: list, literal: Any) -> Atom:
    """floor/ceil/round keep an integer atom; everything else is double."""
    rounds = isinstance(literal, str) and literal.lower() in _ROUNDING
    return atoms[0] if rounds and atoms[0] in (Atom.INT, Atom.LNG) else Atom.DBL


def _cast_atom(atoms: list, literal: Any) -> Optional[Atom]:
    return Atom(literal) if isinstance(literal, str) else None


def _case_atom(atoms: list, literal: Any) -> Optional[Atom]:
    return widest(atoms[1::2] + atoms[-1:])


#: name -> (kernel, leading operands that may be columns (None = all),
#: fewest operands, most operands (None = any), result atom or typing
#: rule).  Operands past the leading ones are literal parameters (a
#: function name, an atom, a pattern).  Expression nodes, the
#: ``calc.<name>`` ops, the binder and the verifier all resolve through
#: here (:func:`node_atom` reads the last column).
KERNELS: dict[str, tuple] = {
    **{
        name: (functools.partial(arithmetic, op), 2, 2, 2, _arithmetic_atom)
        for name, op in zip(("add", "sub", "mul", "div", "mod"), ARITH_OPS)
    },
    **{
        name: (functools.partial(compare, op), 2, 2, 2, Atom.BIT)
        for name, op in zip(("eq", "ne", "lt", "le", "gt", "ge"), COMPARE_OPS)
    },
    "and": (logical_and, 2, 2, 2, Atom.BIT),
    "or": (logical_or, 2, 2, 2, Atom.BIT),
    "concat": (concat_str, 2, 2, 2, Atom.STR),
    "not": (logical_not, 1, 1, 1, Atom.BIT),
    "isnil": (isnull, 1, 1, 1, Atom.BIT),
    "negate": (negate, 1, 1, 1, _operand_atom),
    "abs": (absolute, 1, 1, 1, _operand_atom),
    "lower": (strings.lower, 1, 1, 1, Atom.STR),
    "upper": (strings.upper, 1, 1, 1, Atom.STR),
    "trim": (strings.trim, 1, 1, 1, Atom.STR),
    "length": (strings.length, 1, 1, 1, Atom.INT),
    "math": (apply_unary_math, 1, 2, 2, _math_atom),
    "cast": (cast, 1, 2, 2, _cast_atom),
    "like": (strings.like, 1, 2, 2, Atom.BIT),
    "substring": (strings.substring, 1, 2, 3, Atom.STR),
    "case": (case, None, 3, None, _case_atom),
}


def node_atom(name: str, atoms: list, literal: Any = None) -> Optional[Atom]:
    """Static result atom of kernel *name* over operands of *atoms* (and
    its first literal parameter).  Raises :class:`~repro.errors.TypeError_`
    for operands the kernel cannot reconcile."""
    rule = KERNELS[name][4]
    return rule(atoms, literal) if callable(rule) else rule


#: neutral operands, ``(name, operand index, value)``: the application
#: is its other operand (NULL-transparent identities only — absorbing
#: rules like ``x * 0`` would be wrong for a NULL ``x``).
NEUTRAL = {
    ("add", 1, 0), ("add", 0, 0),
    ("sub", 1, 0),
    ("mul", 1, 1), ("mul", 0, 1),
    ("div", 1, 1),
    ("and", 1, True), ("and", 0, True),
    ("or", 1, False), ("or", 0, False),
}

# operand reference kinds of a compiled expression
_STEP, _LEAF, _CONST = range(3)
_WORDS = {"nil": None, "true": True, "false": False}
#: one token per match; ``lastindex`` says which: leaf, string, word,
#: number, the name opening a call, ``,`` or ``)``.
_TOKEN = re.compile(
    r"""\s*(?:\$(\d+)|"((?:[^"\\]|\\.)*)"|(nil|true|false)\b"""
    r"""|([-+]?(?:\d+(?:\.\d*)?(?:e[-+]?\d+)?|inf\b|nan\b))|([A-Za-z_]\w*)\(|([,)]))"""
)


@functools.lru_cache(maxsize=1024)
def compile_expr(text: str) -> tuple[tuple, int]:
    """Parse an expression text into ``(steps, leaf count)``.

    The text is ``name(operand, ...)`` over leaves ``$0 .. $n-1`` and
    literals (numbers, ``"strings"``, ``nil``/``true``/``false``), as
    ``MALGenerator`` renders it.  Each *distinct* node becomes one step
    ``(name, operand refs)`` in evaluation order — a sub-expression
    written twice is hash-consed on its text and computed once.  Raises
    :class:`GDKError` on anything malformed: syntax, an unknown name, a
    wrong operand count, leaf numbers with a gap.
    """
    steps: list[tuple] = []
    seen: dict[str, int] = {}
    leaves: set[int] = set()
    calls: list[tuple[str, int, list]] = []  # open calls: name, offset, refs so far
    root, end, operand_next = None, 0, True
    for match in iter(_TOKEN.scanner(text).match, None):
        kind = match.lastindex
        if (kind == 6) == operand_next or root is not None:
            break  # an operand where a separator belongs, or the reverse
        end = match.end()
        if kind == 5:
            if match[5] not in KERNELS:
                raise GDKError(f"unknown operation {match[5]!r} in {text!r}")
            calls.append((match[5], match.start(5), []))
            continue
        if kind == 6 and match[6] == ",":
            operand_next = True
            continue
        if kind == 6:
            name, start, refs = calls.pop()
            fewest, most = KERNELS[name][2:4]
            if len(refs) < fewest or (most and len(refs) > most):
                raise GDKError(f"{name} in {text!r}: bad operand list")
            node = text[start:end]
            if node not in seen:
                seen[node] = len(steps)
                steps.append((name, tuple(refs)))
            ref = _STEP, seen[node]
        elif kind == 1:
            leaves.add(int(match[1]))
            ref = _LEAF, int(match[1])
        elif kind == 2:
            ref = _CONST, re.sub(r"\\(.)", r"\1", match[2])
        elif kind == 3:
            ref = _CONST, _WORDS[match[3]]
        else:
            number = match[4]
            ref = _CONST, int(number) if number.lstrip("+-").isdigit() else float(number)
        operand_next = False
        if calls:
            calls[-1][2].append(ref)
        else:
            root = ref
    if root is None or root[0] != _STEP or calls or text[end:].strip():
        raise GDKError(f"malformed expression {text!r} at offset {end}")
    if leaves != set(range(len(leaves))):
        raise GDKError(f"expression {text!r} does not number its leaves $0..$n-1")
    return tuple(steps), len(leaves)


@functools.lru_cache(maxsize=1024)
def last_uses(text: str) -> tuple[tuple[int, ...], ...]:
    """Per step of ``compile_expr(text)``, the earlier steps it is the
    last reader of: :func:`evaluate` drops them once it has run."""
    steps, _ = compile_expr(text)
    last = {v: index for index, (_, refs) in enumerate(steps) for kind, v in refs if kind == _STEP}
    return tuple(tuple(s for s, reader in last.items() if reader == i) for i in range(len(steps)))


def evaluate(text: str, leaves: list) -> Column:
    """Evaluate an expression over *leaves* (columns and scalars)."""
    steps, count = compile_expr(text)
    if count != len(leaves):
        raise GDKError(f"expression {text!r} takes {count} leaves, got {len(leaves)}")
    done: list[Optional[Column]] = []
    known: dict = {}  # spans of the leaves and live steps: see _span
    for (name, refs), dead in zip(steps, last_uses(text)):
        kernel = KERNELS[name][0]
        # A generator: once the call consumed it, it holds no operand that may die below.
        operands = (done[v] if kind == _STEP else leaves[v] if kind == _LEAF else v for kind, v in refs)
        done.append(kernel(*operands, known=known) if name in _SPANNED else kernel(*operands))
        for step in dead:  # free each temporary after its last reader
            if type(done[step]) is Column:  # (a dictionary column would decode)
                known.pop(id(done[step].values), None)
            done[step] = None
    return done[-1]


#: kernels that take :func:`evaluate`'s span store.
_SPANNED = ("add", "sub", "mul", "div", "mod", "negate", "abs")
#: integer results that may not fit ``int`` although their operands do.
_WIDENS = ("add", "sub", "mul", "div", "negate", "abs")


def scalar(name: str, *operands: Any) -> Any:
    """``calc.<name>`` over Python scalars: the kernel on one-row columns.

    One semantics at two granularities, but a BAT has a declared atom
    and a scalar the one :func:`~repro.gdk.atoms.atom_for_python` gives
    its value: a plain Python int — a literal, a bound parameter — types
    by magnitude, so an ``int`` result that does not fit is recomputed
    in ``lng``; a small ``lng`` result comes back as a ``numpy.int64``,
    which keeps its width.  A CAST converts by the one rule of
    :mod:`repro.gdk.atoms`, as ``Column.cast`` does.
    """
    kernel, columns = KERNELS[name][:2]
    first = next((i for i, v in enumerate(operands[:columns]) if v is not None), None)
    if first is None:
        return True if name == "isnil" else None
    if name == "cast" and atom_for_python(operands[0]).value == operands[1]:
        # Already of the target atom, like a column: passes through (an
        # int past lng types as a dbl but is one only once converted).
        if type(operands[0]) is not int or operands[1] != "dbl":
            return operands[0]
    promoted = list(operands)
    promoted[first] = Column.constant(atom_for_python(operands[first]), operands[first], 1)
    result = kernel(*promoted)
    value = result.get(0)
    if value is None:
        if result.atom is Atom.INT and name in _WIDENS and None not in operands:
            wide = (np.int64(v) if isinstance(v, (int, np.integer)) else v for v in operands)
            return scalar(name, *wide)
    elif result.atom is Atom.LNG and atom_for_python(value) is Atom.INT:
        return np.int64(value)  # keeps its width: a Python int types by magnitude
    return value


def result_atom(text: str, atoms: list) -> Optional[Atom]:
    """Static result atom of an expression over leaves of *atoms*:
    :func:`node_atom` folded over the steps.

    ``None`` stands for an atom only known at run time (an untyped
    parameter, a NULL literal), in the leaves and in the answer.  Raises
    like :func:`compile_expr`, and :class:`~repro.errors.TypeError_` for
    arithmetic over a non-numeric operand.
    """
    steps, count = compile_expr(text)
    if count != len(atoms):
        raise GDKError(f"expression {text!r} takes {count} leaves, got {len(atoms)}")
    done: list[Optional[Atom]] = []

    def atom_of(ref: tuple) -> Optional[Atom]:
        kind, value = ref
        if kind == _CONST:
            return None if value is None else atom_for_python(value)
        return done[value] if kind == _STEP else atoms[value]

    for name, refs in steps:
        literal = refs[1][1] if len(refs) > 1 and refs[1][0] == _CONST else None
        done.append(node_atom(name, [atom_of(ref) for ref in refs], literal))
    return done[-1]
