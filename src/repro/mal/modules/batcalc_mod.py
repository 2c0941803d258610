"""MAL module ``batcalc`` — bulk element-wise computation on BATs."""

from __future__ import annotations

from repro.errors import MALError
from repro.gdk import calc
from repro.gdk.atoms import Atom
from repro.gdk.bat import BAT
from repro.gdk.column import Column
from repro.mal.modules import mal_op


def _unwrap(operand):
    """BAT -> Column, scalars pass through."""
    if isinstance(operand, BAT):
        return operand.tail
    return operand


def _wrap(column: Column, *operands) -> BAT:
    """Wrap a result column, inheriting the head range of the inputs.

    Element-wise kernels preserve the head, so the result keeps the
    first BAT operand's ``hseqbase`` — fragment slices produced by
    ``mat.partition`` stay in the global oid space through arbitrary
    ``batcalc`` chains and a subsequent ``algebra.select`` emits
    globally valid candidate oids.
    """
    for operand in operands:
        if isinstance(operand, BAT):
            return BAT(column, operand.hseqbase)
    return BAT(column)


def _register_arith(symbol: str, name: str) -> None:
    @mal_op("batcalc", name, sig="val, val -> bat")
    def _op(ctx, left, right, _symbol=symbol):
        return _wrap(calc.arithmetic(_symbol, _unwrap(left), _unwrap(right)), left, right)


for _symbol, _name in (("+", "add"), ("-", "sub"), ("*", "mul"), ("/", "div"), ("%", "mod")):
    _register_arith(_symbol, _name)


def _register_compare(symbol: str, name: str) -> None:
    @mal_op("batcalc", name, sig="val, val -> bat(bit)")
    def _op(ctx, left, right, _symbol=symbol):
        return _wrap(calc.compare(_symbol, _unwrap(left), _unwrap(right)), left, right)


for _symbol, _name in (
    ("==", "eq"),
    ("!=", "ne"),
    ("<", "lt"),
    ("<=", "le"),
    (">", "gt"),
    (">=", "ge"),
):
    _register_compare(_symbol, _name)


@mal_op("batcalc", "and", sig="val, val -> bat(bit)")
def _and(ctx, left, right):
    return _wrap(calc.logical_and(_unwrap(left), _unwrap(right)), left, right)


@mal_op("batcalc", "or", sig="val, val -> bat(bit)")
def _or(ctx, left, right):
    return _wrap(calc.logical_or(_unwrap(left), _unwrap(right)), left, right)


@mal_op("batcalc", "not", sig="bat -> bat(bit)")
def _not(ctx, operand):
    column = _unwrap(operand)
    if not isinstance(column, Column):
        raise MALError("batcalc.not needs a BAT")
    return _wrap(calc.logical_not(column), operand)


@mal_op("batcalc", "isnil", sig="bat -> bat(bit)")
def _isnil(ctx, operand):
    column = _unwrap(operand)
    if not isinstance(column, Column):
        raise MALError("batcalc.isnil needs a BAT")
    return _wrap(calc.isnull(column), operand)


@mal_op("batcalc", "ifthenelse", sig="bat, val, val -> bat")
def _ifthenelse(ctx, condition, then_value, else_value):
    cond = _unwrap(condition)
    if not isinstance(cond, Column):
        raise MALError("batcalc.ifthenelse needs a BAT condition")
    return _wrap(calc.ifthenelse(cond, _unwrap(then_value), _unwrap(else_value)), condition, then_value, else_value)


@mal_op("batcalc", "negate", sig="bat -> bat")
def _negate(ctx, operand):
    return _wrap(calc.negate(_unwrap(operand)), operand)


@mal_op("batcalc", "abs", sig="bat -> bat")
def _abs(ctx, operand):
    return _wrap(calc.absolute(_unwrap(operand)), operand)


@mal_op("batcalc", "math", sig="str, bat -> bat")
def _math(ctx, name: str, operand):
    return _wrap(calc.apply_unary_math(name, _unwrap(operand)), operand)


@mal_op("batcalc", "concat", sig="val, val -> bat")
def _concat(ctx, left, right):
    return _wrap(calc.concat_str(_unwrap(left), _unwrap(right)), left, right)


@mal_op("batcalc", "cast", sig="bat, str -> bat")
def _cast(ctx, operand, atom_name: str):
    column = _unwrap(operand)
    if not isinstance(column, Column):
        raise MALError("batcalc.cast needs a BAT")
    return _wrap(column.cast(Atom(atom_name)), operand)


# ----------------------------------------------------------------------
# string kernels
# ----------------------------------------------------------------------
from repro.gdk import strings as _strings


@mal_op("batcalc", "lower", sig="bat -> bat")
def _lower(ctx, operand):
    return _wrap(_strings.lower(_unwrap(operand)), operand)


@mal_op("batcalc", "upper", sig="bat -> bat")
def _upper(ctx, operand):
    return _wrap(_strings.upper(_unwrap(operand)), operand)


@mal_op("batcalc", "length", sig="bat -> bat")
def _length(ctx, operand):
    return _wrap(_strings.length(_unwrap(operand)), operand)


@mal_op("batcalc", "trim", sig="bat -> bat")
def _trim(ctx, operand):
    return _wrap(_strings.trim(_unwrap(operand)), operand)


@mal_op("batcalc", "substring", sig="bat, int, int? -> bat")
def _substring(ctx, operand, start, count=None):
    return _wrap(_strings.substring(
        _unwrap(operand),
        int(start),
        None if count is None else int(count),
    ), operand)


@mal_op("batcalc", "like", sig="bat, scalar -> bat(bit)")
def _like(ctx, operand, pattern):
    return _wrap(_strings.like(_unwrap(operand), pattern), operand)
