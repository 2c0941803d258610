"""Abstract syntax tree of the SQL/SciQL dialect.

The node set covers the SQL:2003 subset plus every SciQL extension the
paper exercises:

* ``CREATE ARRAY`` with named dimensions and range constraints;
* dimension-qualified projection columns (``SELECT [x], [y], v``) that
  coerce the result into an array (Section 2, "Array and Table
  Coercions");
* structural grouping (``GROUP BY A[x:x+2][y:y+2]``);
* relative cell access in expressions (``A[x-1][y]``);
* ``ALTER ARRAY ... ALTER DIMENSION ... SET RANGE [a:b:c]``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Union


# ----------------------------------------------------------------------
# expressions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Annotated:
    """What binding leaves on a value or operator node.

    The parser builds these nodes bare; the binder's one pass rebuilds
    each with its result ``atom`` (``None``: an untyped NULL, typed at
    run time) and whether an ``aggregate`` call occurs in it.  Neither
    takes part in equality or hashing, so a bound node still matches
    its GROUP BY key and its parsed twin.
    """

    atom: Any = field(default=None, compare=False, repr=False, kw_only=True)
    aggregate: bool = field(default=False, compare=False, repr=False, kw_only=True)


@dataclass(frozen=True)
class Literal(Annotated):
    """A constant: int, float, string, bool, or None (NULL)."""

    value: Any


@dataclass(frozen=True)
class Placeholder:
    """A bind-parameter marker: positional ``?`` or named ``:name``.

    ``key`` is the 0-based position for ``?`` markers (assigned in
    lexical order) or the identifier for ``:name`` markers.  The value
    arrives at execution time through the DB-API parameter binding.
    """

    key: Union[int, str]


@dataclass(frozen=True)
class ColumnRef:
    """``name`` or ``qualifier.name``."""

    name: str
    qualifier: Optional[str] = None


@dataclass(frozen=True)
class Star:
    """``*`` or ``qualifier.*`` in a projection list."""

    qualifier: Optional[str] = None


@dataclass(frozen=True)
class BinaryOp(Annotated):
    """Infix operator application."""

    op: str  # +, -, *, /, %, ||, =, <>, <, <=, >, >=, AND, OR
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class UnaryOp(Annotated):
    """Prefix operator: ``-``, ``+`` or ``NOT``."""

    op: str
    operand: "Expression"


@dataclass(frozen=True)
class FunctionCall(Annotated):
    """Function or aggregate application.

    ``COUNT(*)`` is represented with ``star=True`` and empty args.
    """

    name: str
    args: tuple["Expression", ...]
    star: bool = False
    distinct: bool = False


@dataclass(frozen=True)
class CaseExpression(Annotated):
    """Searched CASE: WHEN cond THEN value ... [ELSE value] END."""

    whens: tuple[tuple["Expression", "Expression"], ...]
    otherwise: Optional["Expression"] = None


@dataclass(frozen=True)
class IsNull(Annotated):
    """``expr IS [NOT] NULL``."""

    operand: "Expression"
    negated: bool = False


@dataclass(frozen=True)
class InList(Annotated):
    """``expr [NOT] IN (item, ...)``."""

    operand: "Expression"
    items: tuple["Expression", ...]
    negated: bool = False


@dataclass(frozen=True)
class Between(Annotated):
    """``expr [NOT] BETWEEN low AND high``."""

    operand: "Expression"
    low: "Expression"
    high: "Expression"
    negated: bool = False


@dataclass(frozen=True)
class CellRef:
    """SciQL relative cell access: ``A[e1][e2]`` or ``A[e1][e2].attr``.

    Addresses the cell of array ``array`` at the coordinates given by
    the index expressions; without an explicit ``attribute`` the
    array's single cell attribute is meant.  Out-of-range coordinates
    yield NULL (cells outside the dimensions do not exist).
    """

    array: str
    indexes: tuple["Expression", ...]
    attribute: Optional[str] = None


@dataclass(frozen=True)
class CastExpression(Annotated):
    """``CAST(expr AS type)``."""

    operand: "Expression"
    type_name: str


def children(node: Any) -> Iterator[Any]:
    """Direct sub-expressions of an expression node, parsed or bound.

    Nodes are dataclasses whose children sit in fields or in tuples of
    fields (argument lists, CASE's ``(condition, value)`` pairs), so one
    structural walk covers every node type.
    """
    for spec in dataclasses.fields(node):
        yield from _nodes(getattr(node, spec.name))


def _nodes(value: Any) -> Iterator[Any]:
    if isinstance(value, tuple):
        for item in value:
            yield from _nodes(item)
    elif dataclasses.is_dataclass(value):
        yield value


Expression = Union[
    Literal,
    Placeholder,
    ColumnRef,
    Star,
    BinaryOp,
    UnaryOp,
    FunctionCall,
    CaseExpression,
    IsNull,
    InList,
    Between,
    CellRef,
    CastExpression,
]


# ----------------------------------------------------------------------
# query structure
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SelectItem:
    """One projection item.

    ``dimension=True`` marks the SciQL qualifier ``[expr]``: the item
    becomes a dimension of the (array-valued) result.
    """

    expression: Expression
    alias: Optional[str] = None
    dimension: bool = False


@dataclass(frozen=True)
class NamedSource:
    """A base table/array in FROM, with optional alias."""

    name: str
    alias: Optional[str] = None


@dataclass(frozen=True)
class SubquerySource:
    """A parenthesised SELECT in FROM."""

    query: "SelectStatement"
    alias: str


@dataclass(frozen=True)
class JoinSource:
    """``left [INNER|LEFT] JOIN right ON condition`` (or CROSS JOIN)."""

    left: "TableSource"
    right: "TableSource"
    kind: str  # "inner" | "left" | "cross"
    condition: Optional[Expression] = None


TableSource = Union[NamedSource, SubquerySource, JoinSource]


@dataclass(frozen=True)
class TileDimension:
    """One bracket group of a structural GROUP BY.

    ``A[x:x+2]`` parses to anchor expression ``x`` with bounds
    ``(x, x+2)``; the single-cell form ``A[x]`` leaves ``high=None``.
    """

    low: Expression
    high: Optional[Expression] = None


@dataclass(frozen=True)
class TileGroupBy:
    """Structural grouping: ``GROUP BY name[...][...] ...``."""

    array: str
    dimensions: tuple[TileDimension, ...]


@dataclass(frozen=True)
class ValueGroupBy:
    """Classic value-based grouping."""

    expressions: tuple[Expression, ...]


GroupBy = Union[TileGroupBy, ValueGroupBy]


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key."""

    expression: Expression
    descending: bool = False


@dataclass(frozen=True)
class SelectStatement:
    """A full query block."""

    items: tuple[SelectItem, ...]
    sources: tuple[TableSource, ...] = ()
    where: Optional[Expression] = None
    group_by: Optional[GroupBy] = None
    having: Optional[Expression] = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    offset: Optional[int] = None
    distinct: bool = False


@dataclass(frozen=True)
class SetOperation:
    """``left UNION [ALL] right`` / EXCEPT / INTERSECT.

    EXCEPT and INTERSECT use SQL set semantics (duplicates removed;
    NULLs compare equal for membership).  UNION without ALL dedupes.
    """

    op: str  # "union" | "except" | "intersect"
    all: bool
    left: "QueryExpression"
    right: "QueryExpression"


QueryExpression = Union[SelectStatement, SetOperation]


# ----------------------------------------------------------------------
# DDL
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DimensionRange:
    """``[start:step:stop]`` with constant integer expressions."""

    start: Expression
    step: Expression
    stop: Expression


@dataclass(frozen=True)
class ColumnSpec:
    """One element of a CREATE TABLE/ARRAY definition list.

    ``dimension_range`` is set for ``<name> <type> DIMENSION[...]``
    elements; ``None`` range with ``is_dimension`` marks an unbounded
    dimension (rejected later for CREATE, used internally by
    coercions).
    """

    name: str
    type_name: str
    is_dimension: bool = False
    dimension_range: Optional[DimensionRange] = None
    default: Optional[Expression] = None
    has_default: bool = False


@dataclass(frozen=True)
class CreateTable:
    name: str
    columns: tuple[ColumnSpec, ...]
    if_not_exists: bool = False


@dataclass(frozen=True)
class CreateArray:
    name: str
    elements: tuple[ColumnSpec, ...]
    if_not_exists: bool = False


@dataclass(frozen=True)
class DropObject:
    name: str
    kind: str  # "table" | "array"
    if_exists: bool = False


@dataclass(frozen=True)
class AlterArrayDimension:
    """ALTER ARRAY name ALTER DIMENSION dim SET RANGE [a:b:c]."""

    array: str
    dimension: str
    range: DimensionRange


# ----------------------------------------------------------------------
# DML
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class InsertValues:
    table: str
    columns: tuple[str, ...]
    rows: tuple[tuple[Expression, ...], ...]


@dataclass(frozen=True)
class InsertSelect:
    table: str
    columns: tuple[str, ...]
    query: SelectStatement


@dataclass(frozen=True)
class Update:
    table: str
    assignments: tuple[tuple[str, Expression], ...]
    where: Optional[Expression] = None


@dataclass(frozen=True)
class Delete:
    table: str
    where: Optional[Expression] = None


@dataclass(frozen=True)
class Explain:
    """``EXPLAIN [VERIFY] <statement>`` — the optimized MAL program text.

    With ``verify`` the plan is additionally re-checked by the static
    analyzer after every optimizer pass (regardless of the
    ``REPRO_VERIFY_PLANS`` knob) and the listing gains a verification
    summary line; a broken plan raises ``PlanVerificationError``.
    """

    statement: "Statement"
    verify: bool = False


@dataclass(frozen=True)
class ShowQueries:
    """``SHOW QUERIES`` — one row per running statement on the engine.

    An administrative statement: it never compiles to MAL, it reads the
    database's query registry directly (qid, session, status, elapsed,
    rows, bytes, sql).
    """


@dataclass(frozen=True)
class KillQuery:
    """``KILL <qid>`` — cooperatively cancel a running statement.

    The victim aborts at its next instruction boundary with
    ``QueryCancelledError``; its session survives with any open
    transaction rolled back.
    """

    qid: int


Statement = Union[
    SelectStatement,
    SetOperation,
    Explain,
    ShowQueries,
    KillQuery,
    CreateTable,
    CreateArray,
    DropObject,
    AlterArrayDimension,
    InsertValues,
    InsertSelect,
    Update,
    Delete,
]
