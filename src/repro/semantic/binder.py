"""Name binding and typing: the front half of the "SQL/SciQL Compiler"
box in the paper's Figure 2.

:meth:`Binder.bind` is the one pass over a parsed expression.  It
rewrites :class:`~repro.sql.ast_nodes.ColumnRef` nodes into
:class:`BoundColumn` nodes carrying the source index, so later stages
never look names up again, and it leaves every node annotated with its
result ``atom`` and whether it contains an ``aggregate`` call — the
planner, the MAL generator and grouped-output validation read those
instead of walking the tree again.  The atoms come from the kernels'
own typing tables: :func:`repro.gdk.calc.node_atom` for every
element-wise operator and function, :func:`repro.gdk.aggregate.
aggregate_atom` for aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Union

from repro.errors import SemanticError, TypeError_
from repro.gdk import calc
from repro.gdk.aggregate import AGGREGATES, aggregate_atom
from repro.gdk.atoms import Atom, atom_for_python, atom_for_sql_type
from repro.catalog import Array, Catalog, Table
from repro.catalog.objects import DimensionDef
from repro.sql import ast_nodes as ast

#: SQL operator -> the element-wise kernel that computes and types it.
OP_NAMES = {
    "+": "add", "-": "sub", "*": "mul", "/": "div", "%": "mod",
    "=": "eq", "<>": "ne", "!=": "ne", "<": "lt", "<=": "le",
    ">": "gt", ">=": "ge", "AND": "and", "OR": "or", "||": "concat",
}

#: SQL scalar function -> (kernel, its literal parameter or None).
SCALAR_FUNCTIONS = {
    **{name: ("math", name) for name in calc.MATH},
    **{name: (name, None) for name in ("abs", "lower", "upper", "trim", "like")},
    "length": ("length", None),
    "char_length": ("length", None),
    "substring": ("substring", None),
    "substr": ("substring", None),
}


def is_aggregate_call(expression: Any) -> bool:
    """True for a direct aggregate function application."""
    return isinstance(expression, ast.FunctionCall) and expression.name in AGGREGATES


def typed(rule: Any, *args: Any) -> Optional[Atom]:
    """A typing table's answer; its :class:`TypeError_` becomes the
    binder's :class:`SemanticError`."""
    try:
        return rule(*args)
    except TypeError_ as exc:
        raise SemanticError(str(exc)) from None


@dataclass(frozen=True)
class Parameter:
    """A typed bind parameter surviving into the compiled plan.

    The binder rewrites :class:`~repro.sql.ast_nodes.Placeholder`
    markers into ``Parameter`` nodes.  ``atom`` stays ``None`` for an
    untyped parameter (like a bare NULL literal); wrapping the marker
    in ``CAST(? AS type)`` pins the type.  MAL generation lowers a
    ``Parameter`` to a late-bound :class:`~repro.mal.program.Param`
    operand, so one compiled program re-executes under fresh bindings.
    """

    key: Union[int, str]
    atom: Optional[Atom] = None
    aggregate = False  # like every bound leaf: no aggregate call inside

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        marker = f"?{self.key}" if isinstance(self.key, int) else f":{self.key}"
        return f"Parameter({marker})"


@dataclass(frozen=True)
class BoundColumn:
    """A resolved column reference: source ordinal + column name + type.

    ``is_dimension`` is True for SciQL array dimensions — several
    compilation rules special-case them (tiling anchors, coercions).
    """

    source: int
    column: str
    atom: Atom
    is_dimension: bool = False
    aggregate = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BoundColumn(#{self.source}.{self.column}:{self.atom.value})"


@dataclass(frozen=True)
class BoundCellRef:
    """A resolved SciQL cell reference ``A[e1][e2](.attr)``.

    ``indexes`` are bound coordinate expressions evaluated per row of
    the current scope; the fetch happens against the *stored* array
    (out-of-range coordinates produce NULL).
    """

    array: str  # catalog name of the array
    indexes: tuple  # bound expressions, one per dimension
    attribute: str
    atom: Atom
    aggregate = False


@dataclass
class SourceInfo:
    """One FROM source visible in a scope."""

    alias: str
    object_name: str  # catalog name, or "" for derived tables
    kind: str  # "table" | "array" | "derived"
    columns: list[tuple[str, Atom]]
    dimensions: list[DimensionDef]

    def column_atom(self, name: str) -> Optional[Atom]:
        for column, atom in self.columns:
            if column == name:
                return atom
        return None

    def is_dimension(self, name: str) -> bool:
        return any(d.name == name for d in self.dimensions)


def source_from_catalog(catalog: Catalog, name: str, alias: str | None) -> SourceInfo:
    """Build a SourceInfo for a named table/array."""
    obj = catalog.get(name)
    if isinstance(obj, Array):
        columns = [(d.name, d.atom) for d in obj.dimensions]
        columns += [(a.name, a.atom) for a in obj.attributes]
        return SourceInfo(
            alias or obj.name, obj.name, "array", columns, list(obj.dimensions)
        )
    assert isinstance(obj, Table)
    columns = [(c.name, c.atom) for c in obj.columns]
    return SourceInfo(alias or obj.name, obj.name, "table", columns, [])


class Scope:
    """The set of sources a query block can reference."""

    def __init__(self, sources: list[SourceInfo]):
        self.sources = sources
        aliases = [s.alias for s in sources]
        if len(set(aliases)) != len(aliases):
            raise SemanticError(f"duplicate source aliases in FROM: {aliases}")

    def resolve(self, name: str, qualifier: str | None) -> BoundColumn:
        """Resolve ``[qualifier.]name`` to a unique source column."""
        matches: list[BoundColumn] = []
        for index, source in enumerate(self.sources):
            if qualifier is not None and source.alias != qualifier:
                continue
            atom = source.column_atom(name)
            if atom is not None:
                matches.append(
                    BoundColumn(index, name, atom, source.is_dimension(name))
                )
        if not matches:
            target = f"{qualifier}.{name}" if qualifier else name
            raise SemanticError(f"unknown column {target!r}")
        if len(matches) > 1:
            raise SemanticError(f"ambiguous column reference {name!r}")
        return matches[0]

    def all_columns(self, qualifier: str | None = None) -> list[BoundColumn]:
        """Expansion of ``*`` / ``qualifier.*`` in declaration order."""
        out: list[BoundColumn] = []
        for index, source in enumerate(self.sources):
            if qualifier is not None and source.alias != qualifier:
                continue
            for column, atom in source.columns:
                out.append(BoundColumn(index, column, atom, source.is_dimension(column)))
        if qualifier is not None and not out:
            raise SemanticError(f"unknown source {qualifier!r}")
        return out


class Binder:
    """Resolves the names of one scope and annotates every node."""

    def __init__(self, scope: Scope, catalog: Catalog):
        self.scope = scope
        self.catalog = catalog

    def bind(self, expression: Any) -> Any:
        """*expression* with names resolved and every node carrying its
        result atom and aggregate-ness (bound nodes pass through)."""
        if isinstance(expression, (BoundColumn, BoundCellRef, Parameter)):
            return expression
        if isinstance(expression, ast.Literal):
            value = expression.value
            return ast.Literal(value, atom=None if value is None else atom_for_python(value))
        if isinstance(expression, ast.Placeholder):
            return Parameter(expression.key)
        if isinstance(expression, ast.ColumnRef):
            return self.scope.resolve(expression.name, expression.qualifier)
        if isinstance(expression, ast.Star):
            raise SemanticError("* is only allowed as a projection item")
        if isinstance(expression, ast.CellRef):
            return self._bind_cell_ref(expression)
        if isinstance(expression, ast.BinaryOp):
            left, right = self.bind(expression.left), self.bind(expression.right)
            if expression.op not in OP_NAMES:
                raise SemanticError(f"unsupported operator {expression.op!r}")
            return ast.BinaryOp(
                expression.op, left, right,
                atom=typed(calc.node_atom, OP_NAMES[expression.op], [left.atom, right.atom]),
                aggregate=left.aggregate or right.aggregate,
            )
        if isinstance(expression, ast.UnaryOp):
            operand = self.bind(expression.operand)
            kernel = "not" if expression.op == "NOT" else "negate"
            return ast.UnaryOp(
                expression.op, operand,
                atom=typed(calc.node_atom, kernel, [operand.atom]),
                aggregate=operand.aggregate,
            )
        if isinstance(expression, ast.FunctionCall):
            return self._bind_call(expression)
        if isinstance(expression, ast.CaseExpression):
            whens = tuple((self.bind(c), self.bind(v)) for c, v in expression.whens)
            otherwise = None if expression.otherwise is None else self.bind(expression.otherwise)
            parts = [node for when in whens for node in when]
            atoms = [node.atom for node in parts] + [otherwise.atom if otherwise else None]
            if otherwise is not None:
                parts.append(otherwise)
            return ast.CaseExpression(
                whens, otherwise,
                atom=typed(calc.node_atom, "case", atoms),
                aggregate=any(node.aggregate for node in parts),
            )
        # The predicate forms are sugar over isnil / eq / ge / le / and /
        # or / not, every one of them bit.
        if isinstance(expression, ast.IsNull):
            operand = self.bind(expression.operand)
            return ast.IsNull(
                operand, expression.negated, atom=Atom.BIT, aggregate=operand.aggregate
            )
        if isinstance(expression, ast.InList):
            operand = self.bind(expression.operand)
            items = tuple(self.bind(i) for i in expression.items)
            return ast.InList(
                operand, items, expression.negated, atom=Atom.BIT,
                aggregate=operand.aggregate or any(i.aggregate for i in items),
            )
        if isinstance(expression, ast.Between):
            operand, low, high = (
                self.bind(part) for part in (expression.operand, expression.low, expression.high)
            )
            return ast.Between(
                operand, low, high, expression.negated, atom=Atom.BIT,
                aggregate=operand.aggregate or low.aggregate or high.aggregate,
            )
        if isinstance(expression, ast.CastExpression):
            operand = self.bind(expression.operand)
            return ast.CastExpression(
                operand, expression.type_name,
                atom=atom_for_sql_type(expression.type_name), aggregate=operand.aggregate,
            )
        raise SemanticError(f"cannot bind {type(expression).__name__}")

    def _bind_call(self, call: ast.FunctionCall) -> ast.FunctionCall:
        args = tuple(self.bind(a) for a in call.args)
        if not args and not call.star:
            raise SemanticError(f"function {call.name!r} needs arguments")
        if call.name in AGGREGATES:
            atom = typed(aggregate_atom, call.name, args[0].atom if args else None)
            aggregate = True
        elif call.name in SCALAR_FUNCTIONS:
            kernel, literal = SCALAR_FUNCTIONS[call.name]
            atom = typed(calc.node_atom, kernel, [args[0].atom], literal)
            aggregate = any(a.aggregate for a in args)
        else:
            raise SemanticError(f"unknown function {call.name!r}")
        return ast.FunctionCall(
            call.name, args, call.star, call.distinct, atom=atom, aggregate=aggregate
        )

    def _bind_cell_ref(self, ref: ast.CellRef) -> BoundCellRef:
        # Resolve the array: FROM alias first, then catalog name.
        array_name: Optional[str] = None
        for source in self.scope.sources:
            if source.alias == ref.array and source.kind == "array":
                array_name = source.object_name
                break
        if array_name is None:
            if ref.array in self.catalog and isinstance(
                self.catalog.get(ref.array), Array
            ):
                array_name = ref.array.lower()
            else:
                raise SemanticError(f"cell reference to unknown array {ref.array!r}")
        array = self.catalog.get_array(array_name)
        if len(ref.indexes) != len(array.dimensions):
            raise SemanticError(
                f"array {array_name!r} has {len(array.dimensions)} dimensions, "
                f"cell reference supplies {len(ref.indexes)}"
            )
        attribute = ref.attribute
        if attribute is None:
            if len(array.attributes) != 1:
                raise SemanticError(
                    f"array {array_name!r} has several attributes; "
                    "qualify the cell reference (A[i][j].attr)"
                )
            attribute = array.attributes[0].name
        atom = array.attribute_def(attribute).atom
        return BoundCellRef(
            array_name,
            tuple(self.bind(i) for i in ref.indexes),
            attribute,
            atom,
        )
