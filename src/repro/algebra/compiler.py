"""AST → relational algebra compilation.

This is the back half of the "SQL/SciQL Compiler" of Figure 2: syntax
trees bound and typed by :class:`repro.semantic.binder.Binder` become
:mod:`repro.algebra.nodes` plans; every atom here is read off a bound
node's annotation.  SciQL-specific rules implemented here:

* CREATE ARRAY splits elements into dimensions (materialised ranges)
  and cell attributes;
* a structural GROUP BY requires the FROM clause to be exactly the
  tiled array, and its bracket groups must reference the array's
  dimensions in declaration order with constant offsets;
* dimension-qualified projection items (``[x]``) switch the result to
  an array shape;
* INSERT/UPDATE/DELETE against arrays keep cell semantics (holes,
  overwrite-in-place) — lowered later by malgen.
"""

from __future__ import annotations

import json
from typing import Any, Optional

import numpy as np

from repro.errors import SemanticError
from repro.gdk import calc
from repro.gdk.atoms import Atom, atom_for_sql_type, widest
from repro.catalog import Array, Catalog, ColumnDef, DimensionDef
from repro.core.tiling import TileSpec
from repro.semantic.binder import (
    Binder,
    BoundCellRef,
    BoundColumn,
    Parameter,
    Scope,
    SourceInfo,
    is_aggregate_call,
    source_from_catalog,
    typed,
)
from repro.sql import ast_nodes as ast
from repro.algebra import nodes

_INTEGRAL_ATOMS = (Atom.INT, Atom.LNG)
#: constant-expression operators -> the scalar kernel that folds them.
_CONSTANT_OPS = {"+": "add", "-": "sub", "*": "mul", "/": "div", "%": "mod", "||": "concat"}


# ----------------------------------------------------------------------
# constant folding (DDL ranges, defaults, VALUES rows)
# ----------------------------------------------------------------------
def fold_constant(expression: Any, allow_params: bool = False) -> Any:
    """Evaluate a constant expression at compile time.

    Raises :class:`SemanticError` when the expression references
    columns or functions — DDL ranges and VALUES rows must be literal.
    With ``allow_params`` a *bare* placeholder passes through as a
    :class:`~repro.semantic.binder.Parameter` marker (used by INSERT
    VALUES rows, which bind the value at execution time); placeholders
    inside compound constant expressions stay rejected.
    """
    if isinstance(expression, (ast.Placeholder, Parameter)):
        if not allow_params:
            raise SemanticError(
                "bind parameters are not allowed in this constant context "
                "(DDL ranges, tile bounds, LIMIT, function constants)"
            )
        if isinstance(expression, Parameter):
            return expression
        return Parameter(expression.key)
    if isinstance(expression, ast.Literal):
        return expression.value
    if isinstance(expression, ast.UnaryOp) and expression.op == "-":
        folded = calc.scalar("negate", fold_constant(expression.operand))
    elif isinstance(expression, ast.BinaryOp) and expression.op in _CONSTANT_OPS:
        left = fold_constant(expression.left)
        right = fold_constant(expression.right)
        folded = calc.scalar(_CONSTANT_OPS[expression.op], left, right)
        if folded is None and None not in (left, right):
            # NULL for that row in a query; in a constant, a mistake.
            zero = {"/": "division by zero", "%": "modulo by zero"}.get(expression.op)
            raise SemanticError(f"{zero if right == 0 else 'overflow'} in constant expression")
    elif isinstance(expression, ast.CastExpression):
        atom = atom_for_sql_type(expression.type_name)
        folded = calc.scalar("cast", fold_constant(expression.operand), atom.value)
    else:
        raise SemanticError("expected a constant expression")
    # The scalar kernels' value (a small lng is a NumPy scalar there).
    return folded.item() if isinstance(folded, np.generic) else folded


# ----------------------------------------------------------------------
# statement planning
# ----------------------------------------------------------------------
def plan_statement(statement: ast.Statement, catalog: Catalog) -> nodes.StatementPlan:
    """Compile one parsed statement into an executable plan."""
    if isinstance(statement, ast.SelectStatement):
        return plan_select(statement, catalog)
    if isinstance(statement, ast.SetOperation):
        return _plan_set_operation(statement, catalog)
    if isinstance(statement, ast.CreateTable):
        return _plan_create_table(statement)
    if isinstance(statement, ast.CreateArray):
        return _plan_create_array(statement)
    if isinstance(statement, ast.DropObject):
        return nodes.DropPlan(statement.name.lower(), statement.kind, statement.if_exists)
    if isinstance(statement, ast.AlterArrayDimension):
        return _plan_alter(statement, catalog)
    if isinstance(statement, ast.InsertValues):
        return _plan_insert_values(statement, catalog)
    if isinstance(statement, ast.InsertSelect):
        return _plan_insert_select(statement, catalog)
    if isinstance(statement, ast.Update):
        return _plan_update(statement, catalog)
    if isinstance(statement, ast.Delete):
        return _plan_delete(statement, catalog)
    raise SemanticError(f"unsupported statement {type(statement).__name__}")


def _plan_set_operation(
    statement: ast.SetOperation, catalog: Catalog
) -> nodes.SetOpPlan:
    """Compile UNION/EXCEPT/INTERSECT: both sides must align in arity."""

    def plan_side(side) -> nodes.QueryPlan | nodes.SetOpPlan:
        if isinstance(side, ast.SetOperation):
            return _plan_set_operation(side, catalog)
        return plan_select(side, catalog)

    left = plan_side(statement.left)
    right = plan_side(statement.right)
    if len(left.items) != len(right.items):
        raise SemanticError(
            f"set operation arity mismatch: {len(left.items)} vs "
            f"{len(right.items)} columns"
        )
    items: list[nodes.OutputItem] = []
    for left_item, right_item in zip(left.items, right.items):
        atom = typed(widest, (left_item.atom, right_item.atom))
        items.append(
            nodes.OutputItem(
                left_item.name, left_item.expression, atom, left_item.is_dimension
            )
        )
    return nodes.SetOpPlan(
        statement.op, statement.all, left, right, items, left.result_kind
    )


# ------------------------------ DDL ------------------------------
def _column_def(spec: ast.ColumnSpec) -> ColumnDef:
    default = fold_constant(spec.default) if spec.has_default else None
    return ColumnDef(spec.name, atom_for_sql_type(spec.type_name), default, spec.has_default)


def _defs_json(defs: list) -> str:
    """The JSON constant ``sql.createTable`` / ``createArray`` parse back."""
    return json.dumps([d.to_json() for d in defs])


def _plan_create_table(statement: ast.CreateTable) -> nodes.CreateTablePlan:
    columns = [_column_def(c) for c in statement.columns]
    return nodes.CreateTablePlan(
        statement.name.lower(), _defs_json(columns), statement.if_not_exists
    )


def _plan_create_array(statement: ast.CreateArray) -> nodes.CreateArrayPlan:
    dimensions: list[DimensionDef] = []
    attributes: list[ColumnDef] = []
    for spec in statement.elements:
        if spec.is_dimension:
            atom = atom_for_sql_type(spec.type_name)
            if atom not in _INTEGRAL_ATOMS:
                raise SemanticError(
                    f"dimension {spec.name!r} must have an integral type"
                )
            if spec.dimension_range is None:
                raise SemanticError(
                    f"dimension {spec.name!r}: unbounded dimensions must gain "
                    "a size through coercion; CREATE ARRAY needs a range"
                )
            bounds = spec.dimension_range
            start, step, stop = (
                int(fold_constant(bound)) for bound in (bounds.start, bounds.step, bounds.stop)
            )
            dimensions.append(DimensionDef(spec.name, atom, start, step, stop))
        else:
            attributes.append(_column_def(spec))
    if not dimensions:
        raise SemanticError("CREATE ARRAY needs at least one DIMENSION element")
    if not attributes:
        raise SemanticError("CREATE ARRAY needs at least one cell attribute")
    return nodes.CreateArrayPlan(
        statement.name.lower(),
        _defs_json(dimensions),
        _defs_json(attributes),
        statement.if_not_exists,
    )


def _plan_alter(
    statement: ast.AlterArrayDimension, catalog: Catalog
) -> nodes.AlterDimensionPlan:
    array = catalog.get_array(statement.array)
    array.dimension_def(statement.dimension)  # existence check
    return nodes.AlterDimensionPlan(
        array.name,
        statement.dimension,
        int(fold_constant(statement.range.start)),
        int(fold_constant(statement.range.step)),
        int(fold_constant(statement.range.stop)),
    )


# ------------------------------ DML ------------------------------
def _target_kind(catalog: Catalog, name: str) -> str:
    return "array" if isinstance(catalog.get(name), Array) else "table"


def _plan_insert_values(
    statement: ast.InsertValues, catalog: Catalog
) -> nodes.InsertValuesPlan:
    obj = catalog.get(statement.table)
    columns = list(statement.columns) or obj.column_names()
    for column in columns:
        obj.column_def(column)  # existence check
    rows: list[list[Any]] = []
    for row in statement.rows:
        if len(row) != len(columns):
            raise SemanticError(
                f"INSERT row has {len(row)} values, expected {len(columns)}"
            )
        rows.append([fold_constant(value, allow_params=True) for value in row])
    if isinstance(obj, Array):
        provided = set(columns)
        for dimension in obj.dimensions:
            if dimension.name not in provided:
                raise SemanticError(
                    f"INSERT into array {obj.name!r} must supply dimension "
                    f"{dimension.name!r}"
                )
    return nodes.InsertValuesPlan(
        obj.name, _target_kind(catalog, statement.table), columns, rows
    )


def _plan_insert_select(
    statement: ast.InsertSelect, catalog: Catalog
) -> nodes.InsertSelectPlan:
    obj = catalog.get(statement.table)
    query = plan_select(statement.query, catalog)
    columns = list(statement.columns)
    if not columns:
        if isinstance(obj, Array):
            # Dimension-qualified query items name the coordinates; the
            # remaining items map to attributes in declaration order.
            dim_count = sum(1 for item in query.items if item.is_dimension)
            if dim_count and dim_count != len(obj.dimensions):
                raise SemanticError(
                    f"query yields {dim_count} dimension columns, array "
                    f"{obj.name!r} has {len(obj.dimensions)}"
                )
            value_count = len(query.items) - (dim_count or len(obj.dimensions))
            columns = [d.name for d in obj.dimensions]
            columns += [a.name for a in obj.attributes[:value_count]]
        else:
            columns = obj.column_names()[: len(query.items)]
    if len(columns) != len(query.items):
        raise SemanticError(
            f"INSERT column list has {len(columns)} names, query yields "
            f"{len(query.items)}"
        )
    for column in columns:
        obj.column_def(column)
    return nodes.InsertSelectPlan(
        obj.name, _target_kind(catalog, statement.table), columns, query
    )


def _plan_update(statement: ast.Update, catalog: Catalog) -> nodes.UpdatePlan:
    obj = catalog.get(statement.table)
    source = source_from_catalog(catalog, statement.table, None)
    scope = Scope([source])
    binder = Binder(scope, catalog)
    assignments: list[tuple[str, Any]] = []
    for column, expression in statement.assignments:
        if isinstance(obj, Array) and obj.is_dimension(column):
            raise SemanticError(
                f"cannot UPDATE dimension {column!r}; use ALTER ARRAY"
            )
        obj.column_def(column)
        assignments.append((column, binder.bind(expression)))
    where = binder.bind(statement.where) if statement.where is not None else None
    return nodes.UpdatePlan(
        obj.name, _target_kind(catalog, statement.table), assignments, where
    )


def _plan_delete(statement: ast.Delete, catalog: Catalog) -> nodes.DeletePlan:
    obj = catalog.get(statement.table)
    source = source_from_catalog(catalog, statement.table, None)
    binder = Binder(Scope([source]), catalog)
    where = binder.bind(statement.where) if statement.where is not None else None
    return nodes.DeletePlan(obj.name, _target_kind(catalog, statement.table), where)


# ----------------------------- SELECT ----------------------------
def _default_item_name(expression: Any, index: int) -> str:
    if isinstance(expression, ast.ColumnRef):
        return expression.name
    if isinstance(expression, ast.CellRef):
        return expression.attribute or expression.array
    if isinstance(expression, ast.FunctionCall):
        return expression.name
    return f"col_{index}"


def _build_source(
    table_source: ast.TableSource, catalog: Catalog, sources: list[SourceInfo]
) -> nodes.PlanNode:
    if isinstance(table_source, ast.NamedSource):
        info = source_from_catalog(catalog, table_source.name, table_source.alias)
        index = len(sources)
        sources.append(info)
        return nodes.Scan(info, index)
    if isinstance(table_source, ast.SubquerySource):
        if isinstance(table_source.query, ast.SetOperation):
            plan = _plan_set_operation(table_source.query, catalog)
        else:
            plan = plan_select(table_source.query, catalog)
        columns = [(item.name, item.atom or Atom.INT) for item in plan.items]
        info = SourceInfo(table_source.alias, "", "derived", columns, [])
        index = len(sources)
        sources.append(info)
        return nodes.DerivedScan(plan, info, index)
    if isinstance(table_source, ast.JoinSource):
        left = _build_source(table_source.left, catalog, sources)
        right = _build_source(table_source.right, catalog, sources)
        condition = None
        if table_source.condition is not None:
            binder = Binder(Scope(list(sources)), catalog)
            condition = binder.bind(table_source.condition)
        return nodes.Join(left, right, table_source.kind, condition)
    raise SemanticError(f"unsupported FROM element {type(table_source).__name__}")


def _anchor_offset(expression: Any) -> tuple[str, int]:
    """Extract (dimension name, integer offset) from a tile bound."""
    if isinstance(expression, ast.ColumnRef):
        return expression.name, 0
    if isinstance(expression, ast.BinaryOp) and expression.op in ("+", "-"):
        if isinstance(expression.left, ast.ColumnRef):
            offset = fold_constant(expression.right)
            if not isinstance(offset, int):
                raise SemanticError("tile offsets must be integer constants")
            sign = 1 if expression.op == "+" else -1
            return expression.left.name, sign * offset
    raise SemanticError(
        "tile bounds must be of the form <dimension> or <dimension> ± <int>"
    )


def _tile_spec(
    group_by: ast.TileGroupBy, array: Array
) -> TileSpec:
    if len(group_by.dimensions) != len(array.dimensions):
        raise SemanticError(
            f"tile has {len(group_by.dimensions)} bracket groups, array "
            f"{array.name!r} has {len(array.dimensions)} dimensions"
        )
    ranges: list[tuple[int, int]] = []
    steps: list[int] = []
    for tile_dim, dim_def in zip(group_by.dimensions, array.dimensions):
        low_name, low_offset = _anchor_offset(tile_dim.low)
        if low_name != dim_def.name:
            raise SemanticError(
                f"tile bracket for dimension {dim_def.name!r} references "
                f"{low_name!r}; brackets follow declaration order"
            )
        if tile_dim.high is None:
            high_offset = low_offset + dim_def.step
        else:
            high_name, high_offset = _anchor_offset(tile_dim.high)
            if high_name != dim_def.name:
                raise SemanticError(
                    f"tile bounds must reference the same dimension "
                    f"({low_name!r} vs {high_name!r})"
                )
        ranges.append((low_offset, high_offset))
        steps.append(dim_def.step)
    return TileSpec.from_ranges(ranges, steps)


def _check_grouped(expression: Any, keys: list[Any]) -> None:
    """Check that a grouped output only uses keys, constants, aggregates."""
    if is_aggregate_call(expression) or any(expression == key for key in keys):
        return
    if isinstance(expression, BoundColumn):
        raise SemanticError(
            f"column {expression.column!r} must appear in GROUP BY or inside "
            "an aggregate"
        )
    if isinstance(expression, BoundCellRef):
        raise SemanticError("cell references are not allowed in grouped output")
    for child in ast.children(expression):
        _check_grouped(child, keys)


def plan_select(statement: ast.SelectStatement, catalog: Catalog) -> nodes.QueryPlan:
    """Compile a SELECT into a query plan."""
    sources: list[SourceInfo] = []
    node: Optional[nodes.PlanNode] = None
    for table_source in statement.sources:
        sub_node = _build_source(table_source, catalog, sources)
        node = sub_node if node is None else nodes.Join(node, sub_node, "cross")
    scope = Scope(sources)
    binder = Binder(scope, catalog)

    is_tile = isinstance(statement.group_by, ast.TileGroupBy)
    if statement.where is not None:
        if is_tile:
            raise SemanticError(
                "WHERE cannot be combined with structural GROUP BY; "
                "filter anchors with HAVING instead"
            )
        if node is None:
            raise SemanticError("WHERE without FROM")
        node = nodes.Filter(node, binder.bind(statement.where))

    # --- projection items -------------------------------------------
    items: list[nodes.OutputItem] = []
    for index, item in enumerate(statement.items):
        if isinstance(item.expression, ast.Star):
            for bound in scope.all_columns(item.expression.qualifier):
                items.append(
                    nodes.OutputItem(bound.column, bound, bound.atom, False)
                )
            continue
        bound = binder.bind(item.expression)
        name = item.alias or _default_item_name(item.expression, index)
        items.append(
            nodes.OutputItem(name, bound, bound.atom, item.dimension)
        )
    result_kind = "array" if any(i.is_dimension for i in items) else "table"

    having = (
        binder.bind(statement.having) if statement.having is not None else None
    )

    # --- grouping ----------------------------------------------------
    if is_tile:
        group_by = statement.group_by
        assert isinstance(group_by, ast.TileGroupBy)
        if not isinstance(node, nodes.Scan) or node.source.kind != "array":
            raise SemanticError(
                "structural GROUP BY requires FROM to be exactly the tiled array"
            )
        if group_by.array not in (node.source.alias, node.source.object_name):
            raise SemanticError(
                f"GROUP BY tiles {group_by.array!r} which is not the FROM array"
            )
        array = catalog.get_array(node.source.object_name)
        spec = _tile_spec(group_by, array)
        projecting: nodes.PlanNode = nodes.TileProject(
            node, array.name, spec, items, having
        )
    elif isinstance(statement.group_by, ast.ValueGroupBy):
        keys = [binder.bind(e) for e in statement.group_by.expressions]
        for item in items:
            _check_grouped(item.expression, keys)
        if having is not None:
            _check_grouped(having, keys)
        if node is None:
            raise SemanticError("GROUP BY without FROM")
        projecting = nodes.Aggregate(node, keys, items, having)
    elif any(item.expression.aggregate for item in items):
        for item in items:
            _check_grouped(item.expression, [])
        if having is not None:
            _check_grouped(having, [])
        if node is None:
            raise SemanticError("aggregates need a FROM clause")
        projecting = nodes.ScalarAggregate(node, items, having)
    else:
        if having is not None:
            raise SemanticError("HAVING requires GROUP BY")
        projecting = nodes.Project(node, items) if node is not None else nodes.Project(
            None, items
        )

    # --- distinct / order / limit ------------------------------------
    root: nodes.PlanNode = projecting
    visible_items = list(items)
    if statement.distinct:
        root = nodes.Distinct(root)

    if statement.order_by:
        sort_keys: list[tuple[Any, bool]] = []
        for order in statement.order_by:
            ref = _match_output(order.expression, visible_items)
            if ref is None:
                bound = binder.bind(order.expression)
                if isinstance(projecting, nodes.Aggregate):
                    _check_grouped(bound, projecting.keys)
                hidden_index = len(items)
                items.append(
                    nodes.OutputItem(f"%sort_{hidden_index}", bound, bound.atom, False)
                )
                ref = nodes.OutputRef(hidden_index, bound.atom)
            sort_keys.append((ref, order.descending))
        root = nodes.Sort(root, sort_keys)

    if statement.limit is not None or statement.offset is not None:
        root = nodes.LimitNode(root, statement.limit, statement.offset)

    return nodes.QueryPlan(root, visible_items, result_kind)


def _match_output(
    expression: Any, items: list[nodes.OutputItem]
) -> Optional[nodes.OutputRef]:
    """Match an ORDER BY expression against output column names/positions."""
    if isinstance(expression, ast.Literal) and isinstance(expression.value, int):
        position = expression.value - 1
        if 0 <= position < len(items):
            return nodes.OutputRef(position, items[position].atom)
    if isinstance(expression, ast.ColumnRef) and expression.qualifier is None:
        for index, item in enumerate(items):
            if item.name == expression.name:
                return nodes.OutputRef(index, item.atom)
    return None
