"""Algebra plan → MAL lowering (the "MAL Generator" of Figure 2).

The generator walks a :mod:`repro.algebra.nodes` plan and emits a
linear MAL program.  Conventions:

* every relational node yields a *binding*: a set of head-aligned BAT
  variables, one per visible column, plus a reference variable used
  for alignment (constant broadcasting);
* predicates lower straight from the bound AST into candidate lists
  (:meth:`MALGenerator._select`): comparisons against a scalar, BETWEEN,
  IN and IS NULL become the value selects ``algebra.thetaselect`` /
  ``rangeselect`` / ``inselect`` / ``isnilselect``, conjunctions chain
  them, and only what has no value form goes through a ``bit`` BAT and
  ``algebra.select`` — then ``algebra.projection`` of every referenced
  column, MonetDB's classic select/project dance;
* one expression walker (:meth:`MALGenerator._eval`) serves every
  context; the row, scalar-aggregate, grouped and tiled contexts only
  say how their leaves (columns, grouping keys, aggregate calls)
  resolve and which BAT a scalar broadcasts against.  Element-wise
  evaluation is a lowering decision of that walker: an operator over
  scalars emits ``calc.<name>``, an operator with a BAT operand only
  builds a node, and each maximal element-wise subtree is emitted as
  ONE ``batcalc.expr`` where a BAT is actually needed;
* structural grouping lowers to ``array.tileagg`` per aggregate — a
  tile-size-independent separable kernel; no join is
  ever built (the whole point of the paper's Scenario I comparison).
  Each tiling op carries a JSON tile-spec metadata constant so the
  optimizer passes can compute halo extents and split the op into
  fragment-parallel ``array.tilepart`` calls.  A cell reference
  ``A[x-1][y]`` to the scanned array's own cells at constant offsets
  is the one-cell tile (:meth:`MALGenerator._eval_cell_ref`); any
  other reference gathers through ``array.cellindex``;
* DML lowers to ``sql.update`` / ``sql.append`` / ``sql.delete`` with
  SciQL cell semantics preserved for arrays (DELETE punches holes,
  INSERT overwrites cells in place).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import SemanticError
from repro.gdk.atoms import NUMERIC_ATOMS, Atom
from repro.gdk.calc import NEUTRAL
from repro.catalog import Array, Catalog
from repro.semantic.binder import (
    OP_NAMES,
    SCALAR_FUNCTIONS,
    BoundCellRef,
    BoundColumn,
    Parameter,
    is_aggregate_call,
    source_from_catalog,
)
from repro.sql import ast_nodes as ast
from repro.algebra import nodes
from repro.mal.program import Constant, MALProgram, Param, Var, bat_type, scalar_type

_BAT = "bat"
_SCALAR = "scalar"


@dataclass
class EvalResult:
    """A scalar (variable/constant/parameter) or an aligned BAT.

    A BAT is a variable, or a pending element-wise expression: a node
    ``(name, operand, ...)`` whose operands are nodes, BAT or scalar
    variables, constants and parameters.  Nodes are plain tuples, so a
    sub-expression built twice is one value; :meth:`MALGenerator._force_bat`
    emits a node as one ``batcalc.expr``.
    """

    kind: str  # "bat" | "scalar"
    value: Var | Constant | Param | tuple
    atom: Optional[Atom]


@dataclass
class Binding:
    """Aligned BAT variables for the visible columns of a plan node.

    Candidate lists are propagated *lazily*: a selection or join does
    not copy every payload column through the qualifying oids (the seed
    behaviour); instead each column keeps its base BAT plus a pending
    candidate-list variable, and the payload fetch is emitted only when
    — and if — the column is actually referenced.  Successive row-set
    reductions compose their oid lists with a cheap oid-on-oid
    ``algebra.projection`` instead of re-copying payloads, mirroring how
    MonetDB threads candidate lists between GDK kernels.
    """

    vars: dict[tuple[int, str], str] = field(default_factory=dict)
    atoms: dict[tuple[int, str], Atom] = field(default_factory=dict)
    ref: Optional[str] = None  # any variable of row-set length, for broadcast
    #: ``(source ordinal, array name)`` while the rows are still every
    #: cell of one scanned array in cell order (no filter, no join).
    cells_of: Optional[tuple[int, str]] = None
    #: per-column pending candidate list: (oid var, needs projectionsafe)
    pending: dict[tuple[int, str], Optional[tuple[str, bool]]] = field(
        default_factory=dict
    )

    def column_var(self, generator: "MALGenerator", key: tuple[int, str]) -> str:
        """The column as a row-set-aligned BAT var, fetching it on demand."""
        entry = self.pending.get(key)
        if entry is None:
            return self.vars[key]
        candidates, safe = entry
        op = "projectionsafe" if safe else "projection"
        var = generator.program.emit1(
            "algebra", op, [Var(candidates), Var(self.vars[key])],
            bat_type(self.atoms[key]),
        )
        self.vars[key] = var  # memoize: fetch each column at most once
        self.pending[key] = None
        return var

    def leaf(
        self, generator: "MALGenerator", expression: Any
    ) -> Optional[EvalResult]:
        """Row mode: a bare column or cell reference of the current row."""
        if isinstance(expression, BoundColumn):
            var = self.column_var(generator, (expression.source, expression.column))
            return EvalResult(_BAT, Var(var), expression.atom)
        if isinstance(expression, BoundCellRef):
            return generator._eval_cell_ref(expression, self)
        if is_aggregate_call(expression):
            raise SemanticError("aggregate used outside GROUP BY context")
        return None

    def restrict(self, generator: "MALGenerator", positions: str) -> "Binding":
        """New binding narrowed to *positions* (oids into the current row set).

        Pending candidate lists are composed with an oid-level
        projection — one per distinct list, never per payload column.
        """
        out = Binding(vars=dict(self.vars), atoms=dict(self.atoms), ref=positions)
        composed: dict[str, str] = {}
        for key in self.vars:
            entry = self.pending.get(key)
            if entry is None:
                out.pending[key] = (positions, False)
                continue
            candidates, safe = entry
            if candidates not in composed:
                composed[candidates] = generator.program.emit1(
                    "algebra", "projection",
                    [Var(positions), Var(candidates)], bat_type(Atom.OID),
                )
            out.pending[key] = (composed[candidates], safe)
        return out


def _render(node: Any, leaves: list) -> str:
    """Text of an expression node; *leaves* collects, in first-use order,
    the distinct variables and parameters the text names ``$0``, ``$1``..."""
    if isinstance(node, tuple):
        return f"{node[0]}({','.join(_render(child, leaves) for child in node[1:])})"
    if isinstance(node, Constant):
        return str(node)
    if node not in leaves:
        leaves.append(node)
    return f"${leaves.index(node)}"


def _keeps_cell_order(plan: nodes.InsertSelectPlan, array: Array, catalog: Catalog) -> bool:
    """True when row *i* of the INSERT's query is cell *i* of its target *array*.

    That is ``INSERT INTO A SELECT [x], [y], f(..) FROM A [GROUP BY
    A[..][..]]``: a projection or tiling straight off the unrestricted
    scan of the target itself that hands every dimension back as its own
    bare column.  Any filter, join, ordering, or shifted or computed
    coordinate addresses cells by value instead.
    """
    root = plan.query.root
    scan = getattr(root, "child", None)
    if (
        not isinstance(root, (nodes.Project, nodes.TileProject))
        or not isinstance(scan, nodes.Scan)
        or catalog.get(scan.source.object_name) is not array
    ):
        return False
    if isinstance(root, nodes.TileProject) and root.having is not None:
        if not any(item.is_dimension for item in root.items):
            return False  # table-shaped: HAVING drops rows
    expressions = dict(zip(plan.columns, (item.expression for item in root.items)))
    return all(
        expressions[d.name] == BoundColumn(scan.source_index, d.name, d.atom, True)
        for d in array.dimensions
    )


def _tile_meta(array: Array, offsets) -> str:
    """The one canonical metadata constant of a tiling op: the optimizer
    passes (mitosis/mergetable) parse it to size halo fragments."""
    return json.dumps(
        {"shape": list(array.shape()), "offsets": [list(o) for o in offsets]}
    )


def _own_cell_offsets(
    expression: BoundCellRef, binding: Binding, array: Array, catalog: Catalog
) -> Optional[list[int]]:
    """Per-dimension rank offsets when *expression* reads the scanned
    array itself at its own cells shifted by constants, else ``None``.

    That is ``A[x-1][y]`` over an unrestricted scan of ``A`` with a
    numeric attribute: every index is the dimension of its own position
    plus or minus an integer literal that is a multiple of the
    dimension's step (any other constant never names a valid cell)."""
    if (
        binding.cells_of is None
        or catalog.get(binding.cells_of[1]) is not array
        or expression.atom not in NUMERIC_ATOMS
    ):
        return None
    offsets: list[int] = []
    for index, dimension in zip(expression.indexes, array.dimensions):
        own = BoundColumn(binding.cells_of[0], dimension.name, dimension.atom, True)
        delta = 0
        if (
            isinstance(index, ast.BinaryOp)
            and index.op in ("+", "-")
            and isinstance(index.right, ast.Literal)
            and isinstance(index.right.value, int)
        ):
            delta = index.right.value if index.op == "+" else -index.right.value
            index = index.left
        if index != own or delta % dimension.step:
            return None
        offsets.append(delta // dimension.step)
    return offsets


def _source_indexes(node: nodes.PlanNode) -> set[int]:
    if isinstance(node, nodes.Scan):
        return {node.source_index}
    if isinstance(node, nodes.DerivedScan):
        return {node.source_index}
    if isinstance(node, nodes.Join):
        return _source_indexes(node.left) | _source_indexes(node.right)
    if isinstance(node, nodes.Filter):
        return _source_indexes(node.child)
    raise SemanticError(f"unexpected relational node {type(node).__name__}")


def _expression_sources(expression: Any) -> set[int]:
    """Source ordinals of every column referenced inside *expression*."""
    if isinstance(expression, BoundColumn):
        return {expression.source}
    return set().union(*map(_expression_sources, ast.children(expression)))


def _split_equi_conjuncts(
    condition: Any, left_sources: set[int], right_sources: set[int]
) -> tuple[list[tuple[Any, Any]], list[Any]]:
    """Partition an ON condition into equi pairs (left, right) + residual."""
    conjuncts: list[Any] = []

    def flatten(expr: Any) -> None:
        if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
            flatten(expr.left)
            flatten(expr.right)
        else:
            conjuncts.append(expr)

    flatten(condition)
    equi: list[tuple[Any, Any]] = []
    residual: list[Any] = []
    for conjunct in conjuncts:
        if isinstance(conjunct, ast.BinaryOp) and conjunct.op == "=":
            ls = _expression_sources(conjunct.left)
            rs = _expression_sources(conjunct.right)
            if ls and rs:
                if ls <= left_sources and rs <= right_sources:
                    equi.append((conjunct.left, conjunct.right))
                    continue
                if ls <= right_sources and rs <= left_sources:
                    equi.append((conjunct.right, conjunct.left))
                    continue
        residual.append(conjunct)
    return equi, residual


#: SQL comparison → theta operator of the select family.
_THETA = {
    "=": "==", "<>": "!=", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
}
#: theta operator with its operands swapped (scalar <op> column).
_FLIP = {"==": "==", "!=": "!=", ">": "<", ">=": "<=", "<": ">", "<=": ">="}
#: theta operator under NOT (a NULL operand matches neither way).
_NEGATE = {"==": "!=", "!=": "==", ">": "<=", ">=": "<", "<": ">=", "<=": ">"}
#: bound operators → whether the bound is inclusive.
_LOWER = {">": False, ">=": True}
_UPPER = {"<": False, "<=": True}


class MALGenerator:
    """Lowers statement plans to MAL programs."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self.program = MALProgram()

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def generate(self, plan: nodes.StatementPlan) -> MALProgram:
        self.program = MALProgram()
        if isinstance(plan, nodes.QueryPlan):
            self._emit_result(plan)
        elif isinstance(plan, nodes.SetOpPlan):
            self._emit_set_operation_result(plan)
        elif isinstance(plan, nodes.CreateTablePlan):
            self.program.emit(
                "sql", "createTable",
                [plan.name, plan.columns_json, plan.if_not_exists],
                [scalar_type(Atom.INT)],
            )
        elif isinstance(plan, nodes.CreateArrayPlan):
            self.program.emit(
                "sql", "createArray",
                [plan.name, plan.dimensions_json, plan.attributes_json,
                 plan.if_not_exists],
                [scalar_type(Atom.INT)],
            )
        elif isinstance(plan, nodes.DropPlan):
            self.program.emit(
                "sql", "dropObject", [plan.name, plan.if_exists],
                [scalar_type(Atom.INT)],
            )
        elif isinstance(plan, nodes.AlterDimensionPlan):
            self.program.emit(
                "sql", "alterDimension",
                [plan.array, plan.dimension, plan.start, plan.step, plan.stop],
                [scalar_type(Atom.INT)],
            )
        elif isinstance(plan, nodes.InsertValuesPlan):
            self._emit_insert_values(plan)
        elif isinstance(plan, nodes.InsertSelectPlan):
            self._emit_insert_select(plan)
        elif isinstance(plan, nodes.UpdatePlan):
            self._emit_update(plan)
        elif isinstance(plan, nodes.DeletePlan):
            self._emit_delete(plan)
        else:
            raise SemanticError(f"cannot lower plan {type(plan).__name__}")
        self.program.validate()
        return self.program

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    def _emit_result(self, plan: nodes.QueryPlan) -> None:
        output_vars, all_items = self._emit_output(plan.root)
        visible = output_vars[: len(plan.items)]
        names = [item.name for item in plan.items]
        meta = {
            "dims": [item.name for item in plan.items if item.is_dimension],
            "atoms": [
                (item.atom.value if item.atom else None) for item in plan.items
            ],
        }
        args: list[Any] = [
            plan.result_kind,
            json.dumps(names),
            json.dumps(meta),
        ]
        args.extend(Var(v) for v in visible)
        self.program.emit("sql", "resultSet", args, [scalar_type(Atom.INT)])
        self.program.result_columns = list(zip(names, visible))
        self.program.result_kind = plan.result_kind

    def _emit_set_operation_result(self, plan: nodes.SetOpPlan) -> None:
        output_vars = self._emit_set_operation(plan)
        names = [item.name for item in plan.items]
        meta = {
            "dims": [item.name for item in plan.items if item.is_dimension],
            "atoms": [
                (item.atom.value if item.atom else None) for item in plan.items
            ],
        }
        args: list[Any] = [plan.result_kind, json.dumps(names), json.dumps(meta)]
        args.extend(Var(v) for v in output_vars)
        self.program.emit("sql", "resultSet", args, [scalar_type(Atom.INT)])
        self.program.result_columns = list(zip(names, output_vars))
        self.program.result_kind = plan.result_kind

    def _emit_query_side(self, plan) -> list[str]:
        """Output vars of one side of a set operation (visible columns)."""
        if isinstance(plan, nodes.SetOpPlan):
            return self._emit_set_operation(plan)
        output_vars, _ = self._emit_output(plan.root)
        return output_vars[: len(plan.items)]

    def _emit_set_operation(self, plan: nodes.SetOpPlan) -> list[str]:
        left_vars = self._emit_query_side(plan.left)
        right_vars = self._emit_query_side(plan.right)
        # Reconcile atoms: cast both sides to the merged item atoms.
        atoms = [item.atom or Atom.INT for item in plan.items]
        cast_left = [self._cast_var(v, atom) for v, atom in zip(left_vars, atoms)]
        cast_right = [self._cast_var(v, atom) for v, atom in zip(right_vars, atoms)]
        if plan.op == "union":
            merged = [
                self.program.emit1(
                    "bat", "append", [Var(l), Var(r)], self.program.type_of(l)
                )
                for l, r in zip(cast_left, cast_right)
            ]
            if plan.all:
                return merged
            return self._distinct_vars(merged)
        # EXCEPT / INTERSECT: membership of left rows in the right set.
        membership = self.program.emit1(
            "algebra", "rowmembership",
            [len(cast_left)]
            + [Var(v) for v in cast_left]
            + [Var(v) for v in cast_right],
            bat_type(Atom.BIT),
        )
        if plan.op == "except":
            membership = self._force_bat(
                EvalResult(_BAT, ("not", Var(membership)), Atom.BIT), None
            )
        return self._distinct_vars(
            self._project(self._select_true(membership), cast_left)
        )

    def _distinct_vars(self, variables: list[str]) -> list[str]:
        """Duplicate elimination over aligned result columns."""
        if not variables:
            return variables
        _, extents = self._group_by(variables)
        return self._project(extents, variables)

    def _group_by(self, key_vars: list[str]) -> tuple[str, str]:
        """(group ids, extents) of the grouping refined key by key."""
        groups = extents = None
        for key_var in key_vars:
            if groups is None:
                groups, extents, _ = self.program.emit(
                    "group", "group", [Var(key_var)],
                    [bat_type(Atom.OID), bat_type(Atom.OID), bat_type(Atom.OID)],
                )
            else:
                groups, extents, _ = self.program.emit(
                    "group", "subgroup", [Var(key_var), Var(groups)],
                    [bat_type(Atom.OID), bat_type(Atom.OID), bat_type(Atom.OID)],
                )
        return groups, extents

    def _project(self, positions: str, variables: list[str]) -> list[str]:
        """Every aligned column of *variables* fetched at *positions*."""
        return [
            self.program.emit1(
                "algebra", "projection", [Var(positions), Var(v)],
                self.program.type_of(v),
            )
            for v in variables
        ]

    def _emit_output(
        self, node: nodes.PlanNode, casts: Optional[list[Atom]] = None
    ) -> tuple[list[str], list[nodes.OutputItem]]:
        """Emit a projecting pipeline; returns aligned output vars + items.

        *casts* are the atoms a DML target wants the leading outputs in.
        A projecting root applies them inside its items' expressions;
        above a LIMIT/ORDER BY/DISTINCT they are cast afterwards, since
        those do not commute with a cast.
        """
        fused = isinstance(node, (nodes.Aggregate, nodes.TileProject)) or (
            isinstance(node, nodes.Project) and node.child is not None
        )
        if casts is not None and not fused:
            output, items = self._emit_output(node)
            cast = [
                self._cast_var(var, atom) if atom else var
                for var, atom in zip(output, casts)
            ]
            return cast + output[len(cast):], items
        if isinstance(node, nodes.LimitNode):
            child_vars, items = self._emit_output(node.child)
            start = node.offset or 0
            stop = start + node.limit if node.limit is not None else 2**62
            out = [
                self.program.emit1(
                    "bat", "slice", [Var(v), start, stop],
                    self.program.type_of(v),
                )
                for v in child_vars
            ]
            return out, items
        if isinstance(node, nodes.Sort):
            child_vars, items = self._emit_output(node.child)
            key_vars: list[str] = []
            flags: list[bool] = []
            for ref, descending in node.keys:
                if not isinstance(ref, nodes.OutputRef):
                    raise SemanticError("sort keys must be output references")
                key_vars.append(child_vars[ref.index])
                flags.append(descending)
            order = self.program.emit1(
                "algebra", "sortmulti",
                [json.dumps(flags)] + [Var(v) for v in key_vars],
                bat_type(Atom.OID),
            )
            return self._project(order, child_vars), items
        if isinstance(node, nodes.Distinct):
            child_vars, items = self._emit_output(node.child)
            return self._distinct_vars(child_vars), items
        if isinstance(node, nodes.Project):
            return self._emit_project(node, casts), node.items
        if isinstance(node, nodes.Aggregate):
            return self._emit_aggregate(node, casts), node.items
        if isinstance(node, nodes.ScalarAggregate):
            return self._emit_scalar_aggregate(node), node.items
        if isinstance(node, nodes.TileProject):
            return self._emit_tile(node, casts), node.items
        raise SemanticError(f"unexpected output node {type(node).__name__}")

    def _items(
        self, items: list, ctx, casts: Optional[list[Atom]], guard: Optional[Var] = None
    ) -> list[str]:
        """One aligned BAT per output item, cast where a DML target asks;
        under a *guard* bit BAT the non-dimension items are NULL where it
        is not TRUE."""
        output = []
        for index, item in enumerate(items):
            result = self._eval(item.expression, ctx)
            if guard is not None and not item.is_dimension:
                result = self._calc(
                    "case", [guard, result.value, Constant(None)],
                    _BAT, result.atom or item.atom,
                )
            if casts is not None and index < len(casts) and casts[index]:
                result = self._cast(result, casts[index])
            output.append(self._force_bat(result, ctx, item.atom))
        return output

    # ------------------------------------------------------------------
    # relational sub-tree
    # ------------------------------------------------------------------
    def _emit_relational(self, node: nodes.PlanNode) -> Binding:
        if isinstance(node, nodes.Scan):
            binding = Binding()
            for column, atom in node.source.columns:
                var = self.program.emit1(
                    "sql", "bind", [node.source.object_name, column],
                    bat_type(atom),
                    comment=f"{node.source.alias}.{column}",
                )
                binding.vars[(node.source_index, column)] = var
                binding.atoms[(node.source_index, column)] = atom
            binding.ref = next(iter(binding.vars.values()), None)
            if node.source.kind == "array":
                binding.cells_of = (node.source_index, node.source.object_name)
            return binding
        if isinstance(node, nodes.DerivedScan):
            output_vars = self._emit_query_side(node.plan)
            binding = Binding()
            for (column, atom), var in zip(node.source.columns, output_vars):
                binding.vars[(node.source_index, column)] = var
                binding.atoms[(node.source_index, column)] = atom
            binding.ref = next(iter(binding.vars.values()), None)
            return binding
        if isinstance(node, nodes.Filter):
            binding = self._emit_relational(node.child)
            return binding.restrict(self, self._select(node.predicate, binding))
        if isinstance(node, nodes.Join):
            return self._emit_join(node)
        raise SemanticError(f"unexpected relational node {type(node).__name__}")

    def _emit_join(self, node: nodes.Join) -> Binding:
        left = self._emit_relational(node.left)
        right = self._emit_relational(node.right)
        left_sources = _source_indexes(node.left)
        right_sources = _source_indexes(node.right)

        def combine(loids: str, roids: str, safe_right: bool = False) -> Binding:
            """Joined binding: payload fetches stay pending behind the oids."""
            out = Binding(atoms={**left.atoms, **right.atoms}, ref=loids)
            for side, oids in ((left, loids), (right, roids)):
                composed: dict[str, str] = {}
                for key, var in side.vars.items():
                    if side is right and safe_right:
                        # Left-outer right side: roids may hold -1, which
                        # plain oid composition cannot thread; fetch the
                        # column through any pending list first and mark
                        # it for projectionsafe.
                        out.vars[key] = side.column_var(self, key)
                        out.pending[key] = (roids, True)
                        continue
                    out.vars[key] = var
                    entry = side.pending.get(key)
                    if entry is None:
                        out.pending[key] = (oids, False)
                        continue
                    candidates, safe = entry
                    if candidates not in composed:
                        composed[candidates] = self.program.emit1(
                            "algebra", "projection",
                            [Var(oids), Var(candidates)], bat_type(Atom.OID),
                        )
                    out.pending[key] = (composed[candidates], safe)
            return out

        if node.kind == "cross" or node.condition is None:
            if node.kind == "left":
                raise SemanticError("LEFT JOIN requires an ON condition")
            lcount = self.program.emit1(
                "bat", "getcount", [Var(left.ref)], scalar_type(Atom.LNG)
            )
            rcount = self.program.emit1(
                "bat", "getcount", [Var(right.ref)], scalar_type(Atom.LNG)
            )
            loids, roids = self.program.emit(
                "algebra", "crossproduct", [Var(lcount), Var(rcount)],
                [bat_type(Atom.OID), bat_type(Atom.OID)],
            )
            return combine(loids, roids)

        equi, residual = _split_equi_conjuncts(
            node.condition, left_sources, right_sources
        )
        if equi:
            left_key, right_key = equi[0]
            key_left = self._force_bat(self._eval(left_key, left), left)
            key_right = self._force_bat(self._eval(right_key, right), right)
            if node.kind == "left":
                if equi[1:] or residual:
                    raise SemanticError(
                        "LEFT JOIN supports a single equality condition"
                    )
                loids, roids = self.program.emit(
                    "algebra", "leftjoin", [Var(key_left), Var(key_right)],
                    [bat_type(Atom.OID), bat_type(Atom.OID)],
                )
                return combine(loids, roids, safe_right=True)
            loids, roids = self.program.emit(
                "algebra", "join", [Var(key_left), Var(key_right)],
                [bat_type(Atom.OID), bat_type(Atom.OID)],
            )
            binding = combine(loids, roids)
            leftover = equi[1:]
            extra = [ast.BinaryOp("=", a, b, atom=Atom.BIT) for a, b in leftover] + residual
        else:
            if node.kind == "left":
                raise SemanticError("LEFT JOIN requires an equality condition")
            lcount = self.program.emit1(
                "bat", "getcount", [Var(left.ref)], scalar_type(Atom.LNG)
            )
            rcount = self.program.emit1(
                "bat", "getcount", [Var(right.ref)], scalar_type(Atom.LNG)
            )
            loids, roids = self.program.emit(
                "algebra", "crossproduct", [Var(lcount), Var(rcount)],
                [bat_type(Atom.OID), bat_type(Atom.OID)],
            )
            binding = combine(loids, roids)
            extra = [node.condition]
        for conjunct in extra:
            binding = binding.restrict(self, self._select(conjunct, binding))
        return binding

    # ------------------------------------------------------------------
    # projecting nodes
    # ------------------------------------------------------------------
    def _emit_project(self, node: nodes.Project, casts=None) -> list[str]:
        if node.child is None:
            # FROM-less SELECT: every item must be scalar; one result row.
            out: list[str] = []
            for item in node.items:
                result = self._eval(item.expression, Binding())
                if result.kind != _SCALAR:
                    raise SemanticError("SELECT without FROM must be constant")
                out.append(
                    self.program.emit1(
                        "bat", "pack", [result.value],
                        bat_type(result.atom or Atom.INT),
                    )
                )
            return out
        return self._items(node.items, self._emit_relational(node.child), casts)

    def _emit_aggregate(self, node: nodes.Aggregate, casts=None) -> list[str]:
        binding = self._emit_relational(node.child)
        key_vars: list[str] = []
        for key in node.keys:
            key_vars.append(
                self._force_bat(self._eval(key, binding), binding)
            )
        groups, extents = self._group_by(key_vars)
        ngroups = self.program.emit1(
            "bat", "getcount", [Var(extents)], scalar_type(Atom.LNG)
        )
        grouped = _GroupedContext(
            binding, node.keys, key_vars, groups, extents, ngroups
        )
        output = self._items(node.items, grouped, casts)
        if node.having is not None:
            output = self._project(self._select(node.having, grouped), output)
        return output

    def _emit_scalar_aggregate(self, node: nodes.ScalarAggregate) -> list[str]:
        scalar = _ScalarContext(self._emit_relational(node.child))
        out: list[str] = []
        for item in node.items:
            result = self._eval(item.expression, scalar)
            out.append(
                self.program.emit1(
                    "bat", "pack", [result.value],
                    bat_type(result.atom or item.atom or Atom.INT),
                )
            )
        if node.having is not None:
            scalar.ref = out[0]  # the one output row
            out = self._project(self._select(node.having, scalar), out)
        return out

    def _emit_tile(self, node: nodes.TileProject, casts=None) -> list[str]:
        binding = self._emit_relational(node.child)
        array = self.catalog.get_array(node.array_name)
        tile = _TileContext(binding, _tile_meta(array, node.spec.offsets))
        guard = None
        if node.having is not None and any(item.is_dimension for item in node.items):
            # Array-shaped result: non-qualifying anchors stay in the
            # array but their aggregate values become NULL (Fig 1(e)) —
            # the predicate joins each value's expression as a CASE.
            guard = Var(self._force_bat(self._eval(node.having, tile), tile, Atom.BIT))
        output = self._items(node.items, tile, casts, guard)
        if node.having is None or guard is not None:
            return output
        return self._project(self._select(node.having, tile), output)

    # ------------------------------------------------------------------
    # predicates → candidate lists
    # ------------------------------------------------------------------
    def _select(self, predicate: Any, ctx) -> str:
        """Candidate list of the rows of *ctx* on which *predicate* is TRUE.

        The one predicate lowering.  Conjuncts that compare a BAT with a
        scalar (literal, parameter or computed scalar) become value
        selects, which never materialise a bit column and let the kernel
        consult zone statistics; everything else is evaluated to a bit
        BAT.  The value selects run first, each feeding its candidates
        to the next, so the bit columns are only read where rows
        survive.  Value selects skip NULL rows, which is exactly the
        rows SQL's three-valued logic makes non-TRUE.
        """
        chain: list[tuple[str, str, list]] = []
        bits: list[str] = []
        self._conjunct(predicate, False, ctx, chain, bits)
        candidates = None
        for module, function, args in chain:
            if candidates is not None:
                args = args + [Var(candidates)]
            candidates = self.program.emit1(
                module, function, args, bat_type(Atom.OID)
            )
        for bit_var in bits:
            candidates = self._select_true(bit_var, candidates)
        return candidates

    def _select_true(self, bits: str, candidates: Optional[str] = None) -> str:
        """Oids (within *candidates*) where the bit BAT *bits* is TRUE."""
        args = [Var(bits)] if candidates is None else [Var(bits), Var(candidates)]
        return self.program.emit1("algebra", "select", args, bat_type(Atom.OID))

    def _conjunct(
        self, node: Any, negated: bool, ctx, chain: list, bits: list[str]
    ) -> None:
        """Lower ``[NOT] node``: a value select appended to *chain*, or a
        bit BAT appended to *bits* when the conjunct has no value form."""
        if isinstance(node, ast.UnaryOp) and node.op == "NOT":
            self._conjunct(node.operand, not negated, ctx, chain, bits)
            return
        if isinstance(node, ast.BinaryOp) and node.op == ("OR" if negated else "AND"):
            # NOT (a OR b) is NOT a AND NOT b, in three-valued logic too.
            self._conjunct(node.left, negated, ctx, chain, bits)
            self._conjunct(node.right, negated, ctx, chain, bits)
            return
        if isinstance(node, ast.BinaryOp) and node.op in _THETA:
            left = self._eval(node.left, ctx)
            right = self._eval(node.right, ctx)
            op = _THETA[node.op]
            if left.kind == _SCALAR and right.kind == _BAT:
                left, right, op = right, left, _FLIP[op]
            if left.kind == _BAT and right.kind == _SCALAR:
                self._theta(
                    chain, self._bat(left, ctx), _NEGATE[op] if negated else op, right.value
                )
                return
            truth = self._binary(node.op, left, right, Atom.BIT)
        elif isinstance(node, ast.IsNull):
            operand = self._eval(node.operand, ctx)
            if operand.kind == _BAT:
                chain.append(
                    ("algebra", "isnilselect",
                     [self._bat(operand, ctx), node.negated == negated])
                )
                return
            truth = self._is_null(node, operand)
        elif isinstance(node, ast.Between):
            operand, low, high = (
                self._eval(part, ctx) for part in (node.operand, node.low, node.high)
            )
            if operand.kind == _BAT and low.kind == high.kind == _SCALAR:
                chain.append(
                    (
                        "algebra", "rangeselect",
                        [self._bat(operand, ctx), low.value, high.value, True, True,
                         node.negated != negated],
                    )
                )
                return
            truth = self._between(node, operand, low, high)
        elif isinstance(node, ast.InList):
            operand = self._eval(node.operand, ctx)
            if operand.kind == _BAT and all(
                isinstance(item, ast.Literal) for item in node.items
            ):
                values = [item.value for item in node.items]
                column = self._bat(operand, ctx)
                if node.negated == negated:
                    chain.append(("algebra", "inselect", [column, json.dumps(values)]))
                else:
                    # NOT IN is a conjunction of <> (never TRUE once the
                    # list holds a NULL).
                    for value in values:
                        self._theta(chain, column, "!=", Constant(value))
                return
            truth = self._in_list(
                node, operand, [self._eval(item, ctx) for item in node.items]
            )
        else:
            truth = self._eval(node, ctx)
        if negated:
            truth = self._unary("NOT", truth)
        bits.append(self._force_bat(truth, ctx, Atom.BIT))

    @staticmethod
    def _theta(chain: list, operand: Var, op: str, value: Any) -> None:
        """Append ``operand <op> value``; a lower and an upper bound on
        one operand in a row fuse into a single ``algebra.rangeselect``
        (exact for a parameter bound to NULL too: the kernel reads a
        NULL bound as unknown, like ``thetaselect``'s NULL value)."""
        if chain and chain[-1][1] == "thetaselect" and chain[-1][2][0] == operand:
            _, prior_value, prior_op = chain[-1][2]
            for (low, low_op), (high, high_op) in (
                ((prior_value, prior_op), (value, op)),
                ((value, op), (prior_value, prior_op)),
            ):
                if low_op in _LOWER and high_op in _UPPER:
                    chain[-1] = (
                        "algebra", "rangeselect",
                        [operand, low, high, _LOWER[low_op], _UPPER[high_op], False],
                    )
                    return
        chain.append(("algebra", "thetaselect", [operand, value, op]))

    # ------------------------------------------------------------------
    # expression evaluation
    # ------------------------------------------------------------------
    def _force_bat(self, result: EvalResult, ctx, atom: Optional[Atom] = None) -> str:
        """Ensure an evaluation result is a BAT aligned with *ctx*'s rows.

        A pending expression is emitted here, as one ``batcalc.expr``:
        the rendered text, then the distinct leaves it names ``$0..``.
        """
        if result.kind == _BAT:
            if isinstance(result.value, Var):
                return result.value.name
            leaves: list = []
            text = _render(result.value, leaves)
            return self.program.emit1(
                "batcalc", "expr", [Constant(text)] + leaves,
                bat_type(result.atom or atom),
            )
        if ctx.ref is None:
            raise SemanticError("cannot broadcast a constant without a FROM row set")
        target = result.atom or atom
        if target is None and not isinstance(result.value, Param):
            target = Atom.INT
        # An untyped parameter stays untyped: the runtime infers the atom
        # from the bound value instead of coercing through a guess.
        return self.program.emit1(
            "bat", "project_const",
            [Var(ctx.ref), result.value, target.value if target else None],
            bat_type(target),
        )

    def _bat(self, result: EvalResult, ctx) -> Var:
        return Var(self._force_bat(result, ctx))

    def _cast(self, result: EvalResult, atom: Atom) -> EvalResult:
        """*result* as *atom*.  The static atom cannot excuse the cast (an
        untyped parameter may widen the value at run time); the kernel
        passes a column already of the target atom through untouched."""
        return self._calc("cast", [result.value, Constant(atom.value)], result.kind, atom)

    def _cast_var(self, var: str, atom: Atom) -> str:
        return self._force_bat(self._cast(EvalResult(_BAT, Var(var), None), atom), None)

    def _eval(self, expression: Any, ctx) -> EvalResult:
        """Evaluate a bound expression — the one expression walker.

        *ctx* resolves the leaves that differ between contexts (bare
        columns, grouping keys, aggregate calls) and names the BAT a
        scalar broadcasts against; the operator case analysis below is
        the same everywhere, and :meth:`_calc` decides from the operand
        kinds whether an operator is a ``calc`` instruction or a node of
        a pending element-wise expression.
        """
        leaf = ctx.leaf(self, expression)
        if leaf is not None:
            return leaf
        if isinstance(expression, ast.Literal):
            return EvalResult(_SCALAR, Constant(expression.value), expression.atom)
        if isinstance(expression, Parameter):
            return EvalResult(_SCALAR, Param(expression.key), expression.atom)
        if isinstance(expression, ast.BinaryOp):
            return self._binary(
                expression.op,
                self._eval(expression.left, ctx),
                self._eval(expression.right, ctx),
                expression.atom,
            )
        if isinstance(expression, ast.UnaryOp):
            return self._unary(expression.op, self._eval(expression.operand, ctx))
        if isinstance(expression, ast.FunctionCall):
            return self._function(expression, self._eval(expression.args[0], ctx))
        if isinstance(expression, ast.CaseExpression):
            return self._case(expression, ctx)
        if isinstance(expression, ast.IsNull):
            return self._is_null(expression, self._eval(expression.operand, ctx))
        if isinstance(expression, ast.InList):
            return self._in_list(
                expression,
                self._eval(expression.operand, ctx),
                [self._eval(item, ctx) for item in expression.items],
            )
        if isinstance(expression, ast.Between):
            return self._between(
                expression,
                self._eval(expression.operand, ctx),
                self._eval(expression.low, ctx),
                self._eval(expression.high, ctx),
            )
        if isinstance(expression, ast.CastExpression):
            return self._cast(self._eval(expression.operand, ctx), expression.atom)
        raise SemanticError(f"cannot evaluate {type(expression).__name__}")

    def _calc(
        self,
        name: str,
        args: list,
        kind: str,
        atom: Optional[Atom],
        default: Optional[Atom] = None,
    ) -> EvalResult:
        """``calc.<name>`` over scalars; over BATs a node, emitted later."""
        if kind == _BAT:
            return EvalResult(_BAT, (name, *args), atom or default)
        var = self.program.emit1("calc", name, args, scalar_type(atom or default))
        return EvalResult(_SCALAR, Var(var), atom)

    def _binary(
        self, op: str, left: EvalResult, right: EvalResult, atom: Optional[Atom]
    ) -> EvalResult:
        name = OP_NAMES[op]
        for index, (constant, other) in enumerate(((left, right), (right, left))):
            # A neutral literal operand (x + 0, x AND TRUE, ...) leaves
            # the other operand itself — no node, no ``calc`` instruction.
            if (
                atom is not None
                and other.atom is atom
                and isinstance(constant.value, Constant)
                and (name, index, constant.value.value) in NEUTRAL
            ):
                return other
        kind = _SCALAR if left.kind == right.kind == _SCALAR else _BAT
        return self._calc(name, [left.value, right.value], kind, atom, Atom.INT)

    def _unary(self, op: str, operand: EvalResult) -> EvalResult:
        if op == "NOT":
            return self._calc("not", [operand.value], operand.kind, Atom.BIT)
        return self._calc("negate", [operand.value], operand.kind, operand.atom, Atom.INT)

    def _function(
        self, expression: ast.FunctionCall, operand: EvalResult
    ) -> EvalResult:
        """Apply a non-aggregate function to its evaluated first argument."""
        from repro.algebra.compiler import fold_constant

        name, literal = SCALAR_FUNCTIONS[expression.name]
        args = [operand.value]
        if literal is not None:
            args.append(Constant(literal))
        elif name == "substring":
            if len(expression.args) not in (2, 3):
                raise SemanticError("SUBSTRING needs (string, start[, length])")
            args += [Constant(int(fold_constant(a))) for a in expression.args[1:]]
        elif name == "like":
            if len(expression.args) != 2:
                raise SemanticError("LIKE needs (string, pattern)")
            args.append(Constant(fold_constant(expression.args[1])))
        return self._calc(name, args, operand.kind, expression.atom)

    def _case(self, expression: ast.CaseExpression, ctx) -> EvalResult:
        """``case(cond, value, ..., otherwise)``: one n-ary operator."""
        operands: list[EvalResult] = []
        for condition, value in expression.whens:
            operands += [self._eval(condition, ctx), self._eval(value, ctx)]
        if expression.otherwise is not None:
            operands.append(self._eval(expression.otherwise, ctx))
        else:
            operands.append(EvalResult(_SCALAR, Constant(None), None))
        kind = _BAT if any(o.kind == _BAT for o in operands) else _SCALAR
        atom = expression.atom or operands[1].atom
        return self._calc("case", [o.value for o in operands], kind, atom, Atom.INT)

    def _is_null(self, expression: ast.IsNull, operand: EvalResult) -> EvalResult:
        result = self._calc("isnil", [operand.value], operand.kind, Atom.BIT)
        return self._unary("NOT", result) if expression.negated else result

    def _in_list(
        self, expression: ast.InList, operand: EvalResult, items: list[EvalResult]
    ) -> EvalResult:
        result: Optional[EvalResult] = None
        for item in items:
            comparison = self._binary("=", operand, item, Atom.BIT)
            if result is None:
                result = comparison
            else:
                result = self._binary("OR", result, comparison, Atom.BIT)
        assert result is not None
        return self._unary("NOT", result) if expression.negated else result

    def _between(
        self,
        expression: ast.Between,
        operand: EvalResult,
        low: EvalResult,
        high: EvalResult,
    ) -> EvalResult:
        result = self._binary(
            "AND",
            self._binary(">=", operand, low, Atom.BIT),
            self._binary("<=", operand, high, Atom.BIT),
            Atom.BIT,
        )
        return self._unary("NOT", result) if expression.negated else result

    def _eval_cell_ref(
        self, expression: BoundCellRef, binding: Binding
    ) -> EvalResult:
        array = self.catalog.get_array(expression.array)
        offsets = _own_cell_offsets(expression, binding, array, self.catalog)
        if offsets is not None:
            # A constant shift of the scanned array's own cells is the
            # one-cell tile: cell-aligned, NULL where it leaves the array,
            # and halo-fragmented like any other tile — no gather.
            attribute = binding.column_var(
                self, (binding.cells_of[0], expression.attribute)
            )
            if any(offsets):
                attribute = self.program.emit1(
                    "array", "tileagg",
                    [Var(attribute), "min", _tile_meta(array, [(o,) for o in offsets])],
                    bat_type(expression.atom),
                )
            return EvalResult(_BAT, Var(attribute), expression.atom)
        oids = self._cellindex(
            array,
            [
                self._force_bat(self._eval(index, binding), binding, Atom.LNG)
                for index in expression.indexes
            ],
        )
        attribute = self.program.emit1(
            "sql", "bind", [expression.array, expression.attribute],
            bat_type(expression.atom),
        )
        var = self.program.emit1(
            "algebra", "projectionsafe", [Var(oids), Var(attribute)],
            bat_type(expression.atom),
        )
        return EvalResult(_BAT, Var(var), expression.atom)

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------
    def _pack_column(self, values: list[Any], atom: Atom) -> str:
        packed = self.program.emit1(
            "bat", "pack",
            [
                Param(v.key) if isinstance(v, Parameter) else Constant(v)
                for v in values
            ],
            bat_type(None),
        )
        return self._cast_var(packed, atom)

    def _emit_insert_values(self, plan: nodes.InsertValuesPlan) -> None:
        obj = self.catalog.get(plan.target)
        per_column: dict[str, list[Any]] = {c: [] for c in plan.columns}
        for row in plan.rows:
            for column, value in zip(plan.columns, row):
                per_column[column].append(value)
        if plan.target_kind == "table":
            bats = [
                Var(self._pack_column(per_column[c], obj.column_def(c).atom))
                for c in plan.columns
            ]
            count = self.program.emit1(
                "sql", "append",
                [plan.target, json.dumps(plan.columns)] + bats,
                scalar_type(Atom.INT),
            )
            self.program.emit("sql", "affected", [Var(count)], [scalar_type(Atom.INT)])
            return
        array = self.catalog.get_array(plan.target)
        column_vars = {
            column: self._pack_column(
                per_column[column],
                Atom.LNG if array.is_dimension(column) else array.attribute_def(column).atom,
            )
            for column in plan.columns
        }
        oids = self._cellindex(array, [column_vars[d.name] for d in array.dimensions])
        self._update_cells(plan.target, array, oids, column_vars)

    def _cellindex(self, array: Array, coordinates: list[str]) -> str:
        """Cell oids of per-row coordinates, one BAT per dimension."""
        return self.program.emit1(
            "array", "cellindex",
            [
                json.dumps(list(array.shape())),
                json.dumps([[d.start, d.step, d.stop] for d in array.dimensions]),
            ]
            + [Var(v) for v in coordinates],
            bat_type(Atom.OID),
        )

    def _update_cells(
        self, target: str, array: Array, oids: str, column_vars: dict[str, str]
    ) -> None:
        """``sql.update`` every attribute of *column_vars* at *oids*."""
        affected = None
        for column, values in column_vars.items():
            if not array.is_dimension(column):
                affected = self.program.emit1(
                    "sql", "update", [target, column, Var(oids), Var(values)],
                    scalar_type(Atom.INT),
                )
        if affected is not None:
            self.program.emit(
                "sql", "affected", [Var(affected)], [scalar_type(Atom.INT)]
            )

    def _emit_insert_select(self, plan: nodes.InsertSelectPlan) -> None:
        obj = self.catalog.get(plan.target)
        # The target's atoms join the query's own expressions as casts
        # (coordinates address cells as they are).
        output_vars, _ = self._emit_output(
            plan.query.root,
            [
                None
                if plan.target_kind == "array" and obj.is_dimension(column)
                else obj.column_def(column).atom
                for column in plan.columns
            ],
        )
        column_vars = dict(zip(plan.columns, output_vars))
        if plan.target_kind == "table":
            count = self.program.emit1(
                "sql", "append",
                [plan.target, json.dumps(plan.columns)]
                + [Var(column_vars[column]) for column in plan.columns],
                scalar_type(Atom.INT),
            )
            self.program.emit("sql", "affected", [Var(count)], [scalar_type(Atom.INT)])
            return
        array = self.catalog.get_array(plan.target)
        for dimension in array.dimensions:
            if dimension.name not in column_vars:
                raise SemanticError(
                    f"INSERT into array {array.name!r} must supply dimension "
                    f"{dimension.name!r}"
                )
        if _keeps_cell_order(plan, array, self.catalog):
            # Row i of the query is cell i of the target: address the
            # cells with the dense oid range instead of computing it.
            values = next(
                (column_vars[c] for c in plan.columns if not array.is_dimension(c)),
                output_vars[0],
            )
            oids = self.program.emit1(
                "bat", "mirror", [Var(values)], bat_type(Atom.OID)
            )
        else:
            oids = self._cellindex(array, [column_vars[d.name] for d in array.dimensions])
        self._update_cells(plan.target, array, oids, column_vars)

    def _target_binding(self, plan) -> Binding:
        info = source_from_catalog(self.catalog, plan.target, None)
        scan = nodes.Scan(info, 0)
        return self._emit_relational(scan)

    def _candidates(self, where: Any, binding: Binding) -> str:
        if where is None:
            return self.program.emit1(
                "bat", "mirror", [Var(binding.ref)], bat_type(Atom.OID)
            )
        return self._select(where, binding)

    def _emit_update(self, plan: nodes.UpdatePlan) -> None:
        obj = self.catalog.get(plan.target)
        binding = self._target_binding(plan)
        candidates = self._candidates(plan.where, binding)
        affected = None
        for column, expression in plan.assignments:
            atom = obj.column_def(column).atom
            cast = self._force_bat(
                self._cast(self._eval(expression, binding), atom), binding, atom
            )
            selected = self.program.emit1(
                "algebra", "projection", [Var(candidates), Var(cast)], bat_type(atom)
            )
            affected = self.program.emit1(
                "sql", "update",
                [plan.target, column, Var(candidates), Var(selected)],
                scalar_type(Atom.INT),
            )
        if affected is not None:
            self.program.emit(
                "sql", "affected", [Var(affected)], [scalar_type(Atom.INT)]
            )

    def _emit_delete(self, plan: nodes.DeletePlan) -> None:
        binding = self._target_binding(plan)
        candidates = self._candidates(plan.where, binding)
        count = self.program.emit1(
            "sql", "delete", [plan.target, Var(candidates)], scalar_type(Atom.INT)
        )
        self.program.emit("sql", "affected", [Var(count)], [scalar_type(Atom.INT)])


# ----------------------------------------------------------------------
# aggregate evaluation contexts
# ----------------------------------------------------------------------
# Each context gives MALGenerator._eval two things: ``leaf`` (how a
# grouping key, an aggregate call or a bare column resolves; ``None``
# hands the node back to the shared walker) and ``ref`` (the BAT a
# scalar broadcasts against).  Aggregate arguments always evaluate in
# row mode over the child's binding.
def _aggregate_argument(generator: MALGenerator, call: Any, binding: Binding) -> str:
    value = generator._eval(call.args[0], binding)
    return generator._force_bat(value, binding)


def _count_only(call: Any) -> None:
    if call.name != "count":
        raise SemanticError(
            f"DISTINCT is only supported for COUNT, not {call.name.upper()}"
        )


class _ScalarContext:
    """Aggregation without GROUP BY: every aggregate is a scalar."""

    def __init__(self, binding: Binding):
        self.binding = binding
        #: set to the packed one-row output once it exists (HAVING).
        self.ref: Optional[str] = None

    def leaf(self, generator: MALGenerator, expression: Any) -> Optional[EvalResult]:
        if not is_aggregate_call(expression):
            return None
        program = generator.program
        if expression.star:
            var = program.emit1(
                "bat", "getcount", [Var(self.binding.ref)], scalar_type(Atom.LNG)
            )
            return EvalResult(_SCALAR, Var(var), Atom.LNG)
        value = _aggregate_argument(generator, expression, self.binding)
        if expression.distinct:
            _count_only(expression)
            var = program.emit1(
                "aggr", "countdistinct", [Var(value)], scalar_type(Atom.LNG)
            )
            return EvalResult(_SCALAR, Var(var), Atom.LNG)
        var = program.emit1(
            "aggr", expression.name, [Var(value)], scalar_type(expression.atom or Atom.DBL)
        )
        return EvalResult(_SCALAR, Var(var), expression.atom)


class _GroupedContext:
    """Value-based GROUP BY: keys and aggregates are one row per group."""

    def __init__(
        self,
        binding: Binding,
        keys: list[Any],
        key_vars: list[str],
        groups: str,
        extents: str,
        ngroups: str,
    ):
        self.binding = binding
        self.keys = keys
        self.key_vars = key_vars
        self.groups = groups
        self.ref = extents
        self.ngroups = ngroups

    def leaf(self, generator: MALGenerator, expression: Any) -> Optional[EvalResult]:
        program = generator.program
        for key, key_var in zip(self.keys, self.key_vars):
            if expression == key:
                var = program.emit1(
                    "algebra", "projection", [Var(self.ref), Var(key_var)],
                    program.type_of(key_var),
                )
                return EvalResult(_BAT, Var(var), expression.atom)
        if not is_aggregate_call(expression):
            return None
        grouping = [Var(self.groups), Var(self.ngroups)]
        if expression.star:
            var = program.emit1(
                "aggr", "subcountstar", grouping, bat_type(Atom.LNG)
            )
            return EvalResult(_BAT, Var(var), Atom.LNG)
        value = _aggregate_argument(generator, expression, self.binding)
        if expression.distinct:
            _count_only(expression)
            var = program.emit1(
                "aggr", "subcountdistinct", [Var(value)] + grouping,
                bat_type(Atom.LNG),
            )
            return EvalResult(_BAT, Var(var), Atom.LNG)
        var = program.emit1(
            "aggr", f"sub{expression.name}", [Var(value)] + grouping,
            bat_type(expression.atom or Atom.DBL),
        )
        return EvalResult(_BAT, Var(var), expression.atom)


class _TileContext:
    """Structural GROUP BY (tiling): everything stays cell-aligned.

    Non-aggregate references are the anchor cell's own values;
    aggregates fold the anchor's tile via ``array.tileagg``.
    """

    def __init__(self, binding: Binding, meta_json: str):
        self.binding = binding
        self.ref = binding.ref
        self.meta_json = meta_json
        #: aggregate call -> its result: ``SUM(v)`` written twice is one
        #: leaf, so the expressions around it are one node too.
        self.folded: dict[Any, EvalResult] = {}

    def leaf(self, generator: MALGenerator, expression: Any) -> Optional[EvalResult]:
        if not is_aggregate_call(expression):
            return self.binding.leaf(generator, expression)
        if expression not in self.folded:
            self.folded[expression] = self._fold(generator, expression)
        return self.folded[expression]

    def _fold(self, generator: MALGenerator, expression: Any) -> EvalResult:
        if expression.star:
            value, name, atom = self.ref, "count_star", Atom.LNG
        else:
            value = _aggregate_argument(generator, expression, self.binding)
            name, atom = expression.name, expression.atom
        var = generator.program.emit1(
            "array", "tileagg", [Var(value), name, self.meta_json],
            bat_type(atom or Atom.DBL),
        )
        return EvalResult(_BAT, Var(var), atom)
