"""Relational algebra plan nodes (the "Relational Algebra" box, Figure 2).

The compiler lowers a bound AST into this small algebra; the MAL
generator then lowers each node into MAL instructions.  SciQL adds one
genuinely new node over classic relational algebra: :class:`TileProject`
— structural grouping over an array's cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Union

from repro.gdk.atoms import Atom
from repro.core.tiling import TileSpec
from repro.semantic.binder import SourceInfo


@dataclass(frozen=True)
class OutputItem:
    """One column of a plan's result."""

    name: str
    expression: Any  # bound expression
    atom: Optional[Atom]
    is_dimension: bool = False


@dataclass(frozen=True)
class OutputRef:
    """A sort key referring to an output column by position."""

    index: int
    atom: Optional[Atom] = None


@dataclass
class Scan:
    """Read all columns of one base table/array."""

    source: SourceInfo
    source_index: int


@dataclass
class DerivedScan:
    """A FROM-clause subquery materialised as a source."""

    plan: "QueryPlan"
    source: SourceInfo
    source_index: int


@dataclass
class Join:
    """Binary join; ``condition`` is a bound predicate (None for cross)."""

    left: "PlanNode"
    right: "PlanNode"
    kind: str  # "inner" | "left" | "cross"
    condition: Any = None


@dataclass
class Filter:
    """Row selection by a bound predicate."""

    child: "PlanNode"
    predicate: Any


@dataclass
class Project:
    """Row-wise projection (no aggregation)."""

    child: "PlanNode"
    items: list[OutputItem]


@dataclass
class Aggregate:
    """Value-based GROUP BY with aggregated output items."""

    child: "PlanNode"
    keys: list[Any]  # bound key expressions
    items: list[OutputItem]
    having: Any = None


@dataclass
class ScalarAggregate:
    """Aggregation without GROUP BY: one output row (none if HAVING fails)."""

    child: "PlanNode"
    items: list[OutputItem]
    having: Any = None


@dataclass
class TileProject:
    """SciQL structural grouping (GROUP BY array[...]...).

    Every anchor (= cell) yields one output row; aggregates fold the
    anchor's tile.  With an array-shaped result HAVING masks values to
    NULL; with a table-shaped result it filters rows (see malgen).
    """

    child: Scan
    array_name: str
    spec: TileSpec
    items: list[OutputItem]
    having: Any = None


@dataclass
class Distinct:
    """Duplicate elimination over all output columns."""

    child: "PlanNode"


@dataclass
class Sort:
    """Order by bound key expressions (True = descending)."""

    child: "PlanNode"
    keys: list[tuple[Any, bool]]


@dataclass
class LimitNode:
    """LIMIT/OFFSET."""

    child: "PlanNode"
    limit: Optional[int]
    offset: Optional[int]


PlanNode = Union[
    Scan,
    DerivedScan,
    Join,
    Filter,
    Project,
    Aggregate,
    ScalarAggregate,
    TileProject,
    Distinct,
    Sort,
    LimitNode,
]


# ----------------------------------------------------------------------
# statement-level plans
# ----------------------------------------------------------------------
@dataclass
class QueryPlan:
    """A SELECT: the root node plus result-shape metadata."""

    root: PlanNode
    items: list[OutputItem]
    result_kind: str  # "table" | "array"


@dataclass
class SetOpPlan:
    """UNION [ALL] / EXCEPT / INTERSECT of two query plans."""

    op: str  # "union" | "except" | "intersect"
    all: bool
    left: QueryPlan
    right: QueryPlan
    items: list[OutputItem] = field(default_factory=list)
    result_kind: str = "table"


@dataclass
class CreateTablePlan:
    name: str
    columns_json: str
    if_not_exists: bool = False


@dataclass
class CreateArrayPlan:
    name: str
    dimensions_json: str
    attributes_json: str
    if_not_exists: bool = False


@dataclass
class DropPlan:
    name: str
    kind: str
    if_exists: bool = False


@dataclass
class AlterDimensionPlan:
    array: str
    dimension: str
    start: int
    step: int
    stop: int


@dataclass
class InsertValuesPlan:
    target: str
    target_kind: str  # "table" | "array"
    columns: list[str]
    rows: list[list[Any]]  # bound constant expressions


@dataclass
class InsertSelectPlan:
    target: str
    target_kind: str
    columns: list[str]
    query: QueryPlan


@dataclass
class UpdatePlan:
    target: str
    target_kind: str
    assignments: list[tuple[str, Any]]  # (column, bound expression)
    where: Any = None


@dataclass
class DeletePlan:
    target: str
    target_kind: str
    where: Any = None


StatementPlan = Union[
    QueryPlan,
    SetOpPlan,
    CreateTablePlan,
    CreateArrayPlan,
    DropPlan,
    AlterDimensionPlan,
    InsertValuesPlan,
    InsertSelectPlan,
    UpdatePlan,
    DeletePlan,
]
