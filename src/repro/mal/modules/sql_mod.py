"""MAL module ``sql`` — the glue between MAL plans and the catalog.

These operators carry every side effect a query plan can have: binding
persistent BATs, appending/updating/deleting, DDL, and delivering the
result set.  Their ``effect=`` declarations are what protects them from dead-code
elimination, and ``effect="write"`` is what routes a compiled program
through a transaction (:func:`repro.mal.program.effect_classes`).

Snapshot contract: every operator resolves names through
``ctx.catalog`` — the *execution context's* catalog, which the engine
sets per run to the session's transaction fork or the committed head
snapshot.  Nothing here touches global state, so one compiled program
(shared through the cross-session plan cache) executes concurrently
against any number of snapshots.
"""

from __future__ import annotations

import json

import numpy as np

from repro.errors import MALError
from repro.gdk.bat import BAT
from repro.catalog.objects import Array, ColumnDef, DimensionDef
from repro.mal.modules import cached_loads, mal_op


def _defs(cls, defs_json: str) -> list:
    """The definitions a DDL plan constant carries (``cls.to_json`` entries)."""
    return [cls.from_json(entry) for entry in json.loads(defs_json)]


@mal_op("sql", "bind", sig="str, str -> bat", effect="read")
def _bind(ctx, name: str, column: str):
    """The storage BAT of ``object.column``."""
    return ctx.catalog.get(name).bind(column)


@mal_op("sql", "createTable", sig="str, json, bool? -> scalar", effect="write")
def _create_table(ctx, name: str, defs_json: str, if_not_exists=False):
    if if_not_exists and name.lower() in ctx.catalog:
        return 0
    ctx.catalog.create_table(name, _defs(ColumnDef, defs_json))
    return 0


@mal_op("sql", "createArray", sig="str, json, json, bool? -> scalar", effect="write")
def _create_array(ctx, name: str, dims_json: str, attrs_json: str, if_not_exists=False):
    if if_not_exists and name.lower() in ctx.catalog:
        return 0
    ctx.catalog.create_array(name, _defs(DimensionDef, dims_json), _defs(ColumnDef, attrs_json))
    return 0


@mal_op("sql", "dropObject", sig="str, bool -> scalar", effect="write")
def _drop(ctx, name: str, if_exists):
    ctx.catalog.drop(name, bool(if_exists))
    return 0


@mal_op("sql", "alterDimension", sig="str, str, scalar, scalar, scalar -> scalar", effect="write")
def _alter_dimension(ctx, name: str, dimension: str, start, step, stop):
    array = ctx.catalog.get_array(name)
    array.alter_dimension(dimension, int(start), int(step), int(stop))
    return 0


@mal_op("sql", "append", sig="str, json, bat* -> scalar", effect="write")
def _append(ctx, name: str, columns_json: str, *bats: BAT):
    """Bulk-append aligned columns to a table."""
    table = ctx.catalog.get_table(name)
    names = json.loads(columns_json)
    if len(names) != len(bats):
        raise MALError("sql.append: column/BAT arity mismatch")
    return table.append_rows({n: b.tail for n, b in zip(names, bats)})


@mal_op("sql", "update", sig="str, str, oids, bat -> scalar", effect="write")
def _update(ctx, name: str, column: str, oids: BAT, values: BAT):
    """Point-update one column/attribute at the given oids."""
    obj = ctx.catalog.get(name)
    positions, tail = oids.tail.values, values.tail
    if len(positions) != len(tail):
        raise MALError("sql.update: oid/value arity mismatch")
    if len(positions) and positions.min() < 0:  # outer-join misses address no row
        keep = np.flatnonzero(positions >= 0)
        positions, tail = positions[keep], tail.take(keep)
    obj.replace_values(column, positions, tail)
    return len(positions)


@mal_op("sql", "delete", sig="str, oids -> scalar", effect="write")
def _delete(ctx, name: str, oids: BAT):
    """DELETE: physical removal for tables, hole-punching for arrays."""
    obj = ctx.catalog.get(name)
    positions = oids.tail.values
    positions = positions[positions >= 0]
    if isinstance(obj, Array):
        obj.delete_cells(positions)
    else:
        obj.delete_rows(positions)
    return len(positions)


class InternalResult:
    """Result set assembled by ``sql.resultSet`` before engine wrapping."""

    def __init__(self, kind: str, names: list[str], bats: list[BAT], meta: dict):
        self.kind = kind
        self.names = names
        self.bats = bats
        self.meta = meta


@mal_op("sql", "resultSet", sig="str, json, json, bat* -> scalar", effect="result")
def _result_set(ctx, kind: str, names_json: str, meta_json: str, *bats: BAT):
    names = list(cached_loads(names_json))
    if len(names) != len(bats):
        raise MALError("sql.resultSet: name/BAT arity mismatch")
    lengths = {len(b) for b in bats}
    if len(lengths) > 1:
        raise MALError(f"sql.resultSet: misaligned result columns {sorted(lengths)}")
    ctx.result = InternalResult(kind, names, list(bats), dict(cached_loads(meta_json)))
    return 0


@mal_op("sql", "setVariable", sig="str, any -> scalar", effect="result")
def _set_variable(ctx, name: str, value):
    ctx.variables[name] = value
    return 0


@mal_op("sql", "affected", sig="scalar -> scalar", effect="result")
def _affected(ctx, count):
    """Record the affected-row count of a DML statement."""
    ctx.affected = int(count) if count is not None else 0
    return ctx.affected
