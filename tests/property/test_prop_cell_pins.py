"""Differential oracle for cell-addressed point statements.

A WHERE that pins every dimension of a scanned array (``x = ? AND y =
?``) lowers to one ``array.cellindex`` over the pinned scalars instead
of a value select per dimension (``MALGenerator._select``).  Hypothesis
generates pinned ``SELECT`` / ``UPDATE`` / ``DELETE`` statements over
1-, 2- and 3-D arrays whose dimensions have steps other than 1 and
negative starts, some cells holed by an earlier ``DELETE``: literal and
``?`` pins written either way round (``x = ?``, ``? = x``, ``-3 = x``),
a second pin on one dimension, residual attribute and dimension
predicates, and NULL, non-integral, string, off-step and out-of-range
coordinates.  Every statement runs

* on the array, where it takes the cell path,
* on a TABLE twin holding the same rows, which never does (value
  selects over its coordinate columns; an array ``DELETE`` punches
  holes, so the twin runs ``UPDATE ... SET v = NULL, w = NULL``), and
* on a NumPy model of the cells, which finds the cell by comparing
  every cell's coordinates,

and the three must agree on the rows read, the rows affected, the error
class raised and the cells afterwards — in process over three pipelines
(default, fragmented, unoptimised) and, for a fixed corpus, over both
transports of the DB-API conformance suite's ``connect`` fixture.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from tests.net.conftest import db, server  # noqa: F401  (used by `connect`)
from tests.net.test_dbapi_conformance import connect  # noqa: F401

#: array name -> ``(dimension, start, step, stop)`` per dimension.
SHAPES = {
    "a1": (("x", -3, 2, 9),),  # x in -3 -1 1 3 5 7
    "a2": (("x", 0, 1, 3), ("y", -4, 3, 6)),  # 3 x 4
    "a3": (("x", -1, 1, 1), ("y", 0, 2, 5), ("z", 2, 5, 13)),  # 2 x 3 x 3
}


class Model:
    """The cells of one array in cell (row-major) order: coordinates,
    and ``v INT`` / ``w DOUBLE`` with NULL masks."""

    def __init__(self, name: str):
        self.name = name
        self.dims = SHAPES[name]
        axes = [np.arange(start, stop, step) for _, start, step, stop in self.dims]
        grids = np.meshgrid(*axes, indexing="ij")
        self.coords = np.stack([g.reshape(-1) for g in grids], axis=1)
        index = np.arange(len(self.coords))
        self.v = (index * 7) % 11 - 3
        self.w = index / 4.0
        self.v_null = np.zeros(len(index), dtype=bool)
        self.w_null = np.zeros(len(index), dtype=bool)
        #: every fifth cell is holed by a DELETE after loading
        self.holes = index[index % 5 == 2]

    def values(self, i: int) -> dict:
        return {
            self.dims[0][0]: int(self.coords[i][0]),
            "v": None if self.v_null[i] else int(self.v[i]),
            "w": None if self.w_null[i] else float(self.w[i]),
        }

    def write(self, i: int, v, w) -> None:
        self.v_null[i], self.w_null[i] = v is None, w is None
        self.v[i] = 0 if v is None else v
        self.w[i] = 0.0 if w is None else w

    def rows(self) -> list[tuple]:
        return [
            tuple(int(c) for c in self.coords[i])
            + (self.values(i)["v"], self.values(i)["w"])
            for i in range(len(self.coords))
        ]


def _coordinate(value):
    """The dimension value a pin names, coerced as the engine does: an
    int, or ``None`` for no cell (NULL, non-integral); a string that is
    no number raises ``ValueError`` (the statement fails)."""
    if value is None:
        return None
    if isinstance(value, str):
        return int(value)
    if isinstance(value, float):
        return int(value) if value.is_integer() else None
    return value


def _anything(v, w, coords):
    return True


class Statement:
    """One statement over ``{obj}`` (the array or its twin) and what it
    does to the model: *pins* maps a dimension index to the values
    pinned on it, *residual* is the rest of the WHERE as a truth of
    ``(v, w, coordinates)``, *assign* maps a cell's ``(v, w)`` to its
    new values."""

    def __init__(self, kind, template, params, pins, residual=_anything,
                 assign=None, columns=("v", "w")):
        self.kind = kind
        self.template = template
        self.params = tuple(params)
        self.pins = pins
        self.residual = residual
        self.assign = assign
        self.columns = columns

    def __repr__(self) -> str:
        return f"{self.template} {self.params}"

    def sql(self, obj: str) -> str:
        return self.template.format(obj=obj)

    def twin_sql(self, obj: str) -> str:
        if self.kind == "delete":  # a hole is a cell whose attributes are NULL
            return self.sql(obj).replace(
                f"DELETE FROM {obj}", f"UPDATE {obj} SET v = NULL, w = NULL"
            )
        return self.sql(obj)

    def matches(self, model: Model) -> list[int]:
        """Cells the WHERE selects; ``ValueError`` where the engine fails."""
        wanted = {d: {_coordinate(v) for v in values} for d, values in self.pins.items()}
        out = []
        for i, coords in enumerate(model.coords):
            coords = [int(c) for c in coords]
            if all(
                len(values) == 1 and coords[d] in values for d, values in wanted.items()
            ):
                cell = model.values(i)
                if self.residual(cell["v"], cell["w"], coords):
                    out.append(i)
        return out


def _render(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return f"'{value}'"
    return repr(value)


def _on(column: str, test):
    """*test* of a cell's attribute *column*: unknown (falsy) on NULL."""
    index = ("v", "w").index(column)
    return lambda v, w, coords: (v, w)[index] is not None and test((v, w)[index])


#: residual conjuncts: SQL with ``{c}`` for a drawn constant (``{d0}``
#: names the first dimension), and the truth for that constant.
RESIDUALS = [
    ("v > {c}", lambda c: _on("v", lambda v: v > c)),
    ("{c} >= v", lambda c: _on("v", lambda v: c >= v)),
    ("v + 1 = {c}", lambda c: _on("v", lambda v: v + 1 == c)),
    ("NOT (v = {c})", lambda c: _on("v", lambda v: v != c)),
    ("w * 2 < {c}", lambda c: _on("w", lambda w: w * 2 < c)),
    ("v BETWEEN {c} AND {c} + 4", lambda c: _on("v", lambda v: c <= v <= c + 4)),
    ("w IS NULL", lambda c: lambda v, w, coords: w is None),
    ("v IS NOT NULL", lambda c: lambda v, w, coords: v is not None),
    ("{d0} >= {c}", lambda c: lambda v, w, coords: coords[0] >= c),
]

#: SET lists: SQL with ``?`` for a drawn value, and the new ``(v, w)``.
ASSIGNMENTS = [
    ("v = ?", lambda p: lambda v, w: (p, w)),
    ("v = v + 1", lambda p: lambda v, w: (None if v is None else v + 1, w)),
    ("w = w * 2", lambda p: lambda v, w: (v, None if w is None else w * 2)),
    ("w = v, v = ?", lambda p: lambda v, w: (p, None if v is None else float(v))),
]


@st.composite
def coordinates(draw, start, step, stop):
    """A pin's value: mostly a cell's, else every way to name none."""
    valid = list(range(start, stop, step))
    value = draw(st.sampled_from(valid))
    kind = draw(st.sampled_from(
        ["valid"] * 6 + ["double", "string", "outside", "offstep", "fraction", "null", "bad"]
    ))
    if kind == "double":
        return float(value)
    if kind == "string":
        return str(value)
    if kind == "outside":
        return draw(st.sampled_from([start - step, valid[-1] + step, start - 7 * step]))
    if kind == "offstep":
        return value + 1 if step > 1 else value - 0.25
    if kind == "fraction":
        return value + 0.5
    if kind == "null":
        return None
    if kind == "bad":
        return "ab"
    return value


@st.composite
def statements(draw, name: str) -> Statement:
    dims = SHAPES[name]
    conjuncts: list[tuple[str, list]] = []
    pins: dict[int, list] = {d: [] for d in range(len(dims))}
    targets = list(range(len(dims)))
    if draw(st.integers(0, 5)) == 0:
        targets.append(draw(st.sampled_from(targets)))  # a second pin
    for d in targets:
        dim, start, step, stop = dims[d]
        value = draw(coordinates(start, step, stop))
        pins[d].append(value)
        text, params = ("?", [value]) if draw(st.booleans()) else (_render(value), [])
        conjuncts.append(
            (f"{dim} = {text}" if draw(st.booleans()) else f"{text} = {dim}", params)
        )
    residual = _anything
    if draw(st.booleans()):
        sql, truth = draw(st.sampled_from(RESIDUALS))
        c = draw(st.integers(-4, 8))
        residual = truth(c)
        conjuncts.append((sql.format(c=c, d0=dims[0][0]), []))
    conjuncts = draw(st.permutations(conjuncts))
    where = " AND ".join(text for text, _ in conjuncts)
    where_params = [p for _, params in conjuncts for p in params]
    kind = draw(st.sampled_from(["select", "update", "delete"]))
    if kind == "select":
        columns = draw(st.sampled_from([("v", "w"), (dims[0][0], "v"), ("w",)]))
        return Statement(
            kind, f"SELECT {', '.join(columns)} FROM {{obj}} WHERE {where}",
            where_params, pins, residual, columns=columns,
        )
    if kind == "update":
        sql, effect = draw(st.sampled_from(ASSIGNMENTS))
        value = draw(st.one_of(st.none(), st.integers(-5, 20)))
        return Statement(
            kind, f"UPDATE {{obj}} SET {sql} WHERE {where}",
            [value] * sql.count("?") + where_params, pins, residual, effect(value),
        )
    return Statement(kind, f"DELETE FROM {{obj}} WHERE {where}", where_params, pins, residual)


def load(conn, name: str) -> Model:
    """Array *name* and its twin table ``t_<name>`` holding the model's
    cells, the holes punched by a range DELETE (no pins)."""
    model = Model(name)
    dims = [d for d, *_ in model.dims]
    ranges = ", ".join(f"{d} INT DIMENSION[{a}:{s}:{b}]" for d, a, s, b in model.dims)
    conn.execute(f"CREATE ARRAY {name} ({ranges}, v INT, w DOUBLE)")
    conn.execute(f"CREATE TABLE t_{name} ({', '.join(f'{d} INT' for d in dims)}, v INT, w DOUBLE)")
    marks = ", ".join("?" * (len(dims) + 2))
    conn.executemany(f"INSERT INTO {name} VALUES ({marks})", model.rows())
    conn.executemany(f"INSERT INTO t_{name} VALUES ({marks})", model.rows())
    for i in model.holes:
        where = " AND ".join(
            f"{d} BETWEEN {int(c)} AND {int(c)}" for d, c in zip(dims, model.coords[i])
        )
        conn.execute(f"DELETE FROM {name} WHERE {where}")
        conn.execute(f"UPDATE t_{name} SET v = NULL, w = NULL WHERE {where}")
        model.write(i, None, None)
    return model


def _outcome(conn, sql, params):
    """Rows read, rows affected, or the class of the error raised."""
    try:
        result = conn.execute(sql, params)
    except repro.Error as exc:
        return type(exc)
    return result.rows() if result.is_query else result.affected


def _cursor_outcome(conn, sql, params):
    """:func:`_outcome` through a DB-API cursor (either transport)."""
    cursor = conn.cursor()
    try:
        cursor.execute(sql, params)
    except repro.Error as exc:
        return type(exc)
    if cursor.description is None:
        return cursor.rowcount
    return [tuple(row) for row in cursor.fetchall()]


def run(conn, model: Model, statement: Statement, outcome=_outcome) -> None:
    """*statement* on the array, its twin and the model: all agree."""
    got = outcome(conn, statement.sql(model.name), statement.params)
    twin = outcome(conn, statement.twin_sql(f"t_{model.name}"), statement.params)
    assert twin == got, statement
    try:
        matches = statement.matches(model)
    except ValueError:
        assert isinstance(got, type) and issubclass(got, repro.DatabaseError), (statement, got)
        return
    if statement.kind == "select":
        expected = [tuple(model.values(i)[c] for c in statement.columns) for i in matches]
        assert got == expected, statement
        return
    assert got == len(matches), statement
    for i in matches:
        cell = model.values(i)
        if statement.kind == "delete":
            model.write(i, None, None)
        else:
            model.write(i, *statement.assign(cell["v"], cell["w"]))


def check_cells(conn, model: Model, outcome=_outcome) -> None:
    dims = ", ".join(d for d, *_ in model.dims)
    for obj in (model.name, f"t_{model.name}"):
        assert outcome(conn, f"SELECT {dims}, v, w FROM {obj}", ()) == model.rows(), obj


PIPELINES = {
    "default": {},
    "fragmented": {"nr_threads": 2, "fragment_rows": 7},
    "unoptimised": {},  # its pipeline is emptied below
}


@pytest.fixture(scope="module")
def engines():
    connections = {name: repro.connect(**knobs) for name, knobs in PIPELINES.items()}
    connections["unoptimised"].pipeline = ()
    yield connections
    for conn in connections.values():
        conn.close()


def fresh(conn, name: str) -> Model:
    conn.execute(f"DROP ARRAY IF EXISTS {name}")
    conn.execute(f"DROP TABLE IF EXISTS t_{name}")
    return load(conn, name)


@st.composite
def scripts(draw):
    name = draw(st.sampled_from(sorted(SHAPES)))
    return name, draw(st.lists(statements(name), min_size=1, max_size=5))


class TestCellPinOracle:
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(script=scripts())
    def test_array_twin_and_model_agree(self, engines, script):
        name, steps = script
        for conn in engines.values():
            model = fresh(conn, name)
            for statement in steps:
                run(conn, model, statement)
                check_cells(conn, model)

    def test_only_the_array_takes_the_cell_path(self, engines):
        conn = engines["default"]
        fresh(conn, "a2")
        sql = "SELECT v FROM {obj} WHERE ? = y AND x = 1"
        assert "array.cellindex" in conn.explain(sql.format(obj="a2"))
        assert "array.cellindex" not in conn.explain(sql.format(obj="t_a2"))
        assert "array.cellindex" not in conn.explain(
            "SELECT v FROM a2 WHERE x = 1 AND y = 2 AND x = 2"
        )


#: every pin and residual shape of the generator, by hand: ``(array,
#: statement)`` for the run over both transports.
TRANSPORT_CORPUS = [
    ("a1", Statement("select", "SELECT v, w FROM {obj} WHERE x = ?", [3], {0: [3]})),
    ("a1", Statement("select", "SELECT v, w FROM {obj} WHERE ? = x", ["-1"], {0: ["-1"]})),
    ("a1", Statement("select", "SELECT v, w FROM {obj} WHERE x = 2", [], {0: [2]})),
    ("a1", Statement("select", "SELECT v, w FROM {obj} WHERE x = 1.5", [], {0: [1.5]})),
    ("a1", Statement("select", "SELECT v, w FROM {obj} WHERE x = ? AND x = 5", [1], {0: [1, 5]})),
    ("a1", Statement("select", "SELECT v, w FROM {obj} WHERE x = ?", ["ab"], {0: ["ab"]})),
    ("a1", Statement("update", "UPDATE {obj} SET v = ? WHERE -3 = x", [40], {0: [-3]},
                     assign=ASSIGNMENTS[0][1](40))),
    ("a1", Statement("delete", "DELETE FROM {obj} WHERE x = ? AND v > 0", [7], {0: [7]},
                     RESIDUALS[0][1](0))),
    ("a2", Statement("update", "UPDATE {obj} SET v = v + 1 WHERE x = ? AND ? = y", [2, 5],
                     {0: [2], 1: [5]}, assign=ASSIGNMENTS[1][1](None))),
    ("a2", Statement("select", "SELECT v, w FROM {obj} WHERE y = ? AND x = ?", [-1, 0],
                     {0: [0], 1: [-1]})),
    ("a2", Statement("select", "SELECT v, w FROM {obj} WHERE y = ? AND x = ?", [None, 0],
                     {0: [0], 1: [None]})),
    ("a2", Statement("update", "UPDATE {obj} SET w = w * 2 WHERE x = 1 AND y = 2.0 AND v > -2",
                     [], {0: [1], 1: [2.0]}, RESIDUALS[0][1](-2), ASSIGNMENTS[2][1](None))),
    ("a2", Statement("delete", "DELETE FROM {obj} WHERE x = 1 AND y = 9", [], {0: [1], 1: [9]})),
    ("a3", Statement("update", "UPDATE {obj} SET w = v, v = ? WHERE z = ? AND y = ? AND x = ?",
                     [None, 7, 4, 0], {0: [0], 1: [4], 2: [7]}, assign=ASSIGNMENTS[3][1](None))),
    ("a3", Statement("select", "SELECT v, w FROM {obj} WHERE z = 12 AND y = 2 AND x = -1 AND x >= 0",
                     [], {0: [-1], 1: [2], 2: [12]}, RESIDUALS[8][1](0))),
    ("a3", Statement("delete", "DELETE FROM {obj} WHERE z = ? AND y = ? AND x = ?", [2, 0, -1],
                     {0: [-1], 1: [0], 2: [2]})),
]


def test_over_both_transports(connect):
    """The corpus through DB-API cursors, in process and over ``repro://``."""
    conn = connect()
    models = {name: load(conn, name) for name in SHAPES}
    for name, statement in TRANSPORT_CORPUS:
        run(conn, models[name], statement, outcome=_cursor_outcome)
    for model in models.values():
        check_cells(conn, model, outcome=_cursor_outcome)
