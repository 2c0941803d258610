"""Differential oracle for the predicate lowering (``MALGenerator._select``).

Hypothesis generates WHERE predicates over an INT / DBL / dictionary-
coded STR table with NULLs: comparisons in both argument orders,
[NOT] BETWEEN, [NOT] IN, IS [NOT] NULL, nests of AND / OR / NOT,
non-integral constants against INT columns, NULL constants, literal and
``?`` operands, with opaque conjuncts (LIKE, column-vs-column) and
scalar-only conjuncts (``1 = 1``, ``? = 1``: a truth value broadcast
over the fragment's rows) mixed in.  Every predicate is run

* against stdlib ``sqlite3`` on the same rows (the cross-engine oracle
  for SQL's three-valued logic), and
* in-engine wrapped as ``CASE WHEN <p> THEN TRUE ELSE FALSE END``, which
  has no value-select form and so takes the bit-column path,

and must select the same keys under ``nr_threads`` in {1, 2} x
``fragment_rows`` in {inf, 7}, and on a farm reopened with persisted
zone maps.  The select instructions a statement compiles to must not
depend on the thread count either.

Divergence from sqlite inside this grammar: none (README, "Typing
rules", lists why next to the value-expression ones).
"""

import math
import re
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro

ROWS = 60
TAGS = ["ant", "bee", "cat", "dog", "eel"]

#: (k, a INT, b INT, d DBL, s STR); NULLs in every non-key column, a
#: clustered in k (so zone verdicts prune), d and s scattered.
DATA = [
    (
        k,
        None if k % 7 == 3 else k // 4 - 3,
        None if k % 11 == 5 else (k * 5) % 9 - 4,
        None if k % 5 == 2 else ((k * 7) % 23) / 4.0 - 2.0,
        None if k % 6 == 4 else TAGS[(k * 3) % len(TAGS)],
    )
    for k in range(ROWS)
]

COLUMN_CONSTANTS = {
    "a": st.one_of(
        st.integers(-5, 13),
        st.sampled_from([-3.5, -0.5, 0.25, 1.5, 6.75, 11.5]),  # stay fractional
    ),
    "b": st.integers(-6, 6),
    "d": st.sampled_from([-2.0, -1.75, -0.5, 0.0, 0.25, 1.0, 2.5, 3.75, 9.0]),
    "s": st.sampled_from(TAGS + ["aaa", "cow", "zzz"]),
}


class Predicate:
    """SQL text with ``?`` markers plus the values they bind."""

    def __init__(self, sql, params=()):
        self.sql = sql
        self.params = tuple(params)


#: conjuncts that name no column: TRUE, FALSE and unknown, as constants
#: and as parameters.
SCALAR_CONJUNCTS = [
    Predicate("(1 = 1)"),
    Predicate("(2 < 1)"),
    Predicate("(? = 1)", [1]),
    Predicate("(? = 1)", [0]),
    Predicate("(? = 1)", [None]),
    Predicate("(NULL IS NULL)"),
    Predicate("(? IS NOT NULL)", [None]),
]


def _render(value):
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return f"'{value}'"
    return repr(value)


@st.composite
def operands(draw, column, count):
    """*count* constants for *column*: all literals or all parameters."""
    values = [
        draw(st.one_of(st.none(), COLUMN_CONSTANTS[column]))
        if draw(st.integers(0, 9)) == 0
        else draw(COLUMN_CONSTANTS[column])
        for _ in range(count)
    ]
    if draw(st.booleans()):
        return ["?"] * count, values
    return [_render(v) for v in values], []


@st.composite
def leaves(draw):
    column = draw(st.sampled_from(sorted(COLUMN_CONSTANTS)))
    shape = draw(
        st.sampled_from(["theta", "theta", "between", "in", "null", "opaque", "scalar"])
    )
    if shape == "scalar":
        return draw(st.sampled_from(SCALAR_CONJUNCTS))
    if shape == "theta":
        op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
        (text,), params = draw(operands(column, 1))
        if draw(st.booleans()):
            return Predicate(f"({column} {op} {text})", params)
        return Predicate(f"({text} {op} {column})", params)
    if shape == "between":
        (low, high), params = draw(operands(column, 2))
        negated = draw(st.sampled_from(["", "NOT "]))
        return Predicate(f"({column} {negated}BETWEEN {low} AND {high})", params)
    if shape == "in":
        texts, params = draw(operands(column, draw(st.integers(1, 4))))
        negated = draw(st.sampled_from(["", "NOT "]))
        return Predicate(f"({column} {negated}IN ({', '.join(texts)}))", params)
    if shape == "null":
        negated = draw(st.sampled_from(["", "NOT "]))
        return Predicate(f"({column} IS {negated}NULL)")
    return Predicate(
        draw(st.sampled_from(["(s LIKE 'c%')", "(s LIKE '%e%')", "(a < d)", "(a = b)", "(b >= a)"]))
    )


def _combine(children):
    return st.one_of(
        st.tuples(children, st.sampled_from(["AND", "AND", "OR"]), children).map(
            lambda t: Predicate(
                f"({t[0].sql} {t[1]} {t[2].sql})", t[0].params + t[2].params
            )
        ),
        children.map(lambda p: Predicate(f"(NOT {p.sql})", p.params)),
    )


predicates = st.recursive(leaves(), _combine, max_leaves=6)

#: a fixed corpus pinning one statement per lowering rule, literal and
#: parameter, for the plan-shape check.
CORPUS = [
    Predicate("a = 3"),
    Predicate("a = ?", [3]),
    Predicate("1.5 < a"),
    Predicate("a >= 1 AND a < 6"),
    Predicate("a >= ? AND a < ?", [1, 6]),
    Predicate("d BETWEEN ? AND ?", [-0.5, 2.5]),
    Predicate("a NOT BETWEEN 1 AND 6"),
    Predicate("s IN ('bee', 'dog', 'zzz')"),
    Predicate("s NOT IN ('bee', 'dog')"),
    Predicate("a IN (?, ?)", [1, 2]),
    Predicate("d IS NULL AND s IS NOT NULL"),
    Predicate("NOT (a > 5 OR s = 'cat')"),
    Predicate("a > 2 AND s LIKE 'c%' AND a < d"),
    Predicate("a > 2 OR d < 0.0"),
    # a NULL bound or member is unknown, never "unbounded" or "absent"
    Predicate("a BETWEEN NULL AND 5"),
    Predicate("a BETWEEN ? AND ?", [None, 5]),
    Predicate("a NOT BETWEEN NULL AND 4"),
    Predicate("a NOT BETWEEN ? AND ?", [2, None]),
    Predicate("a >= ? AND a < ?", [None, 6]),
    Predicate("a = NULL"),
    Predicate("a <> ?", [None]),
    Predicate("s NOT IN ('bee', NULL)"),
    Predicate("s IN ('bee', NULL)"),
    # a scalar truth next to a value select is broadcast per fragment
    Predicate("1 = 1 AND a > 2"),
    Predicate("a > 2 AND ? = 1", [1]),
    Predicate("s NOT IN ('bee', 'dog') AND 1 = 1"),
    Predicate("NOT (? = 1) AND d IS NOT NULL", [0]),
    Predicate("? IS NULL AND a = b", [None]),
    Predicate("5 > 3"),
]


def _load(conn):
    conn.execute("CREATE TABLE t (k INT, a INT, b INT, d DOUBLE, s VARCHAR(8))")
    conn.executemany("INSERT INTO t VALUES (?, ?, ?, ?, ?)", DATA)


@pytest.fixture(scope="module")
def engines(tmp_path_factory):
    """name -> connection, every one holding DATA in table ``t``."""
    patch = pytest.MonkeyPatch()
    # Small thresholds so 60 rows get dictionary codes and several zones.
    patch.setenv("REPRO_DICT_MIN_ROWS", "8")
    patch.setenv("REPRO_ZONE_ROWS", "8")
    connections = {}
    for nr_threads in (1, 2):
        for fragment_rows in (math.inf, 7):
            conn = repro.connect(nr_threads=nr_threads, fragment_rows=fragment_rows)
            _load(conn)
            connections[f"threads{nr_threads}-rows{fragment_rows}"] = conn
    # The fragmented pass pipeline with nothing to fragment: a finite
    # fragment size selects it, 60 rows stay one piece.
    connections["threads2-onepiece"] = repro.connect(
        nr_threads=2, fragment_rows=1_000_000
    )
    _load(connections["threads2-onepiece"])
    farm = tmp_path_factory.mktemp("predicates") / "db"
    connections["threads1-rowsinf"].save(farm)
    connections["reopened-farm"] = repro.connect(farm, nr_threads=2, fragment_rows=16)
    yield connections
    for conn in connections.values():
        conn.close()
    patch.undo()


@pytest.fixture(scope="module")
def oracle():
    conn = sqlite3.connect(":memory:")
    conn.execute("PRAGMA case_sensitive_like = ON")
    conn.execute("CREATE TABLE t (k INTEGER, a INTEGER, b INTEGER, d REAL, s TEXT)")
    conn.executemany("INSERT INTO t VALUES (?, ?, ?, ?, ?)", DATA)
    yield conn
    conn.close()


def _keys(conn, where, params):
    return sorted(conn.execute(f"SELECT k FROM t WHERE {where}", params).column("k"))


def _check(engines, oracle, predicate):
    expected = sorted(
        k for (k,) in oracle.execute(
            f"SELECT k FROM t WHERE {predicate.sql}", predicate.params
        )
    )
    bits = f"CASE WHEN {predicate.sql} THEN TRUE ELSE FALSE END"
    for name, conn in engines.items():
        assert _keys(conn, predicate.sql, predicate.params) == expected, (
            name, predicate.sql, predicate.params,
        )
        assert _keys(conn, bits, predicate.params) == expected, (
            name, "bit-column path", predicate.sql, predicate.params,
        )


class TestPredicateOracle:
    def test_the_table_is_dictionary_coded_and_zoned(self, engines):
        from repro.gdk import zonemap
        from repro.gdk.dictenc import DictColumn

        table = engines["threads1-rowsinf"].catalog.get("t")
        assert isinstance(table.bind("s").tail, DictColumn)
        assert len(zonemap.ensure(table.bind("a")).mins) > 1
        reopened = engines["reopened-farm"].catalog.get("t")
        assert reopened.bind("a")._zones is not None  # persisted, not rebuilt

    @pytest.mark.parametrize("predicate", CORPUS, ids=lambda p: p.sql)
    def test_corpus(self, engines, oracle, predicate):
        _check(engines, oracle, predicate)

    @settings(max_examples=120, deadline=None)
    @given(predicate=predicates)
    def test_generated_predicates(self, engines, oracle, predicate):
        _check(engines, oracle, predicate)

    def test_pruning_fires_on_the_clustered_column(self, engines):
        conn = engines["reopened-farm"]  # 16-row fragments over 8-row zones
        conn.execute("SELECT k FROM t WHERE a > 1000", collect_stats=True)
        assert conn.last_stats.fragments_pruned > 0


def _select_instructions(plan):
    """The select-family calls of an EXPLAIN listing, variables erased."""
    calls = re.findall(r"algebra\.\w*select\w*\([^;]*\);", plan)
    return [re.sub(r"\b[A-Z]_\d+\b", "_", call) for call in calls]


class TestOnePlanShape:
    """The lowering is malgen's: it cannot depend on the pass pipeline."""

    @pytest.mark.parametrize("other", ["threads2-rowsinf", "threads2-onepiece"])
    @pytest.mark.parametrize("predicate", CORPUS, ids=lambda p: p.sql)
    def test_same_selects_under_every_pipeline(self, engines, predicate, other):
        sql = f"SELECT k FROM t WHERE {predicate.sql}"
        sequential = engines["threads1-rowsinf"]
        assert [p.name for p in sequential.pipeline] != [
            p.name for p in engines["threads2-onepiece"].pipeline
        ]
        selects = _select_instructions(sequential.explain(sql))
        assert selects
        assert _select_instructions(engines[other].explain(sql)) == selects

    def test_value_selects_for_literals_and_parameters(self, engines):
        conn = engines["threads1-rowsinf"]
        for sql, op in [
            ("a = 3", "thetaselect"), ("a = ?", "thetaselect"),
            ("a >= 1 AND a < 6", "rangeselect"), ("a >= ? AND a < ?", "rangeselect"),
            ("d BETWEEN ? AND ?", "rangeselect"), ("a NOT BETWEEN 1 AND 6", "rangeselect"),
            ("s IN ('bee', 'dog')", "inselect"), ("d IS NULL", "isnilselect"),
        ]:
            plan = conn.explain(f"SELECT k FROM t WHERE {sql}")
            assert f"algebra.{op}(" in plan, sql
            assert "batcalc." not in plan, sql
            assert "algebra.select(" not in plan, sql
