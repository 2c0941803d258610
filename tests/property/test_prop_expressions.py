"""Differential oracle for value expressions (``MALGenerator._eval``).

Hypothesis generates SELECT-list expression *trees* over an INT / BIGINT
/ DOUBLE table with NULLs: ``+ - * / %`` (``/`` and ``%`` also by
constants, over dividends whose span is >= 0, < 0 or across zero),
unary minus, ABS, CAST, the six comparisons, AND / OR / NOT, CASE with
and without ELSE (and with a NULL branch), [NOT] BETWEEN, [NOT] IN,
IS [NOT] NULL, over columns, literals and ``?`` parameters.  Every tree is rendered to SQL and run

* against stdlib ``sqlite3`` on the same rows (the cross-engine oracle
  for arithmetic, NULL propagation and three-valued logic), and
* folded row by row through the scalar kernels (``calc.scalar``, what
  ``calc.<name>`` executes) — the BAT path and the scalar path must be
  one semantics at two granularities.  A column value enters the fold
  as a one-row column of the column's atom (:func:`apply`): a Python
  int has no declared width, so over scalars alone ``int ∘ int`` that
  does not fit widens to ``lng`` where an INT column makes the row
  NULL.  Wherever nothing overflows — every generated tree — the fold
  over bare Python values must give the same rows,

under ``nr_threads`` in {1, 2} x ``fragment_rows`` in {inf, 7}, with
each pass removed alone from the sequential and from the fragmented
pipeline (dropping ``mergetable`` leaves the plan unfragmented), and
with no optimizer pass at all.  (``strength_reduction`` is no pass any
more: ``MALGenerator._binary`` applies the neutral-operand rules when it
builds a node, so the corpus pins ``a + 0``, ``1 * d``, ``.. AND TRUE``
against sqlite instead of ablating them.)

Where sqlite and SciQL differ (32-bit INT, overflow → NULL instead of
REAL or an error, static CASE typing, ``%`` on doubles) is enumerated
next to the typing rules in the README, "Typing rules"; the generator
stays clear of those for the sqlite leg, and the fixed ``WIDTHS`` corpus
walks straight into them and is checked against the scalar fold only.
"""

import math
import sqlite3

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.gdk import calc
from repro.gdk.atoms import Atom
from repro.gdk.column import Column
from tests.property.junk_heap import result_bytes, under_two_junks

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

ROWS = 60
INT_MAX, LNG_MAX = 2**31 - 1, 2**63 - 1

#: (k, a INT, b INT, c BIGINT, d DOUBLE, e INT): NULLs in every non-key
#: column; c is tiny or past 2^53 (exactness), e sits at the INT limits.
DATA = [
    (
        k,
        None if k % 7 == 3 else k // 4 - 3,
        None if k % 11 == 5 else (k * 5) % 9 - 4,
        None if k % 9 == 4 else (k - 30 if k % 2 else (2**53 if k % 4 else 2**60) + k),
        None if k % 5 == 2 else ((k * 7) % 23) / 4.0 - 2.0,
        None if k % 6 == 1 else (INT_MAX - k, -INT_MAX - 1 + k, k - 30)[k % 3],
    )
    for k in range(ROWS)
]
COLUMNS = ("k", "a", "b", "c", "d", "e")
ATOMS = (Atom.INT, Atom.INT, Atom.INT, Atom.LNG, Atom.DBL, Atom.INT)
#: the rows as bare Python values, and as one-row columns of the declared atoms.
BARE = [dict(zip(COLUMNS, row)) for row in DATA]
TYPED = [
    {name: Column.from_pylist(atom, [value]) for name, atom, value in zip(COLUMNS, ATOMS, row)}
    for row in DATA
]


# ----------------------------------------------------------------------
# trees: ("col", name) | ("agg", fn, name) | ("lit", v) | ("param", v) | (op, *children)
# ----------------------------------------------------------------------
BINARY = {
    "add": "+", "sub": "-", "mul": "*", "div": "/", "mod": "%",
    "eq": "=", "ne": "<>", "lt": "<", "le": "<=", "gt": ">", "ge": ">=",
    "and": "AND", "or": "OR",
}
SQL_TYPES = {"INT": "int", "BIGINT": "lng", "DOUBLE": "dbl"}


def render(tree, params):
    """SQL text of *tree*; ``?`` values are appended to *params*."""
    op, *rest = tree
    if op == "col":
        return rest[0]
    if op == "agg":
        return f"{rest[0]}({rest[1]})"
    if op == "lit":
        value = rest[0]
        return "NULL" if value is None else repr(value)
    if op == "param":
        params.append(rest[0])
        return "?"
    if op in BINARY:
        return f"({render(rest[0], params)} {BINARY[op]} {render(rest[1], params)})"
    if op == "negate":
        return f"(- {render(rest[0], params)})"
    if op == "abs":
        return f"ABS({render(rest[0], params)})"
    if op == "not":
        return f"(NOT {render(rest[0], params)})"
    if op == "cast":
        return f"CAST({render(rest[0], params)} AS {rest[1]})"
    if op == "isnull":
        return f"({render(rest[0], params)} IS {'NOT ' if rest[1] else ''}NULL)"
    if op == "between":
        operand, low, high = (render(part, params) for part in rest[:3])
        return f"({operand} {'NOT ' if rest[3] else ''}BETWEEN {low} AND {high})"
    if op == "in":
        operand = render(rest[0], params)
        items = ", ".join(render(item, params) for item in rest[1])
        return f"({operand} {'NOT ' if rest[2] else ''}IN ({items}))"
    assert op == "case", op
    whens = " ".join(
        f"WHEN {render(cond, params)} THEN {render(value, params)}"
        for cond, value in rest[0]
    )
    otherwise = "" if rest[1] is None else f" ELSE {render(rest[1], params)}"
    return f"CASE {whens}{otherwise} END"


def apply(name, *operands):
    """``calc.<name>``; over a one-row column the kernel itself, which
    is what keeps a column value in the column's declared width."""
    if any(isinstance(operand, Column) for operand in operands):
        return calc.KERNELS[name][0](*operands)
    return calc.scalar(name, *operands)


def fold(tree, row):
    """*tree* over one row (bare values, or one-row columns) through the
    scalar kernels."""
    op, *rest = tree
    if op == "col":
        return row[rest[0]]
    if op == "agg":
        return row[rest[0], rest[1]]
    if op in ("lit", "param"):
        return rest[0]
    if op in BINARY or op in ("negate", "abs", "not"):
        return apply(op, *(fold(child, row) for child in rest))
    if op == "cast":
        return apply("cast", fold(rest[0], row), SQL_TYPES[rest[1]])
    if op == "isnull":
        null = apply("isnil", fold(rest[0], row))
        return apply("not", null) if rest[1] else null
    if op == "between":
        operand, low, high = (fold(part, row) for part in rest[:3])
        inside = apply("and", apply("ge", operand, low), apply("le", operand, high))
        return apply("not", inside) if rest[3] else inside
    if op == "in":
        operand, member = fold(rest[0], row), False
        for item in rest[1]:
            member = apply("or", member, apply("eq", operand, fold(item, row)))
        return apply("not", member) if rest[2] else member
    flat = [fold(part, row) for when in rest[0] for part in when]
    return apply("case", *flat, None if rest[1] is None else fold(rest[1], row))


def _binary(ops, left, right):
    return st.tuples(st.sampled_from(ops), left, right)


def _leaf(columns, constants):
    constant = st.one_of(constants, constants, constants, st.none())
    return st.one_of(
        st.sampled_from(columns).map(lambda name: ("col", name)),
        st.tuples(st.sampled_from(["lit", "param"]), constant),
    )


INT_CONSTANTS = st.integers(-6, 6)
DBL_CONSTANTS = st.sampled_from([-2.5, -0.75, 0.25, 0.5, 1.5, 3.25])
int_leaves = _leaf(["a", "b"], INT_CONSTANTS)
dbl_leaves = _leaf(["d"], DBL_CONSTANTS)


#: constant divisors: powers of two and not, negative, zero (NULL).
DIVISORS = st.tuples(
    st.sampled_from(["lit", "param"]), st.sampled_from([1, 2, 3, 4, 7, 8, 64, -1, -2, -3, 0])
)


def _signed(children):
    """Dividends whose span is >= 0 (k, ABS), < 0 (-1 - ABS) or either."""
    magnitude = st.tuples(st.just("abs"), children)
    return st.one_of(
        children,
        st.just(("col", "k")),
        magnitude,
        st.tuples(st.just("sub"), st.just(("lit", -1)), magnitude),
    )


def _grow_ints(children):
    return st.one_of(
        _binary(["add", "sub", "mul", "div", "mod"], children, children),
        _binary(["div", "mod"], _signed(children), DIVISORS),
        st.tuples(st.sampled_from(["negate", "abs"]), children),
    )


#: INT-typed trees; magnitudes stay far from 2^31 (|leaf| <= 59, <= 5 leaves).
ints = st.recursive(int_leaves, _grow_ints, max_leaves=5)
#: DOUBLE-typed trees: at least one operand of every node is a double.
dbls = st.recursive(
    st.one_of(dbl_leaves, ints.map(lambda tree: ("cast", tree, "DOUBLE"))),
    lambda children: st.one_of(
        _binary(["add", "sub", "mul", "div"], children, st.one_of(children, ints)),
        _binary(["add", "sub", "mul", "div"], ints, children),
        st.tuples(st.sampled_from(["negate", "abs"]), children),
    ),
    max_leaves=4,
)
#: BIGINT-typed trees around c (2^53.., 2^60..): every step keeps the
#: magnitude under 2^63, so sqlite never promotes to REAL.
big_terms = st.one_of(
    st.just(("col", "c")),
    st.tuples(st.sampled_from(["negate", "abs"]), st.just(("col", "c"))),
    _binary(["add", "sub"], st.just(("col", "c")), int_leaves),
    st.tuples(st.just("mul"), st.just(("col", "c")), st.sampled_from([("lit", 3), ("param", -2)])),
    ints.map(lambda tree: ("cast", tree, "BIGINT")),
)
bigs = st.one_of(big_terms, _binary(["add", "sub"], big_terms, int_leaves))
numbers = st.one_of(ints, dbls, bigs)


@st.composite
def comparisons(draw):
    shape = draw(st.sampled_from(["theta", "theta", "between", "in", "isnull"]))
    operand = draw(numbers)
    if shape == "theta":
        op = draw(st.sampled_from(["eq", "ne", "lt", "le", "gt", "ge"]))
        return (op, operand, draw(numbers))
    if shape == "between":
        return ("between", operand, draw(numbers), draw(numbers), draw(st.booleans()))
    if shape == "in":
        items = draw(st.lists(st.one_of(int_leaves, ints, dbl_leaves), min_size=1, max_size=4))
        return ("in", operand, tuple(items), draw(st.booleans()))
    return ("isnull", operand, draw(st.booleans()))


predicates = st.recursive(
    comparisons(),
    lambda children: st.one_of(
        _binary(["and", "or"], children, children),
        st.tuples(st.just("not"), children),
    ),
    max_leaves=4,
)


@st.composite
def cases(draw):
    family = draw(st.sampled_from([ints, dbls, bigs]))  # one family: see the docstring
    branch = st.one_of(family, st.just(("lit", None)))
    whens = draw(st.lists(st.tuples(predicates, branch), min_size=1, max_size=3))
    return ("case", tuple(whens), draw(st.one_of(st.none(), branch)))


@st.composite
def null_sided_cases(draw):
    """``case(p, col, NULL)`` and ``case(p, NULL, col)``: one mask a constant."""
    column = ("col", draw(st.sampled_from(["a", "b", "c", "d", "k"])))
    then, otherwise = (column, ("lit", None))[:: draw(st.sampled_from([1, -1]))]
    return ("case", ((draw(predicates), then),), otherwise)


expressions = st.one_of(
    numbers, predicates, cases(), cases().map(lambda c: ("abs", c)), null_sided_cases()
)

#: one statement per lowering rule (and each neutral operand), pinned.
CORPUS = [
    ("sub", ("col", "c"), ("col", "a")),
    ("add", ("col", "a"), ("lit", 0)),
    ("mul", ("lit", 1), ("col", "d")),
    ("mul", ("col", "a"), ("lit", 0)),
    ("div", ("col", "a"), ("col", "b")),
    ("mod", ("col", "a"), ("col", "b")),
    ("div", ("col", "d"), ("sub", ("col", "a"), ("col", "a"))),
    ("add", ("col", "a"), ("add", ("lit", 1), ("lit", 2))),
    ("add", ("col", "a"), ("param", 2.5)),
    ("add", ("col", "c"), ("param", None)),
    ("and", ("gt", ("col", "a"), ("lit", 1)), ("lit", True)),
    ("or", ("lt", ("col", "d"), ("lit", 0.5)), ("isnull", ("col", "b"), False)),
    ("not", ("between", ("col", "a"), ("lit", -1), ("col", "b"), False)),
    ("in", ("col", "a"), (("lit", 1), ("col", "b"), ("lit", None)), True),
    ("cast", ("col", "d"), "INT"),
    ("cast", ("mul", ("col", "d"), ("lit", 1.5)), "BIGINT"),
    ("abs", ("negate", ("col", "c"))),
    (
        "case",
        (
            (("gt", ("sub", ("col", "a"), ("col", "b")), ("lit", 3)), ("lit", 1)),
            (("eq", ("sub", ("col", "a"), ("col", "b")), ("lit", 2)), ("col", "b")),
        ),
        None,
    ),
    ("case", ((("isnull", ("col", "d"), False), ("lit", None)),), ("col", "d")),
    ("case", ((("eq", ("param", 1), ("lit", 1)), ("col", "c")),), ("lit", 0)),
    # constant divisors over dividends whose span is >= 0, < 0 or across zero
    ("div", ("col", "k"), ("lit", 2)),
    ("mod", ("col", "k"), ("lit", 8)),
    ("mod", ("col", "k"), ("lit", 7)),
    ("div", ("sub", ("col", "k"), ("lit", 60)), ("lit", 4)),
    ("mod", ("sub", ("col", "k"), ("lit", 60)), ("lit", 3)),
    ("mod", ("col", "a"), ("lit", 2)),
    ("div", ("col", "a"), ("lit", -2)),
    ("mod", ("abs", ("col", "b")), ("param", 0)),
    (
        "case",
        ((("eq", ("mod", ("col", "k"), ("lit", 2)), ("lit", 0)), ("col", "d")),),
        ("lit", None),
    ),
    ("case", ((("gt", ("col", "a"), ("lit", 0)), ("lit", None)),), ("col", "b")),
]

#: integer width and overflow: where sqlite diverges (module docstring).
WIDTHS = [
    ("add", ("col", "e"), ("lit", 1)),
    ("sub", ("col", "e"), ("lit", 1)),
    ("add", ("col", "e"), ("col", "e")),
    ("mul", ("col", "e"), ("col", "a")),
    ("negate", ("col", "e")),
    ("abs", ("col", "e")),
    ("div", ("col", "e"), ("lit", -1)),
    ("mod", ("col", "e"), ("lit", -1)),
    ("add", ("col", "e"), ("col", "c")),
    ("add", ("cast", ("col", "e"), "BIGINT"), ("lit", 1)),
    ("mul", ("col", "c"), ("col", "c")),
    ("mul", ("col", "c"), ("lit", 9)),
    ("add", ("mul", ("col", "c"), ("lit", 7)), ("col", "c")),
    ("sub", ("negate", ("mul", ("col", "c"), ("lit", 7))), ("mul", ("col", "c"), ("lit", 7))),
    ("gt", ("mul", ("col", "c"), ("col", "c")), ("lit", 5)),
    ("case", ((("gt", ("col", "e"), ("lit", 0)), ("add", ("col", "e"), ("lit", 5))),), ("col", "e")),
]

#: scalar aggregates meet literals and parameters in scalar ``calc`` ops:
#: COUNT and SUM are lng by declaration and MIN(c) by its column however
#: small the value; MAX(e) is an int that widens like a literal does.
AGGREGATES = [
    ("add", ("agg", "SUM", "a"), ("lit", INT_MAX)),
    ("add", ("agg", "COUNT", "*"), ("lit", INT_MAX)),
    ("sub", ("mul", ("agg", "SUM", "b"), ("param", INT_MAX)), ("lit", 2)),
    ("sub", ("agg", "MIN", "c"), ("param", INT_MAX)),
    ("add", ("agg", "MAX", "e"), ("lit", 1)),
    ("sub", ("agg", "MIN", "e"), ("param", 10)),
    ("mul", ("mul", ("agg", "COUNT", "a"), ("lit", 65536)), ("lit", 65536)),
    ("div", ("agg", "SUM", "a"), ("sub", ("agg", "COUNT", "*"), ("lit", ROWS))),
    (
        "case",
        ((("gt", ("agg", "SUM", "a"), ("lit", 0)), ("add", ("agg", "COUNT", "*"), ("lit", INT_MAX))),),
        ("agg", "MAX", "e"),
    ),
]


#: integer SUMs float64 cannot hold (c is 2^53 + k or 2^60 + k on even
#: rows): each is compared with sqlite, scalar and per group.
EXACT_SUMS = [
    "k IN (2, 33)",              # 2^53 + 2 and 3: the total is odd
    "k % 4 = 2",                 # fifteen values past 2^53
    "k % 4 = 0 AND k < 28",      # six values past 2^60: 6 * 2^60 fits lng
    "k < 28",                    # both, and the small odd rows
    "k % 2 = 1",                 # small values only: what float64 did hold
]


def _aggregated():
    """The aggregates of DATA as the engine's scalars: a declared lng is
    a ``numpy.int64``, an INT aggregate a Python int."""
    values = {}
    for index, (name, atom) in enumerate(zip(COLUMNS, ATOMS)):
        present = [row[index] for row in DATA if row[index] is not None]
        wide = np.int64 if atom is Atom.LNG else int
        if atom is Atom.INT:
            values["SUM", name] = np.int64(sum(present))
        values["COUNT", name] = np.int64(len(present))
        values["MIN", name], values["MAX", name] = wide(min(present)), wide(max(present))
    values["COUNT", "*"] = np.int64(ROWS)
    return values


# ----------------------------------------------------------------------
# engines and oracles
# ----------------------------------------------------------------------
def _load(conn):
    conn.execute("CREATE TABLE t (k INT, a INT, b INT, c BIGINT, d DOUBLE, e INT)")
    conn.executemany("INSERT INTO t VALUES (?, ?, ?, ?, ?, ?)", DATA)


@pytest.fixture(scope="module")
def engines():
    connections = {}
    for nr_threads in (1, 2):
        for fragment_rows in (math.inf, 7):
            conn = repro.connect(nr_threads=nr_threads, fragment_rows=fragment_rows)
            _load(conn)
            connections[f"threads{nr_threads}-rows{fragment_rows}"] = conn
    for base in ("threads1-rowsinf", "threads2-rows7"):
        for ablated in connections[base].pipeline:
            conn = connections[base].database.connect()
            # A session of the same engine, under the base's pipeline less one pass.
            conn.pipeline = tuple(p for p in connections[base].pipeline if p is not ablated)
            connections[f"{base}-no-{ablated.name}"] = conn
    conn = connections["threads2-rows7"].database.connect()
    conn.pipeline = ()  # the plan exactly as malgen emits it
    connections["threads2-rows7-unoptimized"] = conn
    yield connections
    for conn in connections.values():
        conn.close()


@pytest.fixture(scope="module")
def oracle():
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE t (k INTEGER, a INTEGER, b INTEGER, c INTEGER, d REAL, e INTEGER)")
    conn.executemany("INSERT INTO t VALUES (?, ?, ?, ?, ?, ?)", DATA)
    yield conn
    conn.close()


def _same(got, want):
    if got is None or want is None:
        return got is want
    if isinstance(got, float) or isinstance(want, float):
        return math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)
    return got == want  # True == 1: sqlite spells a truth value as an integer


def _check(engines, tree, oracle=None):
    params: list = []
    sql = f"SELECT k, {render(tree, params)} AS e FROM t ORDER BY k"
    expected = [fold(tree, row) for row in TYPED]
    expected = [e.get(0) if isinstance(e, Column) else e for e in expected]
    if oracle is not None:
        # Nothing overflows here: bare scalars, sqlite and columns agree.
        bare = [fold(tree, row) for row in BARE]
        for name, theirs in (
            ("sqlite", [value for _, value in oracle.execute(sql, params)]),
            ("the fold in declared widths", expected),
        ):
            mismatch = [
                (k, b, t) for k, (b, t) in enumerate(zip(bare, theirs)) if not _same(b, t)
            ]
            assert not mismatch, (f"scalar fold vs {name}", sql, params, mismatch[:3])
    for name, conn in engines.items():
        got = conn.execute(sql, params).column("e")
        mismatch = [
            (k, g, e) for k, (g, e) in enumerate(zip(got, expected)) if not _same(g, e)
        ]
        assert not mismatch, (name, sql, params, mismatch[:3])


class TestExpressionOracle:
    def test_the_ablated_sessions_run_other_pipelines(self, engines):
        fragmented = [p.name for p in engines["threads2-rows7"].pipeline]
        assert fragmented == [
            "constant_fold", "common_terms", "mergetable", "dead_code", "garbage_collect"
        ]
        for name in fragmented:
            ablated = [p.name for p in engines[f"threads2-rows7-no-{name}"].pipeline]
            assert ablated == [p for p in fragmented if p != name]
        assert engines["threads2-rows7-unoptimized"].pipeline == ()
        sql = "SELECT k, a + b * 2 AS e FROM t"
        plan = engines["threads2-rows7"].explain(sql)
        assert plan.count("batcalc.expr(") > 1  # one copy per fragment
        assert "mat.partition" not in engines["threads2-rows7-no-mergetable"].explain(sql)

    @pytest.mark.parametrize("tree", CORPUS, ids=lambda t: render(t, []))
    def test_corpus(self, engines, oracle, tree):
        _check(engines, tree, oracle)

    @pytest.mark.parametrize("tree", WIDTHS, ids=lambda t: render(t, []))
    def test_widths_and_overflow_follow_the_scalar_kernels(self, engines, tree):
        _check(engines, tree)

    def test_the_width_corpus_does_overflow(self):
        for tree in (WIDTHS[0], WIDTHS[2], WIDTHS[10], WIDTHS[11]):
            assert any(
                fold(tree, row).get(0) is None
                and None not in [fold(child, row).get(0) for child in tree[1:] if child[0] == "col"]
                for row in TYPED
            ), tree
        # ... in a column's width; a bare Python int widens instead.
        assert [fold(WIDTHS[0], row) for row in BARE if row["e"] == INT_MAX - 3] == [INT_MAX - 2]
        assert [fold(WIDTHS[0], row) for row in BARE if row["e"] == INT_MAX] == [INT_MAX + 1]

    @pytest.mark.parametrize("tree", AGGREGATES, ids=lambda t: render(t, []))
    def test_scalar_aggregates_keep_their_declared_width(self, engines, oracle, tree):
        params: list = []
        sql = f"SELECT {render(tree, params)} AS e FROM t"
        expected = fold(tree, _aggregated())
        assert expected is None or abs(expected) > INT_MAX  # an int could not hold it
        assert _same(expected, oracle.execute(sql, params).fetchone()[0]), sql
        for name, conn in engines.items():
            assert _same(conn.execute(sql, params).scalar(), expected), (name, sql)

    @pytest.mark.parametrize("where", EXACT_SUMS)
    def test_integer_sums_are_exact(self, engines, oracle, where):
        scalar = f"SELECT SUM(c), SUM(e), COUNT(c) FROM t WHERE {where}"
        grouped = f"SELECT k % 3, SUM(c), SUM(e) FROM t WHERE {where} GROUP BY k % 3 ORDER BY 1"
        for sql in (scalar, grouped):
            expected = oracle.execute(sql).fetchall()
            if sql is scalar and where != "k % 2 = 1":
                assert float(expected[0][0]) != expected[0][0] or expected[0][0] % 2  # past 2^53
            for name, conn in engines.items():
                assert conn.execute(sql).rows() == expected, (name, sql)

    def test_an_integer_sum_past_lng_is_null(self, engines, oracle):
        """The element-wise overflow rule; sqlite raises instead."""
        with pytest.raises(sqlite3.OperationalError, match="integer overflow"):
            oracle.execute("SELECT SUM(c) FROM t").fetchall()
        fits = sum(row[3] for row in DATA if row[3] is not None and row[0] % 4)
        for name, conn in engines.items():
            assert conn.execute("SELECT SUM(c), COUNT(c) FROM t").rows() == [(None, 53)], name
            rows = conn.execute(
                "SELECT CASE WHEN k % 4 = 0 THEN 0 ELSE 1 END, SUM(c) FROM t GROUP BY "
                "CASE WHEN k % 4 = 0 THEN 0 ELSE 1 END ORDER BY 1"
            ).rows()
            assert rows == [(0, None), (1, fits)], name

    @settings(max_examples=150, deadline=None)
    @given(tree=expressions)
    def test_generated_expressions(self, engines, oracle, tree):
        _check(engines, tree, oracle)

    @settings(max_examples=40, deadline=None)
    @given(tree=expressions)
    def test_a_junk_filled_heap_changes_no_byte(self, engines, tree):
        params: list = []
        sql = f"SELECT k, {render(tree, params)} AS e FROM t ORDER BY k"
        sessions = [engines["threads1-rowsinf"], engines["threads2-rows7"]]
        first, second = under_two_junks(
            lambda: [result_bytes(conn.execute(sql, params)) for conn in sessions]
        )
        assert first == second, sql
