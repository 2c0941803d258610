"""One typing table, three readers that must agree.

For every output item of the pinned expression corpora (PR 14/16's
``tests/property`` corpora plus a statement list over strings, math,
CASE widening, grouping, tiling and set operations):

    the binder's annotation  ==  the declared type of the MAL result
    variable  ==  the atom of the ``Result`` column at run time,

on the default pipeline and on the forced-fragmented one, with every
optimizer pass re-verified (``REPRO_VERIFY_PLANS=1`` — the verifier
re-derives each ``batcalc.expr`` atom from the same table).

``?`` markers are inlined as literals here: an untyped parameter is
typed by the value bound at run time, which is the point of
:class:`TestRunTimeTyping` below.
"""

import pytest

import repro
from repro.algebra.compiler import plan_statement
from repro.gdk.atoms import Atom
from repro.sql.parser import Parser

from tests.property import test_prop_expressions as expressions

INT_RANGE = range(-(2**31), 2**31)


def _inline(tree):
    """*tree* with every ``("param", v)`` leaf as the literal ``v``."""
    if not isinstance(tree, tuple):
        return tree
    if tree[:1] == ("param",):
        return ("lit", tree[1])
    return tuple(_inline(part) for part in tree)


ROWWISE = [
    f"SELECT k, {expressions.render(_inline(tree), [])} AS e FROM t ORDER BY k"
    for tree in expressions.CORPUS + expressions.WIDTHS
] + [
    "SELECT k, UPPER(TRIM(name)) || '-' || LOWER(name), LENGTH(name), name LIKE '%a%' FROM s",
    "SELECT k, SUBSTRING(name, 2, 3), FLOOR(w), CEIL(k), ROUND(w), SQRT(k), ABS(w) FROM s",
    "SELECT k, CASE WHEN w > 1 THEN k ELSE w END, CASE WHEN k > 4 THEN NULL ELSE k END FROM s",
    "SELECT t.k, a + w, name FROM t INNER JOIN s ON t.k = s.k WHERE a > -2 ORDER BY t.k",
    "SELECT a, COUNT(*), SUM(b), SUM(d), AVG(b), MIN(c), MAX(d), COUNT(DISTINCT b) "
    "FROM t GROUP BY a HAVING COUNT(*) > 2 ORDER BY a",
    "SELECT a + 1, SUM(c), STDDEV(d), MEDIAN(b), MIN(a) + MAX(c) FROM t GROUP BY a + 1",
    "SELECT q.a, q.n * 2 FROM (SELECT a, COUNT(*) AS n FROM t GROUP BY a) AS q ORDER BY q.a",
    "SELECT a FROM t UNION ALL SELECT w FROM s",
    "SELECT k, a FROM t EXCEPT SELECT k, c FROM t WHERE k > 30",
    "SELECT k FROM t INTERSECT SELECT k FROM s ORDER BY k",
    "SELECT [x], [y], SUM(v), AVG(v), MIN(v), COUNT(*) FROM m GROUP BY m[x-1:x+2][y:y+2]",
    "SELECT [x], [y], m[x-1][y] - v, v * 2.5 FROM m",
]
#: one row each: a scalar has only the width its value says (see below).
SCALARS = [
    f"SELECT {expressions.render(_inline(tree), [])} AS e FROM t"
    for tree in expressions.AGGREGATES
] + [
    "SELECT COUNT(*), SUM(a), SUM(d), AVG(a), MIN(c), MAX(a), MIN(d), COUNT(DISTINCT b) FROM t",
    "SELECT 1 + 2, 'x' || 'y', 7 / 2, 2.5 * 2, CAST(1 AS BIGINT), CAST(3 AS DOUBLE), 1 < 2",
]


@pytest.fixture(scope="module", params=["default", "fragmented"])
def conn(request):
    patch = pytest.MonkeyPatch()
    patch.setenv("REPRO_VERIFY_PLANS", "1")
    settings = {"nr_threads": 2, "fragment_rows": 7} if request.param == "fragmented" else {}
    connection = repro.connect(**settings)
    expressions._load(connection)
    connection.execute("CREATE TABLE s (k INT, name VARCHAR(16), w DOUBLE)")
    connection.executemany(
        "INSERT INTO s VALUES (?, ?, ?)",
        [(k, None if k % 5 == 0 else f" Name{k % 4} ", None if k % 3 == 0 else k / 8.0)
         for k in range(0, 40, 2)],
    )
    connection.execute(
        "CREATE ARRAY m (x INT DIMENSION[0:1:6], y INT DIMENSION[0:1:5], v INT DEFAULT 0)"
    )
    connection.execute("UPDATE m SET v = x * 7 - y * 3")
    connection.execute("DELETE FROM m WHERE x = y")
    yield connection
    connection.close()
    patch.undo()


def _three_views(conn, sql):
    """Per output item: (binder atom, declared MAL atom, run-time column)."""
    plan = plan_statement(Parser(sql).parse_statement(), conn.catalog)
    program = conn.compile(sql)
    result = conn.execute(sql)
    declared = [program.types[var].atom for _, var in program.result_columns]
    assert len(plan.items) == len(declared) == len(result.columns)
    return list(zip((item.atom for item in plan.items), declared, result.columns))


class TestTypeAgreement:
    def test_the_fragmented_leg_is_fragmented_and_verified(self, conn):
        if conn.fragment_rows == 7:
            assert "mat.pack" in conn.explain(ROWWISE[0])
        assert conn.verify_plan(ROWWISE[0]).checked_ops > 0

    @pytest.mark.parametrize("sql", ROWWISE)
    def test_binder_mal_and_result_agree(self, conn, sql):
        for bound, declared, column in _three_views(conn, sql):
            assert bound is not None
            assert bound is declared is column.atom, (sql, bound, declared, column.atom)

    @pytest.mark.parametrize("sql", SCALARS)
    def test_scalars_agree_up_to_their_width_rule(self, conn, sql):
        """A scalar carries no declared width, only its value: NULL packs
        as ``int``, and an ``int`` result that does not fit was computed
        in ``lng`` (README "Typing rules", scalars).  Everything else —
        every declared ``lng`` however small — agrees."""
        for bound, declared, column in _three_views(conn, sql):
            value = column.get(0)
            assert bound is declared
            if value is None:
                assert column.atom is Atom.INT
            elif bound is Atom.INT and value not in INT_RANGE:
                assert column.atom is Atom.LNG
            else:
                assert column.atom is bound, (sql, bound, column.atom)


class TestRunTimeTyping:
    """Where the static atom is *unknown*, the value decides."""

    def test_untyped_parameter_takes_the_bound_values_atom(self, conn):
        plan = plan_statement(Parser("SELECT a + ? FROM t").parse_statement(), conn.catalog)
        assert plan.items[0].atom is Atom.INT  # the marker widens nothing
        assert conn.execute("SELECT a + ? FROM t", (1,)).columns[0].atom is Atom.INT
        assert conn.execute("SELECT a + ? FROM t", (2.5,)).columns[0].atom is Atom.DBL
        typed = "SELECT a + CAST(? AS BIGINT) FROM t"
        assert plan_statement(Parser(typed).parse_statement(), conn.catalog).items[0].atom is Atom.LNG
        assert conn.execute(typed, (1,)).columns[0].atom is Atom.LNG

    def test_untyped_null_has_no_static_atom(self, conn):
        plan = plan_statement(Parser("SELECT NULL, k FROM t").parse_statement(), conn.catalog)
        assert [item.atom for item in plan.items] == [None, Atom.INT]
        assert conn.execute("SELECT NULL, k FROM t").columns[0].atom is Atom.INT


class TestArithmeticAggregatesTakeNoStrings:
    """SUM, AVG and PROD over VARCHAR: one binder rule, in every context."""

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT SUM(s) FROM t",
            "SELECT AVG(s) FROM t",
            "SELECT PROD(s) FROM t",
            "SELECT k, AVG(s) FROM t GROUP BY k",
            "SELECT k, SUM(s) FROM t GROUP BY k",
            "SELECT [x], SUM(w) FROM a GROUP BY a[x:x+2]",
        ],
    )
    def test_rejected_when_bound(self, sql):
        connection = repro.connect()
        connection.execute("CREATE TABLE t (k INT, s VARCHAR(8))")
        connection.execute("INSERT INTO t VALUES (1, '1'), (1, '2')")
        connection.execute("CREATE ARRAY a (x INT DIMENSION[0:1:2], w VARCHAR(8))")
        with pytest.raises(repro.ProgrammingError, match="needs a numeric argument"):
            connection.execute(sql)
        rows = connection.execute("SELECT MIN(s), MAX(s), COUNT(s) FROM t").rows()
        assert rows == [("1", "2", 2)]
