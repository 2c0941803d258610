"""Engine tests: SELECT shapes (projection, filters, ordering, grouping)."""

import math

import pytest

import repro
from repro.errors import SciQLError, SemanticError


class TestProjection:
    def test_select_star(self, obs_conn):
        result = obs_conn.execute("SELECT * FROM stations")
        assert result.names == ["name", "city"]
        assert len(result.rows()) == 3

    def test_qualified_star(self, obs_conn):
        result = obs_conn.execute(
            "SELECT s.* FROM stations s INNER JOIN obs o ON s.name = o.station"
        )
        assert result.names == ["name", "city"]

    def test_expressions_and_aliases(self, obs_conn):
        result = obs_conn.execute("SELECT temp * 2 AS double_temp FROM obs WHERE day = 3")
        assert result.names == ["double_temp"]
        assert result.rows() == [(14.5,)]

    def test_from_less_constants(self, conn):
        assert conn.execute("SELECT 1 + 2").rows() == [(3,)]

    def test_from_less_strings(self, conn):
        assert conn.execute("SELECT 'a' || 'b'").rows() == [("ab",)]

    def test_case_expression(self, obs_conn):
        result = obs_conn.execute(
            "SELECT station, CASE WHEN temp >= 10 THEN 'warm' "
            "WHEN temp >= 8 THEN 'mild' ELSE 'cold' END FROM obs "
            "WHERE temp IS NOT NULL ORDER BY station, day"
        )
        assert [r[1] for r in result.rows()] == ["warm", "warm", "mild", "cold"]

    def test_case_without_else_yields_null(self, obs_conn):
        result = obs_conn.execute(
            "SELECT CASE WHEN day = 1 THEN 1 END FROM obs ORDER BY day"
        )
        assert result.rows()[-1] == (None,)

    def test_cast(self, obs_conn):
        result = obs_conn.execute("SELECT CAST(temp AS INT) FROM obs WHERE day = 3")
        assert result.rows() == [(7,)]

    def test_math_functions(self, conn):
        conn.execute("CREATE TABLE t (a DOUBLE)")
        conn.execute("INSERT INTO t VALUES (4.0)")
        result = conn.execute("SELECT SQRT(a), FLOOR(a + 0.5), ABS(0 - a) FROM t")
        assert result.rows() == [(2.0, 4.0, 4.0)]

    def test_unknown_column_rejected(self, obs_conn):
        with pytest.raises(SemanticError):
            obs_conn.execute("SELECT ghost FROM obs")

    def test_unknown_table_rejected(self, conn):
        with pytest.raises(SciQLError):
            conn.execute("SELECT a FROM ghost")


class TestWhere:
    def test_comparisons(self, obs_conn):
        assert len(obs_conn.execute("SELECT * FROM obs WHERE temp > 9").rows()) == 2
        assert len(obs_conn.execute("SELECT * FROM obs WHERE temp <= 9").rows()) == 2

    def test_null_never_qualifies(self, obs_conn):
        result = obs_conn.execute("SELECT * FROM obs WHERE temp <> 9")
        stations = {r[0] for r in result.rows()}
        assert all(r[2] is not None for r in result.rows())

    def test_is_null(self, obs_conn):
        result = obs_conn.execute("SELECT station FROM obs WHERE temp IS NULL")
        assert result.rows() == [("rtm",)]

    def test_in_list(self, obs_conn):
        result = obs_conn.execute(
            "SELECT DISTINCT station FROM obs WHERE day IN (1, 3) ORDER BY station"
        )
        assert result.rows() == [("ams",), ("rtm",), ("utr",)]

    def test_not_in(self, obs_conn):
        result = obs_conn.execute("SELECT station FROM obs WHERE day NOT IN (1, 2)")
        assert result.rows() == [("utr",)]

    def test_between(self, obs_conn):
        result = obs_conn.execute(
            "SELECT station, temp FROM obs WHERE temp BETWEEN 9 AND 11"
        )
        assert {r[0] for r in result.rows()} == {"ams", "rtm"}

    def test_and_or_not(self, obs_conn):
        result = obs_conn.execute(
            "SELECT station FROM obs WHERE NOT (day = 1 OR day = 2) AND temp > 5"
        )
        assert result.rows() == [("utr",)]

    def test_string_predicate(self, obs_conn):
        result = obs_conn.execute("SELECT city FROM stations WHERE name = 'rtm'")
        assert result.rows() == [("Rotterdam",)]


class TestOrderLimitDistinct:
    def test_order_ascending_nulls_first(self, obs_conn):
        result = obs_conn.execute("SELECT temp FROM obs ORDER BY temp")
        assert result.rows() == [(None,), (7.25,), (9.0,), (10.5,), (12.0,)]

    def test_order_descending(self, obs_conn):
        result = obs_conn.execute("SELECT temp FROM obs ORDER BY temp DESC")
        assert result.rows()[0] == (12.0,)
        assert result.rows()[-1] == (None,)

    def test_order_by_alias(self, obs_conn):
        result = obs_conn.execute(
            "SELECT temp * 2 AS t2 FROM obs WHERE temp IS NOT NULL ORDER BY t2"
        )
        assert result.rows()[0] == (14.5,)

    def test_order_by_position(self, obs_conn):
        result = obs_conn.execute(
            "SELECT station, temp FROM obs WHERE temp IS NOT NULL ORDER BY 2 DESC"
        )
        assert result.rows()[0][1] == 12.0

    def test_order_by_hidden_expression(self, obs_conn):
        result = obs_conn.execute(
            "SELECT station FROM obs WHERE temp IS NOT NULL ORDER BY temp * -1"
        )
        assert result.rows()[0] == ("ams",)
        assert result.names == ["station"]

    def test_multi_key_order(self, obs_conn):
        result = obs_conn.execute("SELECT station, day FROM obs ORDER BY station, day DESC")
        assert result.rows()[:2] == [("ams", 2), ("ams", 1)]

    def test_limit_offset(self, obs_conn):
        result = obs_conn.execute("SELECT day FROM obs ORDER BY day LIMIT 2 OFFSET 1")
        assert result.rows() == [(1,), (2,)]

    def test_limit_zero(self, obs_conn):
        assert obs_conn.execute("SELECT * FROM obs LIMIT 0").rows() == []

    def test_distinct(self, obs_conn):
        result = obs_conn.execute("SELECT DISTINCT station FROM obs")
        assert sorted(result.rows()) == [("ams",), ("rtm",), ("utr",)]

    def test_distinct_multi_column(self, conn):
        conn.execute("CREATE TABLE t (a INT, b INT)")
        conn.execute("INSERT INTO t VALUES (1, 1), (1, 1), (1, 2)")
        assert len(conn.execute("SELECT DISTINCT a, b FROM t").rows()) == 2


class TestNonIntegralConstants:
    """``int_column <op> 1.5`` compares in double (ROADMAP item 0(a)).

    Run on the default pipeline and on fragmented ones; malgen lowers
    the comparison to ``algebra.{theta,range,in}select`` on both, for a
    literal and for a parameter.
    """

    VALUES = [None if i % 7 == 3 else (i * 5) % 23 - 8 for i in range(40)]
    CONSTANTS = (1.5, -0.5, 2.0, -7.25, 100.5)

    @pytest.fixture(
        params=[(1, math.inf), (1, 7), (4, 7), (2, 64)],
        ids=lambda knobs: f"threads{knobs[0]}-rows{knobs[1]}",
    )
    def tconn(self, request):
        nr_threads, fragment_rows = request.param
        connection = repro.connect(
            nr_threads=nr_threads, fragment_rows=fragment_rows
        )
        connection.execute("CREATE TABLE t (v INT, w BIGINT)")
        connection.executemany(
            "INSERT INTO t VALUES (?, ?)", [(v, v) for v in self.VALUES]
        )
        return connection

    def _expect(self, predicate):
        return sorted(v for v in self.VALUES if v is not None and predicate(v))

    def _both(self, connection, column, where, params):
        """Rows for *where* with literals inlined and as parameters."""
        marks = iter(params)
        literal = "".join(
            repr(next(marks)) if ch == "?" else ch for ch in where
        )
        sql = f"SELECT {column} FROM t WHERE "
        return (
            sorted(connection.execute(sql + literal).column(column)),
            sorted(connection.execute(sql + where, tuple(params)).column(column)),
        )

    @pytest.mark.parametrize("column", ["v", "w"])
    @pytest.mark.parametrize(
        "op, compare",
        [
            ("<", lambda v, c: v < c),
            ("<=", lambda v, c: v <= c),
            (">", lambda v, c: v > c),
            (">=", lambda v, c: v >= c),
            ("=", lambda v, c: v == c),
            ("<>", lambda v, c: v != c),
        ],
    )
    def test_theta(self, tconn, column, op, compare):
        for constant in self.CONSTANTS:
            expected = self._expect(lambda v: compare(v, constant))
            literal, bound = self._both(tconn, column, f"{column} {op} ?", [constant])
            assert literal == expected, (op, constant)
            assert bound == expected, (op, constant)

    @pytest.mark.parametrize("column", ["v", "w"])
    def test_between(self, tconn, column):
        for low, high in [(-0.5, 2.5), (1.5, 1.75), (-3, 4.5), (0.5, 9)]:
            inside = self._expect(lambda v: low <= v <= high)
            outside = self._expect(lambda v: not low <= v <= high)
            assert self._both(
                tconn, column, f"{column} BETWEEN ? AND ?", [low, high]
            ) == (inside, inside)
            assert self._both(
                tconn, column, f"{column} NOT BETWEEN ? AND ?", [low, high]
            ) == (outside, outside)

    @pytest.mark.parametrize("column", ["v", "w"])
    def test_in_list(self, tconn, column):
        for members in [(1.5, 2), (0.5, 1.5), (2.0, 7), (1.5,)]:
            marks = ", ".join("?" * len(members))
            inside = self._expect(lambda v: v in members)
            outside = self._expect(lambda v: v not in members)
            assert self._both(
                tconn, column, f"{column} IN ({marks})", members
            ) == (inside, inside)
            assert self._both(
                tconn, column, f"{column} NOT IN ({marks})", members
            ) == (outside, outside)


class TestSubqueries:
    def test_from_subquery(self, obs_conn):
        result = obs_conn.execute(
            "SELECT station FROM (SELECT station, temp FROM obs WHERE day = 1) AS d "
            "WHERE temp > 9"
        )
        assert result.rows() == [("ams",)]

    def test_nested_subqueries(self, obs_conn):
        result = obs_conn.execute(
            "SELECT s FROM (SELECT station AS s FROM "
            "(SELECT station FROM obs WHERE day = 3) AS inner1) AS outer1"
        )
        assert result.rows() == [("utr",)]

    def test_subquery_with_aggregation(self, obs_conn):
        result = obs_conn.execute(
            "SELECT station FROM (SELECT station, COUNT(*) AS n FROM obs "
            "GROUP BY station) AS counts WHERE n = 2 ORDER BY station"
        )
        assert result.rows() == [("ams",), ("rtm",)]
