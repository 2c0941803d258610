"""Engine tests: joins and value-based grouping."""

import pytest

import repro
from repro.errors import SemanticError


class TestJoins:
    def test_inner_join(self, obs_conn):
        result = obs_conn.execute(
            "SELECT o.station, s.city FROM obs o INNER JOIN stations s "
            "ON o.station = s.name WHERE o.day = 1 ORDER BY o.station"
        )
        assert result.rows() == [("ams", "Amsterdam"), ("rtm", "Rotterdam")]

    def test_join_produces_all_matches(self, obs_conn):
        result = obs_conn.execute(
            "SELECT o.day FROM obs o INNER JOIN stations s ON o.station = s.name"
        )
        assert len(result.rows()) == 4  # utr has no station row

    def test_left_join_keeps_unmatched(self, obs_conn):
        result = obs_conn.execute(
            "SELECT s.name, o.temp FROM stations s LEFT JOIN obs o "
            "ON s.name = o.station ORDER BY s.name"
        )
        rows = result.rows()
        assert ("gro", None) in rows  # Groningen has no observations

    def test_cross_join_cardinality(self, obs_conn):
        result = obs_conn.execute("SELECT * FROM stations CROSS JOIN stations AS t2")
        assert len(result.rows()) == 9

    def test_comma_join_with_where(self, obs_conn):
        result = obs_conn.execute(
            "SELECT o.station, s.city FROM obs o, stations s "
            "WHERE o.station = s.name AND o.day = 2"
        )
        assert sorted(result.rows()) == [("ams", "Amsterdam"), ("rtm", "Rotterdam")]

    def test_theta_join_via_cross(self, conn):
        conn.execute("CREATE TABLE a (v INT)")
        conn.execute("CREATE TABLE b (w INT)")
        conn.execute("INSERT INTO a VALUES (1), (5)")
        conn.execute("INSERT INTO b VALUES (3)")
        result = conn.execute("SELECT a.v FROM a INNER JOIN b ON a.v < b.w")
        assert result.rows() == [(1,)]

    def test_join_on_computed_key(self, conn):
        conn.execute("CREATE TABLE a (v INT)")
        conn.execute("CREATE TABLE b (w INT)")
        conn.execute("INSERT INTO a VALUES (1), (2)")
        conn.execute("INSERT INTO b VALUES (2), (4)")
        result = conn.execute("SELECT a.v, b.w FROM a INNER JOIN b ON a.v * 2 = b.w")
        assert sorted(result.rows()) == [(1, 2), (2, 4)]

    def test_multi_condition_join(self, conn):
        conn.execute("CREATE TABLE a (x INT, y INT)")
        conn.execute("CREATE TABLE b (x INT, y INT)")
        conn.execute("INSERT INTO a VALUES (1, 1), (1, 2)")
        conn.execute("INSERT INTO b VALUES (1, 1), (1, 9)")
        result = conn.execute(
            "SELECT a.x, a.y FROM a INNER JOIN b ON a.x = b.x AND a.y = b.y"
        )
        assert result.rows() == [(1, 1)]

    def test_self_join_with_aliases(self, obs_conn):
        result = obs_conn.execute(
            "SELECT a.station FROM obs a INNER JOIN obs b "
            "ON a.station = b.station AND a.day = b.day + 1"
        )
        assert sorted(result.rows()) == [("ams",), ("rtm",)]

    def test_ambiguous_column_rejected(self, obs_conn):
        with pytest.raises(SemanticError):
            obs_conn.execute(
                "SELECT station FROM obs a INNER JOIN obs b ON a.day = b.day"
            )

    def test_duplicate_alias_rejected(self, obs_conn):
        with pytest.raises(SemanticError):
            obs_conn.execute("SELECT * FROM obs, obs")

    def test_array_table_join(self, conn):
        """The AreasOfInterest pattern: array ⋈ table."""
        conn.execute("CREATE ARRAY img (x INT DIMENSION[0:1:4], y INT DIMENSION[0:1:4], v INT DEFAULT 1)")
        conn.execute("CREATE TABLE pts (px INT, py INT)")
        conn.execute("INSERT INTO pts VALUES (1, 1), (3, 2)")
        result = conn.execute(
            "SELECT i.x, i.y, i.v FROM img i INNER JOIN pts p "
            "ON i.x = p.px AND i.y = p.py ORDER BY i.x"
        )
        assert result.rows() == [(1, 1, 1), (3, 2, 1)]


class TestValueGroupBy:
    def test_basic_aggregates(self, obs_conn):
        result = obs_conn.execute(
            "SELECT station, COUNT(*), COUNT(temp), SUM(temp), AVG(temp), "
            "MIN(temp), MAX(temp) FROM obs GROUP BY station ORDER BY station"
        )
        rows = result.rows()
        assert rows[0] == ("ams", 2, 2, 22.5, 11.25, 10.5, 12.0)
        assert rows[1] == ("rtm", 2, 1, 9.0, 9.0, 9.0, 9.0)
        assert rows[2] == ("utr", 1, 1, 7.25, 7.25, 7.25, 7.25)

    def test_group_by_expression(self, obs_conn):
        result = obs_conn.execute(
            "SELECT day MOD 2, COUNT(*) FROM obs GROUP BY day MOD 2 ORDER BY 1"
        )
        assert result.rows() == [(0, 2), (1, 3)]

    def test_group_by_multiple_keys(self, obs_conn):
        result = obs_conn.execute(
            "SELECT station, day, COUNT(*) FROM obs GROUP BY station, day"
        )
        assert len(result.rows()) == 5

    def test_having(self, obs_conn):
        result = obs_conn.execute(
            "SELECT station, COUNT(temp) FROM obs GROUP BY station "
            "HAVING COUNT(temp) > 1"
        )
        assert result.rows() == [("ams", 2)]

    def test_having_on_key(self, obs_conn):
        result = obs_conn.execute(
            "SELECT station, COUNT(*) FROM obs GROUP BY station "
            "HAVING station = 'utr'"
        )
        assert result.rows() == [("utr", 1)]

    def test_expression_of_aggregates(self, obs_conn):
        result = obs_conn.execute(
            "SELECT station, MAX(temp) - MIN(temp) FROM obs GROUP BY station "
            "ORDER BY station"
        )
        assert result.rows()[0] == ("ams", 1.5)

    def test_case_over_aggregate(self, obs_conn):
        result = obs_conn.execute(
            "SELECT station, CASE WHEN AVG(temp) > 10 THEN 'warm' ELSE 'cool' END "
            "FROM obs GROUP BY station ORDER BY station"
        )
        assert [r[1] for r in result.rows()] == ["warm", "cool", "cool"]

    def test_null_is_a_group(self, conn):
        conn.execute("CREATE TABLE t (k INT, v INT)")
        conn.execute("INSERT INTO t VALUES (1, 10), (NULL, 20), (NULL, 30)")
        result = conn.execute("SELECT k, SUM(v) FROM t GROUP BY k ORDER BY k")
        assert result.rows() == [(None, 50), (1, 10)]

    def test_bare_column_rejected(self, obs_conn):
        with pytest.raises(SemanticError):
            obs_conn.execute("SELECT day, COUNT(*) FROM obs GROUP BY station")

    def test_order_by_aggregate(self, obs_conn):
        result = obs_conn.execute(
            "SELECT station FROM obs GROUP BY station ORDER BY COUNT(temp) DESC, station"
        )
        assert result.rows()[0] == ("ams",)

    def test_group_empty_table(self, conn):
        conn.execute("CREATE TABLE t (k INT, v INT)")
        assert conn.execute("SELECT k, SUM(v) FROM t GROUP BY k").rows() == []


class TestScalarAggregates:
    def test_count_star(self, obs_conn):
        assert obs_conn.execute("SELECT COUNT(*) FROM obs").scalar() == 5

    def test_count_skips_nulls(self, obs_conn):
        assert obs_conn.execute("SELECT COUNT(temp) FROM obs").scalar() == 4

    def test_sum_avg(self, obs_conn):
        result = obs_conn.execute("SELECT SUM(temp), AVG(temp) FROM obs")
        assert result.rows() == [(38.75, 9.6875)]

    def test_arithmetic_on_aggregates(self, obs_conn):
        result = obs_conn.execute("SELECT MAX(temp) - MIN(temp) FROM obs")
        assert result.scalar() == 4.75

    def test_aggregate_over_expression(self, obs_conn):
        assert obs_conn.execute("SELECT SUM(day * 2) FROM obs").scalar() == 18

    def test_aggregate_with_where(self, obs_conn):
        assert obs_conn.execute(
            "SELECT COUNT(*) FROM obs WHERE station = 'ams'"
        ).scalar() == 2

    def test_empty_input_aggregates(self, conn):
        conn.execute("CREATE TABLE t (a INT)")
        result = conn.execute("SELECT COUNT(*), SUM(a), MIN(a) FROM t")
        assert result.rows() == [(0, None, None)]

    def test_bare_column_next_to_aggregate_rejected(self, obs_conn):
        with pytest.raises(SemanticError):
            obs_conn.execute("SELECT station, COUNT(*) FROM obs")


class TestOneWalkerForEveryContext:
    """Every output context accepts the same expression forms.

    The scalar-aggregate, grouped and tiled contexts share one expression
    walker, so what works around an aggregate under GROUP BY works
    without it (and under structural grouping) and returns the value of
    its one-group twin.
    """

    FORMS = [
        ("ABS(SUM(v))", 3),
        ("CASE WHEN COUNT(*) > 2 THEN 1 ELSE 0 END", 1),
        ("SUM(v) IS NULL", False),
        ("SUM(v) BETWEEN -10 AND 10", True),
        ("SUM(v) IN (-3, 9)", True),
        ("CAST(SUM(v) AS DOUBLE) / 2", -1.5),
        ("MIN(w) IS NULL", True),
    ]

    @pytest.fixture
    def tconn(self, conn):
        conn.execute("CREATE TABLE t (g INT, v INT, w INT)")
        conn.execute(
            "INSERT INTO t VALUES (1, -5, NULL), (1, 2, NULL), (2, NULL, NULL)"
        )
        return conn

    @pytest.mark.parametrize("form,expected", FORMS)
    def test_scalar_aggregate_matches_its_one_group_twin(self, tconn, form, expected):
        scalar = tconn.execute(f"SELECT {form} FROM t").rows()
        grouped = tconn.execute(f"SELECT {form} FROM t GROUP BY g * 0").rows()
        assert scalar == grouped == [(expected,)]

    def test_is_null_of_a_scalar_is_calc_isnil(self, tconn):
        plan = tconn.explain("SELECT SUM(v) IS NULL FROM t")
        assert "calc.isnil(" in plan
        assert "batcalc." not in plan
        assert "bat.project_const(" not in plan  # never broadcast to a BAT

    def test_having_over_a_scalar_aggregate(self, tconn):
        keep = "SELECT SUM(v), COUNT(*) FROM t HAVING SUM(v) < 0"
        drop = "SELECT SUM(v), COUNT(*) FROM t HAVING SUM(v) > 0 AND COUNT(*) = 3"
        assert tconn.execute(keep).rows() == [(-3, 3)]
        assert tconn.execute(drop).rows() == []
        for sql in (keep, drop):
            twin = sql.replace("HAVING", "GROUP BY g * 0 HAVING")
            assert tconn.execute(twin).rows() == tconn.execute(sql).rows()

    def test_tiled_select_list_wraps_aggregates(self, conn):
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:4], v INT DEFAULT 0)")
        conn.execute("UPDATE a SET v = x * 3")
        conn.execute("DELETE FROM a WHERE x = 3")
        result = conn.execute(
            "SELECT x, CAST(SUM(v) AS DOUBLE) / 2, MIN(v) IS NULL, "
            "CASE WHEN COUNT(v) BETWEEN 1 AND 1 THEN -1 ELSE ABS(MAX(v)) END "
            "FROM a GROUP BY a[x:x+2]"
        )
        assert result.rows() == [
            (0, 1.5, False, 3),
            (1, 4.5, False, 6),
            (2, 3.0, False, -1),
            (3, None, True, None),
        ]
