"""Prepared statements, the LRU plan cache, and parameter binding."""

import numpy as np
import pytest

import repro
from repro.errors import ProgrammingError, SemanticError


@pytest.fixture
def aconn():
    conn = repro.connect()
    conn.execute(
        "CREATE ARRAY m (x INT DIMENSION[0:1:4], y INT DIMENSION[0:1:4], "
        "v INT DEFAULT 0)"
    )
    conn.execute("UPDATE m SET v = x * 10 + y")
    return conn


# ----------------------------------------------------------------------
# prepared statements skip the front end
# ----------------------------------------------------------------------
class TestPreparedStatements:
    def test_reexecution_compiles_nothing(self, aconn):
        statement = aconn.prepare("SELECT v FROM m WHERE x = ? AND y = ?")
        compiles = aconn.compile_count
        values = [statement.execute((x, y)).scalar() for x in range(4) for y in range(4)]
        assert aconn.compile_count == compiles  # zero front-end work
        assert values == [x * 10 + y for x in range(4) for y in range(4)]

    def test_parameters_signature(self, aconn):
        statement = aconn.prepare("SELECT v FROM m WHERE x = :a AND y = :b")
        assert statement.parameters == ("a", "b")
        assert statement.execute({"a": 1, "b": 2}).scalar() == 12

    def test_explain_shows_param_operands(self, aconn):
        statement = aconn.prepare("SELECT v FROM m WHERE x = ?")
        assert "?0" in statement.explain()

    def test_executemany(self, aconn):
        statement = aconn.prepare("INSERT INTO m VALUES (?, ?, ?)")
        result = statement.executemany([(0, 0, 99), (1, 1, 98)])
        assert result.affected == 2
        assert aconn.execute("SELECT v FROM m WHERE x = 0 AND y = 0").scalar() == 99

    def test_survives_schema_change_by_repreparing(self, aconn):
        aconn.execute("CREATE TABLE t (a INT)")
        statement = aconn.prepare("SELECT COUNT(*) FROM t")
        aconn.execute("INSERT INTO t VALUES (1)")
        assert statement.execute().scalar() == 1
        aconn.execute("DROP TABLE t")
        aconn.execute("CREATE TABLE t (a INT)")
        assert statement.execute().scalar() == 0  # re-prepared, fresh plan

    def test_point_update_follows_a_new_dimension_range(self, aconn):
        """The pinned plan bakes the array's shape into ``array.cellindex``;
        a schema change re-prepares it for the new shape."""
        statement = aconn.prepare("UPDATE m SET v = ? WHERE x = ? AND y = ?")
        assert '"[4, 4]"' in statement.explain()
        assert statement.execute((-7, 1, 2)).affected == 1
        aconn.execute("ALTER ARRAY m ALTER DIMENSION x SET RANGE [-2:1:4]")
        assert statement.execute((99, 1, 2)).affected == 1
        assert '"[6, 4]"' in statement.explain()
        assert statement.execute((55, -2, 0)).affected == 1
        assert statement.execute((0, 4, 0)).affected == 0
        changed = aconn.execute("SELECT x, y, v FROM m WHERE v > 50 OR v < 0").rows()
        assert changed == [(-2, 0, 55), (1, 2, 99)]
        assert aconn.execute("SELECT v FROM m WHERE x = 3 AND y = 3").scalar() == 33

    def test_prepare_explain_statement(self, aconn):
        statement = aconn.prepare("EXPLAIN SELECT v FROM m")
        lines = statement.execute().column("mal")
        assert lines[0].startswith("function")


# ----------------------------------------------------------------------
# the statement cache
# ----------------------------------------------------------------------
class TestStatementCache:
    def test_repeated_execute_hits_cache(self, aconn):
        sql = "SELECT v FROM m WHERE x = ? AND y = ?"
        aconn.execute(sql, (0, 1))
        compiles = aconn.compile_count
        hits = aconn.cache_hits
        assert aconn.execute(sql, (2, 3)).scalar() == 23
        assert aconn.compile_count == compiles
        assert aconn.cache_hits == hits + 1

    def test_ddl_invalidates(self, aconn):
        aconn.execute("CREATE TABLE t (a INT)")
        sql = "SELECT COUNT(*) FROM t"
        aconn.execute(sql)
        compiles = aconn.compile_count
        aconn.execute("DROP TABLE t")
        aconn.execute("CREATE TABLE t (a DOUBLE)")
        aconn.execute(sql)  # stale entry must be recompiled
        assert aconn.compile_count > compiles

    def test_lru_eviction(self):
        conn = repro.connect(statement_cache_size=2)
        conn.execute("CREATE TABLE t (a INT)")
        conn.execute("SELECT a FROM t")
        conn.execute("SELECT a + 1 FROM t")
        conn.execute("SELECT a + 2 FROM t")  # evicts "SELECT a FROM t"
        compiles = conn.compile_count
        conn.execute("SELECT a FROM t")
        assert conn.compile_count == compiles + 1

    def test_cache_disabled(self):
        conn = repro.connect(statement_cache_size=0)
        conn.execute("CREATE TABLE t (a INT)")
        compiles = conn.compile_count
        conn.execute("SELECT a FROM t")
        conn.execute("SELECT a FROM t")
        assert conn.compile_count == compiles + 2

    def test_register_array_invalidates(self, aconn):
        aconn.execute("SELECT v FROM m")
        compiles = aconn.compile_count
        aconn.register_array("fresh", np.zeros((2, 2)))
        aconn.execute("SELECT v FROM m")
        assert aconn.compile_count == compiles + 1


# ----------------------------------------------------------------------
# parameter-binding edge cases
# ----------------------------------------------------------------------
class TestParameterEdgeCases:
    def test_null_parameter_in_comparison(self, aconn):
        # NULL never compares equal: the filter yields no rows.
        result = aconn.execute("SELECT v FROM m WHERE v = ?", (None,))
        assert result.row_count == 0

    def test_null_parameter_inserted(self, aconn):
        aconn.execute("CREATE TABLE t (a INT, b VARCHAR(10))")
        aconn.execute("INSERT INTO t VALUES (?, ?)", (1, None))
        assert aconn.execute("SELECT b FROM t").rows() == [(None,)]

    def test_string_with_quotes(self, aconn):
        aconn.execute("CREATE TABLE t (s VARCHAR(40))")
        tricky = "O'Brien said \"hi\"; -- not a comment"
        aconn.execute("INSERT INTO t VALUES (?)", (tricky,))
        assert aconn.execute(
            "SELECT COUNT(*) FROM t WHERE s = ?", (tricky,)
        ).scalar() == 1

    def test_params_in_array_slice_bounds(self, aconn):
        result = aconn.execute(
            "SELECT [x], [y], v FROM m WHERE x BETWEEN ? AND ? AND y >= ?",
            (1, 2, 2),
        )
        assert result.row_count == 4  # x in {1,2} × y in {2,3}

    def test_params_in_cell_reference_index(self, aconn):
        result = aconn.execute(
            "SELECT [x], [y], m[x-?][y].v AS west FROM m", (1,)
        )
        grid = result.grid("west")
        assert np.isnan(grid[0]).all()  # x-1 out of range -> NULL
        assert grid[1][0] == 0.0  # m[0][0].v

    def test_wrong_arity_positional(self, aconn):
        sql = "SELECT v FROM m WHERE x = ? AND y = ?"
        with pytest.raises(ProgrammingError, match="2 positional"):
            aconn.execute(sql, (1,))
        with pytest.raises(ProgrammingError, match="2 positional"):
            aconn.execute(sql, (1, 2, 3))
        with pytest.raises(ProgrammingError, match="positional"):
            aconn.execute(sql)
        with pytest.raises(ProgrammingError, match="positional"):
            aconn.execute(sql, {"x": 1, "y": 2})

    def test_missing_named_parameter(self, aconn):
        sql = "SELECT v FROM m WHERE x = :x AND y = :y"
        with pytest.raises(ProgrammingError, match="missing value"):
            aconn.execute(sql, {"x": 1})
        with pytest.raises(ProgrammingError, match="mapping"):
            aconn.execute(sql, (1, 2))

    def test_params_on_parameterless_statement(self, aconn):
        with pytest.raises(ProgrammingError, match="takes no parameters"):
            aconn.execute("SELECT v FROM m", (1,))
        aconn.execute("SELECT v FROM m", ())  # empty bindings are fine

    def test_string_params_not_treated_as_sequence(self, aconn):
        with pytest.raises(ProgrammingError):
            aconn.execute("SELECT v FROM m WHERE x = ?", "1")

    def test_float_param_against_int_column_widens(self, aconn):
        # 1.5 must stay 1.5 against the INT column, not truncate to 1.
        result = aconn.execute("SELECT v FROM m WHERE v < ? AND x = 0", (1.5,))
        assert sorted(result.column("v")) == [0, 1]
        result = aconn.execute("SELECT v FROM m WHERE v < 1.5 AND x = 0")
        assert sorted(result.column("v")) == [0, 1]

    def test_numpy_scalars_bind(self, aconn):
        value = aconn.execute(
            "SELECT v FROM m WHERE x = ? AND y = ?",
            (np.int64(1), np.int32(2)),
        ).scalar()
        assert value == 12

    def test_untyped_projection_param(self, aconn):
        result = aconn.execute("SELECT ? AS tag, v FROM m WHERE x = 0", (2.5,))
        assert result.column("tag") == [2.5] * 4

    def test_param_in_in_list(self, aconn):
        result = aconn.execute(
            "SELECT v FROM m WHERE x IN (?, ?) AND y = 0", (0, 3)
        )
        assert sorted(result.column("v")) == [0, 30]

    def test_param_in_grouped_having(self, aconn):
        result = aconn.execute(
            "SELECT x, COUNT(*) FROM m GROUP BY x HAVING COUNT(*) > ?", (3,)
        )
        assert result.row_count == 4

    def test_params_rejected_in_ddl_ranges(self, aconn):
        with pytest.raises(SemanticError, match="constant context"):
            aconn.execute(
                "CREATE ARRAY bad (x INT DIMENSION[0:1:?], v INT)", (4,)
            )

    def test_params_rejected_in_scripts(self, aconn):
        with pytest.raises(ProgrammingError, match="scripts"):
            aconn.execute_script("SELECT v FROM m WHERE x = ?")


# ----------------------------------------------------------------------
# executemany bulk ingestion
# ----------------------------------------------------------------------
class TestExecutemany:
    def test_bulk_table_insert(self, aconn):
        aconn.execute("CREATE TABLE t (a INT, b VARCHAR(10))")
        cur = aconn.cursor()
        cur.executemany(
            "INSERT INTO t VALUES (?, ?)",
            [(i, f"row{i}") for i in range(100)],
        )
        assert cur.rowcount == 100
        assert aconn.execute("SELECT COUNT(*) FROM t").scalar() == 100

    def test_bulk_insert_is_one_execution_not_n(self, aconn):
        aconn.execute("CREATE TABLE t (a INT)")
        cur = aconn.cursor()
        cur.executemany("INSERT INTO t VALUES (?)", [(i,) for i in range(50)])
        # the bulk path appends columns directly; 50 interpreter runs
        # would have left last_stats populated per-run anyway, so assert
        # via the cheap observable: one compile, no further cache traffic
        assert aconn.execute("SELECT SUM(a) FROM t").scalar() == sum(range(50))

    def test_bulk_array_insert_skips_out_of_range(self, aconn):
        cur = aconn.cursor()
        cur.executemany(
            "INSERT INTO m VALUES (?, ?, ?)",
            [(0, 0, 99), (3, 3, 98), (7, 7, 1)],
        )
        assert cur.rowcount == 2  # (7,7) is outside the 4x4 domain
        assert aconn.execute("SELECT v FROM m WHERE x = 3 AND y = 3").scalar() == 98

    def test_bulk_null_coordinate_matches_execute(self, aconn):
        # execute drops rows with NULL coordinates; bulk must agree.
        single = aconn.execute("INSERT INTO m VALUES (?, ?, ?)", (None, 1, 5))
        bulk = aconn.executemany(
            "INSERT INTO m VALUES (?, ?, ?)", [(None, 1, 5), (2, 2, 7)]
        )
        assert single.affected == 0
        assert bulk.affected == 1
        assert aconn.execute("SELECT COUNT(*) FROM m WHERE v = 5").scalar() == 0

    def test_prepared_executemany_takes_bulk_path(self, aconn):
        aconn.execute("CREATE TABLE t (a INT)")
        statement = aconn.prepare("INSERT INTO t VALUES (?)")
        compiles = aconn.compile_count
        result = statement.executemany([(i,) for i in range(64)])
        assert result.affected == 64
        assert aconn.compile_count == compiles
        assert aconn.execute("SELECT COUNT(*) FROM t").scalar() == 64

    def test_bulk_named_parameters(self, aconn):
        aconn.execute("CREATE TABLE t (a INT, b INT)")
        aconn.executemany(
            "INSERT INTO t VALUES (:a, :b)",
            [{"a": 1, "b": 2}, {"a": 3, "b": 4}],
        )
        assert aconn.execute("SELECT SUM(a + b) FROM t").scalar() == 10

    def test_bulk_mixed_literal_and_param(self, aconn):
        aconn.execute("CREATE TABLE t (a INT, b INT)")
        aconn.executemany("INSERT INTO t VALUES (?, 7)", [(1,), (2,)])
        assert aconn.execute("SELECT SUM(b) FROM t").scalar() == 14

    def test_bulk_arity_errors(self, aconn):
        aconn.execute("CREATE TABLE t (a INT, b INT)")
        with pytest.raises(ProgrammingError):
            aconn.executemany("INSERT INTO t VALUES (?, ?)", [(1,)])
        with pytest.raises(ProgrammingError):
            aconn.executemany("INSERT INTO t VALUES (:a, :b)", [{"a": 1}])

    def test_executemany_falls_back_for_non_insert(self, aconn):
        result = aconn.executemany(
            "UPDATE m SET v = 0 WHERE x = ?", [(0,), (1,)]
        )
        assert result.affected == 8

    def test_empty_sequence(self, aconn):
        aconn.execute("CREATE TABLE t (a INT)")
        assert aconn.executemany("INSERT INTO t VALUES (?)", []).affected == 0


# ----------------------------------------------------------------------
# register_array
# ----------------------------------------------------------------------
class TestRegisterArray:
    def test_roundtrip_with_nan_holes(self, aconn):
        grid = np.arange(12, dtype=np.float64).reshape(3, 4)
        grid[1, 2] = np.nan
        aconn.register_array("img", grid, dims=("x", "y"))
        back = aconn.execute("SELECT [x], [y], v FROM img").grid()
        assert np.array_equal(back, grid, equal_nan=True)

    def test_default_dimension_names(self, aconn):
        aconn.register_array("cube", np.zeros((2, 3, 4), dtype=np.int32))
        array = aconn.catalog.get_array("cube")
        assert array.dimension_names() == ["x", "y", "z"]
        assert array.shape() == (2, 3, 4)

    def test_dtype_mapping(self, aconn):
        aconn.register_array("ints", np.zeros(3, dtype=np.int32))
        aconn.register_array("longs", np.zeros(3, dtype=np.int64))
        aconn.register_array("bools", np.zeros(3, dtype=np.bool_))
        get = aconn.catalog.get_array
        assert get("ints").attribute_def("v").atom.value == "int"
        assert get("longs").attribute_def("v").atom.value == "lng"
        assert get("bools").attribute_def("v").atom.value == "bit"

    def test_unsigned_past_bigint_is_null_not_wrapped(self, aconn):
        values = np.array([7, 2**63 - 1, 2**63, 2**64 - 1], dtype=np.uint64)
        aconn.register_array("big", values, dims=("t",))
        assert aconn.catalog.get_array("big").attribute_def("v").atom.value == "lng"
        stored = aconn.execute("SELECT v FROM big ORDER BY t").column("v")
        assert stored == [7, 2**63 - 1, None, None]

    def test_multiple_attributes(self, aconn):
        aconn.register_array(
            "rgb",
            {"r": np.ones((2, 2)), "g": np.zeros((2, 2)), "b": np.full((2, 2), 0.5)},
            dims=("x", "y"),
        )
        result = aconn.execute("SELECT [x], [y], r, g, b FROM rgb")
        _, grids = result.to_array()
        assert grids["b"][0][0] == 0.5

    def test_queryable_like_any_array(self, aconn):
        aconn.register_array("sig", np.arange(8, dtype=np.float64), dims=("t",))
        avg = aconn.execute(
            "SELECT [t], AVG(v) FROM sig GROUP BY sig[t-1:t+2]"
        ).grid()
        assert avg[0] == 0.5  # mean of {0, 1}

    def test_shape_mismatch_rejected(self, aconn):
        with pytest.raises(ProgrammingError, match="share one shape"):
            aconn.register_array(
                "bad", {"a": np.zeros((2, 2)), "b": np.zeros((3, 3))}
            )

    def test_dims_arity_rejected(self, aconn):
        with pytest.raises(ProgrammingError, match="dimension names"):
            aconn.register_array("bad", np.zeros((2, 2)), dims=("x",))

    def test_duplicate_name_rejected(self, aconn):
        with pytest.raises(repro.ProgrammingError):
            aconn.register_array("m", np.zeros((2, 2)))
