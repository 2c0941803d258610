"""Engine tests: DDL and DML through the full SQL pipeline."""

import pytest

import repro
from repro.errors import CatalogError, DimensionError, SciQLError, SemanticError


class TestCreate:
    def test_create_table(self, conn):
        conn.execute("CREATE TABLE t (a INT, b VARCHAR(10))")
        assert "t" in conn.catalog

    def test_create_array_materialises(self, conn):
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:3], v INT DEFAULT 5)")
        result = conn.execute("SELECT x, v FROM a")
        assert result.rows() == [(0, 5), (1, 5), (2, 5)]

    def test_create_array_without_default_is_holes(self, conn):
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:2], v INT)")
        assert conn.execute("SELECT v FROM a").rows() == [(None,), (None,)]

    def test_duplicate_create_rejected(self, conn):
        conn.execute("CREATE TABLE t (a INT)")
        with pytest.raises(SciQLError):
            conn.execute("CREATE TABLE t (a INT)")

    def test_if_not_exists(self, conn):
        conn.execute("CREATE TABLE t (a INT)")
        conn.execute("CREATE TABLE IF NOT EXISTS t (a INT)")

    def test_dimension_requires_integral_type(self, conn):
        with pytest.raises(SemanticError):
            conn.execute("CREATE ARRAY a (x DOUBLE DIMENSION[0:1:2], v INT)")

    def test_unbounded_dimension_rejected_in_create(self, conn):
        with pytest.raises(SemanticError):
            conn.execute("CREATE ARRAY a (x INT DIMENSION, v INT)")

    @pytest.mark.parametrize("bounds", ["[0:0:4]", "[0:-1:4]", "[5:1:2]"])
    def test_invalid_range_is_rejected_when_the_statement_compiles(self, conn, bounds):
        # The compiler builds the DimensionDef whose to_json() becomes the
        # plan constant, so the range is checked before any plan exists.
        sql = f"CREATE ARRAY a (x INT DIMENSION{bounds}, v INT)"
        for compile_only in (conn.explain, conn.prepare, conn.execute):
            with pytest.raises(DimensionError):
                compile_only(sql)
        assert "a" not in conn.catalog

    def test_array_needs_attribute(self, conn):
        with pytest.raises(SemanticError):
            conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:2])")

    def test_constant_range_expressions(self, conn):
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:2*3], v INT DEFAULT 0)")
        assert conn.catalog.get_array("a").dimensions[0].stop == 6

    def test_drop(self, conn):
        conn.execute("CREATE TABLE t (a INT)")
        conn.execute("DROP TABLE t")
        assert "t" not in conn.catalog

    def test_drop_if_exists(self, conn):
        conn.execute("DROP TABLE IF EXISTS ghost")
        with pytest.raises(SciQLError):
            conn.execute("DROP TABLE ghost")


class TestInsert:
    def test_values_into_table(self, conn):
        conn.execute("CREATE TABLE t (a INT, b VARCHAR(5))")
        result = conn.execute("INSERT INTO t VALUES (1, 'x'), (2, NULL)")
        assert result.affected == 2
        assert conn.execute("SELECT a, b FROM t").rows() == [(1, "x"), (2, None)]

    def test_values_with_column_list(self, conn):
        conn.execute("CREATE TABLE t (a INT, b INT DEFAULT 9)")
        conn.execute("INSERT INTO t (a) VALUES (1)")
        assert conn.execute("SELECT a, b FROM t").rows() == [(1, 9)]

    def test_values_arity_checked(self, conn):
        conn.execute("CREATE TABLE t (a INT, b INT)")
        with pytest.raises(SemanticError):
            conn.execute("INSERT INTO t VALUES (1)")

    def test_values_into_array_overwrites_cells(self, conn):
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:3], v INT DEFAULT 0)")
        conn.execute("INSERT INTO a VALUES (1, 7)")
        assert conn.execute("SELECT v FROM a").rows() == [(0,), (7,), (0,)]

    def test_insert_array_requires_dimensions(self, conn):
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:3], v INT DEFAULT 0)")
        with pytest.raises(SemanticError):
            conn.execute("INSERT INTO a (v) VALUES (7)")

    def test_insert_select_into_table(self, conn):
        conn.execute("CREATE TABLE src (a INT)")
        conn.execute("CREATE TABLE dst (a INT)")
        conn.execute("INSERT INTO src VALUES (1), (2)")
        result = conn.execute("INSERT INTO dst SELECT a FROM src WHERE a > 1")
        assert result.affected == 1
        assert conn.execute("SELECT a FROM dst").rows() == [(2,)]

    def test_insert_select_into_array_by_coordinates(self, conn):
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:4], v INT DEFAULT 0)")
        conn.execute("CREATE TABLE pts (x INT, v INT)")
        conn.execute("INSERT INTO pts VALUES (1, 10), (3, 30)")
        conn.execute("INSERT INTO a SELECT [x], v FROM pts")
        assert conn.execute("SELECT v FROM a").rows() == [(0,), (10,), (0,), (30,)]

    def test_insert_out_of_range_cells_skipped(self, conn):
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:2], v INT DEFAULT 0)")
        conn.execute("CREATE TABLE pts (x INT, v INT)")
        conn.execute("INSERT INTO pts VALUES (1, 10), (99, 30)")
        conn.execute("INSERT INTO a SELECT [x], v FROM pts")
        assert conn.execute("SELECT v FROM a").rows() == [(0,), (10,)]


class TestUpdate:
    def test_table_update_with_where(self, conn):
        conn.execute("CREATE TABLE t (a INT, b INT)")
        conn.execute("INSERT INTO t VALUES (1, 0), (2, 0)")
        result = conn.execute("UPDATE t SET b = a * 10 WHERE a > 1")
        assert result.affected == 1
        assert conn.execute("SELECT b FROM t").rows() == [(0,), (20,)]

    def test_update_without_where_hits_all(self, conn):
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:3], v INT DEFAULT 0)")
        result = conn.execute("UPDATE a SET v = x")
        assert result.affected == 3
        assert conn.execute("SELECT v FROM a").rows() == [(0,), (1,), (2,)]

    def test_update_dimension_rejected(self, conn):
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:3], v INT DEFAULT 0)")
        with pytest.raises(SemanticError):
            conn.execute("UPDATE a SET x = 5")

    def test_snapshot_semantics(self, conn):
        """Multiple assignments all read pre-update values."""
        conn.execute("CREATE TABLE t (a INT, b INT)")
        conn.execute("INSERT INTO t VALUES (1, 2)")
        conn.execute("UPDATE t SET a = b, b = a")
        assert conn.execute("SELECT a, b FROM t").rows() == [(2, 1)]

    @pytest.mark.parametrize("where", ["x = 1", "x >= 1 AND x < 2"])
    def test_array_swap_reads_values_before_the_statement(self, conn, where):
        """A pinned cell and a range of cells swap alike."""
        conn.execute(
            "CREATE ARRAY g (x INT DIMENSION[0:1:3], a INT DEFAULT 0, b INT DEFAULT 0)"
        )
        conn.execute("UPDATE g SET a = x, b = 10 * x")
        assert conn.execute(f"UPDATE g SET a = b, b = a WHERE {where}").affected == 1
        assert conn.execute("SELECT a, b FROM g").rows() == [(0, 0), (10, 1), (2, 20)]

    def test_table_swap_with_where(self, conn):
        conn.execute("CREATE TABLE t (k INT, a INT, b INT)")
        conn.execute("INSERT INTO t VALUES (0, 1, 2), (1, 3, 4)")
        conn.execute("UPDATE t SET a = b, b = a WHERE k = 1")
        assert conn.execute("SELECT a, b FROM t").rows() == [(1, 2), (4, 3)]

    def test_failing_set_values_leave_unmatched_rows_alone(self, conn):
        """Overflow and division by zero are NULL where written, and the
        rows the WHERE does not select keep their values."""
        conn.execute("CREATE TABLE t (k INT, a INT, b INT)")
        conn.execute("INSERT INTO t VALUES (0, 1, 0), (1, 2, 5), (2, 2000000000, 0)")
        conn.execute("UPDATE t SET a = a * 2000000000 WHERE k = 1")
        conn.execute("UPDATE t SET a = 10 / b WHERE k = 0")
        assert conn.execute("SELECT a FROM t").rows() == [(None,), (None,), (2000000000,)]
        conn.execute("UPDATE t SET a = 10 / b WHERE b <> 0")
        assert conn.execute("SELECT a FROM t").rows() == [(None,), (2,), (2000000000,)]
        conn.execute(
            "CREATE ARRAY g (x INT DIMENSION[0:1:3], a INT DEFAULT 7, b INT DEFAULT 0)"
        )
        conn.execute("UPDATE g SET a = 2000000000 WHERE x = 1")
        conn.execute("UPDATE g SET b = 4 WHERE x = 2")
        conn.execute("UPDATE g SET a = 100 / b WHERE x = 2")
        conn.execute("UPDATE g SET b = a * 3 WHERE x = 0")
        conn.execute("UPDATE g SET b = 1 / b WHERE x = 1")
        assert conn.execute("SELECT a, b FROM g").rows() == [
            (7, 21), (2000000000, None), (25, 4),
        ]

    def test_update_null(self, conn):
        conn.execute("CREATE TABLE t (a INT)")
        conn.execute("INSERT INTO t VALUES (1)")
        conn.execute("UPDATE t SET a = NULL")
        assert conn.execute("SELECT a FROM t").rows() == [(None,)]


class TestDelete:
    def test_table_delete_removes_rows(self, conn):
        conn.execute("CREATE TABLE t (a INT)")
        conn.execute("INSERT INTO t VALUES (1), (2), (3)")
        result = conn.execute("DELETE FROM t WHERE a = 2")
        assert result.affected == 1
        assert conn.execute("SELECT a FROM t").rows() == [(1,), (3,)]

    def test_array_delete_creates_holes(self, conn):
        """DELETE on arrays never removes cells — it punches holes."""
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:3], v INT DEFAULT 1)")
        conn.execute("DELETE FROM a WHERE x = 1")
        assert conn.execute("SELECT x, v FROM a").rows() == [
            (0, 1), (1, None), (2, 1),
        ]
        # count of cells is unchanged
        assert conn.catalog.get_array("a").cell_count == 3

    def test_delete_all(self, conn):
        conn.execute("CREATE TABLE t (a INT)")
        conn.execute("INSERT INTO t VALUES (1), (2)")
        assert conn.execute("DELETE FROM t").affected == 2
        assert conn.execute("SELECT COUNT(*) FROM t").scalar() == 0


class TestAlterArray:
    def test_expand_preserves_and_defaults(self, conn):
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:2], v INT DEFAULT 0)")
        conn.execute("INSERT INTO a VALUES (0, 5)")
        conn.execute("ALTER ARRAY a ALTER DIMENSION x SET RANGE [-1:1:3]")
        assert conn.execute("SELECT x, v FROM a").rows() == [
            (-1, 0), (0, 5), (1, 0), (2, 0),
        ]

    def test_shrink_drops(self, conn):
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:4], v INT DEFAULT 0)")
        conn.execute("ALTER ARRAY a ALTER DIMENSION x SET RANGE [0:1:2]")
        assert len(conn.execute("SELECT x FROM a").rows()) == 2

    def test_alter_unknown_dimension(self, conn):
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:2], v INT DEFAULT 0)")
        with pytest.raises(SciQLError):
            conn.execute("ALTER ARRAY a ALTER DIMENSION z SET RANGE [0:1:2]")

    def test_alter_table_rejected(self, conn):
        conn.execute("CREATE TABLE t (a INT)")
        with pytest.raises(SciQLError):
            conn.execute("ALTER ARRAY t ALTER DIMENSION a SET RANGE [0:1:2]")
