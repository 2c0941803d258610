"""Compiler and MAL-generator unit tests (plan shapes and lowering)."""

import math

import pytest

import repro
from repro.errors import SemanticError
from repro.algebra import nodes
from repro.algebra.compiler import fold_constant, plan_statement
from repro.sql.parser import parse


@pytest.fixture
def catalog():
    conn = repro.connect()
    conn.execute("CREATE TABLE t (a INT, b DOUBLE, s VARCHAR(10))")
    conn.execute("CREATE TABLE u (a INT)")
    conn.execute(
        "CREATE ARRAY m (x INT DIMENSION[0:1:4], y INT DIMENSION[0:1:4], "
        "v INT DEFAULT 0)"
    )
    return conn.catalog


def plan(sql, catalog):
    return plan_statement(parse(sql), catalog)


class TestFoldConstant:
    @pytest.mark.parametrize(
        "sql, value",
        [
            ("1 + 2 * 3", 7),
            ("-(4)", -4),
            ("10 / 4", 2),
            ("-7 / 2", -3),
            ("7 % 3", 1),
            ("'a' || 'b'", "ab"),
            ("CAST(1.9 AS INT)", 1),
            ("NULL", None),
        ],
    )
    def test_folds(self, sql, value):
        assert fold_constant(parse(f"SELECT {sql}").items[0].expression) == value

    def test_division_by_zero_rejected(self):
        with pytest.raises(SemanticError):
            fold_constant(parse("SELECT 1 / 0").items[0].expression)

    def test_column_reference_rejected(self):
        from repro.sql import ast_nodes as ast

        with pytest.raises(SemanticError):
            fold_constant(ast.ColumnRef("a"))


class TestPlanShapes:
    def test_plain_select(self, catalog):
        query = plan("SELECT a FROM t WHERE a > 1", catalog)
        assert isinstance(query, nodes.QueryPlan)
        assert isinstance(query.root, nodes.Project)
        assert isinstance(query.root.child, nodes.Filter)
        assert isinstance(query.root.child.child, nodes.Scan)

    def test_group_plan(self, catalog):
        query = plan("SELECT a, COUNT(*) FROM t GROUP BY a", catalog)
        assert isinstance(query.root, nodes.Aggregate)
        assert len(query.root.keys) == 1

    def test_scalar_aggregate_plan(self, catalog):
        query = plan("SELECT COUNT(*) FROM t", catalog)
        assert isinstance(query.root, nodes.ScalarAggregate)

    def test_tile_plan(self, catalog):
        query = plan(
            "SELECT [x], [y], SUM(v) FROM m GROUP BY m[x:x+2][y:y+2]", catalog
        )
        assert isinstance(query.root, nodes.TileProject)
        assert query.root.spec.box == ((0, 1), (0, 1))
        assert query.result_kind == "array"

    def test_tile_with_alias(self, catalog):
        query = plan("SELECT SUM(v) FROM m a GROUP BY a[x:x+1][y:y+1]", catalog)
        assert isinstance(query.root, nodes.TileProject)

    def test_order_limit_wrapping(self, catalog):
        query = plan("SELECT a FROM t ORDER BY a LIMIT 3", catalog)
        assert isinstance(query.root, nodes.LimitNode)
        assert isinstance(query.root.child, nodes.Sort)

    def test_distinct_wrapping(self, catalog):
        query = plan("SELECT DISTINCT a FROM t", catalog)
        assert isinstance(query.root, nodes.Distinct)

    def test_hidden_sort_item_added(self, catalog):
        query = plan("SELECT a FROM t ORDER BY b", catalog)
        sort = query.root
        assert isinstance(sort, nodes.Sort)
        projecting = sort.child
        assert len(projecting.items) == 2  # a + hidden b
        assert len(query.items) == 1  # only a is visible

    def test_join_tree(self, catalog):
        query = plan(
            "SELECT t.a FROM t INNER JOIN u ON t.a = u.a", catalog
        )
        join = query.root.child
        assert isinstance(join, nodes.Join)
        assert join.kind == "inner"

    def test_comma_sources_become_cross(self, catalog):
        query = plan("SELECT t.a FROM t, u", catalog)
        join = query.root.child
        assert isinstance(join, nodes.Join) and join.kind == "cross"

    def test_set_op_plan(self, catalog):
        query = plan("SELECT a FROM t UNION SELECT a FROM u", catalog)
        assert isinstance(query, nodes.SetOpPlan)
        assert query.op == "union" and not query.all

    def test_update_plan(self, catalog):
        statement = plan("UPDATE t SET a = 1 WHERE b > 0", catalog)
        assert isinstance(statement, nodes.UpdatePlan)
        assert statement.target_kind == "table"

    def test_array_delete_plan(self, catalog):
        statement = plan("DELETE FROM m WHERE v = 0", catalog)
        assert isinstance(statement, nodes.DeletePlan)
        assert statement.target_kind == "array"


class TestMalLowering:
    @pytest.fixture
    def conn(self):
        connection = repro.connect()
        connection.pipeline = ()
        connection.execute("CREATE TABLE t (a INT, b INT)")
        connection.execute(
            "CREATE ARRAY m (x INT DIMENSION[0:1:4], v INT DEFAULT 0)"
        )
        return connection

    def ops(self, conn, sql):
        text = conn.explain_unoptimized(sql)
        return [
            line.strip().split(" := ")[-1].split("(")[0]
            for line in text.splitlines()
            if ":=" in line or "sql." in line
        ]

    def test_scan_binds_all_columns(self, conn):
        ops = self.ops(conn, "SELECT a FROM t")
        assert ops.count("sql.bind") == 2

    def test_filter_is_select_project(self, conn):
        ops = self.ops(conn, "SELECT a FROM t WHERE b = 1")
        assert "algebra.thetaselect" in ops  # value select, no bit column
        assert "batcalc.expr" not in ops
        assert "algebra.projection" in ops

    def test_opaque_filter_goes_through_a_bit_column(self, conn):
        ops = self.ops(conn, "SELECT a FROM t WHERE a = b")
        assert "batcalc.expr" in ops
        assert "algebra.select" in ops
        assert 'batcalc.expr("eq($0,$1)"' in conn.explain_unoptimized(
            "SELECT a FROM t WHERE a = b"
        )

    def test_group_by_chain(self, conn):
        ops = self.ops(conn, "SELECT a, b, COUNT(*) FROM t GROUP BY a, b")
        assert "group.group" in ops
        assert "group.subgroup" in ops
        assert "aggr.subcountstar" in ops

    def test_tiling_never_joins(self, conn):
        ops = self.ops(conn, "SELECT x, SUM(v) FROM m GROUP BY m[x-1:x+2]")
        assert "array.tileagg" in ops
        assert "algebra.join" not in ops
        assert "algebra.crossproduct" not in ops

    def test_constant_cell_ref_is_a_one_cell_tile(self, conn):
        ops = self.ops(conn, "SELECT m[x-1] FROM m")
        assert "array.tileagg" in ops
        assert "array.cellindex" not in ops
        assert "algebra.projectionsafe" not in ops
        assert self.ops(conn, "SELECT m[x] FROM m") == [
            "sql.bind", "sql.bind", "sql.resultSet"
        ]

    def test_computed_cell_ref_uses_cellindex(self, conn):
        ops = self.ops(conn, "SELECT m[x-v] FROM m")
        assert "array.cellindex" in ops
        assert "algebra.projectionsafe" in ops

    def test_update_snapshot_via_projection(self, conn):
        ops = self.ops(conn, "UPDATE m SET v = v + 1 WHERE x > 0")
        assert "sql.update" in ops
        assert "sql.affected" in ops

    def test_limit_uses_slice(self, conn):
        ops = self.ops(conn, "SELECT a FROM t LIMIT 5")
        assert "bat.slice" in ops

    def test_order_uses_sortmulti(self, conn):
        ops = self.ops(conn, "SELECT a FROM t ORDER BY a DESC")
        assert "algebra.sortmulti" in ops

    def test_left_join_uses_projectionsafe(self, conn):
        conn.execute("CREATE TABLE r (a INT)")
        ops = self.ops(conn, "SELECT t.a, r.a FROM t LEFT JOIN r ON t.a = r.a")
        assert "algebra.leftjoin" in ops
        assert "algebra.projectionsafe" in ops

    def test_left_join_elides_unused_right_fetch(self, conn):
        """Candidate propagation: untouched right payloads are never copied."""
        conn.execute("CREATE TABLE r2 (a INT)")
        ops = self.ops(conn, "SELECT t.a FROM t LEFT JOIN r2 ON t.a = r2.a")
        assert "algebra.leftjoin" in ops
        assert "algebra.projectionsafe" not in ops

    def test_every_program_validates(self, conn):
        """Generated programs are well-formed single-assignment MAL."""
        for sql in (
            "SELECT a FROM t",
            "SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 1",
            "SELECT x, SUM(v) FROM m GROUP BY m[x:x+2]",
            "INSERT INTO t VALUES (1, 2)",
            "UPDATE t SET a = b",
            "DELETE FROM m WHERE x = 1",
        ):
            conn.compile(sql).validate()


class TestCellPins:
    """A WHERE pinning every dimension of a scanned array addresses its
    one cell by ``array.cellindex`` over the pinned scalars."""

    PIPELINES = {
        "unfragmented": {"nr_threads": 1, "fragment_rows": math.inf},
        "fragmented": {"nr_threads": 2, "fragment_rows": 7},
    }

    @pytest.fixture(params=sorted(PIPELINES))
    def pipeline(self, request):
        return request.param

    @pytest.fixture
    def conn(self, pipeline):
        connection = repro.connect(**self.PIPELINES[pipeline])
        connection.execute("CREATE TABLE t (k INT, a INT)")
        connection.executemany("INSERT INTO t VALUES (?, ?)", [(k, k % 5) for k in range(30)])
        connection.execute(
            "CREATE ARRAY m (x INT DIMENSION[0:1:8], y INT DIMENSION[0:1:8], "
            "v INT DEFAULT 0, w INT DEFAULT 1)"
        )
        return connection

    @staticmethod
    def steps(program):
        return [i for i in program.instructions if i.module != "language"]

    @staticmethod
    def ops(program):
        return [f"{i.module}.{i.function}" for i in TestCellPins.steps(program)]

    @staticmethod
    def bound(program):
        return [i.args[1].value for i in program.instructions if i.function == "bind"]

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT v FROM m WHERE x = ? AND y = ?",
            "SELECT v, w FROM m WHERE 3 = y AND x = 5",
            "SELECT v FROM m WHERE y = ? AND x = ? AND v > w",
            "UPDATE m SET v = ? WHERE x = ? AND y = ?",
            "UPDATE m SET v = v + w WHERE x = 1 AND y = 2 AND v IS NOT NULL",
            "DELETE FROM m WHERE x = ? AND y = ?",
            "DELETE FROM m WHERE NOT (x <> 2) AND y = 7 AND w < 3",
        ],
    )
    def test_no_dimension_is_bound_or_scanned(self, conn, sql):
        """Residual conjuncts select among the one fetched cell."""
        program = conn.compile(sql)
        ops = self.ops(program)
        assert "array.cellindex" in ops
        assert not {"x", "y"} & set(self.bound(program))
        assert not {"mat.partition", "mat.pack", "bat.mergecand"} & set(ops)

    def test_prepared_point_select_is_four_instructions(self, conn):
        program = conn.prepare("SELECT v FROM m WHERE x = ? AND y = ?").program
        assert self.ops(program) == [
            "sql.bind", "array.cellindex", "algebra.projection", "sql.resultSet",
        ]

    def test_a_partial_pin_keeps_the_value_selects(self, conn, pipeline):
        program = conn.compile("SELECT v FROM m WHERE x = 3")
        assert "array.cellindex" not in self.ops(program)
        assert self.bound(program) == ["x", "v"]
        if pipeline == "unfragmented":
            assert self.ops(program) == [
                "sql.bind", "sql.bind", "algebra.thetaselect", "algebra.projection",
                "sql.resultSet",
            ]

    @pytest.mark.parametrize(
        "sql",
        [
            "UPDATE t SET a = a + 1 WHERE k = 5",
            "UPDATE t SET a = 7, k = k * 2 WHERE a > 3",
            "UPDATE m SET v = ?, w = v WHERE x > 3",
            "UPDATE m SET v = v * 2 WHERE x = 1 AND y = 1",
        ],
    )
    def test_update_computes_values_for_written_rows_only(self, conn, sql):
        """No SET expression reads a full-length bind (or a fragment of
        one): each runs over the fetched rows of the WHERE's candidates."""
        program = conn.compile(sql)
        binds = {
            i.results[0] for i in program.instructions
            if i.function in ("bind", "partition")
        }
        for step in self.steps(program):
            if step.function in ("expr", "project_const"):
                read = {arg.name for arg in step.args if hasattr(arg, "name")}
                assert not read & binds, str(step)
