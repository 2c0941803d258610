"""Element-wise expressions end to end: one ``batcalc.expr`` per subtree,
native-width integers, the identity write-back, budget accounting."""

import math

import numpy as np
import pytest

import repro
from repro import ResourceError
from repro.errors import DataError, SemanticError

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

LIFE_RULE = (
    "CASE WHEN SUM(v) - v = 3 OR (SUM(v) - v = 2 AND v = 1) THEN 1 ELSE 0 END"
)
INT_MAX, LNG_MAX = 2**31 - 1, 2**63 - 1


def ops(plan):
    return [
        line.split(":= ")[-1].split("(")[0]
        for line in plan.splitlines()
        if ":=" in line
    ]


@pytest.fixture
def numbers(conn):
    conn.execute("CREATE TABLE n (k INT, i INT, b BIGINT)")
    conn.executemany(
        "INSERT INTO n VALUES (?, ?, ?)",
        [
            (0, 5, 2**53 + 1),
            (1, INT_MAX, 2**60 + 1),
            (2, -INT_MAX - 1, -(2**63)),
            (3, None, LNG_MAX),
            (4, -7, None),
        ],
    )
    return conn


class TestIntegerArithmetic:
    """ISSUE 16: BIGINT past 2^53 is exact and overflow is NULL, on the
    BAT path and — the same kernel — on the scalar path."""

    def column(self, conn, expression):
        return conn.execute(f"SELECT {expression} AS c FROM n ORDER BY k").column("c")

    @pytest.mark.parametrize(
        "expression, fn",
        [
            ("b + 1", lambda b: b + 1),
            ("b - 1", lambda b: b - 1),
            ("b * 3", lambda b: b * 3),
            ("-b", lambda b: -b),
            ("ABS(b)", abs),
            ("1 + b", lambda b: 1 + b),
            ("b + b", lambda b: b + b),
        ],
    )
    def test_bigint_is_exact_or_null(self, numbers, expression, fn):
        stored = self.column(numbers, "b")
        expected = [
            None if b is None or not -(2**63) <= fn(b) <= LNG_MAX else fn(b)
            for b in stored
        ]
        assert self.column(numbers, expression) == expected
        for b, want in zip(stored, expected):
            if b is not None and b > -(2**63):  # the scalar calc.* answer is the same
                scalar = numbers.execute(f"SELECT {expression.replace('b', f'({b})')}")
                assert scalar.scalar() == want, (expression, b)

    def test_int_overflow_is_null_not_a_wrapped_value(self, numbers):
        assert self.column(numbers, "i + i") == [10, None, None, None, -14]
        assert self.column(numbers, "i * 2") == [10, None, None, None, -14]
        assert self.column(numbers, "i + 1") == [6, None, -INT_MAX, None, -6]
        assert self.column(numbers, "-i") == [-5, -INT_MAX, None, None, 7]
        assert self.column(numbers, "ABS(i)") == [5, INT_MAX, None, None, 7]
        assert self.column(numbers, "i / -1") == [-5, -INT_MAX, None, None, 7]
        # A BIGINT operand widens the result instead.
        assert self.column(numbers, "i + CAST(1 AS BIGINT)")[1] == INT_MAX + 1
        # A value that changes atom follows the same rule: NULL where
        # it does not fit, in a CAST and in a write alike.
        assert numbers.execute("SELECT CAST(8589934592 AS INT)").scalar() is None
        assert self.column(numbers, "CAST(b AS INT)") == [None] * 5
        assert self.column(numbers, "CAST(b / 4294967296 AS INT)") == [
            2**21, 2**28, -INT_MAX - 1, INT_MAX, None,
        ]
        numbers.execute("CREATE TABLE dn (k INT, d DOUBLE)")
        numbers.executemany(
            "INSERT INTO dn VALUES (?, ?)",
            [(0, 1e12), (1, -2.7), (2, math.inf), (3, math.nan), (4, -(2.0**31))],
        )
        doubles = "SELECT CAST(d AS INT) AS c FROM dn ORDER BY k"
        assert numbers.execute(doubles).column("c") == [None, -2, None, None, -INT_MAX - 1]
        numbers.execute("INSERT INTO n (k, i) SELECT k + 10, b FROM n")
        copied = "SELECT i FROM n WHERE k >= 10 ORDER BY k"
        assert numbers.execute(copied).column("i") == [None] * 5
        assert numbers.execute("UPDATE n SET i = b WHERE k < 10").affected == 5
        assert self.column(numbers, "i")[:5] == [None] * 5
        # A bound value is written alike, one row at a time or in bulk.
        numbers.execute("CREATE TABLE f (i INT, t BOOLEAN)")
        numbers.execute("INSERT INTO f VALUES (?, ?)", (2**33, True))
        numbers.executemany("INSERT INTO f VALUES (?, ?)", [(2**33, True)])
        assert numbers.execute("SELECT i, t FROM f").rows() == [(None, True)] * 2
        # VALUES rows pack in their widest atom: no row is first
        # narrowed to the atom of the one before it.
        numbers.execute("CREATE TABLE w (b BIGINT)")
        numbers.execute("INSERT INTO w VALUES (1), (8589934592)")
        numbers.execute("INSERT INTO w VALUES (?), (?)", (1, 2**33))
        numbers.execute("INSERT INTO w VALUES (?), (?)", (1, 2.5))
        assert numbers.execute("SELECT b FROM w").column("b") == [1, 2**33, 1, 2**33, 1, 2]
        # An int literal past lng is a double; a bound one is no value.
        assert numbers.execute("SELECT CAST(18446744073709551616 AS DOUBLE)").scalar() == 2.0**64
        assert numbers.execute("SELECT CAST(18446744073709551616 AS BIGINT)").scalar() is None
        with pytest.raises(DataError):
            numbers.execute("INSERT INTO w VALUES (?)", (2**64,))
        with pytest.raises(DataError):
            numbers.executemany("INSERT INTO w VALUES (?)", [(2**64,)])

    @pytest.mark.parametrize("function", ["FLOOR", "CEIL", "CEILING", "ROUND"])
    def test_integer_rounding_is_the_operand(self, numbers, function):
        """Rounding an integer is exact however wide: no trip through
        float64 (which makes ``FLOOR(2**60 + 1)`` ``2**60``)."""
        for column in ("i", "b"):
            assert self.column(numbers, f"{function}({column})") == self.column(numbers, column)
        scalar = numbers.execute(f"SELECT {function}(CAST(1152921504606846977 AS BIGINT))")
        assert scalar.scalar() == 2**60 + 1

    @pytest.mark.parametrize(
        "sql, params, expected",
        [
            ("SELECT 2147483647 + 1", (), 2**31),
            ("SELECT 2147483648 + 1", (), 2**31 + 1),
            ("SELECT 65536 * 65536", (), 2**32),
            ("SELECT -(-2147483647 - 1)", (), 2**31),
            ("SELECT ABS(-2147483647 - 1)", (), 2**31),
            ("SELECT (-2147483647 - 1) / -1", (), 2**31),
            ("SELECT CAST(2147483647 AS INT) + 1", (), 2**31),
            ("SELECT ? + 2147483647", (1,), 2**31),
            ("SELECT ? * ?", (INT_MAX, INT_MAX), INT_MAX**2),
            # aggregates: lng by declaration however small the value
            ("SELECT SUM(i) + 2147483647 FROM n WHERE k IN (0, 4)", (), INT_MAX - 2),
            ("SELECT SUM(i) + 2147483647 FROM n WHERE k = 0", (), 2**31 + 4),
            ("SELECT COUNT(*) + 2147483647 FROM n", (), 2**31 + 4),
            ("SELECT COUNT(DISTINCT i) + 2147483647 FROM n", (), 2**31 + 3),
            ("SELECT MAX(b) + 2147483647 FROM n WHERE k = 2", (), -(2**63) + INT_MAX),
            ("SELECT MIN(k) + 2147483647 FROM n WHERE k > 0", (), 2**31),
            ("SELECT MAX(i) + 2147483647 FROM n WHERE k = 0", (), 2**31 + 4),
            ("SELECT SUM(k) * 2147483647 FROM n", (), 10 * INT_MAX),
            # lng is the widest atom: there the overflow rule applies
            ("SELECT 9223372036854775807 + 1", (), None),
            ("SELECT MAX(b) + 1 FROM n", (), None),
            ("SELECT ? * 4", (2**62,), None),
        ],
    )
    def test_a_scalar_has_no_declared_int_width(self, numbers, sql, params, expected):
        """Literals, parameters and scalar aggregates carry a value, not
        a column's atom: integer arithmetic over them alone widens to
        ``lng`` instead of overflowing (the parent's answers), while the
        same expression over an INT column is NULL for that row."""
        assert numbers.execute(sql, params).scalar() == expected
        assert self.column(numbers, "i + 2147483647")[0] is None
        grouped = "SELECT k, MAX(i) + 2147483647 AS c FROM n GROUP BY k ORDER BY k"
        assert numbers.execute(grouped).column("c")[0] is None
        grouped = grouped.replace("MAX(i)", "SUM(i)")  # lng by declaration
        assert numbers.execute(grouped).column("c")[0] == 2**31 + 4

    def test_constant_contexts_fold_with_the_same_rule(self, conn):
        conn.execute("CREATE TABLE w (b BIGINT)")
        conn.execute("INSERT INTO w VALUES (2147483647 + 1), (65536 * 65536), (-7 % 3)")
        assert conn.execute("SELECT b FROM w").column("b") == [2**31, 2**32, -1]
        # NULL for a row of a query; a constant that overflows lng is a mistake.
        with pytest.raises(SemanticError, match="overflow in constant"):
            conn.execute("INSERT INTO w VALUES (9223372036854775807 + 1)")

    def test_division_semantics_are_unchanged(self, numbers):
        assert self.column(numbers, "i / 2") == [2, INT_MAX // 2, -(2**30), None, -3]
        assert self.column(numbers, "i % 3") == [2, INT_MAX % 3, -2, None, -1]
        assert self.column(numbers, "i / (i - i)") == [None] * 5

    def test_updates_store_the_exact_value(self, numbers):
        numbers.execute("UPDATE n SET b = b + 1 WHERE k < 2")
        assert self.column(numbers, "b")[:2] == [2**53 + 2, 2**60 + 2]


class TestOneExpressionOp:
    def test_explain_prints_the_expression(self, conn):
        conn.execute("CREATE ARRAY life (x INT DIMENSION[0:1:8], y INT DIMENSION[0:1:8], v INT DEFAULT 0)")
        plan = conn.explain_unoptimized(
            f"SELECT [x], [y], {LIFE_RULE} FROM life GROUP BY life[x-1:x+2][y-1:y+2]"
        )
        text = "case(or(eq(sub($0,$1),3),and(eq(sub($0,$1),2),eq($1,1))),1,0)"
        assert f'batcalc.expr("{text}", ' in plan
        assert ops(plan).count("batcalc.expr") == 1
        assert ops(plan).count("array.tileagg") == 1  # SUM(v) is one leaf

    def test_scalars_parameters_and_constants_are_leaves_or_literals(self, conn):
        conn.execute("CREATE TABLE t (a INT, d DOUBLE)")
        conn.executemany("INSERT INTO t VALUES (?, ?)", [(1, 0.5), (2, None), (None, 2.0)])
        sql = "SELECT a * ? + d, a + (1 + 2) FROM t"
        plan = conn.explain(sql)
        assert 'batcalc.expr("add(mul($0,$1),$2)", X_0, ?0, X_1)' in plan
        assert 'batcalc.expr("add($0,$1)", X_0, 3)' in plan  # 1 + 2 folded into the leaf
        assert conn.execute(sql, (10,)).rows() == [(10.5, 4), (None, 5), (None, None)]
        assert conn.execute(sql, (0.5,)).rows() == [(1.0, 4), (None, 5), (None, None)]

    def test_neutral_operands_build_no_node(self, conn):
        conn.execute("CREATE TABLE t (a INT, f BOOLEAN)")
        conn.execute("INSERT INTO t VALUES (3, TRUE), (NULL, NULL)")
        plan = conn.explain_unoptimized("SELECT a + 0, 1 * a, a * 0, f AND TRUE FROM t")
        assert ops(plan).count("batcalc.expr") == 1  # only a * 0 computes
        assert 'batcalc.expr("mul($0,0)"' in plan
        rows = conn.execute("SELECT a + 0, 1 * a, a * 0, f AND TRUE FROM t").rows()
        assert rows == [(3, 3, 0, True), (None, None, None, None)]
        # ... and no calc instruction over scalars: there is no pass behind it.
        plan = conn.explain_unoptimized("SELECT SUM(a) + 0, 1 * COUNT(*), MAX(a) * 0 FROM t")
        assert [op for op in ops(plan) if op.startswith("calc.")] == ["calc.mul"]
        assert conn.execute("SELECT SUM(a) + 0, 1 * COUNT(*) FROM t").rows() == [(3, 2)]
        # An untyped parameter is not known to be numeric: it is computed.
        assert "calc.add(?0, 0)" in conn.explain_unoptimized("SELECT ? + 0")
        assert conn.execute("SELECT ? + 0", (2.5,)).scalar() == 2.5

    def test_every_pass_ablated_returns_the_same_rows(self, conn):
        conn.execute("CREATE TABLE t (a INT, b INT)")
        conn.executemany("INSERT INTO t VALUES (?, ?)", [(i, i % 3 - 1) for i in range(40)])
        sql = (
            "SELECT a, CASE WHEN a % 2 = 0 AND b > 0 THEN a * b + (2 + 3) "
            "WHEN b IS NULL THEN 0 ELSE a - b END FROM t WHERE a + b > 5"
        )
        expected = conn.execute(sql).rows()
        full = conn.pipeline
        for skipped in full:
            conn.pipeline = tuple(p for p in full if p is not skipped)
            assert conn.execute(sql).rows() == expected, skipped.name
        conn.pipeline = ()
        assert conn.execute(sql).rows() == expected


class TestIdentityWriteBack:
    SHAPE = "x INT DIMENSION[0:1:6], y INT DIMENSION[0:1:5], v INT DEFAULT 0"

    @pytest.fixture
    def board(self):
        conn = repro.connect(nr_threads=2, fragment_rows=7)
        conn.execute(f"CREATE ARRAY a ({self.SHAPE})")
        conn.execute("UPDATE a SET v = (x * 7 + y * 3) % 5")
        return conn

    def grid(self, conn):
        return conn.execute("SELECT [x], [y], v FROM a").grid()

    @pytest.mark.parametrize(
        "value, rest",
        [
            ("v + 1", "FROM a"),
            (LIFE_RULE, "FROM a GROUP BY a[x-1:x+2][y-1:y+2]"),
            ("SUM(v)", "FROM a GROUP BY a[x:x+2][y:y+2] HAVING SUM(v) > 4"),
        ],
    )
    @pytest.mark.parametrize("columns", ["[x], [y]", "[y], [x]"])  # matched by name
    def test_own_dimensions_address_cells_by_position(self, board, columns, value, rest):
        names = columns.replace("[", "").replace("]", "")
        sql = f"INSERT INTO a ({names}, v) SELECT {columns}, {value} {rest}"
        plan = board.explain(sql)
        # Row i is cell i: the values are published without any oids.
        assert "bat.mirror(" not in plan and "algebra.projection(" not in plan
        assert 'sql.update("a", "v", X_' in plan
        [update] = [line for line in plan.splitlines() if "sql.update(" in line]
        assert update.count(",") == 2
        assert "array.cellindex(" not in plan
        assert 'sql.bind("a", "x")' not in plan  # the coordinates are never read
        expected = board.execute(f"SELECT [x], [y], {value} {rest}").grid()
        assert board.execute(sql).affected == 30
        assert np.array_equal(self.grid(board), expected, equal_nan=True)

    @pytest.mark.parametrize(
        "select",
        [
            "SELECT [x], [y], v + 1 FROM a WHERE x > 1",  # restricted
            "SELECT [x], [y], v + 1 FROM a WHERE v > 100",  # restricted to nothing
            "SELECT [x + 1], [y], v + 1 FROM a",  # shifted
            "SELECT [5 - x], [y], v + 1 FROM a",  # computed
            "SELECT [y], [y], v + 1 FROM a",  # a dimension, but not its own
            "SELECT [x], [y], v + 1 FROM a ORDER BY v",  # reordered
            "SELECT [x], [y], v + 1 FROM a LIMIT 7",
            "SELECT x, y, SUM(v) FROM a GROUP BY a[x:x+2][y:y+2] HAVING x > 2",  # rows dropped
        ],
    )
    def test_anything_else_addresses_cells_by_value(self, board, select):
        sql = f"INSERT INTO a {select}"
        plan = board.explain(sql)
        assert "array.cellindex(" in plan
        assert "bat.mirror(" not in plan
        before = self.grid(board)
        oracle = repro.connect()
        oracle.execute(f"CREATE ARRAY a ({self.SHAPE})")
        oracle.register_array("src", before.astype(np.int32))
        oracle.execute("INSERT INTO a SELECT [x], [y], v FROM src")
        assert board.execute(sql).affected == oracle.execute(sql).affected
        assert np.array_equal(self.grid(board), self.grid(oracle), equal_nan=True)

    def test_another_arrays_dimensions_do_not_qualify(self, board):
        board.execute(f"CREATE ARRAY other ({self.SHAPE})")
        plan = board.explain("INSERT INTO a SELECT [x], [y], v + 1 FROM other")
        assert "array.cellindex(" in plan and "bat.mirror(" not in plan

    def test_whole_column_update_shares_no_state_with_the_old_version(self, board):
        reader = board.database.connect()
        reader.begin()
        before = reader.execute("SELECT [x], [y], v FROM a").grid()
        board.execute("INSERT INTO a SELECT [x], [y], v + 10 FROM a")
        assert np.array_equal(reader.execute("SELECT [x], [y], v FROM a").grid(), before)
        reader.rollback()
        assert np.array_equal(self.grid(board), before + 10)


class TestBudgetChargesTheExpressionOnce:
    def test_a_long_chain_materialises_one_output(self):
        conn = repro.connect(nr_threads=1, fragment_rows=math.inf)  # no packs to charge
        conn.execute("CREATE TABLE t (a INT)")
        conn.executemany("INSERT INTO t VALUES (?)", [(i,) for i in range(1000)])
        sql = "SELECT ((((a + 1) * 2 - 3) * 4 + 5) * 6 - 7) * 8 FROM t"
        # bind (4 000 bytes) + one expression output (4 000); seven
        # per-operator temporaries would have been 28 000.
        conn.mem_budget_bytes = 10_000
        assert conn.execute(sql).rows()[1] == ((((((1 + 1) * 2 - 3) * 4 + 5) * 6 - 7) * 8),)
        conn.mem_budget_bytes = 7_000
        with pytest.raises(ResourceError):
            conn.execute(sql)
