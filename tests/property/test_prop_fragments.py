"""Fragmented vs. unfragmented execution equivalence.

The mergetable optimizer pass plus the dataflow scheduler
must be observationally invisible: for randomized tables and arrays
(including NULLs), every query in a representative suite returns
*identical* rows under every combination of
``nr_threads ∈ {1, 4}`` × ``fragment_rows ∈ {7, 64, ∞}``.
The ``(1, ∞)`` cell is the sequential engine itself, so each other
cell is compared row-for-row against it.
"""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.apps.life import numpy_life_step
from repro.core.tiling import Tile
from repro.errors import MALError
from repro.mal import interpreter
from repro.mal.analysis.explain import fragment_groups
from repro.mal.modules import REGISTRY, load_all
from repro.mal.optimizer.mergetable import HALO_ROWS_FACTOR, fragment_count

#: the knob matrix of the acceptance criterion.
KNOBS = [
    (1, 7),
    (1, 64),
    (1, math.inf),
    (4, 7),
    (4, 64),
    (4, math.inf),
]

#: a constant broadcast over a fragmented grouping: ``bat.project_const``
#: reads the extents whole, so mergetable rebuilds them from the global
#: group ids (``aggr.firstocc``).
FIRSTOCC_QUERY = "SELECT k, 5 FROM t GROUP BY k"

#: a representative query suite: selection, projection expressions,
#: grouped aggregates (decomposable and not), multi-key grouping,
#: HAVING, DISTINCT, ORDER BY/LIMIT, joins, set ops, scalar aggregates.
TABLE_QUERIES = [
    "SELECT k, v FROM t WHERE v > 10",
    "SELECT k + 1, v * 2 FROM t WHERE v >= 0 AND k < 5",
    "SELECT v FROM t WHERE v IS NULL",
    "SELECT k, SUM(v), COUNT(v), COUNT(*) FROM t GROUP BY k",
    "SELECT k, MIN(v), MAX(v), AVG(v) FROM t GROUP BY k",
    "SELECT k, SUM(d), AVG(d), MIN(d) FROM t GROUP BY k",
    "SELECT SUM(d), AVG(d) FROM t",
    "SELECT k, STDDEV(v), MEDIAN(v) FROM t GROUP BY k",
    "SELECT k, COUNT(DISTINCT v) FROM t GROUP BY k",
    "SELECT k, g, SUM(v) FROM t GROUP BY k, g",
    FIRSTOCC_QUERY,
    "SELECT k, AVG(v) FROM t WHERE v > 2 GROUP BY k HAVING AVG(v) > 5",
    "SELECT DISTINCT k FROM t",
    "SELECT k, v FROM t ORDER BY v, k LIMIT 5",
    "SELECT SUM(v), COUNT(*), MIN(v) FROM t",
    "SELECT t.k, u.w FROM t JOIN u ON t.k = u.k",
    "SELECT t.k, u.w FROM t LEFT JOIN u ON t.k = u.k",
    "SELECT k FROM t UNION SELECT k FROM u",
    "SELECT k FROM t EXCEPT SELECT k FROM u",
]

ARRAY_QUERIES = [
    "SELECT x, v FROM a WHERE v > 10",
    "SELECT x, v + 1 FROM a WHERE x >= 2",
    "SELECT SUM(v), COUNT(v) FROM a",
    "SELECT x / 3, AVG(v) FROM a GROUP BY x / 3",
]

#: structural grouping over a 2-D array: halo-fragment tiling
#: (array.tilepart) must be byte-identical to the sequential kernels
#: across every knob combination, including aggregates the optimizer
#: refuses to fragment (scan fallback) and expressions over the result.
TILING_QUERIES = [
    "SELECT [x], [y], SUM(v) FROM g GROUP BY g[x:x+2][y:y+2]",
    "SELECT [x], [y], AVG(v), COUNT(v), COUNT(*) FROM g "
    "GROUP BY g[x-1:x+2][y-1:y+2]",
    "SELECT [x], [y], MIN(v), MAX(v) FROM g GROUP BY g[x-2:x+1][y:y+3]",
    "SELECT [x], [y], SUM(v) - v FROM g GROUP BY g[x-1:x+2][y-1:y+2]",
    "SELECT [x], [y], PROD(v) FROM g GROUP BY g[x:x+2][y:y+2]",
]


def _make_connection(nr_threads, fragment_rows):
    return repro.connect(nr_threads=nr_threads, fragment_rows=fragment_rows)


def _load_tables(conn, t_rows, u_rows):
    conn.execute("CREATE TABLE t (k INT, g INT, v INT, d DOUBLE)")
    conn.execute("CREATE TABLE u (k INT, w INT)")
    if t_rows:
        conn.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", t_rows)
    if u_rows:
        conn.executemany("INSERT INTO u VALUES (?, ?)", u_rows)


def _load_array(conn, cells):
    conn.execute(
        f"CREATE ARRAY a (x INT DIMENSION[0:1:{len(cells)}], v INT)"
    )
    conn.executemany(
        "INSERT INTO a (x, v) VALUES (?, ?)",
        [(x, v) for x, v in enumerate(cells)],
    )


def _load_grid(conn, side, cells):
    conn.execute(
        f"CREATE ARRAY g (x INT DIMENSION[0:1:{side}], "
        f"y INT DIMENSION[0:1:{side}], v INT)"
    )
    rows = [
        (i // side, i % side, v)
        for i, v in enumerate(cells)
        if v is not None
    ]
    if rows:
        conn.executemany("INSERT INTO g (x, y, v) VALUES (?, ?, ?)", rows)


@st.composite
def table_data(draw):
    t_rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, 6),
                st.integers(0, 2),
                st.one_of(st.none(), st.integers(-30, 30)),
                st.one_of(
                    st.none(),
                    st.floats(-1e6, 1e6, allow_nan=False).map(
                        lambda f: f / 3.0
                    ),
                ),
            ),
            min_size=0,
            max_size=60,
        )
    )
    u_rows = draw(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(-5, 5)),
            min_size=0,
            max_size=25,
        )
    )
    return t_rows, u_rows


class TestFragmentedEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(table_data())
    def test_table_queries(self, data):
        t_rows, u_rows = data
        baseline = _make_connection(1, math.inf)
        _load_tables(baseline, t_rows, u_rows)
        expected = {sql: baseline.execute(sql).rows() for sql in TABLE_QUERIES}
        for nr_threads, fragment_rows in KNOBS[:2] + KNOBS[3:]:
            conn = _make_connection(nr_threads, fragment_rows)
            _load_tables(conn, t_rows, u_rows)
            for sql in TABLE_QUERIES:
                assert conn.execute(sql).rows() == expected[sql], (
                    sql,
                    nr_threads,
                    fragment_rows,
                )
            conn.close()

    @settings(max_examples=8, deadline=None)
    @given(
        st.integers(5, 9),
        st.data(),
    )
    def test_tiling_queries(self, side, data):
        """Halo-fragment tiling == sequential tiling, byte for byte."""
        cells = data.draw(
            st.lists(
                st.one_of(st.none(), st.integers(-9, 9)),
                min_size=side * side,
                max_size=side * side,
            )
        )
        baseline = _make_connection(1, math.inf)
        _load_grid(baseline, side, cells)
        expected = {sql: baseline.execute(sql).rows() for sql in TILING_QUERIES}
        for nr_threads, fragment_rows in KNOBS[:2] + KNOBS[3:]:
            conn = _make_connection(nr_threads, fragment_rows)
            _load_grid(conn, side, cells)
            for sql in TILING_QUERIES:
                assert conn.execute(sql).rows() == expected[sql], (
                    sql,
                    nr_threads,
                    fragment_rows,
                )
            conn.close()
        baseline.close()

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.one_of(st.none(), st.integers(-40, 40)),
            min_size=1,
            max_size=40,
        )
    )
    def test_array_queries(self, cells):
        baseline = _make_connection(1, math.inf)
        _load_array(baseline, cells)
        expected = {sql: baseline.execute(sql).rows() for sql in ARRAY_QUERIES}
        for nr_threads, fragment_rows in KNOBS[:2] + KNOBS[3:]:
            conn = _make_connection(nr_threads, fragment_rows)
            _load_array(conn, cells)
            for sql in ARRAY_QUERIES:
                assert conn.execute(sql).rows() == expected[sql], (
                    sql,
                    nr_threads,
                    fragment_rows,
                )
            conn.close()


class TestFragmentedPlanInvariants:
    def test_sequential_knobs_reproduce_default_plans(self):
        """``nr_threads=1, fragment_rows=∞`` keeps today's plan shapes."""
        reference = repro.connect(nr_threads=1, fragment_rows=math.inf)
        plain = repro.connect(nr_threads=1, fragment_rows=math.inf)
        for conn in (reference, plain):
            conn.execute("CREATE TABLE t (k INT, v INT)")
            conn.execute(
                "INSERT INTO t VALUES " + ", ".join(
                    f"({i % 5}, {i})" for i in range(100)
                )
            )
        sql = "SELECT k, SUM(v) FROM t WHERE v > 3 GROUP BY k"
        assert reference.explain(sql) == plain.explain(sql)
        assert "mat.partition" not in reference.explain(sql)

    def test_fragmented_plans_contain_mat_ops(self):
        conn = repro.connect(nr_threads=1, fragment_rows=7)
        conn.execute("CREATE TABLE t (k INT, v INT)")
        conn.execute(
            "INSERT INTO t VALUES " + ", ".join(
                f"({i % 5}, {i})" for i in range(100)
            )
        )
        plan = conn.explain("SELECT k, SUM(v) FROM t WHERE v > 3 GROUP BY k")
        assert "mat.partition" in plan
        assert "bat.mergecand" in plan or "mat.pack" in plan
        assert "aggr.mergesum" in plan

    def test_merged_extents_are_byte_identical(self):
        rows = [(i % 5, i % 3, i, i / 4) for i in range(40)]
        digests = []
        for fragment_rows in (math.inf, 7):
            conn = _make_connection(1, fragment_rows)
            _load_tables(conn, rows, [])
            plan = conn.explain(FIRSTOCC_QUERY)
            assert ("aggr.firstocc" in plan) == (fragment_rows == 7)
            digests.append(_digest(conn.execute(FIRSTOCC_QUERY)))
            conn.close()
        assert digests[0] == digests[1]

    def test_cached_fragmented_plan_survives_growth(self):
        """Partition bounds come from runtime counts: cached plans stay
        correct when the table grows (or shrinks) after compilation."""
        conn = repro.connect(nr_threads=1, fragment_rows=8)
        conn.execute("CREATE TABLE t (k INT, v INT)")
        conn.executemany(
            "INSERT INTO t VALUES (?, ?)", [(i % 3, i) for i in range(32)]
        )
        sql = "SELECT k, SUM(v) FROM t GROUP BY k"
        first = conn.execute(sql).rows()
        assert first
        conn.executemany(
            "INSERT INTO t VALUES (?, ?)", [(i % 3, i * 2) for i in range(200)]
        )
        expected = {
            k: sum(i for i in range(32) if i % 3 == k)
            + sum(2 * i for i in range(200) if i % 3 == k)
            for k in range(3)
        }
        assert dict(conn.execute(sql).rows()) == expected
        conn.execute("DELETE FROM t WHERE v >= 0")
        assert conn.execute(sql).rows() == []

    def test_parallel_batches_counted(self):
        conn = repro.connect(nr_threads=4, fragment_rows=16)
        conn.execute("CREATE TABLE t (k INT, v INT)")
        conn.execute(
            "INSERT INTO t VALUES " + ", ".join(
                f"({i % 5}, {i})" for i in range(256)
            )
        )
        result = conn.execute(
            "SELECT k, SUM(v) FROM t WHERE v > 3 GROUP BY k",
            collect_stats=True,
        )
        assert result.rows()
        stats = conn.last_stats
        assert stats.parallel_batches >= 0
        assert stats.instruction_timings
        profile = conn.last_profile()
        assert profile and profile[0]["seconds"] >= 0
        conn.close()


class TestFragmentSizing:
    """One sizing rule, applied where each object is bound: a bind of
    ``rows`` rows splits into ``fragment_count(rows, fragment_rows,
    nr_threads)`` pieces, capped when a tiling op of the plan reads an
    array of as many cells so that each slab holds at least
    ``HALO_ROWS_FACTOR * (halo + 1)`` dim-0 rows."""

    @staticmethod
    def halo_caps(program):
        caps = {}
        for instruction in program.instructions:
            if instruction.module == "array" and instruction.function in ("tileagg", "tilepart"):
                tile = Tile.from_json(instruction.args[2].value)
                lo, hi = tile.spec.box[0]
                halo = max(hi, 0) - min(lo, 0)
                cap = max(1, tile.shape[0] // (HALO_ROWS_FACTOR * (halo + 1)))
                cells = math.prod(tile.shape)
                caps[cells] = min(caps.get(cells, cap), cap)
        return caps

    @pytest.mark.parametrize("fragment_rows", [7, 64, None])
    @pytest.mark.parametrize("nr_threads", [1, 2])
    def test_every_group_is_sized_by_the_rule(self, nr_threads, fragment_rows):
        small = _make_connection(nr_threads, fragment_rows or "auto")
        TestPooledSteps.load(small)
        # 524 288 cells: twice the auto fragment floor, so auto mode on
        # two threads splits it too.
        big = _make_connection(nr_threads, fragment_rows or "auto")
        big.register_array("g", (np.arange(1024 * 512, dtype=np.int32) % 19 - 9).reshape(1024, 512))
        groups = 0
        for conn, corpus in (
            (small, TABLE_QUERIES + ARRAY_QUERIES + TILING_QUERIES),
            (big, TILING_QUERIES),
        ):
            for sql in corpus:
                program = conn.compile(sql)
                binds = {
                    i.results[0]: i.args[0].value
                    for i in program.instructions
                    if (i.module, i.function) == ("sql", "bind")
                }
                caps = self.halo_caps(program)
                for source, pieces in fragment_groups(program):
                    rows = conn.catalog.get(binds[source]).count
                    expected = fragment_count(rows, fragment_rows, nr_threads)
                    assert pieces == min(expected, caps.get(rows, expected)), (sql, source)
                    groups += 1
            conn.close()
        # Auto mode on one thread is the unfragmented pipeline.
        assert (groups == 0) == (nr_threads == 1 and fragment_rows is None)


GROUPED_SUM_AVG = "SELECT k, SUM(v), AVG(v) FROM t GROUP BY k ORDER BY k"

#: integer SUMs whose per-fragment partials leave ``lng``: a group whose
#: first two rows alone overflow though its total is 1, groups whose
#: total itself does not fit (NULL) however the rows are fragmented, and
#: an outer SUM/AVG over such a NULL total, which it skips.
EXACT_PARTIALS = {
    "a partial overflows, the total fits": (
        [(0, 2**62), (0, 2**62), (0, -(2**62)), (0, -(2**62) + 1)],
        GROUPED_SUM_AVG,
        [(0, 1, 0.25)],
    ),
    "the total overflows": (
        [(0, 2**62), (0, 2**62), (0, 2**62), (1, 5), (1, 2**62), (1, -(2**62))],
        GROUPED_SUM_AVG,
        [(0, None, float(2**62)), (1, 5, 5 / 3)],
    ),
    "a derived table's overflowed total is NULL": (
        [(0, 2**62), (0, 2**62), (1, -(2**62)), (1, -(2**62))],
        "SELECT g, SUM(s), AVG(s) FROM"
        " (SELECT k, k * 0 AS g, SUM(v) AS s FROM t GROUP BY k) q GROUP BY g",
        [(0, -(2**63), float(-(2**63)))],
    ),
}


class TestExactPartials:
    """Partials carry exact totals; the ``lng`` NULL rule applies once,
    to the merged total, so fragmented equals unfragmented."""

    @pytest.mark.parametrize("case", EXACT_PARTIALS)
    @pytest.mark.parametrize("nr_threads, fragment_rows", KNOBS + [(1, 2), (4, 2)])
    def test_sum_and_avg_over_overflowing_partials(self, case, nr_threads, fragment_rows):
        rows, sql, expected = EXACT_PARTIALS[case]
        conn = _make_connection(nr_threads, fragment_rows)
        conn.execute("CREATE TABLE t (k INT, v BIGINT)")
        conn.executemany("INSERT INTO t VALUES (?, ?)", rows)
        if fragment_rows == 2:
            assert "aggr.mergesum" in conn.explain(sql)
        assert conn.execute(sql).rows() == expected
        conn.close()


class TestExactProducts:
    """``PROD`` is one rule in its three forms — scalar, grouped and
    tiled: exact within ``lng``, NULL past it — and fragment partials
    merge to the unfragmented answer."""

    EXACT = 94906267  # its square needs 54 bits: a double rounds it
    WIDE = 2**32  # its square leaves lng; int64 wraps it to 0

    def connection(self, fragment_rows=math.inf):
        conn = _make_connection(1, fragment_rows)
        conn.execute("CREATE TABLE t (k INT, v BIGINT)")
        conn.executemany(
            "INSERT INTO t VALUES (?, ?)",
            [(0, self.EXACT), (0, self.EXACT), (1, self.WIDE), (1, self.WIDE),
             (2, 3), (2, -5), (2, None), (3, None)],
        )
        return conn

    def test_scalar_prod(self):
        conn = self.connection()
        assert conn.execute("SELECT PROD(v) FROM t WHERE k = 0").rows() == [(self.EXACT**2,)]
        assert conn.execute("SELECT PROD(v) FROM t WHERE k = 1").rows() == [(None,)]
        assert conn.execute("SELECT PROD(v) FROM t WHERE k >= 2").rows() == [(-15,)]
        assert conn.execute("SELECT PROD(v) FROM t WHERE k = 3").rows() == [(None,)]

    def test_grouped_prod(self):
        conn = self.connection()
        rows = conn.execute("SELECT k, PROD(v) FROM t GROUP BY k ORDER BY k").rows()
        assert rows == [(0, self.EXACT**2), (1, None), (2, -15), (3, None)]

    def test_tiled_prod(self):
        conn = self.connection()
        conn.execute(f"CREATE ARRAY a (x INT DIMENSION[0:1:3], v BIGINT DEFAULT {self.WIDE})")
        conn.execute(f"UPDATE a SET v = {self.EXACT} WHERE x = 2")
        rows = conn.execute("SELECT [x], PROD(v) FROM a GROUP BY a[x:x+2]").rows()
        assert rows == [(0, None), (1, self.WIDE * self.EXACT), (2, self.EXACT)]

    @pytest.mark.parametrize("nr_threads", [1, 4])
    def test_fragment_partials_merge_exactly(self, nr_threads):
        # Group 0: the first fragment's 7 factors of 2**32 leave lng, and
        # a 0 in the next fragment makes the product 0.  Group 1: 2**62
        # times -2 is -2**63, which fits.
        rows = [(0, self.WIDE)] * 7 + [(0, 0)] + [(1, 2)] * 62 + [(1, -2)]
        sql = "SELECT k, PROD(v) FROM t GROUP BY k ORDER BY k"
        expected = [(0, 0), (1, -(2**63))]
        for fragment_rows in (7, math.inf):
            conn = _make_connection(nr_threads, fragment_rows)
            conn.execute("CREATE TABLE t (k INT, v BIGINT)")
            conn.executemany("INSERT INTO t VALUES (?, ?)", rows)
            if fragment_rows == 7:
                assert "aggr.mergeprod" in conn.explain(sql)
            assert conn.execute(sql).rows() == expected
            assert conn.execute("SELECT PROD(v) FROM t WHERE k = 1").rows() == [(-(2**63),)]
            conn.close()


def _digest(result):
    """Every column's dtype and bytes (object columns: their values)."""
    return [
        (name, array.dtype.str, array.tolist() if array.dtype == object else array.tobytes())
        for name, array in result.to_numpy().items()
    ]


class TestPooledSteps:
    """Tier-1 data is too small to reach the worker pool: with
    ``PARALLEL_MIN_ROWS = 0`` every step with a BAT operand and
    something to overlap with goes there."""

    @staticmethod
    def load(conn):
        rng = np.random.default_rng(3)
        t_rows = [
            (
                int(rng.integers(0, 7)),
                int(rng.integers(0, 3)),
                None if i % 9 == 4 else int(rng.integers(-30, 30)),
                None if i % 7 == 1 else float(rng.integers(-300, 300)) / 4,
            )
            for i in range(50)
        ]
        u_rows = [(int(rng.integers(0, 7)), int(rng.integers(-5, 5))) for _ in range(20)]
        _load_tables(conn, t_rows, u_rows)
        _load_array(conn, [None if i % 5 == 2 else i * 3 - 40 for i in range(30)])
        _load_grid(conn, 9, [None if i % 11 == 3 else i % 19 - 9 for i in range(81)])

    def run_corpora(self, nr_threads):
        conn = _make_connection(nr_threads, 7)
        self.load(conn)
        digests, batches = [], 0
        for sql in TABLE_QUERIES + ARRAY_QUERIES + TILING_QUERIES:
            digests.append(_digest(conn.execute(sql, collect_stats=True)))
            batches += conn.last_stats.parallel_batches
        conn.close()
        return digests, batches

    def test_pooled_corpora_are_byte_identical_to_one_thread(self, monkeypatch):
        monkeypatch.setattr(interpreter, "PARALLEL_MIN_ROWS", 0)
        # Workers write their results into the run's shared slot list:
        # more workers than cores and a short switch interval give a
        # lost or misplaced write every chance to show.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled, batches = self.run_corpora(4)
        finally:
            sys.setswitchinterval(interval)
        sequential, sequential_batches = self.run_corpora(1)
        assert batches > 0 and sequential_batches == 0
        assert pooled == sequential

    def test_pooled_life_generations_are_byte_identical_to_one_thread(self, monkeypatch):
        """Four Life generations, whose tiling and write-back steps free
        and allocate buffers on the workers, give one thread's bytes."""
        monkeypatch.setattr(interpreter, "PARALLEL_MIN_ROWS", 0)

        def generations(nr_threads):
            digests = []
            conn = _make_connection(nr_threads, 7)
            board = (np.random.default_rng(5).random((9, 11)) < 0.35).astype(np.int32)
            conn.execute(
                "CREATE ARRAY life (x INT DIMENSION[0:1:9], y INT DIMENSION[0:1:11], v INT DEFAULT 0)"
            )
            conn.register_array("seed", board)
            conn.execute("INSERT INTO life SELECT [x], [y], v FROM seed")
            for _ in range(4):
                conn.execute(LIFE_STEP)
                digests.append(_digest(conn.execute("SELECT [x], [y], v FROM life")))
            conn.close()
            return digests

        assert generations(4) == generations(1)

    def test_kernel_error_in_a_pooled_step(self, monkeypatch):
        monkeypatch.setattr(interpreter, "PARALLEL_MIN_ROWS", 0)
        load_all()
        select = REGISTRY["algebra", "thetaselect"]
        lock = threading.Lock()
        counts = {"running": 0, "failed": 0}

        def fails_on_workers(ctx, *args):
            with lock:
                counts["running"] += 1
            try:
                if threading.current_thread().name.startswith("mal-dataflow"):
                    counts["failed"] += 1
                    raise RuntimeError("injected kernel failure")
                return select(ctx, *args)
            finally:
                with lock:
                    counts["running"] -= 1

        monkeypatch.setitem(REGISTRY, ("algebra", "thetaselect"), fails_on_workers)
        conn = _make_connection(4, 7)
        self.load(conn)
        with pytest.raises(MALError, match="injected kernel failure"):
            conn.execute("SELECT k, v FROM t WHERE v > 10")
        # It failed on a worker, and no step was left running behind it.
        assert counts["failed"] > 0 and counts["running"] == 0
        assert conn.execute("SELECT COUNT(*), SUM(k) FROM t").rows()[0][0] == 50
        conn.close()


#: Scenario II (grey-scale imaging) as the benchmark runs it, plus
#: Scenario I's generation step below: every statement hands its answer
#: back through table→array coercion, and `edge`/Life address cells
#: through ``array.cellindex`` once per fragment.
SCENARIO_II = {
    "invert": "SELECT [x], [y], 255 - v FROM img",
    "edge": (
        "SELECT [x], [y], ABS(img[x][y] - img[x-1][y]) + "
        "ABS(img[x][y] - img[x][y-1]) FROM img"
    ),
    "avg3": "SELECT [x], [y], AVG(v) FROM img GROUP BY img[x-1:x+2][y-1:y+2]",
    "avg17": "SELECT [x], [y], AVG(v) FROM img GROUP BY img[x-8:x+9][y-8:y+9]",
    "min3": "SELECT [x], [y], MIN(v) FROM img GROUP BY img[x-1:x+2][y-1:y+2]",
    "reduce": (
        "SELECT [x / 2], [y / 2], AVG(v) FROM img GROUP BY img[x:x+2][y:y+2] "
        "HAVING x MOD 2 = 0 AND y MOD 2 = 0"
    ),
}
LIFE_STEP = (
    "INSERT INTO life SELECT [x], [y], "
    "CASE WHEN SUM(v) - v = 3 OR (SUM(v) - v = 2 AND v = 1) "
    "THEN 1 ELSE 0 END "
    "FROM life GROUP BY life[x-1:x+2][y-1:y+2]"
)


class TestScenarioGrids:
    """``grid()`` is byte-identical however the plan was fragmented.

    The image is 12x16: ``fragment_rows=64`` cuts it into whole rows
    (coordinate fragments still spell a row-major series, so cells are
    addressed per axis), ``fragment_rows=7`` cuts inside rows (the
    general per-row path), and the sequential cell is one series.
    """

    SHAPE = (12, 16)

    @staticmethod
    def _same(grid, expected):
        return (
            grid.dtype == expected.dtype
            and grid.shape == expected.shape
            and grid.tobytes() == expected.tobytes()
        )

    def test_scenario_two(self):
        image = np.random.default_rng(13).integers(0, 256, self.SHAPE).astype(np.int32)
        grids = {}
        for nr_threads, fragment_rows in KNOBS:
            conn = _make_connection(nr_threads, fragment_rows)
            conn.register_array("img", image)
            grids[nr_threads, fragment_rows] = {
                part: conn.execute(sql).grid() for part, sql in SCENARIO_II.items()
            }
            conn.close()
        expected = grids[1, math.inf]
        for knobs, per_part in grids.items():
            for part, grid in per_part.items():
                assert self._same(grid, expected[part]), (part, knobs)
        # ...and the sequential cell is right, dtype and NaN holes included.
        assert self._same(expected["invert"], 255 - image)
        edge = np.full(self.SHAPE, np.nan)
        edge[1:, 1:] = np.abs(image[1:, 1:] - image[:-1, 1:]) + np.abs(
            image[1:, 1:] - image[1:, :-1]
        )
        assert self._same(expected["edge"], edge)
        blocks = image.reshape(6, 2, 8, 2).astype(np.float64)
        assert self._same(expected["reduce"], blocks.mean(axis=(1, 3)))
        assert expected["avg3"].dtype == np.float64
        assert expected["min3"].dtype == np.int32
        assert expected["avg17"].shape == self.SHAPE

    def test_life_generations(self):
        board = (np.random.default_rng(5).random(self.SHAPE) < 0.35).astype(np.int32)
        for nr_threads, fragment_rows in KNOBS:
            conn = _make_connection(nr_threads, fragment_rows)
            conn.execute(
                f"CREATE ARRAY life (x INT DIMENSION[0:1:{self.SHAPE[0]}], "
                f"y INT DIMENSION[0:1:{self.SHAPE[1]}], v INT DEFAULT 0)"
            )
            conn.register_array("seed", board)
            conn.execute("INSERT INTO life SELECT [x], [y], v FROM seed")
            expected = board
            for _ in range(4):
                assert conn.execute(LIFE_STEP).affected == board.size
                expected = numpy_life_step(expected)
                grid = conn.execute("SELECT [x], [y], v FROM life").grid()
                assert self._same(grid, expected), (nr_threads, fragment_rows)
            conn.close()
