"""Tiling only the anchors a HAVING keeps: the lattice is a shortcut.

``GROUP BY a[x:x+2][y:y+2] HAVING x MOD 2 = 0 AND y MOD 2 = 0`` keeps
the anchors of a lattice, and malgen tiles only those
(``array.tileagg`` with ``"lattice"`` in its metadata).  Three checks:

* *kernel*: for random 1–3-D INT/LNG/DBL/BIT arrays with NULL holes,
  narrow and wide tile ranges with negative offsets, moduli 1–4 and
  every residue, and every tile aggregate, the lattice result is the
  whole result read at the lattice anchors, byte for byte; spread over
  the whole array it is NULL everywhere else;
* *engine*: over arrays with non-zero starts and step-2 dimensions, the
  statements return the brute-force oracle's values at the anchors the
  HAVING keeps — unfragmented, with 64-row and with 7-row fragments.
  Over the array's own dimensions every anchor is a row, NULL off the
  lattice, and the bytes equal the plan that evaluates the HAVING
  (the recogniser patched to decline); a table, or computed dimensions
  such as ``[x / 2]``, hold the kept anchors only;
* *edge corpus*: what the recogniser declines (``MOD 0``, residues out
  of range, a modulus past the dimension with no solution, an empty
  dimension, two conjuncts on one dimension, a HAVING that reads a
  value) keeps the plan that evaluates HAVING, with the same answers.
"""

import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.algebra import malgen
from repro.core.tiling import (
    NARROW_WIDTH,
    TILE_AGGREGATES,
    TileSpec,
    lattice_cells,
    tile_aggregate,
)
from repro.gdk.atoms import Atom
from repro.gdk.column import Column
from tests.oracles.tiling import brute_force_tile_aggregate
from tests.property.junk_heap import column_bytes, under_two_junks

#: the pipelines every engine statement runs under: (nr_threads, fragment_rows).
PIPELINES = [(1, math.inf), (4, 64), (1, 7)]

SQL_AGGREGATES = {
    "sum": "SUM(v)", "avg": "AVG(v)", "min": "MIN(v)", "max": "MAX(v)",
    "prod": "PROD(v)", "count": "COUNT(v)", "count_star": "COUNT(*)",
}


def lattice_positions(shape, lattice) -> np.ndarray:
    """Cell positions of the lattice anchors, in cell order."""
    cells = np.arange(math.prod(shape)).reshape(shape)
    return cells[tuple(slice(r, None, m) for m, r in lattice)].reshape(-1)


def assert_same_bytes(got: Column, want: Column, context) -> None:
    assert got.atom is want.atom, context
    assert got.effective_mask().tobytes() == want.effective_mask().tobytes(), context
    assert got.values.dtype == want.values.dtype, context
    assert got.values.tobytes() == want.values.tobytes(), context


@st.composite
def kernel_case(draw):
    ndim = draw(st.integers(1, 3))
    limit = {1: 24, 2: 12, 3: 6}[ndim]
    shape = tuple(draw(st.integers(1, limit)) for _ in range(ndim))
    ranges = []
    for _ in range(ndim):
        lo = draw(st.integers(-NARROW_WIDTH - 4, 3))
        width = draw(st.sampled_from([1, 2, 3, NARROW_WIDTH + 1, NARROW_WIDTH + 5]))
        ranges.append((lo, lo + width))
    lattice = []
    for _ in range(ndim):
        modulus = draw(st.integers(1, 4))
        lattice.append((modulus, draw(st.integers(0, modulus - 1))))
    atom = draw(st.sampled_from([Atom.INT, Atom.LNG, Atom.DBL, Atom.BIT]))
    value = {
        Atom.INT: st.integers(-(2**31), 2**31 - 1),
        Atom.LNG: st.one_of(st.integers(-50, 50), st.sampled_from([-(2**62), 2**62])),
        Atom.DBL: st.floats(-1e3, 1e3, allow_nan=False).map(lambda f: f / 7.0),
        Atom.BIT: st.booleans(),
    }[atom]
    holes = draw(st.sampled_from([0, 1, 4]))
    cell = st.one_of(*[st.none()] * holes, value) if holes else value
    items = draw(st.lists(cell, min_size=math.prod(shape), max_size=math.prod(shape)))
    return Column.from_pylist(atom, items), shape, TileSpec.from_ranges(ranges), tuple(lattice)


class TestKernel:
    @settings(max_examples=150, deadline=None)
    @given(kernel_case())
    def test_lattice_is_the_whole_result_strided(self, case):
        values, shape, spec, lattice = case
        kept = lattice_positions(shape, lattice)
        for aggregate in TILE_AGGREGATES:
            whole = tile_aggregate(values, shape, spec, aggregate)
            compact = tile_aggregate(values, shape, spec, aggregate, lattice)
            context = (shape, spec, lattice, aggregate)
            assert_same_bytes(compact, whole.take(kept), context)
            spread = lattice_cells(compact, shape, lattice)
            off = np.ones(len(values), dtype=np.bool_)
            off[kept] = False
            expected = Column(
                whole.atom,
                np.where(off, np.zeros_like(whole.values), whole.values),
                whole.effective_mask() | off,
            )
            assert_same_bytes(spread, expected, context)

    @settings(max_examples=60, deadline=None)
    @given(kernel_case())
    def test_a_junk_filled_heap_changes_no_byte(self, case):
        values, shape, spec, lattice = case

        def compute():
            return [
                column_bytes(tile_aggregate(values, shape, spec, aggregate, kept))
                for aggregate in TILE_AGGREGATES
                for kept in (None, lattice)
            ]

        first, second = under_two_junks(compute)
        assert first == second


@st.composite
def array_case(draw):
    """Dimensions with non-zero starts and steps 1–2, holes, a tile
    range per dimension (in rank units) and MOD conjuncts on a
    non-empty subset of the dimensions."""
    ndim = draw(st.integers(1, 2))
    axes = [
        (draw(st.integers(-5, 5)), draw(st.sampled_from([1, 2])), draw(st.integers(1, 7)))
        for _ in range(ndim)
    ]
    ranks = [(draw(st.integers(-3, 2)), draw(st.integers(1, 4))) for _ in range(ndim)]
    conjuncts = {}
    for axis in draw(st.sets(st.integers(0, ndim - 1), min_size=1)):
        modulus = draw(st.integers(1, 4))
        conjuncts[axis] = (modulus, draw(st.integers(0, modulus - 1)))
    cells = math.prod(size for _, _, size in axes)
    values = draw(
        st.lists(st.one_of(st.none(), st.integers(-40, 40)), min_size=cells, max_size=cells)
    )
    aggregate = draw(st.sampled_from(sorted(SQL_AGGREGATES)))
    return axes, ranks, conjuncts, values, aggregate


def c_mod(value: int, modulus: int) -> int:
    """SQL ``MOD``: the remainder takes the dividend's sign."""
    return int(math.fmod(value, modulus))


def c_div(value: int, divisor: int) -> int:
    """SQL integer ``/``: the quotient truncates toward zero."""
    quotient = abs(value) // divisor
    return quotient if value >= 0 else -quotient


class Engine:
    """One random array, its statements and their oracle."""

    def __init__(self, case):
        self.axes, ranks, self.conjuncts, self.values, self.aggregate = case
        self.names = [f"d{i}" for i in range(len(self.axes))]
        self.shape = tuple(size for _, _, size in self.axes)
        steps = [step for _, step, _ in self.axes]
        self.tile = "".join(
            f"[{name}{lo * step:+d}:{name}{(lo + width - 1) * step + 1:+d}]"
            for name, (lo, width), step in zip(self.names, ranks, steps)
        )
        ranges = [
            (lo * step, (lo + width - 1) * step + 1) for (lo, width), step in zip(ranks, steps)
        ]
        self.spec = TileSpec.from_ranges(ranges, steps)
        self.having = " AND ".join(
            f"{self.names[axis]} MOD {m} = {r}" for axis, (m, r) in sorted(self.conjuncts.items())
        )
        column = Column.from_pylist(Atom.INT, self.values)
        self.oracle = brute_force_tile_aggregate(column, self.shape, self.spec, self.aggregate)
        self.anchors = [
            tuple(start + step * rank for (start, step, _), rank in zip(self.axes, ranks))
            for ranks in np.ndindex(*self.shape)
        ]
        self.kept = [
            all(c_mod(anchor[axis], m) == r for axis, (m, r) in self.conjuncts.items())
            for anchor in self.anchors
        ]

    def connect(self, nr_threads, fragment_rows):
        conn = repro.connect(nr_threads=nr_threads, fragment_rows=fragment_rows)
        dims = ", ".join(
            f"{name} INT DIMENSION[{start}:{step}:{start + step * size}]"
            for name, (start, step, size) in zip(self.names, self.axes)
        )
        conn.execute(f"CREATE ARRAY a ({dims}, v INT)")
        rows = [
            anchor + (value,)
            for anchor, value in zip(self.anchors, self.values)
            if value is not None
        ]
        if rows:
            marks = ", ".join("?" * (len(self.names) + 1))
            conn.executemany(f"INSERT INTO a VALUES ({marks})", rows)
        return conn

    def statement(self, items: str) -> str:
        call = SQL_AGGREGATES[self.aggregate]
        return f"SELECT {items}, {call} FROM a GROUP BY a{self.tile} HAVING {self.having}"

    def recognisable(self) -> bool:
        """Does some rank of every constrained dimension solve its
        conjunct, with a residue that ``MOD`` reads the same on any sign?"""
        for axis, (m, r) in self.conjuncts.items():
            start, step, size = self.axes[axis]
            if r and start < 0:
                return False
            if not any(c_mod(start + step * k, m) == r for k in range(size)):
                return False
        return True


def same_rows(got, want) -> bool:
    return len(got) == len(want) and all(
        len(g) == len(w) and all(type(a) is type(b) and a == b for a, b in zip(g, w))
        for g, w in zip(got, want)
    )


class TestEngine:
    @settings(max_examples=60, deadline=None)
    @given(array_case())
    def test_statements_match_the_oracle(self, case):
        engine = Engine(case)
        own = ", ".join(f"[{name}]" for name in engine.names)
        table = ", ".join(engine.names)
        halves = ", ".join(f"[{name} / 2]" for name in engine.names)
        shifted = ", ".join(f"[{name} + 1]" for name in engine.names)
        values, kept = engine.oracle, engine.kept
        expected = {
            own: [a + (v if k else None,) for a, v, k in zip(engine.anchors, values, kept)],
            table: [a + (v,) for a, v, k in zip(engine.anchors, values, kept) if k],
            halves: [
                tuple(c_div(d, 2) for d in a) + (v,)
                for a, v, k in zip(engine.anchors, values, kept)
                if k
            ],
            shifted: [
                tuple(d + 1 for d in a) + (v,) for a, v, k in zip(engine.anchors, values, kept) if k
            ],
        }
        for nr_threads, fragment_rows in PIPELINES:
            conn = engine.connect(nr_threads, fragment_rows)
            for items, rows in expected.items():
                sql = engine.statement(items)
                assert ("lattice" in conn.explain(sql)) == engine.recognisable(), sql
                rows_got = conn.execute(sql).rows()
                assert same_rows(rows_got, rows), (sql, nr_threads, fragment_rows, rows_got, rows)
            conn.close()

    @settings(max_examples=40, deadline=None)
    @given(array_case())
    def test_own_dimensions_equal_the_declined_plan(self, case):
        engine = Engine(case)
        sql = engine.statement(", ".join(f"[{name}]" for name in engine.names))
        for nr_threads, fragment_rows in PIPELINES:
            conn = engine.connect(nr_threads, fragment_rows)
            lattice = conn.execute(sql)
            conn.close()
            with mock.patch.object(malgen, "_anchor_lattice", return_value=None):
                conn = engine.connect(nr_threads, fragment_rows)
                assert "lattice" not in conn.explain(sql)
                declined = conn.execute(sql)
                conn.close()
            assert lattice.names == declined.names
            for mine, theirs in zip(lattice.columns, declined.columns):
                assert_same_bytes(mine, theirs, (sql, nr_threads, fragment_rows))
            mine, theirs = lattice.grid(), declined.grid()
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()


class TestInsert:
    @pytest.mark.parametrize("lattice", [True, False])
    def test_insert_over_own_cells(self, lattice):
        """``INSERT INTO a SELECT [x], [y] ..`` writes every cell in cell
        order: the tiled values on the lattice, NULL off it — with the
        recogniser and with it patched to decline."""
        decline = mock.patch.object(malgen, "_anchor_lattice", return_value=None)
        with contextlib.nullcontext() if lattice else decline:
            conn = repro.connect()
            conn.execute(
                "CREATE ARRAY a (x INT DIMENSION[1:2:9], y INT DIMENSION[0:1:3], v INT DEFAULT 1)"
            )
            sql = (
                "INSERT INTO a SELECT [x], [y], SUM(v) FROM a GROUP BY a[x:x+3][y:y+2] "
                "HAVING x MOD 4 = 1 AND y MOD 2 = 0"
            )
            assert ("lattice" in conn.explain(sql)) == lattice
            conn.execute(sql)
        grid = conn.execute("SELECT [x], [y], v FROM a").grid()
        assert np.array_equal(
            grid,
            [[4.0, np.nan, 2.0], [np.nan] * 3, [4.0, np.nan, 2.0], [np.nan] * 3],
            equal_nan=True,
        )


class TestEdgeCorpus:
    """What the recogniser declines keeps the plan that evaluates HAVING."""

    @pytest.fixture
    def line(self):
        conn = repro.connect()
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:6], v INT DEFAULT 1)")
        return conn

    def run(self, conn, sql, lattice: bool):
        assert ("lattice" in conn.explain(sql)) == lattice, sql
        return conn.execute(sql).rows()

    def test_mod_zero_keeps_the_evaluated_having(self, line):
        tile = "FROM a GROUP BY a[x:x+2] HAVING x MOD 0 = 0"
        assert self.run(line, f"SELECT [x], SUM(v) {tile}", False) == [
            (x, None) for x in range(6)
        ]
        assert self.run(line, f"SELECT x, SUM(v) {tile}", False) == []
        assert self.run(line, f"SELECT [x / 2], SUM(v) {tile}", False) == []

    @pytest.mark.parametrize("condition", ["x MOD 2 = 2", "x MOD 2 = -1", "x MOD -2 = 1"])
    def test_residue_out_of_range(self, line, condition):
        rows = self.run(line, f"SELECT x, SUM(v) FROM a GROUP BY a[x:x+2] HAVING {condition}", False)
        expected = {"x MOD 2 = 2": [], "x MOD 2 = -1": [], "x MOD -2 = 1": [(1, 2), (3, 2), (5, 1)]}
        assert rows == expected[condition]

    def test_modulus_past_the_dimension(self, line):
        tile = "SELECT x, COUNT(*) FROM a GROUP BY a[x:x+2] HAVING x MOD 10"
        assert self.run(line, f"{tile} = 3", True) == [(3, 2)]
        assert self.run(line, f"{tile} = 7", False) == []

    def test_empty_dimension(self, conn):
        conn.execute("CREATE ARRAY e (x INT DIMENSION[0:1:0], v INT DEFAULT 1)")
        tile = "SUM(v) FROM e GROUP BY e[x:x+2] HAVING x MOD 2 = 0"
        assert self.run(conn, f"SELECT [x], {tile}", False) == []
        assert self.run(conn, f"SELECT x, {tile}", False) == []

    def test_two_conjuncts_on_one_dimension(self, line):
        sql = "SELECT x, SUM(v) FROM a GROUP BY a[x:x+2] HAVING x MOD 2 = 0 AND x MOD 3 = 0"
        assert self.run(line, sql, False) == [(0, 2)]

    def test_having_that_reads_a_value(self, line):
        tile = "FROM a GROUP BY a[x:x+2] HAVING x MOD 2 = 0 AND SUM(v) > 1"
        assert self.run(line, f"SELECT x, SUM(v) {tile}", False) == [(0, 2), (2, 2), (4, 2)]
        assert self.run(line, f"SELECT [x / 2], SUM(v) {tile}", False) == [
            (0, 2), (1, 2), (2, 2)
        ]

    def test_negative_values_with_a_residue(self, conn):
        conn.execute("CREATE ARRAY n (x INT DIMENSION[-3:1:3], v INT DEFAULT 1)")
        tile = "SELECT x, SUM(v) FROM n GROUP BY n[x:x+2] HAVING x MOD 2"
        assert self.run(conn, f"{tile} = 1", False) == [(1, 2)]
        assert self.run(conn, f"{tile} = 0", True) == [(-2, 2), (0, 2), (2, 1)]

    def test_own_cells_with_a_value_that_is_not_null_off_the_lattice(self, line):
        tile = "FROM a GROUP BY a[x:x+2] HAVING x MOD 2 = 0"
        assert self.run(line, f"SELECT [x], SUM(v), 7 {tile}", False) == [
            (x, 2, 7) if x % 2 == 0 else (x, None, None) for x in range(6)
        ]
        assert self.run(line, f"SELECT [x], SUM(v) * 2 + x {tile}", True) == [
            (x, 4 + x if x % 2 == 0 else None) for x in range(6)
        ]
