"""Property-based tests for SciQL semantics: tiling, coercion, end-to-end."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.gdk.atoms import Atom
from repro.gdk.column import Column
from repro.catalog.objects import DimensionDef
from repro.core.coercion import cells_to_rows, table_to_array_columns
from repro.core.tiling import TileSpec, tile_aggregate
from repro.apps.life import GameOfLife, numpy_life_step
from tests.oracles.tiling import brute_force_tile_aggregate


@st.composite
def tiling_case(draw):
    """A random small array + tile box + aggregate."""
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 5)) for _ in range(ndim))
    cells = int(np.prod(shape))
    values = draw(
        st.lists(
            st.one_of(st.integers(-20, 20), st.none()),
            min_size=cells,
            max_size=cells,
        )
    )
    box = tuple(
        tuple(sorted(draw(st.lists(st.integers(-2, 2), min_size=2, max_size=2))))
        for _ in range(ndim)
    )
    aggregate_name = draw(
        st.sampled_from(["sum", "avg", "min", "max", "count", "count_star", "prod"])
    )
    return shape, values, box, aggregate_name


class TestTilingProperties:
    @settings(max_examples=120, deadline=None)
    @given(tiling_case())
    def test_engine_matches_brute_force(self, case):
        shape, values, box, aggregate_name = case
        column = Column.from_pylist(Atom.INT, values)
        spec = TileSpec(box)
        fast = tile_aggregate(column, shape, spec, aggregate_name).to_pylist()
        slow = brute_force_tile_aggregate(column, shape, spec, aggregate_name)
        assert len(fast) == len(slow)
        for f, s in zip(fast, slow):
            if s is None:
                assert f is None
            elif isinstance(s, float):
                assert f == pytest.approx(s)
            else:
                assert f == s

    @settings(max_examples=60, deadline=None)
    @given(tiling_case())
    def test_count_bounded_by_tile_size(self, case):
        shape, values, box, _ = case
        column = Column.from_pylist(Atom.INT, values)
        spec = TileSpec(box)
        counts = tile_aggregate(column, shape, spec, "count_star").to_pylist()
        assert all(0 <= c <= spec.cells_per_tile for c in counts)

    @settings(max_examples=60, deadline=None)
    @given(tiling_case())
    def test_identity_tile_is_identity(self, case):
        shape, values, _, _ = case
        column = Column.from_pylist(Atom.INT, values)
        spec = TileSpec(tuple((0, 0) for _ in shape))
        out = tile_aggregate(column, shape, spec, "sum").to_pylist()
        assert out == values


class TestCoercionProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        st.dictionaries(
            st.integers(0, 12),
            st.integers(-50, 50),
            min_size=1,
            max_size=10,
        )
    )
    def test_scatter_gather_roundtrip_1d(self, points):
        xs = sorted(points)
        coords = [Column.from_pylist(Atom.INT, xs)]
        values = [Column.from_pylist(Atom.INT, [points[x] for x in xs])]
        dims, dense = table_to_array_columns(coords, values)
        back_coords, back_values = cells_to_rows(dims, dense, drop_holes=True)
        assert back_coords[0].to_pylist() == xs
        assert back_values[0].to_pylist() == [points[x] for x in xs]

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 6), st.integers(0, 6)),
            st.integers(-50, 50),
            min_size=1,
            max_size=12,
        )
    )
    def test_scatter_gather_roundtrip_2d(self, points):
        keys = sorted(points)
        coords = [
            Column.from_pylist(Atom.INT, [k[0] for k in keys]),
            Column.from_pylist(Atom.INT, [k[1] for k in keys]),
        ]
        values = [Column.from_pylist(Atom.INT, [points[k] for k in keys])]
        dims, dense = table_to_array_columns(coords, values)
        back_coords, back_values = cells_to_rows(dims, dense, drop_holes=True)
        back = {
            (x, y): v
            for x, y, v in zip(
                back_coords[0].to_pylist(),
                back_coords[1].to_pylist(),
                back_values[0].to_pylist(),
            )
        }
        assert back == points


class TestEndToEndProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.one_of(st.integers(-99, 99), st.none())),
            min_size=0,
            max_size=25,
        )
    )
    def test_insert_select_roundtrip(self, rows):
        conn = repro.connect()
        conn.execute("CREATE TABLE t (k INT, v INT)")
        for k, v in rows:
            value = "NULL" if v is None else str(v)
            conn.execute(f"INSERT INTO t VALUES ({k}, {value})")
        result = conn.execute("SELECT k, v FROM t")
        assert result.rows() == rows

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.integers(-50, 50), min_size=1, max_size=25),
        st.integers(-50, 50),
    )
    def test_where_count_consistency(self, values, threshold):
        conn = repro.connect()
        conn.execute("CREATE TABLE t (v INT)")
        rows = ", ".join(f"({v})" for v in values)
        conn.execute(f"INSERT INTO t VALUES {rows}")
        above = conn.execute(
            f"SELECT COUNT(*) FROM t WHERE v > {threshold}"
        ).scalar()
        below = conn.execute(
            f"SELECT COUNT(*) FROM t WHERE v <= {threshold}"
        ).scalar()
        assert above + below == len(values)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(0, 99), min_size=1, max_size=30))
    def test_group_by_counts_sum_to_total(self, values):
        conn = repro.connect()
        conn.execute("CREATE TABLE t (v INT)")
        rows = ", ".join(f"({v})" for v in values)
        conn.execute(f"INSERT INTO t VALUES {rows}")
        result = conn.execute("SELECT v / 10, COUNT(*) FROM t GROUP BY v / 10")
        assert sum(c for _, c in result.rows()) == len(values)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_life_step_matches_numpy(self, seed):
        conn = repro.connect()
        game = GameOfLife(conn, 6, 6)
        game.seed_random(density=0.35, seed=seed)
        board = game.board()
        game.step()
        assert np.array_equal(game.board(), numpy_life_step(board))
