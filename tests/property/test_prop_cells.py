"""The cell-addressing kernel agrees with the straightforward reference.

:mod:`repro.gdk.cells` recognises row-major series without sorting and
otherwise runs one ``divmod`` per axis; :mod:`tests.core.coercion_reference`
is the implementation it replaced (``np.unique`` + per-row ranks +
NULL-filled scatter).  Every way rows can reach the kernel is generated
here — dense, permuted, gapped, duplicated (``[x/2]``), shifted
(``img[x-1][y]``), fragments cut on and off row boundaries, NULL and
out-of-domain coordinates, 1-D to 3-D, one row, no rows — and positions,
inferred dimensions, dense columns, grid dtype and NaN holes must match.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.objects import Array, ColumnDef, DimensionDef
from repro.core.coercion import (
    infer_dimension_range,
    rows_to_cells,
    table_to_array_columns,
)
from repro.engine.result import Result
from repro.errors import CoercionError
from repro.gdk.atoms import Atom
from repro.gdk.column import Column
from tests.core import coercion_reference as reference

KINDS = (
    "dense", "permuted", "subset", "duplicates", "fragment", "halved",
    "single", "empty",
)


def series_columns(axes):
    """Row-major coordinate arrays of the array with the given axes."""
    ranks = np.indices([size for _, _, size in axes]).reshape(len(axes), -1)
    return [start + step * ranks[i] for i, (start, step, _) in enumerate(axes)]


def dimensions_of(axes, prefix="d"):
    return [
        DimensionDef(f"{prefix}{i}", Atom.INT, start, step, start + step * size)
        for i, (start, step, size) in enumerate(axes)
    ]


@st.composite
def axes_strategy(draw):
    ndim = draw(st.integers(1, 3))
    return [
        (draw(st.integers(-6, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 5)))
        for _ in range(ndim)
    ]


@st.composite
def value_column(draw, n):
    if draw(st.booleans()):
        items = draw(
            st.lists(st.one_of(st.none(), st.integers(-50, 50)), min_size=n, max_size=n)
        )
        return Column.from_pylist(Atom.INT, items)
    items = draw(
        st.lists(
            st.one_of(st.none(), st.floats(-1e3, 1e3, allow_nan=False)),
            min_size=n, max_size=n,
        )
    )
    return Column.from_pylist(Atom.DBL, items)


@st.composite
def rows_case(draw):
    """Coordinate + value columns and the dimensions to address them in."""
    axes = draw(axes_strategy())
    columns = series_columns(axes)
    cells = len(columns[0])
    kind = draw(st.sampled_from(KINDS))
    if kind == "permuted":
        rows = np.array(draw(st.permutations(range(cells))), dtype=np.int64)
    elif kind == "subset":
        rows = np.flatnonzero(
            draw(st.lists(st.booleans(), min_size=cells, max_size=cells))
        )
    elif kind == "duplicates":
        rows = np.array(
            draw(st.lists(st.integers(0, cells - 1), max_size=2 * cells)),
            dtype=np.int64,
        )
    elif kind == "fragment":
        low = draw(st.integers(0, cells))
        rows = np.arange(low, draw(st.integers(low, cells)))
    elif kind == "single":
        rows = np.array([draw(st.integers(0, cells - 1))])
    elif kind == "empty":
        rows = np.arange(0)
    else:
        rows = np.arange(cells)
    columns = [column[rows] for column in columns]
    if kind == "halved":
        columns = [column // 2 for column in columns]
    shifts = draw(
        st.one_of(
            st.just([0] * len(axes)),
            st.lists(st.integers(-2, 2), min_size=len(axes), max_size=len(axes)),
        )
    )
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    atom = Atom.INT if dtype is np.int32 else Atom.LNG
    n = len(rows)
    coordinates = []
    for column, shift in zip(columns, shifts):
        mask = None
        if n and draw(st.integers(0, 4)) == 0:
            mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        coordinates.append(Column(atom, (column + shift).astype(dtype), mask))
    values = [draw(value_column(n)) for _ in range(draw(st.integers(1, 2)))]
    target = draw(st.sampled_from(["own", "other", "infer"]))
    if target == "own":
        dimensions = dimensions_of(axes)
    elif target == "other":
        dimensions = dimensions_of(
            [
                (draw(st.integers(-6, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 5)))
                for _ in axes
            ]
        )
    else:
        dimensions = None
    return coordinates, values, dimensions


def same_dimensions(left, right):
    return [(d.name, d.atom, d.start, d.step, d.stop) for d in left] == [
        (d.name, d.atom, d.start, d.step, d.stop) for d in right
    ]


def assert_same_dense(ours, theirs):
    assert len(ours) == len(theirs)
    for mine, expected in zip(ours, theirs):
        assert mine.atom is expected.atom
        assert mine.to_pylist() == expected.to_pylist()
        assert_same_grid(mine.to_numpy(), expected.to_numpy())


def assert_same_grid(mine, expected):
    assert mine.dtype == expected.dtype
    assert mine.shape == expected.shape
    assert np.array_equal(mine, expected, equal_nan=True)


class TestKernelMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(rows_case())
    def test_positions(self, case):
        coordinates, _, dimensions = case
        if dimensions is None:
            return
        expected = reference.rows_to_cells(coordinates, dimensions)
        positions = rows_to_cells(coordinates, dimensions)
        assert positions.dtype == np.int64
        assert positions.tolist() == expected.tolist()
        if all(c.mask is None for c in coordinates):
            array = Array("a", dimensions, [ColumnDef("v", Atom.INT)], materialise=False)
            oids = array.cell_oids([c.values for c in coordinates])
            assert oids.tolist() == expected.tolist()
        for coordinate, dimension in zip(coordinates, dimensions):
            assert (
                dimension.rank_of(coordinate.values).tolist()
                == reference.rank_of(dimension, coordinate.values).tolist()
            )

    @settings(max_examples=400, deadline=None)
    @given(rows_case(), st.booleans(), st.booleans())
    def test_table_to_array(self, case, skip_all_null_rows, with_defaults):
        coordinates, values, dimensions = case
        defaults = [7] * len(values) if with_defaults else None
        arguments = dict(
            dimensions=dimensions,
            defaults=defaults,
            skip_all_null_rows=skip_all_null_rows,
        )
        if dimensions is None and len(coordinates[0]) == 0:
            # No row to infer from: every dimension is empty, and so is
            # every dense column, in its own atom.
            dims, dense = table_to_array_columns(coordinates, values, **arguments)
            assert [d.size for d in dims] == [0] * len(coordinates)
            assert_same_dense(dense, values)
            return
        expected_dims, expected = reference.table_to_array_columns(
            coordinates, values, **arguments
        )
        dims, dense = table_to_array_columns(coordinates, values, **arguments)
        assert same_dimensions(dims, expected_dims)
        assert_same_dense(dense, expected)

    @settings(max_examples=200, deadline=None)
    @given(rows_case())
    def test_inferred_range(self, case):
        coordinates, _, _ = case
        for coordinate in coordinates:
            if len(coordinate) == 0:
                with pytest.raises(CoercionError):
                    infer_dimension_range(coordinate.values)
                continue
            assert same_dimensions(
                [infer_dimension_range(coordinate.values, "x")],
                [reference.infer_dimension_range(coordinate.values, "x")],
            )

    @settings(max_examples=300, deadline=None)
    @given(rows_case())
    def test_result_grids(self, case):
        coordinates, values, _ = case
        if len(coordinates[0]) == 0:
            return
        dim_names = [f"d{i}" for i in range(len(coordinates))]
        value_names = [f"v{i}" for i in range(len(values))]
        result = Result(
            "array", dim_names + value_names, coordinates + values,
            {"dims": dim_names},
        )
        expected_dims, expected = reference.grids(coordinates, values, dim_names)
        dims, grids = result.to_array()
        assert same_dimensions(dims, expected_dims)
        for name, grid in zip(value_names, expected):
            assert_same_grid(grids[name], grid)


class TestSeriesAndGeneralPathsAgree:
    """Rows that spell the series and the same rows permuted: one grid."""

    @settings(max_examples=200, deadline=None)
    @given(axes_strategy(), st.data())
    def test_permutation_invariance(self, axes, data):
        columns = series_columns(axes)
        cells = len(columns[0])
        values = data.draw(value_column(cells))
        order = np.array(data.draw(st.permutations(range(cells))), dtype=np.int64)
        names = [f"d{i}" for i in range(len(axes))]
        meta = {"dims": names}

        def grid(rows):
            coordinates = [Column(Atom.INT, c[rows].astype(np.int32)) for c in columns]
            result = Result("array", names + ["v"], coordinates + [values.take(rows)], meta)
            return result.to_array()

        dims, ordered = grid(np.arange(cells))
        permuted_dims, permuted = grid(order)
        # A one-value axis carries no step information: it infers as 1.
        assert [d.axis for d in dims] == [
            (start, step if size > 1 else 1, size) for start, step, size in axes
        ]
        assert same_dimensions(dims, permuted_dims)
        assert_same_grid(ordered["v"], permuted["v"])
        assert_same_grid(ordered["v"], values.to_numpy().reshape(ordered["v"].shape))

    def test_grid_is_a_copy(self):
        """The reshape shortcut must not hand out the engine's own payload."""
        x = Column(Atom.INT, np.repeat(np.arange(3, dtype=np.int32), 2))
        y = Column(Atom.INT, np.tile(np.arange(2, dtype=np.int32), 3))
        v = Column(Atom.INT, np.arange(6, dtype=np.int32))
        result = Result("array", ["x", "y", "v"], [x, y, v], {"dims": ["x", "y"]})
        grid = result.grid()
        grid[0, 0] = 99
        assert v.values[0] == 0
        assert result.grid()[0, 0] == 0
