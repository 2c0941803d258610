"""Array ↔ table coercion tests (paper Section 2)."""

import numpy as np
import pytest

from repro.errors import CoercionError
from repro.gdk.atoms import Atom
from repro.gdk.column import Column
from repro.catalog.objects import DimensionDef
from repro.core.coercion import (
    cells_to_rows,
    infer_dimension_range,
    rows_to_cells,
    table_to_array_columns,
)


class TestInferRange:
    def test_dense_values(self):
        dim = infer_dimension_range([0, 1, 2, 3])
        assert (dim.start, dim.step, dim.stop) == (0, 1, 4)

    def test_strided_values(self):
        dim = infer_dimension_range([0, 2, 4])
        assert (dim.start, dim.step, dim.stop) == (0, 2, 6)

    def test_gcd_of_gaps(self):
        dim = infer_dimension_range([0, 4, 6])
        assert dim.step == 2

    def test_single_value(self):
        dim = infer_dimension_range([5])
        assert (dim.start, dim.step, dim.stop) == (5, 1, 6)

    def test_negative_values(self):
        dim = infer_dimension_range([-3, -1, 1])
        assert (dim.start, dim.step, dim.stop) == (-3, 2, 3)

    def test_unsorted_input(self):
        dim = infer_dimension_range([3, 0, 1, 2])
        assert (dim.start, dim.stop) == (0, 4)

    def test_duplicates_ignored(self):
        dim = infer_dimension_range([1, 1, 2, 2])
        assert (dim.start, dim.step, dim.stop) == (1, 1, 3)

    def test_empty_rejected(self):
        with pytest.raises(CoercionError):
            infer_dimension_range([])


class TestRowsToCells:
    def test_dense_mapping(self):
        dims = [DimensionDef("x", Atom.INT, 0, 1, 2), DimensionDef("y", Atom.INT, 0, 1, 2)]
        coords = [
            Column.from_pylist(Atom.INT, [0, 1, 1]),
            Column.from_pylist(Atom.INT, [1, 0, 1]),
        ]
        assert rows_to_cells(coords, dims).tolist() == [1, 2, 3]

    def test_out_of_domain_marked(self):
        dims = [DimensionDef("x", Atom.INT, 0, 2, 6)]
        coords = [Column.from_pylist(Atom.INT, [0, 1, 4, 99])]
        assert rows_to_cells(coords, dims).tolist() == [0, -1, 2, -1]

    def test_null_coordinate_marked(self):
        dims = [DimensionDef("x", Atom.INT, 0, 1, 3)]
        coords = [Column.from_pylist(Atom.INT, [1, None])]
        assert rows_to_cells(coords, dims).tolist() == [1, -1]

    def test_arity_checked(self):
        dims = [DimensionDef("x", Atom.INT, 0, 1, 3)]
        with pytest.raises(CoercionError):
            rows_to_cells([], dims)


class TestTableToArray:
    def test_strided_coordinates_stay_dense(self):
        # gcd inference: values {0, 2} make a step-2 dimension, no hole.
        coords = [Column.from_pylist(Atom.INT, [0, 2])]
        values = [Column.from_pylist(Atom.INT, [10, 30])]
        dims, dense = table_to_array_columns(coords, values)
        assert (dims[0].start, dims[0].step, dims[0].stop) == (0, 2, 4)
        assert dense[0].to_pylist() == [10, 30]

    def test_scatter_with_holes(self):
        coords = [Column.from_pylist(Atom.INT, [0, 1, 3])]
        values = [Column.from_pylist(Atom.INT, [10, 20, 40])]
        dims, dense = table_to_array_columns(coords, values)
        assert dims[0].size == 4
        assert dense[0].to_pylist() == [10, 20, None, 40]

    def test_defaults_fill_missing(self):
        coords = [Column.from_pylist(Atom.INT, [0, 1, 3])]
        values = [Column.from_pylist(Atom.INT, [10, 20, 40])]
        _, dense = table_to_array_columns(coords, values, defaults=[0])
        assert dense[0].to_pylist() == [10, 20, 0, 40]

    def test_last_row_wins(self):
        coords = [Column.from_pylist(Atom.INT, [0, 0])]
        values = [Column.from_pylist(Atom.INT, [1, 2])]
        _, dense = table_to_array_columns(coords, values)
        assert dense[0].to_pylist()[0] == 2

    def test_skip_all_null_rows(self):
        coords = [Column.from_pylist(Atom.INT, [0, 0])]
        values = [Column.from_pylist(Atom.INT, [1, None])]
        _, dense = table_to_array_columns(
            coords, values, skip_all_null_rows=True
        )
        assert dense[0].to_pylist()[0] == 1

    def test_given_dimensions_respected(self):
        dims = [DimensionDef("x", Atom.INT, 0, 1, 5)]
        coords = [Column.from_pylist(Atom.INT, [1])]
        values = [Column.from_pylist(Atom.INT, [7])]
        _, dense = table_to_array_columns(coords, values, dims)
        assert len(dense[0]) == 5

    def test_out_of_domain_rows_dropped(self):
        dims = [DimensionDef("x", Atom.INT, 0, 1, 2)]
        coords = [Column.from_pylist(Atom.INT, [0, 9])]
        values = [Column.from_pylist(Atom.INT, [1, 2])]
        _, dense = table_to_array_columns(coords, values, dims)
        assert dense[0].to_pylist() == [1, None]

    def test_2d_scatter(self):
        coords = [
            Column.from_pylist(Atom.INT, [0, 1]),
            Column.from_pylist(Atom.INT, [0, 1]),
        ]
        values = [Column.from_pylist(Atom.INT, [1, 4])]
        dims, dense = table_to_array_columns(coords, values)
        assert dense[0].to_pylist() == [1, None, None, 4]

    def test_dimension_names(self):
        coords = [Column.from_pylist(Atom.INT, [0])]
        values = [Column.from_pylist(Atom.INT, [1])]
        dims, _ = table_to_array_columns(coords, values, dimension_names=["x"])
        assert dims[0].name == "x"


class TestAllNullRowsCompact:
    """``skip_all_null_rows`` drops all-NULL rows before ranking the rest."""

    def test_border_rows_still_widen_the_dimensions(self):
        # x = 3 and x = -2 exist only in all-NULL rows: still in range.
        coords = [Column.from_pylist(Atom.INT, [-2, 0, 1, 3])]
        values = [
            Column.from_pylist(Atom.INT, [None, 5, 6, None]),
            Column.from_pylist(Atom.DBL, [None, None, 0.5, None]),
        ]
        dims, dense = table_to_array_columns(coords, values, skip_all_null_rows=True)
        assert (dims[0].start, dims[0].step, dims[0].stop) == (-2, 1, 4)
        assert dense[0].to_pylist() == [None, None, 5, 6, None, None]
        assert dense[1].to_pylist() == [None, None, None, 0.5, None, None]

    def test_last_valued_row_wins_a_duplicate_cell(self):
        # [x/2]: rows 0-3 share cells pairwise; the all-NULL row 3 comes
        # last on cell 1 but does not clobber row 2.
        coords = [Column.from_pylist(Atom.INT, [0, 0, 1, 1, 1])]
        values = [Column.from_pylist(Atom.INT, [1, 2, 3, None, 4])]
        _, dense = table_to_array_columns(coords, values, skip_all_null_rows=True)
        assert dense[0].to_pylist() == [2, 4]
        values = [Column.from_pylist(Atom.INT, [1, 2, 3, 4, None])]
        _, dense = table_to_array_columns(coords, values, skip_all_null_rows=True)
        assert dense[0].to_pylist() == [2, 4]

    def test_remaining_rows_that_are_the_cells_need_no_scatter(self, monkeypatch):
        def scatter(*_):
            raise AssertionError("the remaining rows are the cells: no scatter")

        monkeypatch.setattr(Column, "replace", scatter)
        x = np.repeat(np.arange(4, dtype=np.int32), 4) // 2
        y = np.tile(np.arange(4, dtype=np.int32), 4) // 2
        kept = (np.repeat(np.arange(4), 4) % 2 == 0) & (np.tile(np.arange(4), 4) % 2 == 0)
        value = Column(Atom.INT, np.arange(16, dtype=np.int32), ~kept)
        dims, dense = table_to_array_columns(
            [Column(Atom.INT, x), Column(Atom.INT, y)], [value], skip_all_null_rows=True
        )
        assert [d.axis for d in dims] == [(0, 1, 2), (0, 1, 2)]
        assert dense[0].to_pylist() == [0, 2, 8, 10]

    def test_all_rows_null_give_an_all_hole_grid(self):
        coords = [
            Column.from_pylist(Atom.INT, [0, 4, 2]),
            Column.from_pylist(Atom.INT, [-1, 1, 1]),
        ]
        values = [Column.from_pylist(Atom.DBL, [None, None, None])]
        dims, dense = table_to_array_columns(coords, values, skip_all_null_rows=True)
        assert [d.axis for d in dims] == [(0, 2, 3), (-1, 2, 2)]
        assert dense[0].atom is Atom.DBL
        assert dense[0].to_pylist() == [None] * 6
        _, dense = table_to_array_columns(
            coords, values, defaults=[1.5], skip_all_null_rows=True
        )
        assert dense[0].to_pylist() == [1.5] * 6

    def test_an_empty_result_has_empty_dimensions(self):
        coords = [Column.from_pylist(Atom.INT, [])]
        values = [Column.from_pylist(Atom.INT, [])]
        dims, dense = table_to_array_columns(coords, values, skip_all_null_rows=True)
        assert [(d.start, d.step, d.size) for d in dims] == [(0, 1, 0)]
        assert dense[0].to_pylist() == [] and dense[0].atom is Atom.INT


class TestCellsToRows:
    def test_roundtrip(self):
        dims = [
            DimensionDef("x", Atom.INT, 0, 1, 2),
            DimensionDef("y", Atom.INT, 0, 1, 2),
        ]
        attribute = Column.from_pylist(Atom.INT, [1, 2, 3, 4])
        coords, attrs = cells_to_rows(dims, [attribute])
        assert coords[0].to_pylist() == [0, 0, 1, 1]
        assert coords[1].to_pylist() == [0, 1, 0, 1]
        assert attrs[0].to_pylist() == [1, 2, 3, 4]
        # back again
        dims2, dense = table_to_array_columns(coords, attrs, dims)
        assert dense[0] == attribute

    def test_drop_holes(self):
        dims = [DimensionDef("x", Atom.INT, 0, 1, 3)]
        attribute = Column.from_pylist(Atom.INT, [1, None, 3])
        coords, attrs = cells_to_rows(dims, [attribute], drop_holes=True)
        assert coords[0].to_pylist() == [0, 2]
        assert attrs[0].to_pylist() == [1, 3]

    def test_hole_needs_all_attributes_null(self):
        dims = [DimensionDef("x", Atom.INT, 0, 1, 2)]
        a = Column.from_pylist(Atom.INT, [1, None])
        b = Column.from_pylist(Atom.INT, [None, 2])
        coords, _ = cells_to_rows(dims, [a, b], drop_holes=True)
        assert coords[0].to_pylist() == [0, 1]

    def test_strided_dimension_values(self):
        dims = [DimensionDef("x", Atom.INT, 10, 5, 25)]
        attribute = Column.from_pylist(Atom.INT, [1, 2, 3])
        coords, _ = cells_to_rows(dims, [attribute])
        assert coords[0].to_pylist() == [10, 15, 20]

    def test_misaligned_attribute_rejected(self):
        dims = [DimensionDef("x", Atom.INT, 0, 1, 3)]
        with pytest.raises(CoercionError):
            cells_to_rows(dims, [Column.from_pylist(Atom.INT, [1])])
