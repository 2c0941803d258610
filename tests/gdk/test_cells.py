"""Cell-addressing kernel (``repro.gdk.cells``): the named cases."""

import numpy as np

from repro.gdk import cells
from repro.gdk.atoms import Atom
from repro.gdk.column import Column


def image_coordinates(height, width, dtype=np.int32):
    x = np.repeat(np.arange(height, dtype=dtype), width)
    y = np.tile(np.arange(width, dtype=dtype), height)
    return x, y


class TestSeriesAxes:
    def test_row_major_image(self):
        x, y = image_coordinates(6, 4)
        assert cells.series_axes([x, y]) == [(0, 1, 6), (0, 1, 4)]

    def test_constant_shift_and_step(self):
        x, y = image_coordinates(6, 4, np.int64)
        assert cells.series_axes([x - 1, 3 * y + 10]) == [(-1, 1, 6), (10, 3, 4)]

    def test_three_dimensions(self):
        ranks = np.indices((2, 3, 4)).reshape(3, -1)
        assert cells.series_axes(list(ranks)) == [(0, 1, 2), (0, 1, 3), (0, 1, 4)]

    def test_fragment_of_whole_rows(self):
        x, y = image_coordinates(6, 4)
        assert cells.series_axes([x[8:20], y[8:20]]) == [(2, 1, 3), (0, 1, 4)]

    def test_fragment_inside_one_row(self):
        x, y = image_coordinates(6, 4)
        assert cells.series_axes([x[5:7], y[5:7]]) == [(1, 1, 1), (1, 1, 2)]

    def test_fragment_off_row_boundary_is_not_a_series(self):
        x, y = image_coordinates(6, 4)
        assert cells.series_axes([x[:10], y[:10]]) is None
        assert cells.series_axes([x[2:12], y[2:12]]) is None

    def test_not_series(self):
        x, y = image_coordinates(6, 4)
        assert cells.series_axes([]) is None
        assert cells.series_axes([x[:0], y[:0]]) is None
        assert cells.series_axes([x[:1], y[:1]]) is None  # nothing to recognise
        assert cells.series_axes([np.array([5, 5, 5])]) is None  # duplicates
        assert cells.series_axes([np.array([3, 2, 1])]) is None  # descending
        assert cells.series_axes([np.array([0, 1, 3])]) is None  # gap
        assert cells.series_axes([y, x]) is None  # column-major
        assert cells.series_axes([x // 2, y // 2]) is None  # [x/2], [y/2]
        assert cells.series_axes([x[::-1], y[::-1]]) is None
        swapped = y.copy()
        swapped[[5, 6]] = swapped[[6, 5]]
        assert cells.series_axes([x, swapped]) is None

    def test_wrapped_arithmetic_is_not_a_series(self):
        top = np.iinfo(np.int32).max
        column = np.array([top - 1, top, np.iinfo(np.int32).min], dtype=np.int32)
        assert cells.series_axes([column]) is None


class TestInferAxis:
    def test_step_is_gcd_of_gaps(self):
        values = np.array([12, 0, 6, 6, 30], dtype=np.int32)
        assert cells.infer_axis(values) == (0, 6, 6)
        assert cells.infer_axis(values.astype(np.int64) * 10**9) == (0, 6 * 10**9, 6)

    def test_probes_only_bound_the_step(self):
        # More rows than probes: the probed rows alone suggest step 6,
        # the one odd row they skip makes it 3.
        values = np.arange(0, 6000, 6)
        stride = len(values) // cells._PROBES | 1
        assert cells.infer_axis(values) == (0, 6, 1000)
        values[stride + 1] = 9
        assert cells.infer_axis(values) == (0, 3, 1999)

    def test_single_value(self):
        assert cells.infer_axis(np.array([4, 4, 4])) == (4, 1, 1)

    def test_negative_start(self):
        assert cells.infer_axis(np.array([1, -3, -1])) == (-3, 2, 3)


class TestCellPositions:
    AXES = [(0, 1, 6), (0, 1, 4)]

    def test_rows_that_are_the_cells(self):
        x, y = image_coordinates(6, 4)
        axes, positions = cells.address_cells([x, y])
        assert axes == self.AXES and positions is None
        assert cells.cell_positions([x, y], self.AXES).tolist() == list(range(24))

    def test_shifted_reference_nulls_the_border(self):
        x, y = image_coordinates(6, 4, np.int64)
        positions = cells.cell_positions([x - 1, y], self.AXES).reshape(6, 4)
        assert (positions[0] == -1).all()
        assert positions[1:].tolist() == np.arange(20).reshape(5, 4).tolist()
        positions = cells.cell_positions([x - 1, y - 1], self.AXES).reshape(6, 4)
        assert (positions[0] == -1).all() and (positions[:, 0] == -1).all()
        assert positions[1:, 1:].tolist() == np.arange(24).reshape(6, 4)[:5, :3].tolist()

    def test_whole_row_fragment_keeps_its_offset(self):
        x, y = image_coordinates(6, 4)
        assert cells.cell_positions([x[8:20], y[8:20]], self.AXES).tolist() == list(
            range(8, 20)
        )

    def test_off_boundary_fragment_takes_the_general_path(self):
        x, y = image_coordinates(6, 4)
        assert cells.cell_positions([x[2:13], y[2:13]], self.AXES).tolist() == list(
            range(2, 13)
        )

    def test_stepped_axis(self):
        positions = cells.cell_positions(
            [np.array([10, 15, 20, 11, 25, 5])], [(10, 5, 3)]
        )
        assert positions.tolist() == [0, 1, 2, -1, -1, -1]

    def test_null_coordinate_has_no_cell(self):
        x = Column.from_pylist(Atom.INT, [0, None, 2])
        y = Column.from_pylist(Atom.INT, [0, 1, None])
        assert cells.cell_positions([x, y], self.AXES).tolist() == [0, -1, -1]

    def test_one_row(self):
        assert cells.cell_positions([np.array([2]), np.array([3])], self.AXES).tolist() == [11]
        axes, positions = cells.address_cells([np.array([2]), np.array([3])])
        assert axes == [(2, 1, 1), (3, 1, 1)] and positions.tolist() == [0]

    def test_no_rows(self):
        empty = np.arange(0)
        assert cells.cell_positions([empty, empty], self.AXES).tolist() == []

    def test_double_coordinates_truncate(self):
        positions = cells.cell_positions([np.array([0.0, 1.9, 7.0])], [(0, 1, 6)])
        assert positions.tolist() == [0, 1, -1]

    def test_non_finite_and_huge_double_coordinates_name_no_cell(self):
        # The conversion rule: NULL, not a value wrapped through int64.
        with np.errstate(all="raise"):
            positions = cells.cell_positions(
                [np.array([np.nan, np.inf, -np.inf, 1e30, 2.5])], [(0, 1, 6)]
            )
        assert positions.tolist() == [-1, -1, -1, -1, 2]
