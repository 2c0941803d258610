"""Column (typed vector with NULL mask) tests."""

import numpy as np
import pytest

from repro.errors import GDKError
from repro.gdk.atoms import Atom
from repro.gdk.column import Column, columns_aligned


class TestConstruction:
    def test_from_pylist_roundtrip(self):
        column = Column.from_pylist(Atom.INT, [1, None, 3])
        assert column.to_pylist() == [1, None, 3]

    def test_from_pylist_strings(self):
        column = Column.from_pylist(Atom.STR, ["a", None, "c"])
        assert column.to_pylist() == ["a", None, "c"]

    def test_empty(self):
        column = Column.empty(Atom.DBL)
        assert len(column) == 0
        assert not column.has_nulls

    def test_constant(self):
        column = Column.constant(Atom.INT, 7, 4)
        assert column.to_pylist() == [7, 7, 7, 7]

    def test_constant_null(self):
        column = Column.constant(Atom.INT, None, 3)
        assert column.to_pylist() == [None, None, None]

    def test_constant_negative_count_rejected(self):
        with pytest.raises(GDKError):
            Column.constant(Atom.INT, 1, -1)

    def test_nulls(self):
        column = Column.nulls(Atom.STR, 2)
        assert column.to_pylist() == [None, None]

    def test_dtype_normalised(self):
        column = Column(Atom.INT, np.array([1, 2], dtype=np.int64))
        assert column.values.dtype == np.int32

    def test_mask_shape_checked(self):
        with pytest.raises(GDKError):
            Column(Atom.INT, np.array([1, 2], dtype=np.int32),
                   np.array([True], dtype=np.bool_))

    def test_all_false_mask_dropped(self):
        column = Column(
            Atom.INT,
            np.array([1, 2], dtype=np.int32),
            np.array([False, False], dtype=np.bool_),
        )
        assert column.mask is None


class TestNullAccounting:
    def test_null_count(self):
        column = Column.from_pylist(Atom.INT, [1, None, None])
        assert column.null_count() == 2

    def test_validity(self):
        column = Column.from_pylist(Atom.INT, [1, None, 3])
        assert column.validity().tolist() == [True, False, True]

    def test_effective_mask_dense_column(self):
        column = Column.from_pylist(Atom.INT, [1, 2])
        assert column.effective_mask().tolist() == [False, False]


class TestAccess:
    def test_get(self):
        column = Column.from_pylist(Atom.DBL, [1.5, None])
        assert column.get(0) == 1.5
        assert column.get(1) is None

    def test_get_out_of_range(self):
        column = Column.from_pylist(Atom.INT, [1])
        with pytest.raises(GDKError):
            column.get(5)

    def test_python_types_returned(self):
        column = Column.from_pylist(Atom.INT, [1])
        assert isinstance(column.get(0), int)
        column = Column.from_pylist(Atom.BIT, [True])
        assert isinstance(column.get(0), bool)

    def test_to_numpy_nan_for_null(self):
        column = Column.from_pylist(Atom.INT, [1, None])
        out = column.to_numpy()
        assert out[0] == 1.0 and np.isnan(out[1])

    def test_to_numpy_custom_fill(self):
        column = Column.from_pylist(Atom.STR, ["a", None])
        assert column.to_numpy("?").tolist() == ["a", "?"]

    def test_to_numpy_str_requires_fill(self):
        column = Column.from_pylist(Atom.STR, [None])
        with pytest.raises(GDKError):
            column.to_numpy()


class TestStructural:
    def test_take(self):
        column = Column.from_pylist(Atom.INT, [10, 20, None, 40])
        taken = column.take(np.array([3, 2, 0]))
        assert taken.to_pylist() == [40, None, 10]

    def test_take_out_of_range(self):
        column = Column.from_pylist(Atom.INT, [1])
        with pytest.raises(GDKError):
            column.take(np.array([2]))

    def test_take_with_invalid(self):
        column = Column.from_pylist(Atom.INT, [10, 20])
        taken = column.take_with_invalid(np.array([1, -1, 0]))
        assert taken.to_pylist() == [20, None, 10]

    def test_slice(self):
        column = Column.from_pylist(Atom.INT, [0, 1, 2, 3])
        assert column.slice(1, 3).to_pylist() == [1, 2]

    def test_slice_clamps(self):
        column = Column.from_pylist(Atom.INT, [0, 1])
        assert column.slice(-5, 99).to_pylist() == [0, 1]

    def test_concat(self):
        a = Column.from_pylist(Atom.INT, [1, None])
        b = Column.from_pylist(Atom.INT, [3])
        assert a.concat(b).to_pylist() == [1, None, 3]

    def test_concat_type_mismatch(self):
        with pytest.raises(GDKError):
            Column.from_pylist(Atom.INT, [1]).concat(
                Column.from_pylist(Atom.STR, ["a"])
            )

    def test_replace(self):
        column = Column.from_pylist(Atom.INT, [1, 2, 3])
        out = column.replace(
            np.array([0, 2]), Column.from_pylist(Atom.INT, [None, 9])
        )
        assert out.to_pylist() == [None, 2, 9]
        assert column.to_pylist() == [1, 2, 3]  # original untouched

    def test_replace_arity_mismatch(self):
        column = Column.from_pylist(Atom.INT, [1])
        with pytest.raises(GDKError):
            column.replace(np.array([0, 0]), Column.from_pylist(Atom.INT, [1]))

    def test_copy_independent(self):
        column = Column.from_pylist(Atom.INT, [1, 2])
        clone = column.copy()
        clone.values[0] = 99
        assert column.get(0) == 1


class TestCasting:
    def test_int_to_dbl(self):
        column = Column.from_pylist(Atom.INT, [1, None])
        assert column.cast(Atom.DBL).to_pylist() == [1.0, None]

    def test_dbl_to_int_truncates(self):
        column = Column.from_pylist(Atom.DBL, [1.9, -1.9])
        assert column.cast(Atom.INT).to_pylist() == [1, -1]

    def test_int_to_str(self):
        column = Column.from_pylist(Atom.INT, [1, None])
        assert column.cast(Atom.STR).to_pylist() == ["1", None]

    def test_str_to_int(self):
        column = Column.from_pylist(Atom.STR, ["3", None])
        assert column.cast(Atom.INT).to_pylist() == [3, None]

    def test_cast_same_type_copies(self):
        column = Column.from_pylist(Atom.INT, [1])
        clone = column.cast(Atom.INT)
        assert clone is not column and clone == column


class TestEquality:
    def test_equal_columns(self):
        a = Column.from_pylist(Atom.INT, [1, None])
        b = Column.from_pylist(Atom.INT, [1, None])
        assert a == b

    def test_unequal_values(self):
        a = Column.from_pylist(Atom.INT, [1])
        b = Column.from_pylist(Atom.INT, [2])
        assert a != b

    def test_unequal_atoms(self):
        a = Column.from_pylist(Atom.INT, [1])
        b = Column.from_pylist(Atom.LNG, [1])
        assert a != b

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Column.from_pylist(Atom.INT, [1]))


class TestAlignment:
    def test_aligned(self):
        cols = [Column.from_pylist(Atom.INT, [1, 2])] * 3
        assert columns_aligned(cols) == 2

    def test_misaligned_rejected(self):
        with pytest.raises(GDKError):
            columns_aligned(
                [Column.from_pylist(Atom.INT, [1]), Column.from_pylist(Atom.INT, [1, 2])]
            )

    def test_no_columns(self):
        assert columns_aligned([]) == 0
