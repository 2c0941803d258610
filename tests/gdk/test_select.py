"""Selection kernel tests (candidate-list producers)."""

import numpy as np
import pytest

from repro.errors import GDKError
from repro.gdk import select, storage
from repro.gdk.atoms import Atom
from repro.gdk.bat import BAT, partition


@pytest.fixture
def numbers():
    return BAT.from_pylist(Atom.INT, [5, None, 3, 7, 3, -2])


class TestThetaSelect:
    def test_equality(self, numbers):
        assert select.thetaselect(numbers, 3, "==").tail_pylist() == [2, 4]

    def test_less_than(self, numbers):
        assert select.thetaselect(numbers, 3, "<").tail_pylist() == [5]

    def test_greater_equal(self, numbers):
        assert select.thetaselect(numbers, 5, ">=").tail_pylist() == [0, 3]

    def test_not_equal_skips_nulls(self, numbers):
        assert select.thetaselect(numbers, 3, "!=").tail_pylist() == [0, 3, 5]

    def test_null_value_selects_nothing(self, numbers):
        assert len(select.thetaselect(numbers, None, "==")) == 0

    def test_unknown_operator(self, numbers):
        with pytest.raises(GDKError):
            select.thetaselect(numbers, 3, "~=")

    def test_with_candidates(self, numbers):
        candidates = BAT.from_oids(np.array([0, 2, 3]))
        out = select.thetaselect(numbers, 3, ">", candidates)
        assert out.tail_pylist() == [0, 3]

    def test_candidate_out_of_range(self, numbers):
        with pytest.raises(GDKError):
            select.thetaselect(numbers, 3, ">", BAT.from_oids(np.array([99])))

    def test_string_select(self):
        bat = BAT.from_pylist(Atom.STR, ["b", "a", None, "b"])
        assert select.thetaselect(bat, "b", "==").tail_pylist() == [0, 3]


class TestRangeSelect:
    def test_closed_interval(self, numbers):
        out = select.rangeselect(numbers, 3, 5)
        assert out.tail_pylist() == [0, 2, 4]

    def test_open_bounds(self, numbers):
        out = select.rangeselect(numbers, 3, 7, low_inclusive=False,
                                 high_inclusive=False)
        assert out.tail_pylist() == [0]

    def test_null_bound_is_unknown_not_unbounded(self, numbers):
        # NULL <= v AND v <= 3 is never TRUE; it is FALSE where v > 3.
        assert select.rangeselect(numbers, None, 3).tail_pylist() == []
        assert select.rangeselect(numbers, 3, None).tail_pylist() == []
        assert select.rangeselect(numbers, None, 3, anti=True).tail_pylist() == (
            select.thetaselect(numbers, 3, ">").tail_pylist()
        )
        assert select.rangeselect(numbers, 3, None, anti=True).tail_pylist() == (
            select.thetaselect(numbers, 3, "<").tail_pylist()
        )
        assert select.rangeselect(numbers, None, None, anti=True).tail_pylist() == []

    def test_anti(self, numbers):
        out = select.rangeselect(numbers, 3, 5, anti=True)
        assert out.tail_pylist() == [3, 5]

    def test_anti_excludes_nulls(self, numbers):
        out = select.rangeselect(numbers, -100, 100, anti=True)
        assert out.tail_pylist() == []


class TestBitAndNullSelect:
    def test_select_true(self):
        bits = BAT.from_pylist(Atom.BIT, [True, False, None, True])
        assert select.select_true(bits).tail_pylist() == [0, 3]

    def test_select_true_requires_bits(self):
        with pytest.raises(GDKError):
            select.select_true(BAT.from_pylist(Atom.INT, [1]))

    def test_isnull(self, numbers):
        assert select.isnull_select(numbers).tail_pylist() == [1]

    def test_not_null(self, numbers):
        assert select.isnull_select(numbers, want_null=False).tail_pylist() == [
            0, 2, 3, 4, 5,
        ]


class TestInSelect:
    def test_membership(self, numbers):
        out = select.in_select(numbers, [3, 7])
        assert out.tail_pylist() == [2, 3, 4]

    def test_null_members_ignored(self, numbers):
        out = select.in_select(numbers, [None, 5])
        assert out.tail_pylist() == [0]

    def test_empty_list(self, numbers):
        assert len(select.in_select(numbers, [None])) == 0

    def test_strings(self):
        bat = BAT.from_pylist(Atom.STR, ["a", "b", "c"])
        assert select.in_select(bat, ["a", "c"]).tail_pylist() == [0, 2]


class TestNonIntegralBounds:
    """A double constant against an integer column compares as double.

    The binder widens ``v < 1.5``; the select kernels must not undo
    that by truncating the constant to the column atom (ROADMAP 0(a)).
    """

    @pytest.fixture(params=[Atom.INT, Atom.LNG])
    def ints(self, request):
        return BAT.from_pylist(request.param, [5, None, 3, 7, 3, -2, 1, 0])

    @pytest.mark.parametrize(
        "op, expected",
        [
            ("<", [5, 6, 7]),
            ("<=", [5, 6, 7]),
            (">", [0, 2, 3, 4]),
            (">=", [0, 2, 3, 4]),
            ("==", []),
            ("!=", [0, 2, 3, 4, 5, 6, 7]),
        ],
    )
    def test_theta(self, ints, op, expected):
        assert select.thetaselect(ints, 1.5, op).tail_pylist() == expected
        assert select.thetaselect(ints, np.float64(1.5), op).tail_pylist() == expected

    def test_theta_negative_bound(self, ints):
        assert select.thetaselect(ints, -1.5, ">").tail_pylist() == [0, 2, 3, 4, 6, 7]
        assert select.thetaselect(ints, -2.5, "<").tail_pylist() == []

    def test_integral_double_still_matches(self, ints):
        assert select.thetaselect(ints, 3.0, "==").tail_pylist() == [2, 4]

    def test_infinite_bound(self, ints):
        assert len(select.thetaselect(ints, float("inf"), "<")) == 7

    def test_range(self, ints):
        assert select.rangeselect(ints, 0.5, 3.5).tail_pylist() == [2, 4, 6]
        assert select.rangeselect(ints, 1.5, 1.75).tail_pylist() == []
        assert select.rangeselect(ints, 0.5, 3.5, anti=True).tail_pylist() == [
            0, 3, 5, 7,
        ]

    def test_in(self, ints):
        assert select.in_select(ints, [1.5, 3]).tail_pylist() == [2, 4]
        assert select.in_select(ints, [1.5]).tail_pylist() == []

    def test_zone_verdict_keeps_the_fraction(self, monkeypatch):
        # Every value is 1: "v < 1.5" is provably *all*, "v < 1" none.
        monkeypatch.setenv("REPRO_ZONE_ROWS", "4")
        ones = partition(BAT.from_pylist(Atom.INT, [1] * 16), 0, 1)
        before = storage.counters()[0]
        assert len(select.thetaselect(ones, 1.5, "<")) == 16
        assert len(select.thetaselect(ones, 1.5, ">")) == 0
        assert len(select.rangeselect(ones, 0.5, 1.5)) == 16
        assert len(select.in_select(ones, [1.5])) == 0
        # All four were answered by the zone statistics, not by a scan.
        assert storage.counters()[0] == before + 4

    def test_statistics_are_built_for_partition_sources_only(self, monkeypatch):
        monkeypatch.setenv("REPRO_ZONE_ROWS", "4")
        ones = BAT.from_pylist(Atom.INT, [1] * 16)
        before = storage.counters()[0]
        assert len(select.thetaselect(ones, 2, ">")) == 0
        assert ones._zones is None  # a whole BAT without statistics is scanned
        assert storage.counters()[0] == before
        assert len(select.thetaselect(partition(ones, 1, 2), 2, ">")) == 0
        assert ones._zones is not None  # built once, on the fragment's source
        assert len(select.thetaselect(ones, 2, ">")) == 0  # and used where present
        assert storage.counters()[0] == before + 2


class TestCandidateAlgebra:
    def test_densify(self):
        candidates = BAT.from_oids(np.array([0, 2]))
        column = select.boolean_column_from_candidates(4, 0, candidates)
        assert column.to_pylist() == [True, False, True, False]


class TestSeqbaseHandling:
    def test_select_respects_seqbase(self):
        bat = BAT.from_pylist(Atom.INT, [1, 5, 1], hseqbase=100)
        out = select.thetaselect(bat, 1, "==")
        assert out.tail_pylist() == [100, 102]


class TestCandidateOrdering:
    """Regression: results stay ascending without a redundant re-sort."""

    def test_sorted_candidates_preserve_order(self, numbers):
        candidates = BAT.from_oids(np.array([0, 2, 3, 4], dtype=np.int64))
        out = select.thetaselect(numbers, 3, ">=", candidates)
        assert out.tail_pylist() == [0, 2, 3, 4]

    def test_unsorted_candidates_still_yield_ascending_oids(self, numbers):
        candidates = BAT.from_oids(np.array([4, 0, 2], dtype=np.int64))
        out = select.thetaselect(numbers, 3, ">=", candidates)
        assert out.tail_pylist() == [0, 2, 4]

    def test_no_candidates_ascending(self, numbers):
        out = select.rangeselect(numbers, -10, 10)
        values = out.tail_pylist()
        assert values == sorted(values)

    def test_sorted_candidates_with_seqbase(self):
        bat = BAT.from_pylist(Atom.INT, [1, 2, 3, 4], hseqbase=10)
        candidates = BAT.from_oids(np.array([10, 12, 13], dtype=np.int64))
        out = select.thetaselect(bat, 2, ">=", candidates)
        assert out.tail_pylist() == [12, 13]
