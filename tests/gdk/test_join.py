"""Join kernel tests."""

import numpy as np
import pytest

from repro.errors import GDKError
from repro.gdk import join
from repro.gdk.atoms import Atom
from repro.gdk.bat import BAT
from repro.gdk.column import Column


class TestInnerJoin:
    def test_basic_matches(self):
        left = BAT.from_pylist(Atom.INT, [1, 2, 3])
        right = BAT.from_pylist(Atom.INT, [3, 1])
        l, r = join.join(left, right)
        pairs = set(zip(l.tail_pylist(), r.tail_pylist()))
        assert pairs == {(0, 1), (2, 0)}

    def test_duplicates_multiply(self):
        left = BAT.from_pylist(Atom.INT, [1, 1])
        right = BAT.from_pylist(Atom.INT, [1, 1, 1])
        l, r = join.join(left, right)
        assert len(l) == 6

    def test_nulls_never_match(self):
        left = BAT.from_pylist(Atom.INT, [None, 1])
        right = BAT.from_pylist(Atom.INT, [None, 1])
        l, r = join.join(left, right)
        assert list(zip(l.tail_pylist(), r.tail_pylist())) == [(1, 1)]

    def test_nil_matches_option(self):
        left = BAT.from_pylist(Atom.INT, [None])
        right = BAT.from_pylist(Atom.INT, [None])
        l, r = join.join(left, right, nil_matches=True)
        assert len(l) == 1

    def test_string_join(self):
        left = BAT.from_pylist(Atom.STR, ["a", "b"])
        right = BAT.from_pylist(Atom.STR, ["b"])
        l, r = join.join(left, right)
        assert l.tail_pylist() == [1]

    def test_seqbase_preserved(self):
        left = BAT.from_pylist(Atom.INT, [5], hseqbase=10)
        right = BAT.from_pylist(Atom.INT, [5], hseqbase=20)
        l, r = join.join(left, right)
        assert l.tail_pylist() == [10]
        assert r.tail_pylist() == [20]

    def test_type_mismatch_rejected(self):
        with pytest.raises(GDKError):
            join.join(
                BAT.from_pylist(Atom.STR, ["1"]), BAT.from_pylist(Atom.INT, [1])
            )

    def test_mixed_int_widths_allowed(self):
        l, r = join.join(
            BAT.from_pylist(Atom.INT, [1]), BAT.from_pylist(Atom.LNG, [1])
        )
        assert len(l) == 1


class TestLeftJoin:
    def test_unmatched_marked(self):
        left = BAT.from_pylist(Atom.INT, [1, 2])
        right = BAT.from_pylist(Atom.INT, [2])
        l, r = join.leftjoin(left, right)
        assert l.tail_pylist() == [0, 1]
        assert r.tail_pylist() == [-1, 0]

    def test_null_left_keys_unmatched(self):
        left = BAT.from_pylist(Atom.INT, [None])
        right = BAT.from_pylist(Atom.INT, [1])
        l, r = join.leftjoin(left, right)
        assert r.tail_pylist() == [-1]

    def test_projectionsafe_integration(self):
        left = BAT.from_pylist(Atom.INT, [1, 2])
        right = BAT.from_pylist(Atom.INT, [2])
        payload = Column.from_pylist(Atom.STR, ["match"])
        _, r = join.leftjoin(left, right)
        fetched = payload.take_with_invalid(r.tail.values)
        assert fetched.to_pylist() == [None, "match"]


class TestCrossProduct:
    def test_cardinality(self):
        l, r = join.crossproduct(2, 3)
        assert len(l) == 6
        assert l.tail_pylist() == [0, 0, 0, 1, 1, 1]
        assert r.tail_pylist() == [0, 1, 2, 0, 1, 2]

    def test_empty_side(self):
        l, r = join.crossproduct(0, 5)
        assert len(l) == 0

    def test_negative_rejected(self):
        with pytest.raises(GDKError):
            join.crossproduct(-1, 1)


class TestMultiColumnJoin:
    def test_compound_key(self):
        left = [
            Column.from_pylist(Atom.INT, [1, 1, 2]),
            Column.from_pylist(Atom.INT, [1, 2, 1]),
        ]
        right = [
            Column.from_pylist(Atom.INT, [1, 2]),
            Column.from_pylist(Atom.INT, [2, 1]),
        ]
        lpos, rpos = join.multi_column_join(left, right)
        assert list(zip(lpos.tolist(), rpos.tolist())) == [(1, 0), (2, 1)]

    def test_null_component_blocks_match(self):
        left = [Column.from_pylist(Atom.INT, [1]), Column.from_pylist(Atom.INT, [None])]
        right = [Column.from_pylist(Atom.INT, [1]), Column.from_pylist(Atom.INT, [None])]
        lpos, _ = join.multi_column_join(left, right)
        assert len(lpos) == 0

    def test_arity_checked(self):
        with pytest.raises(GDKError):
            join.multi_column_join([], [])


class TestCandidateLists:
    """Joins accept candidate lists restricting which BUNs participate."""

    def test_join_with_left_candidates(self):
        left = BAT.from_pylist(Atom.INT, [1, 2, 1, 3])
        right = BAT.from_pylist(Atom.INT, [1, 3])
        lcand = BAT.from_oids(np.array([0, 3], dtype=np.int64))
        l, r = join.join(left, right, lcand=lcand)
        assert list(zip(l.tail_pylist(), r.tail_pylist())) == [(0, 0), (3, 1)]

    def test_join_with_right_candidates(self):
        left = BAT.from_pylist(Atom.INT, [1, 2])
        right = BAT.from_pylist(Atom.INT, [1, 1, 2])
        rcand = BAT.from_oids(np.array([1, 2], dtype=np.int64))
        l, r = join.join(left, right, rcand=rcand)
        assert list(zip(l.tail_pylist(), r.tail_pylist())) == [(0, 1), (1, 2)]

    def test_join_candidates_respect_seqbase(self):
        left = BAT.from_pylist(Atom.INT, [5, 6], hseqbase=10)
        right = BAT.from_pylist(Atom.INT, [6])
        lcand = BAT.from_oids(np.array([11], dtype=np.int64))
        l, r = join.join(left, right, lcand=lcand)
        assert l.tail_pylist() == [11]

    def test_leftjoin_with_candidates(self):
        left = BAT.from_pylist(Atom.INT, [1, 2, 3])
        right = BAT.from_pylist(Atom.INT, [2])
        lcand = BAT.from_oids(np.array([1, 2], dtype=np.int64))
        l, r = join.leftjoin(left, right, lcand=lcand)
        assert l.tail_pylist() == [1, 2]
        assert r.tail_pylist() == [0, -1]

    def test_join_ordering_is_canonical(self):
        left = BAT.from_pylist(Atom.INT, [2, 1, 2])
        right = BAT.from_pylist(Atom.INT, [2, 2, 1])
        l, r = join.join(left, right)
        pairs = list(zip(l.tail_pylist(), r.tail_pylist()))
        assert pairs == sorted(pairs)


class TestNaNKeySemantics:
    """Unmasked NaN is one equal-to-itself join/group key (np.unique
    semantics); vectorized and reference kernels must agree on it."""

    def test_nan_joins_nan(self):
        left = BAT(Column(Atom.DBL, np.array([1.0, np.nan, 2.0])))
        right = BAT(Column(Atom.DBL, np.array([np.nan, 2.0])))
        l_vec, r_vec = join.join(left, right)
        l_ref, r_ref = join.join_reference(left, right)
        pairs = list(zip(l_vec.tail_pylist(), r_vec.tail_pylist()))
        assert pairs == [(1, 0), (2, 1)]
        assert pairs == list(zip(l_ref.tail_pylist(), r_ref.tail_pylist()))

    def test_nan_groups_together(self):
        from repro.gdk import group

        column = Column(Atom.DBL, np.array([np.nan, 1.0, np.nan]))
        vec = group.group(column)
        ref = group.group_reference(column)
        assert vec.groups.to_pylist() == [0, 1, 0]
        assert vec.groups.to_pylist() == ref.groups.to_pylist()

    def test_nan_counts_once_distinct(self):
        from repro.gdk import aggregate, group

        keys = Column.from_pylist(Atom.INT, [0, 0, 0])
        values = Column(Atom.DBL, np.array([np.nan, np.nan, 1.0]))
        grouping = group.group(keys)
        vec = aggregate.grouped_count_distinct(values, grouping)
        ref = aggregate.grouped_count_distinct_reference(values, grouping)
        assert vec.to_pylist() == [2]
        assert vec.to_pylist() == ref.to_pylist()

    def test_nan_poisons_group_median(self):
        from repro.gdk import aggregate, group

        keys = Column.from_pylist(Atom.INT, [0, 0, 0, 1])
        values = Column(Atom.DBL, np.array([1.0, np.nan, 2.0, 5.0]))
        grouping = group.group(keys)
        vec = aggregate.grouped_median(values, grouping).to_pylist()
        ref = aggregate.grouped_median_reference(values, grouping).to_pylist()
        assert np.isnan(vec[0]) and np.isnan(ref[0])
        assert vec[1] == ref[1] == 5.0
