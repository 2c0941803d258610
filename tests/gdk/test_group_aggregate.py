"""Grouping and aggregation kernel tests."""

import numpy as np
import pytest

from repro.errors import GDKError
from repro.gdk import aggregate, group
from repro.gdk.atoms import Atom
from repro.gdk.column import Column
from tests.oracles import kernels as oracles


@pytest.fixture
def cities():
    return Column.from_pylist(Atom.STR, ["ams", "rtm", "ams", None, "rtm", "ams"])


@pytest.fixture
def temps():
    return Column.from_pylist(Atom.DBL, [10.0, 9.0, 12.0, 5.0, None, 14.0])


class TestGroup:
    def test_dense_ids_in_first_appearance_order(self, cities):
        grouping = group.group(cities)
        assert grouping.groups.to_pylist() == [0, 1, 0, 2, 1, 0]
        assert grouping.ngroups == 3

    def test_null_is_its_own_group(self, cities):
        grouping = group.group(cities)
        assert grouping.groups.get(3) == 2

    def test_extents_point_to_first_member(self, cities):
        grouping = group.group(cities)
        assert grouping.extents.tolist() == [0, 1, 3]

    def test_histogram(self, cities):
        grouping = group.group(cities)
        assert grouping.histogram.tolist() == [3, 2, 1]

    def test_subgroup_refines(self, cities):
        first = group.group(cities)
        day = Column.from_pylist(Atom.INT, [1, 1, 2, 1, 2, 1])
        refined = group.subgroup(day, first)
        # (ams,1), (rtm,1), (ams,2), (null,1), (rtm,2), (ams,1)
        assert refined.groups.to_pylist() == [0, 1, 2, 3, 4, 0]
        assert refined.ngroups == 5

    def test_subgroup_misaligned(self, cities):
        first = group.group(cities)
        with pytest.raises(GDKError):
            group.subgroup(Column.from_pylist(Atom.INT, [1]), first)

    def test_group_by_columns_compound(self, cities):
        day = Column.from_pylist(Atom.INT, [1, 1, 2, 1, 2, 1])
        grouping = oracles.group_by_columns([cities, day])
        assert grouping.ngroups == 5

    def test_explicit_grouping_negative_excluded(self):
        grouping = oracles.explicit_grouping(np.array([0, -1, 1, 0]), 2)
        assert grouping.histogram.tolist() == [2, 1]

    def test_small_span_int_key_is_coded_without_np_unique(self, monkeypatch):
        rng = np.random.default_rng(7)
        keys = rng.integers(-500, 500, 1_000_000).astype(np.int32)

        def no_sort(*args, **kwargs):
            raise AssertionError("np.unique called on a small-span key")

        monkeypatch.setattr(group.np, "unique", no_sort)
        grouping = group.group(Column(Atom.INT, keys))
        ids = grouping.groups.values
        assert grouping.ngroups == len(set(keys.tolist()))
        assert len(grouping.groups.counts) == grouping.ngroups
        # Extents in first-appearance order, each the first row of its key.
        assert (np.diff(grouping.extents) > 0).all()
        assert (keys[grouping.extents][ids] == keys).all()
        assert (ids[grouping.extents] == np.arange(grouping.ngroups)).all()
        assert grouping.histogram.tolist() == np.bincount(ids).tolist()

    def test_out_of_range_plain_group_id_raises(self):
        ids = Column(Atom.OID, np.array([0, 3, 1], dtype=np.int64))
        with pytest.raises(GDKError, match="group id out of range"):
            group.grouping_view(ids, 3)
        # Group ids that carry more counts than groups get the same check.
        proven = group.GroupIds(np.array([0, 3, 1], dtype=np.int64), np.array([1, 1, 0, 1]))
        with pytest.raises(GDKError, match="group id out of range"):
            group.grouping_view(proven, 3)


def _edge_keys() -> dict:
    """Keys whose first appearances fall on each side of the prefix scan
    (``16 · bound`` rows), in key order, out of it and clustered."""
    rng = np.random.default_rng(11)
    mixed = rng.integers(0, 3, 5_000).tolist()
    clustered = np.repeat(rng.permutation(40), 150).tolist()
    return {
        "first row is the last row": Column.from_pylist(Atom.INT, mixed + [3]),
        "NULL key first on the last row": Column.from_pylist(Atom.INT, mixed + [None]),
        "string key first on the last row": Column.from_pylist(
            Atom.STR, [str(k) for k in mixed] + ["late"]
        ),
        "sorted": Column.from_pylist(Atom.INT, np.repeat(np.arange(40), 150).tolist()),
        "sorted with gaps": Column.from_pylist(
            Atom.INT, np.repeat(np.arange(0, 80, 2), 150).tolist()
        ),
        "sorted descending": Column.from_pylist(
            Atom.INT, np.repeat(np.arange(40)[::-1], 150).tolist()
        ),
        "clustered": Column.from_pylist(Atom.INT, clustered),
        "clustered doubles": Column.from_pylist(Atom.DBL, [k / 4 for k in clustered]),
        "one group": Column.from_pylist(Atom.LNG, [2**40] * 1_000),
        "span of rows - 1": Column.from_pylist(
            Atom.INT, (rng.permutation(3_000) - 1_500).tolist()
        ),
        "all NULL": Column.from_pylist(Atom.INT, [None] * 100),
        "empty": Column.empty(Atom.INT),
        "fewer rows than the prefix": Column.from_pylist(Atom.INT, [5, None, 3, 5]),
    }


EDGE_KEYS = _edge_keys()


class TestFirstAppearance:
    @pytest.mark.parametrize("name", list(EDGE_KEYS))
    def test_group_matches_reference(self, name):
        column = EDGE_KEYS[name]
        grouping, want = group.group(column), oracles.group_reference(column)
        assert grouping.groups.to_pylist() == want.groups.to_pylist()
        assert grouping.extents.tolist() == want.extents.tolist()
        assert grouping.histogram.tolist() == want.histogram.tolist()
        assert grouping.groups.counts is grouping.histogram
        assert len(grouping.groups.counts) == grouping.ngroups

    @pytest.mark.parametrize("name", list(EDGE_KEYS))
    def test_subgroup_matches_reference(self, name):
        column = EDGE_KEYS[name]
        halves = Column.from_pylist(Atom.INT, [row % 2 for row in range(len(column))])
        previous = group.group(halves)
        grouping = group.subgroup(column, previous)
        want = oracles.subgroup_reference(column, previous)
        assert grouping.groups.to_pylist() == want.groups.to_pylist()
        assert grouping.extents.tolist() == want.extents.tolist()
        assert grouping.histogram.tolist() == want.histogram.tolist()

    def test_codes_in_order_with_the_last_one_absent(self):
        # Combined codes 0, 1, 2 appear in code order; code 3 (group 1,
        # value 1) never does, so the codes are not yet the group ids.
        previous = group.group(Column.from_pylist(Atom.INT, [0, 0, 1, 1]))
        column = Column.from_pylist(Atom.INT, [0, 1, 0, 0])
        grouping = group.subgroup(column, previous)
        want = oracles.subgroup_reference(column, previous)
        assert grouping.groups.to_pylist() == want.groups.to_pylist() == [0, 1, 2, 2]
        assert grouping.extents.tolist() == want.extents.tolist()
        assert grouping.histogram.tolist() == want.histogram.tolist() == [1, 1, 2]
        assert grouping.groups.counts.tolist() == [1, 1, 2]


class _LoggedUfunc:
    """A ufunc whose ``at`` logs how many indices it was given."""

    def __init__(self, ufunc: np.ufunc, calls: list):
        self._ufunc, self._calls = ufunc, calls

    def __getattr__(self, name):
        return getattr(self._ufunc, name)

    def __call__(self, *args, **kwargs):
        return self._ufunc(*args, **kwargs)

    def at(self, target, indices, *rest):
        self._calls.append((f"{self._ufunc.__name__}.at", len(indices)))
        return self._ufunc.at(target, indices, *rest)


class _CountingNumpy:
    """NumPy as a kernel module sees it, logging the index length of
    every ``bincount`` (``"count"`` without weights, ``"weigh"`` with)
    and every ``ufunc.at``."""

    def __init__(self):
        self.calls: list = []

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name == "bincount":
            def bincount(x, weights=None, minlength=0):
                kind = "count" if weights is None else "weigh"
                self.calls.append((f"bincount.{kind}", len(x)))
                return np.bincount(x, weights, minlength)
            return bincount
        return _LoggedUfunc(attr, self.calls) if isinstance(attr, np.ufunc) else attr

    def row_length(self, rows: int) -> list:
        return [name for name, length in self.calls if length == rows]


class TestCountsOnce:
    """``group.group`` counts its rows once, and the ``aggr.sub*``
    kernels over its ids read those counts instead of counting again."""

    ROWS = 500_000

    @pytest.fixture
    def numpy(self, monkeypatch):
        counting = _CountingNumpy()
        monkeypatch.setattr(group, "np", counting)
        monkeypatch.setattr(aggregate, "np", counting)
        return counting

    @pytest.fixture(scope="class")
    def columns(self):
        rng = np.random.default_rng(3)
        keys = Column(Atom.INT, rng.integers(0, 100, self.ROWS).astype(np.int32))
        values = Column(Atom.LNG, rng.integers(0, 10**7, self.ROWS))
        return keys, values

    def test_group_counts_once_and_scans_a_prefix(self, numpy, columns):
        keys, _ = columns
        grouping = group.group(keys)
        assert grouping.ngroups == 100
        assert numpy.row_length(self.ROWS) == ["bincount.count"]
        assert all(length <= 16 * 100 for name, length in numpy.calls if name.endswith(".at"))

    @pytest.mark.parametrize("name", ["count", "sum", "avg", "min", "max"])
    def test_aggregates_over_group_ids_do_not_recount(self, numpy, columns, name):
        keys, values = columns
        grouping = group.group(keys)
        carried = group.grouping_view(grouping.groups, grouping.ngroups)
        # A grouped AVG runs SUM and COUNT; over plain ids each counts once.
        names = ["sum", "count"] if name == "avg" else [name]

        def run(grouping):
            outs = [aggregate.grouped(each, values, grouping) for each in names]
            return aggregate.means(*outs) if name == "avg" else outs[0]

        numpy.calls.clear()
        out = run(carried)
        assert "bincount.count" not in numpy.row_length(self.ROWS)
        # The same ids without their counts are counted, once.
        plain = group.grouping_view(
            Column(Atom.OID, grouping.groups.values), grouping.ngroups
        )
        numpy.calls.clear()
        again = run(plain)
        assert numpy.row_length(self.ROWS).count("bincount.count") == len(names)
        assert again.values.tobytes() == out.values.tobytes()


class TestGroupedAggregates:
    def test_sum(self, cities, temps):
        grouping = group.group(cities)
        out = aggregate.grouped_sum(temps, grouping)
        assert out.to_pylist() == [36.0, 9.0, 5.0]

    def test_avg_ignores_nulls(self, cities, temps):
        grouping = group.group(cities)
        out = aggregate.means(
            aggregate.grouped_sum(temps, grouping), aggregate.grouped_count(temps, grouping)
        )
        assert out.to_pylist() == [12.0, 9.0, 5.0]

    def test_count_ignores_nulls(self, cities, temps):
        grouping = group.group(cities)
        out = aggregate.grouped_count(temps, grouping)
        assert out.to_pylist() == [3, 1, 1]

    def test_count_star_counts_rows(self, cities):
        grouping = group.group(cities)
        out = aggregate.grouped_count_star(grouping)
        assert out.to_pylist() == [3, 2, 1]

    def test_min_max(self, cities, temps):
        grouping = group.group(cities)
        assert aggregate.grouped_min(temps, grouping).to_pylist() == [10.0, 9.0, 5.0]
        assert aggregate.grouped_max(temps, grouping).to_pylist() == [14.0, 9.0, 5.0]

    def test_all_null_group_yields_null(self):
        keys = Column.from_pylist(Atom.INT, [1, 2])
        values = Column.from_pylist(Atom.INT, [None, 5])
        grouping = group.group(keys)
        assert aggregate.grouped_sum(values, grouping).to_pylist() == [None, 5]
        avg = aggregate.means(
            aggregate.grouped_sum(values, grouping), aggregate.grouped_count(values, grouping)
        )
        assert avg.to_pylist() == [None, 5.0]
        assert aggregate.grouped_min(values, grouping).to_pylist() == [None, 5]
        assert aggregate.grouped_count(values, grouping).to_pylist() == [0, 1]

    def test_int_sum_widen_to_lng(self):
        keys = Column.from_pylist(Atom.INT, [1, 1])
        values = Column.from_pylist(Atom.INT, [2**30, 2**30])
        grouping = group.group(keys)
        out = aggregate.grouped_sum(values, grouping)
        assert out.atom is Atom.LNG
        assert out.to_pylist() == [2**31]

    def test_prod(self):
        keys = Column.from_pylist(Atom.INT, [1, 1, 2])
        values = Column.from_pylist(Atom.INT, [3, 4, 5])
        grouping = group.group(keys)
        assert aggregate.grouped_prod(values, grouping).to_pylist() == [12, 5]

    def test_prod_is_exact_within_lng_and_null_past_it(self):
        keys = Column.from_pylist(Atom.INT, [1, 1, 2, 2, 3, 3, 3])
        factor = 94906267  # factor**2 is not a double
        values = Column.from_pylist(
            Atom.LNG, [factor, factor, 2**32, 2**32, 2**40, 0, 2**40]
        )
        grouping = group.group(keys)
        out = aggregate.grouped_prod(values, grouping)
        assert out.to_pylist() == [factor * factor, None, 0]
        assert aggregate.scalar_prod(values) == 0
        assert aggregate.scalar_prod(Column.from_pylist(Atom.LNG, [factor, factor])) == factor**2
        assert aggregate.scalar_prod(Column.from_pylist(Atom.LNG, [2**32, -(2**32)])) is None
        assert aggregate.scalar_prod(Column.from_pylist(Atom.LNG, [None])) is None

    def test_string_min_max(self):
        keys = Column.from_pylist(Atom.INT, [1, 1, 1])
        values = Column.from_pylist(Atom.STR, ["pear", "apple", "fig"])
        grouping = group.group(keys)
        assert aggregate.grouped_min(values, grouping).to_pylist() == ["apple"]
        assert aggregate.grouped_max(values, grouping).to_pylist() == ["pear"]

    def test_sum_non_numeric_rejected(self, cities):
        grouping = group.group(cities)
        with pytest.raises(GDKError):
            aggregate.grouped_sum(cities, grouping)

    def test_dispatch_unknown(self, cities, temps):
        grouping = group.group(cities)
        with pytest.raises(GDKError):
            aggregate.grouped("mode", temps, grouping)

    def test_negative_group_rows_skipped(self):
        values = Column.from_pylist(Atom.INT, [1, 100, 2])
        grouping = oracles.explicit_grouping(np.array([0, -1, 0]), 1)
        assert aggregate.grouped_sum(values, grouping).to_pylist() == [3]


class TestScalarAggregates:
    def test_sum(self, temps):
        assert aggregate.scalar_sum(temps) == 50.0

    def test_avg(self, temps):
        assert aggregate.scalar_avg(temps) == 10.0

    def test_count_excludes_nulls(self, temps):
        assert aggregate.scalar_count(temps) == 5

    def test_min_max(self, temps):
        assert aggregate.scalar_min(temps) == 5.0
        assert aggregate.scalar_max(temps) == 14.0

    def test_empty_column(self):
        empty = Column.empty(Atom.INT)
        assert aggregate.scalar_sum(empty) is None
        assert aggregate.scalar_avg(empty) is None
        assert aggregate.scalar_min(empty) is None
        assert aggregate.scalar_count(empty) == 0

    def test_all_null(self):
        nulls = Column.nulls(Atom.DBL, 3)
        assert aggregate.scalar_sum(nulls) is None
        assert aggregate.scalar_max(nulls) is None

    def test_string_extremes(self):
        values = Column.from_pylist(Atom.STR, ["b", "a", None])
        assert aggregate.scalar_min(values) == "a"
        assert aggregate.scalar_max(values) == "b"

    def test_int_sum_is_int(self):
        values = Column.from_pylist(Atom.INT, [1, 2, 3])
        out = aggregate.scalar_sum(values)
        assert out == 6 and isinstance(out, int)

    def test_dispatch(self, temps):
        assert aggregate.scalar("sum", temps) == 50.0
        with pytest.raises(GDKError):
            aggregate.scalar("mode", temps)
