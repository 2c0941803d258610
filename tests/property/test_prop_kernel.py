"""Property-based tests for the GDK kernel (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gdk import aggregate, calc, dictenc, group, join, select, sort
from repro.gdk.atoms import Atom
from repro.gdk.bat import BAT
from repro.gdk.column import Column
from tests.oracles import kernels as oracles

ints_or_none = st.lists(
    st.one_of(st.integers(-100, 100), st.none()), min_size=0, max_size=40
)
small_ints = st.lists(st.integers(-20, 20), min_size=0, max_size=40)


class TestSelectProperties:
    @given(ints_or_none, st.integers(-100, 100))
    def test_thetaselect_matches_python_filter(self, items, needle):
        bat = BAT.from_pylist(Atom.INT, items)
        out = select.thetaselect(bat, needle, "==").tail_pylist()
        expected = [i for i, v in enumerate(items) if v is not None and v == needle]
        assert out == expected

    @given(ints_or_none, st.integers(-50, 50), st.integers(-50, 50))
    def test_rangeselect_plus_anti_partition_non_nulls(self, items, low, high):
        bat = BAT.from_pylist(Atom.INT, items)
        selected = set(select.rangeselect(bat, low, high).tail_pylist())
        anti = set(select.rangeselect(bat, low, high, anti=True).tail_pylist())
        non_null = {i for i, v in enumerate(items) if v is not None}
        assert selected | anti == non_null
        assert selected & anti == set()

    @given(ints_or_none)
    def test_isnull_partition(self, items):
        bat = BAT.from_pylist(Atom.INT, items)
        nulls = set(select.isnull_select(bat, True).tail_pylist())
        non_nulls = set(select.isnull_select(bat, False).tail_pylist())
        assert nulls | non_nulls == set(range(len(items)))
        assert len(nulls) == sum(1 for v in items if v is None)


class TestJoinProperties:
    @given(small_ints, small_ints)
    def test_join_matches_nested_loop(self, left_items, right_items):
        left = BAT.from_pylist(Atom.INT, left_items)
        right = BAT.from_pylist(Atom.INT, right_items)
        l, r = join.join(left, right)
        got = sorted(zip(l.tail_pylist(), r.tail_pylist()))
        expected = sorted(
            (i, j)
            for i, a in enumerate(left_items)
            for j, b in enumerate(right_items)
            if a == b
        )
        assert got == expected

    @given(small_ints, small_ints)
    def test_leftjoin_covers_every_left_row(self, left_items, right_items):
        left = BAT.from_pylist(Atom.INT, left_items)
        right = BAT.from_pylist(Atom.INT, right_items)
        l, r = join.leftjoin(left, right)
        assert set(l.tail_pylist()) == set(range(len(left_items)))


class TestGroupAggregateProperties:
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=40))
    def test_histogram_sums_to_row_count(self, keys):
        grouping = group.group(Column.from_pylist(Atom.INT, keys))
        assert grouping.histogram.sum() == len(keys)

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=40))
    def test_group_ids_dense_and_consistent(self, keys):
        grouping = group.group(Column.from_pylist(Atom.INT, keys))
        ids = grouping.groups.to_pylist()
        assert max(ids) == grouping.ngroups - 1
        # same key <-> same id
        for i, a in enumerate(keys):
            for j, b in enumerate(keys):
                assert (a == b) == (ids[i] == ids[j])

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.one_of(st.integers(-50, 50), st.none())),
            min_size=1,
            max_size=40,
        )
    )
    def test_grouped_sum_matches_python(self, pairs):
        keys = Column.from_pylist(Atom.INT, [k for k, _ in pairs])
        values = Column.from_pylist(Atom.INT, [v for _, v in pairs])
        grouping = group.group(keys)
        got = aggregate.grouped_sum(values, grouping).to_pylist()
        expected: dict = {}
        order: list = []
        for k, v in pairs:
            if k not in expected:
                expected[k] = None
                order.append(k)
            if v is not None:
                expected[k] = (expected[k] or 0) + v
        assert got == [expected[k] for k in order]

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.one_of(st.integers(-50, 50), st.none())),
            min_size=1,
            max_size=40,
        )
    )
    def test_grouped_min_le_max(self, pairs):
        keys = Column.from_pylist(Atom.INT, [k for k, _ in pairs])
        values = Column.from_pylist(Atom.INT, [v for _, v in pairs])
        grouping = group.group(keys)
        minima = aggregate.grouped_min(values, grouping).to_pylist()
        maxima = aggregate.grouped_max(values, grouping).to_pylist()
        for lo, hi in zip(minima, maxima):
            assert (lo is None) == (hi is None)
            if lo is not None:
                assert lo <= hi


def _column_equal(a, b):
    assert a.atom is b.atom
    assert a.to_pylist() == b.to_pylist()


# Per-atom value strategies, NULLs included; min_size=0 exercises the
# empty-BAT edge and singletons appear constantly at these sizes.
VALUE_STRATEGIES = [
    (Atom.INT, st.one_of(st.integers(-50, 50), st.none())),
    (Atom.LNG, st.one_of(st.integers(-(2**40), 2**40), st.none())),
    (
        Atom.DBL,
        st.one_of(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            st.none(),
        ),
    ),
    (Atom.STR, st.one_of(st.text(alphabet="abcde", max_size=4), st.none())),
]


def _lists_of(value_strategy):
    return st.lists(value_strategy, min_size=0, max_size=40)


class TestVectorizedVsReference:
    """Every vectorized kernel must agree with its retained ``_reference``
    loop implementation across dtypes, NULL masks, and empty/singleton
    inputs."""

    @pytest.mark.parametrize("atom,values", VALUE_STRATEGIES)
    @given(data=st.data(), nil_matches=st.booleans())
    @settings(max_examples=25)
    def test_join_matches_reference(self, atom, values, data, nil_matches):
        left = BAT.from_pylist(atom, data.draw(_lists_of(values)))
        right = BAT.from_pylist(atom, data.draw(_lists_of(values)))
        l_vec, r_vec = join.join(left, right, nil_matches)
        l_ref, r_ref = oracles.join_reference(left, right, nil_matches)
        assert l_vec.tail_pylist() == l_ref.tail_pylist()
        assert r_vec.tail_pylist() == r_ref.tail_pylist()

    @pytest.mark.parametrize("atom,values", VALUE_STRATEGIES)
    @given(data=st.data())
    @settings(max_examples=25)
    def test_leftjoin_matches_reference(self, atom, values, data):
        left = BAT.from_pylist(atom, data.draw(_lists_of(values)))
        right = BAT.from_pylist(atom, data.draw(_lists_of(values)))
        l_vec, r_vec = join.leftjoin(left, right)
        l_ref, r_ref = oracles.leftjoin_reference(left, right)
        assert l_vec.tail_pylist() == l_ref.tail_pylist()
        assert r_vec.tail_pylist() == r_ref.tail_pylist()

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.integers(0, 4), st.none()),
                st.one_of(st.text(alphabet="ab", max_size=2), st.none()),
            ),
            max_size=30,
        ),
        st.lists(
            st.tuples(
                st.one_of(st.integers(0, 4), st.none()),
                st.one_of(st.text(alphabet="ab", max_size=2), st.none()),
            ),
            max_size=30,
        ),
    )
    def test_multi_column_join_matches_reference(self, left_rows, right_rows):
        left = [
            Column.from_pylist(Atom.INT, [r[0] for r in left_rows]),
            Column.from_pylist(Atom.STR, [r[1] for r in left_rows]),
        ]
        right = [
            Column.from_pylist(Atom.INT, [r[0] for r in right_rows]),
            Column.from_pylist(Atom.STR, [r[1] for r in right_rows]),
        ]
        l_vec, r_vec = join.multi_column_join(left, right)
        l_ref, r_ref = oracles.multi_column_join_reference(left, right)
        assert l_vec.tolist() == l_ref.tolist()
        assert r_vec.tolist() == r_ref.tolist()

    @given(
        st.lists(st.one_of(st.integers(0, 4), st.none()), max_size=30),
        st.lists(st.one_of(st.integers(0, 4), st.none()), max_size=30),
    )
    def test_rows_membership_matches_reference(self, left_items, right_items):
        left = [Column.from_pylist(Atom.INT, left_items)]
        right = [Column.from_pylist(Atom.INT, right_items)]
        got = join.rows_membership(left, right)
        expected = oracles.rows_membership_reference(left, right)
        assert got.tolist() == expected.tolist()

    @pytest.mark.parametrize("atom,values", VALUE_STRATEGIES)
    @given(data=st.data())
    @settings(max_examples=25)
    def test_group_matches_reference(self, atom, values, data):
        column = Column.from_pylist(atom, data.draw(_lists_of(values)))
        vec = group.group(column)
        ref = oracles.group_reference(column)
        assert vec.groups.to_pylist() == ref.groups.to_pylist()
        assert vec.extents.tolist() == ref.extents.tolist()
        assert vec.histogram.tolist() == ref.histogram.tolist()

    @pytest.mark.parametrize("atom,values", VALUE_STRATEGIES)
    @given(data=st.data())
    @settings(max_examples=25)
    def test_subgroup_matches_reference(self, atom, values, data):
        items = data.draw(_lists_of(values))
        keys = data.draw(
            st.lists(
                st.one_of(st.integers(0, 3), st.none()),
                min_size=len(items),
                max_size=len(items),
            )
        )
        previous = group.group(Column.from_pylist(Atom.INT, keys))
        column = Column.from_pylist(atom, items)
        vec = group.subgroup(column, previous)
        ref = oracles.subgroup_reference(column, previous)
        assert vec.groups.to_pylist() == ref.groups.to_pylist()
        assert vec.extents.tolist() == ref.extents.tolist()
        assert vec.histogram.tolist() == ref.histogram.tolist()

    @pytest.mark.parametrize(
        "vec_fn,ref_fn,atoms",
        [
            (aggregate.grouped_min, oracles.grouped_min_reference,
             (Atom.INT, Atom.DBL, Atom.STR)),
            (aggregate.grouped_max, oracles.grouped_max_reference,
             (Atom.INT, Atom.DBL, Atom.STR)),
            (aggregate.grouped_count_distinct,
             oracles.grouped_count_distinct_reference,
             (Atom.INT, Atom.DBL, Atom.STR)),
            (aggregate.grouped_median, oracles.grouped_median_reference,
             (Atom.INT, Atom.DBL)),
        ],
    )
    @given(data=st.data())
    @settings(max_examples=40)
    def test_grouped_aggregates_match_reference(self, vec_fn, ref_fn, atoms, data):
        atom = data.draw(st.sampled_from(atoms))
        values = dict(VALUE_STRATEGIES)[atom]
        items = data.draw(_lists_of(values))
        keys = data.draw(
            st.lists(
                st.integers(0, 4), min_size=len(items), max_size=len(items)
            )
        )
        grouping = group.group(Column.from_pylist(Atom.INT, keys))
        column = Column.from_pylist(atom, items)
        _column_equal(vec_fn(column, grouping), ref_fn(column, grouping))

    @given(data=st.data())
    @settings(max_examples=40)
    def test_grouped_stddev_matches_reference(self, data):
        items = data.draw(
            st.lists(
                st.one_of(
                    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
                    st.none(),
                ),
                max_size=40,
            )
        )
        keys = data.draw(
            st.lists(st.integers(0, 4), min_size=len(items), max_size=len(items))
        )
        grouping = group.group(Column.from_pylist(Atom.INT, keys))
        column = Column.from_pylist(Atom.DBL, items)
        vec = aggregate.grouped_stddev(column, grouping)
        ref = oracles.grouped_stddev_reference(column, grouping)
        assert vec.atom is ref.atom
        for got, expected in zip(vec.to_pylist(), ref.to_pylist()):
            if expected is None:
                assert got is None
            else:
                assert got == pytest.approx(expected, abs=1e-9)



# Integer keys on both sides of the offset-coding cut: a window of
# ``span + 1`` values from a base that may be negative or hug either end
# of ``lng``, against a row count that may be larger or smaller.
_LNG_EDGE = 2**63 - 1


@st.composite
def _windowed_keys(draw, atom):
    limit = 2**31 - 1 if atom is Atom.INT else _LNG_EDGE
    span = draw(st.integers(0, 80))
    base = draw(
        st.sampled_from([-limit, -50, 0, 7, limit - span])
        | st.integers(-limit, limit - span)
    )
    value = st.integers(base, base + span)
    nulls = draw(st.booleans())
    return draw(st.lists(value | st.none() if nulls else value, max_size=60))


def _key_column(data, kind):
    """A grouping key column of one *kind*: INT/LNG windows or text."""
    if kind == "text":
        words = st.sampled_from(["a", "bb", "c", "dd", "e"]) | st.none()
        items = data.draw(st.lists(words, max_size=60))
        plain = Column.from_pylist(Atom.STR, items)
        if not items:
            return plain
        dictionary, codes = dictenc.encode_values(plain.values)
        return dictenc.DictColumn(Atom.STR, codes, dictionary, plain.mask)
    atom = Atom.INT if kind == "int" else Atom.LNG
    return Column.from_pylist(atom, data.draw(_windowed_keys(atom)))


def _assert_same_grouping(vec, ref):
    assert isinstance(vec.groups, group.GroupIds)
    assert len(vec.groups.counts) == vec.ngroups
    assert vec.groups.to_pylist() == ref.groups.to_pylist()
    assert vec.extents.tolist() == ref.extents.tolist()
    assert vec.histogram.tolist() == ref.histogram.tolist()


NUMERIC_ONLY = {
    "grouped_sum", "grouped_prod", "grouped_avg", "grouped_stddev", "grouped_median"
}


def grouped_avg(column, grouping):
    """AVG as the engine runs it: SUM and COUNT plus the finisher."""
    return aggregate.means(
        aggregate.grouped_sum(column, grouping), aggregate.grouped_count(column, grouping)
    )


class TestGroupCodingPaths:
    """Offset-coded and ``np.unique``-coded keys group alike: the same
    ids, extents and histograms as the loop oracle, whichever side of
    the ``max - min < rows`` cut a key falls."""

    @pytest.mark.parametrize("kind", ["int", "lng", "text"])
    @given(data=st.data())
    @settings(max_examples=60)
    def test_group_matches_reference(self, kind, data):
        column = _key_column(data, kind)
        _assert_same_grouping(group.group(column), oracles.group_reference(column))

    @pytest.mark.parametrize("kind", ["int", "lng", "text"])
    @given(data=st.data())
    @settings(max_examples=60)
    def test_subgroup_matches_reference(self, kind, data):
        column = _key_column(data, kind)
        # 1 to 12 previous groups: ``ngroups · width`` lands on both
        # sides of the row count.
        width = data.draw(st.integers(0, 11))
        keys = data.draw(
            st.lists(
                st.integers(0, width) | st.none(),
                min_size=len(column),
                max_size=len(column),
            )
        )
        previous = group.group(Column.from_pylist(Atom.INT, keys))
        _assert_same_grouping(
            group.subgroup(column, previous),
            oracles.subgroup_reference(column, previous),
        )

    @pytest.mark.parametrize(
        "run",
        list(aggregate.GROUPED_DISPATCH.values())
        + [grouped_avg, aggregate.grouped_count_distinct],
        ids=lambda run: run.__name__,
    )
    @given(data=st.data())
    @settings(max_examples=30)
    def test_aggregates_over_group_ids_match_plain_ids(self, run, data):
        keys = _key_column(data, data.draw(st.sampled_from(["int", "lng", "text"])))
        grouping = group.group(keys)
        plain = group.grouping_view(
            Column(Atom.OID, grouping.groups.values.copy()), grouping.ngroups
        )
        assert not isinstance(plain.groups, group.GroupIds)
        numeric = run.__name__ in NUMERIC_ONLY
        atoms = [Atom.INT, Atom.LNG, Atom.DBL] + ([] if numeric else [Atom.STR])
        atom = data.draw(st.sampled_from(atoms))
        strategy = dict(VALUE_STRATEGIES)[atom]
        if data.draw(st.booleans()):  # NULL-free: the in-place read
            strategy = strategy.filter(lambda value: value is not None)
        items = data.draw(st.lists(strategy, min_size=len(keys), max_size=len(keys)))
        column = Column.from_pylist(atom, items)
        _column_equal(run(column, grouping), run(column, plain))
        counts = aggregate.grouped_count_star
        _column_equal(counts(grouping), counts(plain))


class TestSortProperties:
    @given(ints_or_none)
    def test_sort_is_permutation(self, items):
        column = Column.from_pylist(Atom.INT, items)
        order = sort.sort_order(column)
        assert sorted(order.tolist()) == list(range(len(items)))

    @given(ints_or_none)
    def test_sorted_ascending_with_nulls_first(self, items):
        column = Column.from_pylist(Atom.INT, items)
        out = column.take(sort.sort_order(column)).to_pylist()
        null_count = sum(1 for v in items if v is None)
        assert all(v is None for v in out[:null_count])
        tail = out[null_count:]
        assert tail == sorted(tail)

    @given(ints_or_none)
    def test_descending_reverses_non_nulls(self, items):
        column = Column.from_pylist(Atom.INT, items)
        ascending = [
            v for v in column.take(sort.sort_order(column)).to_pylist()
            if v is not None
        ]
        descending = [
            v
            for v in column.take(sort.sort_order(column, descending=True)).to_pylist()
            if v is not None
        ]
        assert descending == ascending[::-1]


class TestCalcProperties:
    @given(ints_or_none, ints_or_none)
    def test_add_matches_python(self, left, right):
        n = min(len(left), len(right))
        left, right = left[:n], right[:n]
        if n == 0:
            return
        out = calc.arithmetic(
            "+",
            Column.from_pylist(Atom.INT, left),
            Column.from_pylist(Atom.INT, right),
        ).to_pylist()
        expected = [
            None if a is None or b is None else a + b for a, b in zip(left, right)
        ]
        assert out == expected

    @given(ints_or_none, st.integers(-10, 10))
    def test_compare_trichotomy(self, items, needle):
        if not items:
            return
        column = Column.from_pylist(Atom.INT, items)
        lt = calc.compare("<", column, needle).to_pylist()
        eq = calc.compare("==", column, needle).to_pylist()
        gt = calc.compare(">", column, needle).to_pylist()
        for a, b, c, v in zip(lt, eq, gt, items):
            if v is None:
                assert a is None and b is None and c is None
            else:
                assert [a, b, c].count(True) == 1

    @given(st.lists(st.one_of(st.booleans(), st.none()), min_size=1, max_size=30))
    def test_not_not_is_identity(self, bits):
        column = Column.from_pylist(Atom.BIT, bits)
        out = calc.logical_not(calc.logical_not(column)).to_pylist()
        assert out == bits

    @given(
        st.lists(st.one_of(st.booleans(), st.none()), min_size=1, max_size=20),
        st.lists(st.one_of(st.booleans(), st.none()), min_size=1, max_size=20),
    )
    def test_de_morgan(self, left, right):
        n = min(len(left), len(right))
        a = Column.from_pylist(Atom.BIT, left[:n])
        b = Column.from_pylist(Atom.BIT, right[:n])
        lhs = calc.logical_not(calc.logical_and(a, b)).to_pylist()
        rhs = calc.logical_or(calc.logical_not(a), calc.logical_not(b)).to_pylist()
        assert lhs == rhs


def _int_divmod_reference(op, lcol, rcol, out_atom):
    """Integer ``/`` and ``%`` as ``gdk.calc`` computed them before the
    native-width kernel: up-cast to int64, |a| // |b| with the sign put
    back, zero divisors masked out.  Kept as the oracle.
    """
    mask = None
    for column in (lcol, rcol):
        if column.mask is not None:
            mask = column.mask.copy() if mask is None else (mask | column.mask)
    lvals = lcol.values.astype(np.int64)
    rvals = rcol.values.astype(np.int64)
    zero = rvals == 0
    safe = np.where(zero, 1, rvals)
    quotient = np.abs(lvals) // np.abs(safe)
    quotient = np.where((lvals < 0) ^ (safe < 0), -quotient, quotient)
    result = quotient if op == "/" else lvals - quotient * safe
    if zero.any():
        mask = zero if mask is None else (mask | zero)
    dtype = np.int32 if out_atom is Atom.INT else np.int64
    return Column(out_atom, result.astype(dtype), mask)


_INT32 = st.integers(-(2**31) + 1, 2**31 - 1)
_DIVIDENDS = st.lists(
    st.one_of(st.none(), st.integers(-40, 40), _INT32), min_size=1, max_size=40
)
_DIVISORS = st.one_of(
    st.integers(-5, 5), st.sampled_from([-(2**31) + 1, 2**31 - 1, 2**40, -(2**40)])
)


class TestIntegerDivMod:
    """C semantics: truncate toward zero, remainder follows the dividend,
    divisor 0 -> NULL — for a constant divisor and a divisor column."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["/", "%"]), st.sampled_from([Atom.INT, Atom.LNG]),
           _DIVIDENDS, _DIVISORS)
    def test_constant_divisor(self, op, atom, dividends, divisor):
        left = Column.from_pylist(atom, dividends)
        out = calc.arithmetic(op, left, divisor)
        out_atom = Atom.LNG if atom is Atom.LNG or abs(divisor) >= 2**31 else Atom.INT
        broadcast = Column.constant(out_atom, divisor, len(left))
        expected = _int_divmod_reference(op, left, broadcast, out_atom)
        assert out.atom is expected.atom
        assert out.values.dtype == expected.values.dtype
        assert out.to_pylist() == expected.to_pylist()
        for a, got in zip(dividends, out.to_pylist()):
            if a is None or divisor == 0:
                assert got is None
                continue
            truncated = abs(a) // abs(divisor) * (-1 if (a < 0) != (divisor < 0) else 1)
            assert got == (truncated if op == "/" else a - divisor * truncated)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["/", "%"]), st.sampled_from([Atom.INT, Atom.LNG]),
           st.sampled_from([Atom.INT, Atom.LNG]), st.data())
    def test_divisor_column(self, op, left_atom, right_atom, data):
        dividends = data.draw(_DIVIDENDS)
        divisors = data.draw(
            st.lists(
                st.one_of(st.none(), st.integers(-5, 5), _INT32),
                min_size=len(dividends), max_size=len(dividends),
            )
        )
        left = Column.from_pylist(left_atom, dividends)
        right = Column.from_pylist(right_atom, divisors)
        out = calc.arithmetic(op, left, right)
        out_atom = Atom.LNG if Atom.LNG in (left_atom, right_atom) else Atom.INT
        expected = _int_divmod_reference(op, left, right, out_atom)
        assert out.atom is expected.atom
        assert out.values.dtype == expected.values.dtype
        assert out.to_pylist() == expected.to_pylist()

    def test_scalar_dividend(self):
        divisors = Column.from_pylist(Atom.INT, [3, -3, 0, None, 7])
        assert calc.arithmetic("/", 7, divisors).to_pylist() == [2, -2, None, None, 1]
        assert calc.arithmetic("%", -7, divisors).to_pylist() == [-1, -1, None, None, 0]
