"""E15: GDK bulk-kernel microbenchmarks — vectorized vs reference loops.

Each group pairs a vectorized production kernel with the retained
``_reference`` loop implementation (the seed behaviour) on identical
inputs at the paper's 128x128 scale, so the ``run_benchmarks.py`` report
(``.benchmarks/BENCH_gdk.json``, not tracked) records the speedup of
the NumPy hot path directly.  Every benchmark asserts the two
implementations agree before timing results count.
"""

import numpy as np
import pytest

from repro.gdk import aggregate, group, join
from repro.gdk.atoms import Atom
from repro.gdk.bat import BAT
from repro.gdk.column import Column

SIZE = 128 * 128
KEYSPACE = 512


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(42)


@pytest.fixture(scope="module")
def join_inputs(rng):
    left = BAT(Column(Atom.INT, rng.integers(0, KEYSPACE, SIZE).astype(np.int32)))
    right = BAT(
        Column(Atom.INT, rng.integers(0, KEYSPACE, SIZE // 4).astype(np.int32))
    )
    return left, right


@pytest.fixture(scope="module")
def grouped_inputs(rng):
    keys = Column(Atom.INT, rng.integers(0, KEYSPACE, SIZE).astype(np.int32))
    values = Column(Atom.DBL, rng.normal(size=SIZE))
    return keys, values, group.group(keys)


@pytest.mark.benchmark(group="E15-join")
def test_join_vectorized(benchmark, join_inputs):
    left, right = join_inputs
    l, r = benchmark(join.join, left, right)
    l_ref, r_ref = join.join_reference(left, right)
    assert np.array_equal(l.tail.values, l_ref.tail.values)
    assert np.array_equal(r.tail.values, r_ref.tail.values)


@pytest.mark.benchmark(group="E15-join")
def test_join_reference(benchmark, join_inputs):
    left, right = join_inputs
    benchmark(join.join_reference, left, right)


@pytest.mark.benchmark(group="E15-leftjoin")
def test_leftjoin_vectorized(benchmark, join_inputs):
    left, right = join_inputs
    l, r = benchmark(join.leftjoin, left, right)
    l_ref, r_ref = join.leftjoin_reference(left, right)
    assert np.array_equal(l.tail.values, l_ref.tail.values)
    assert np.array_equal(r.tail.values, r_ref.tail.values)


@pytest.mark.benchmark(group="E15-leftjoin")
def test_leftjoin_reference(benchmark, join_inputs):
    left, right = join_inputs
    benchmark(join.leftjoin_reference, left, right)


@pytest.mark.benchmark(group="E15-group")
def test_group_vectorized(benchmark, grouped_inputs):
    keys, _, _ = grouped_inputs
    grouping = benchmark(group.group, keys)
    reference = group.group_reference(keys)
    assert np.array_equal(grouping.groups.values, reference.groups.values)
    assert np.array_equal(grouping.extents, reference.extents)


@pytest.mark.benchmark(group="E15-group")
def test_group_reference(benchmark, grouped_inputs):
    keys, _, _ = grouped_inputs
    benchmark(group.group_reference, keys)


@pytest.mark.benchmark(group="E15-aggr-min")
def test_grouped_min_vectorized(benchmark, grouped_inputs):
    _, values, grouping = grouped_inputs
    out = benchmark(aggregate.grouped_min, values, grouping)
    assert out.to_pylist() == aggregate.grouped_min_reference(
        values, grouping
    ).to_pylist()


@pytest.mark.benchmark(group="E15-aggr-min")
def test_grouped_min_reference(benchmark, grouped_inputs):
    _, values, grouping = grouped_inputs
    benchmark(aggregate.grouped_min_reference, values, grouping)


@pytest.mark.benchmark(group="E15-aggr-median")
def test_grouped_median_vectorized(benchmark, grouped_inputs):
    _, values, grouping = grouped_inputs
    out = benchmark(aggregate.grouped_median, values, grouping)
    reference = aggregate.grouped_median_reference(values, grouping)
    assert out.to_pylist() == pytest.approx(reference.to_pylist())


@pytest.mark.benchmark(group="E15-aggr-median")
def test_grouped_median_reference(benchmark, grouped_inputs):
    _, values, grouping = grouped_inputs
    benchmark(aggregate.grouped_median_reference, values, grouping)


@pytest.mark.benchmark(group="E15-aggr-stddev")
def test_grouped_stddev_vectorized(benchmark, grouped_inputs):
    _, values, grouping = grouped_inputs
    out = benchmark(aggregate.grouped_stddev, values, grouping)
    reference = aggregate.grouped_stddev_reference(values, grouping)
    assert out.to_pylist() == pytest.approx(reference.to_pylist())


@pytest.mark.benchmark(group="E15-aggr-stddev")
def test_grouped_stddev_reference(benchmark, grouped_inputs):
    _, values, grouping = grouped_inputs
    benchmark(aggregate.grouped_stddev_reference, values, grouping)


@pytest.mark.benchmark(group="E15-aggr-countdistinct")
def test_grouped_count_distinct_vectorized(benchmark, grouped_inputs):
    _, values, grouping = grouped_inputs
    out = benchmark(aggregate.grouped_count_distinct, values, grouping)
    reference = aggregate.grouped_count_distinct_reference(values, grouping)
    assert out.to_pylist() == reference.to_pylist()


@pytest.mark.benchmark(group="E15-aggr-countdistinct")
def test_grouped_count_distinct_reference(benchmark, grouped_inputs):
    _, values, grouping = grouped_inputs
    benchmark(aggregate.grouped_count_distinct_reference, values, grouping)
