"""E17: fragment-parallel execution (mergetable + dataflow).

Measures the E1–E5-style workloads that fragmentation targets — bulk
selection with projection and grouped aggregation — at 1/2/4 worker
threads against the sequential unfragmented baseline, plus a
large-scale grouped-aggregate suite where per-fragment grouping with
partial-aggregate merging beats one whole-column grouping even on a
single core (each fragment's grouping and scatters stay cache-resident).

Every benchmark asserts its result against the sequential engine, so a
regression can never hide behind a fast wrong answer.
"""

import math

import pytest

import repro

#: rows of the large scan; big enough that fragments matter, small
#: enough for CI.
ROWS = 2_000_000
GROUPS = 100

#: benchmarked knob legs: (label, nr_threads, fragment_rows).
LEGS = [
    ("sequential", 1, math.inf),
    ("frag-1thread", 1, ROWS // 16),
    ("frag-2threads", 2, ROWS // 16),
    ("frag-4threads", 4, ROWS // 16),
]

GROUPED_SQL = (
    "SELECT k, SUM(v), COUNT(v), AVG(v), MIN(v), MAX(v) FROM big GROUP BY k"
)
MULTIKEY_SQL = "SELECT k, g, SUM(v), COUNT(*) FROM big GROUP BY k, g"
# v grows ~7 per row to a maximum of 14 003 062: this keeps the last ~10%.
FILTER_SQL = "SELECT k, v FROM big WHERE v > 12600000"
FILTER_AGG_SQL = "SELECT k, SUM(v) FROM big WHERE v > 1000000 GROUP BY k"

ALL_SQL = (GROUPED_SQL, MULTIKEY_SQL, FILTER_SQL, FILTER_AGG_SQL)


def _load_big(conn):
    import numpy as np

    rng = np.random.default_rng(17)
    keys = rng.integers(0, GROUPS, ROWS).astype(np.int64)
    subkeys = rng.integers(0, 20, ROWS).astype(np.int64)
    values = (keys * 31 + np.arange(ROWS, dtype=np.int64) * 7) % 31_000_017
    conn.register_array("bigsrc", {"k": keys, "g": subkeys, "v": values})
    conn.execute("CREATE TABLE big (k INT, g INT, v BIGINT)")
    conn.execute("INSERT INTO big SELECT k, g, v FROM bigsrc")
    conn.execute("DROP ARRAY bigsrc")
    return conn


@pytest.fixture(scope="module")
def corpus():
    """One shared data set, loaded once; knob legs get own connections."""
    baseline = _load_big(repro.connect(nr_threads=1, fragment_rows=math.inf))
    expected = {sql: baseline.execute(sql).rows() for sql in ALL_SQL}
    legs = {}
    for label, nr_threads, fragment_rows in LEGS:
        conn = repro.Connection(
            baseline.catalog, nr_threads=nr_threads, fragment_rows=fragment_rows
        )
        legs[label] = conn
    return legs, expected


@pytest.mark.benchmark(group="E17-parallel-grouped", min_rounds=12)
@pytest.mark.parametrize("label", [leg[0] for leg in LEGS])
def test_grouped_aggregates(benchmark, corpus, label):
    legs, expected = corpus
    conn = legs[label]
    result = benchmark(conn.execute, GROUPED_SQL)
    assert result.rows() == expected[GROUPED_SQL]


@pytest.mark.benchmark(group="E17-parallel-multikey", min_rounds=12)
@pytest.mark.parametrize("label", [leg[0] for leg in LEGS])
def test_multikey_grouping(benchmark, corpus, label):
    """Two grouping passes dominate: per-fragment groupings stay cache-resident."""
    legs, expected = corpus
    conn = legs[label]
    result = benchmark(conn.execute, MULTIKEY_SQL)
    assert result.rows() == expected[MULTIKEY_SQL]


@pytest.mark.benchmark(group="E17-parallel-filter", min_rounds=12)
@pytest.mark.parametrize("label", [leg[0] for leg in LEGS])
def test_filter_project(benchmark, corpus, label):
    legs, expected = corpus
    conn = legs[label]
    result = benchmark(conn.execute, FILTER_SQL)
    assert result.rows() == expected[FILTER_SQL]
    assert len(expected[FILTER_SQL]) > ROWS // 20  # the filter selects rows


@pytest.mark.benchmark(group="E17-parallel-filter-agg", min_rounds=12)
@pytest.mark.parametrize("label", [leg[0] for leg in LEGS])
def test_filter_then_aggregate(benchmark, corpus, label):
    legs, expected = corpus
    conn = legs[label]
    result = benchmark(conn.execute, FILTER_AGG_SQL)
    assert result.rows() == expected[FILTER_AGG_SQL]
