"""E12: the MAL optimizer pipeline ablation (Figure 2's optimizer box).

Runs representative demo queries with the optimizer pipeline on and
off; results must be identical either way, and the optimizer must
reduce the interpreted instruction count on CSE-heavy plans.
"""

import math

import pytest

import repro
from repro.mal.optimizer import pipeline as optimizer_pipeline

#: a query whose plan contains duplicated sub-expressions and constants.
CSE_QUERY = (
    "SELECT station, AVG(temp) * 2 + 1 * 1 FROM obs "
    "WHERE day * 2 > 1 + 1 AND day * 2 < 10 + 10 GROUP BY station"
)

#: fragment size of the fragmentation-on legs.
ABLATION_FRAGMENT_ROWS = 250


def build_obs(conn, rows=2000):
    conn.execute("CREATE TABLE obs (station VARCHAR(8), day INT, temp DOUBLE)")
    values = ", ".join(
        f"('s{i % 7}', {i % 30}, {float(i % 40)})" for i in range(rows)
    )
    conn.execute(f"INSERT INTO obs VALUES {values}")


@pytest.mark.benchmark(group="E12-optimizer")
def test_with_optimizer(benchmark):
    conn = repro.connect()
    build_obs(conn)
    result = benchmark(conn.execute, CSE_QUERY)
    assert len(result.rows()) == 7


@pytest.mark.benchmark(group="E12-optimizer")
def test_without_optimizer(benchmark):
    conn = repro.connect()
    conn.pipeline = ()
    build_obs(conn)
    result = benchmark(conn.execute, CSE_QUERY)
    assert len(result.rows()) == 7


def test_optimizer_equivalence_and_instruction_reduction():
    """Not a timing benchmark: the invariant behind E12."""
    optimized = repro.connect()
    raw = repro.connect()
    raw.pipeline = ()
    for connection in (optimized, raw):
        build_obs(connection, rows=500)
    fast = optimized.execute(CSE_QUERY, collect_stats=True)
    slow = raw.execute(CSE_QUERY, collect_stats=True)
    assert sorted(fast.rows()) == sorted(slow.rows())
    fast_work = {
        op: n
        for op, n in optimized.last_stats.per_operation.items()
        if not op.startswith("language.")
    }
    slow_work = raw.last_stats.per_operation
    assert sum(fast_work.values()) < sum(slow_work.values())


@pytest.mark.benchmark(group="E12-optimizer")
def test_fragmentation_off(benchmark):
    """The default pipeline: every column scanned whole."""
    conn = repro.connect(nr_threads=1, fragment_rows=math.inf)
    build_obs(conn)
    result = benchmark(conn.execute, CSE_QUERY)
    assert len(result.rows()) == 7


@pytest.mark.benchmark(group="E12-optimizer")
def test_fragmentation_on(benchmark):
    """The fragmented pipeline (per-fragment select/group/partials)."""
    conn = repro.connect(
        nr_threads=1, fragment_rows=ABLATION_FRAGMENT_ROWS
    )
    build_obs(conn)
    result = benchmark(conn.execute, CSE_QUERY)
    assert len(result.rows()) == 7


def test_fragmentation_equivalence():
    """Fragmentation never changes results — only plan shape."""
    off = repro.connect(nr_threads=1, fragment_rows=math.inf)
    on = repro.connect(
        nr_threads=1, fragment_rows=ABLATION_FRAGMENT_ROWS
    )
    for connection in (off, on):
        build_obs(connection, rows=1000)
    assert on.execute(CSE_QUERY).rows() == off.execute(CSE_QUERY).rows()
    # temp is DOUBLE, so AVG takes the byte-identical row-level merge
    # (float partials would re-associate the accumulation).
    on_plan = on.explain(CSE_QUERY)
    assert "mat.partition" in on_plan
    assert "mat.packgroups" in on_plan
    assert "mat.partition" not in off.explain(CSE_QUERY)


@pytest.mark.benchmark(group="E12-compile-only")
def test_compilation_cost(benchmark):
    conn = repro.connect()
    build_obs(conn, rows=10)
    benchmark(conn.compile, CSE_QUERY)


@pytest.mark.benchmark(group="E12-compile-only")
def test_compilation_cost_fragmented(benchmark):
    """Optimize-time cost of the fragmented pipeline."""
    conn = repro.connect(nr_threads=1, fragment_rows=ABLATION_FRAGMENT_ROWS)
    build_obs(conn, rows=2000)
    benchmark(conn.compile, CSE_QUERY)


# ----------------------------------------------------------------------
# dead-code ablation: the def/use-analysis-driven pass is output-identical
# ----------------------------------------------------------------------
def no_dead_code_pipeline():
    """The default pipeline with the dead-code sweep removed: CSE's
    leftover duplicates (and any other unreferenced instruction) stay
    in the plan and are interpreted for nothing."""
    return tuple(
        optimizer_pass
        for optimizer_pass in optimizer_pipeline.DEFAULT_PIPELINE
        if optimizer_pass.name != "dead_code"
    )


@pytest.mark.benchmark(group="E12-deadcode")
def test_with_dead_code(benchmark):
    conn = repro.connect(nr_threads=1)
    build_obs(conn)
    result = benchmark(conn.execute, CSE_QUERY)
    assert len(result.rows()) == 7


@pytest.mark.benchmark(group="E12-deadcode")
def test_without_dead_code(benchmark):
    conn = repro.connect(nr_threads=1)
    build_obs(conn)
    conn.pipeline = no_dead_code_pipeline()
    result = benchmark(conn.execute, CSE_QUERY)
    assert len(result.rows()) == 7


def test_dead_code_equivalence_and_sweep():
    """The ablation's invariant: dead-code elimination (driven by the
    same def/use analysis as the plan verifier) never changes results,
    and it does sweep the duplicates common_terms leaves behind."""
    with_pass = repro.connect(nr_threads=1)
    without = repro.connect(nr_threads=1)
    for connection in (with_pass, without):
        build_obs(connection, rows=500)
    without.pipeline = no_dead_code_pipeline()
    queries = [
        CSE_QUERY,
        "SELECT day, temp FROM obs WHERE day * 2 > 10 ORDER BY temp LIMIT 7",
        "SELECT COUNT(*) FROM obs WHERE temp + 0 >= 0",
    ]
    for sql in queries:
        assert sorted(with_pass.execute(sql).rows()) == sorted(
            without.execute(sql).rows()
        ), sql
    # In the fragmented pipeline the sweep has real prey: mergetable
    # leaves fragment groups that no consumer reads unreferenced.
    swept_conn = repro.connect(nr_threads=1, fragment_rows=ABLATION_FRAGMENT_ROWS)
    unswept_conn = repro.connect(nr_threads=1, fragment_rows=ABLATION_FRAGMENT_ROWS)
    for connection in (swept_conn, unswept_conn):
        build_obs(connection, rows=500)
    unswept_conn.pipeline = tuple(
        optimizer_pass
        for optimizer_pass in unswept_conn.pipeline
        if optimizer_pass.name != "dead_code"
    )
    assert sorted(swept_conn.execute(CSE_QUERY).rows()) == sorted(
        unswept_conn.execute(CSE_QUERY).rows()
    )
    swept = len(swept_conn.compile(CSE_QUERY).instructions)
    unswept = len(unswept_conn.compile(CSE_QUERY).instructions)
    assert swept < unswept
