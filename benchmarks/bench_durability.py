"""E21: durable-commit cost — write-ahead log vs full farm republish.

Before the WAL, ``durable=True`` republished the entire farm on every
commit: O(database) per transaction, however small the change.  The
WAL makes a durable commit O(delta): one fsync'd log record holding
the logical change.  Four measurements:

* ``E21-durable-commit`` — latency of a one-row durable INSERT against
  a database of 10k / 100k / 1M array cells, through the WAL and
  through the baseline it replaced: commit, then ``conn.save(farm)``
  (all the retired ``durable="full"`` mode ever did).  The gap is the
  headline number: it must widen linearly with database size for the
  republish while staying flat for WAL.
* ``E21-recovery``   — ``repro.connect(farm)`` replay time as the WAL
  tail grows (16 vs 128 unfolded commits).
* ``E21-checkpoint`` — cost of folding the WAL into the farm (a full
  atomic farm publish), the amortised price WAL mode pays every
  ``REPRO_WAL_CHECKPOINT_RECORDS`` commits.

Every leg asserts durability of what it measured: the farm reopens to
exactly the committed row count.
"""

import time

import numpy as np
import pytest

import repro

#: disable threshold checkpoints while measuring pure commit latency.
_NO_AUTO_CHECKPOINT = "1000000000"

SIZES = [10_000, 100_000, 1_000_000]


def build_farm(tmp_path, cells):
    """A farm holding one *cells*-sized array plus an empty log table."""
    farm = tmp_path / "db"
    conn = repro.connect(nr_threads=1)
    conn.register_array("big", np.arange(cells, dtype=np.float64))
    conn.execute("CREATE TABLE log (k BIGINT, v DOUBLE)")
    conn.save(farm)
    conn.close()
    return farm


def _assert_durable(farm, expected_rows):
    reopened = repro.connect(farm, nr_threads=1)
    assert (
        reopened.execute("SELECT COUNT(*) FROM log").scalar() == expected_rows
    )
    reopened.close()


@pytest.mark.benchmark(group="E21-durable-commit")
@pytest.mark.parametrize("cells", SIZES)
def test_commit_wal(benchmark, tmp_path, monkeypatch, cells):
    monkeypatch.setenv("REPRO_WAL_CHECKPOINT_RECORDS", _NO_AUTO_CHECKPOINT)
    farm = build_farm(tmp_path, cells)
    conn = repro.connect(farm, durable=True, nr_threads=1)
    statement = conn.prepare("INSERT INTO log VALUES (1, 2.5)")

    benchmark(lambda: statement.execute())

    committed = conn.execute("SELECT COUNT(*) FROM log").scalar()
    conn.close()
    _assert_durable(farm, committed)


@pytest.mark.benchmark(group="E21-durable-commit")
@pytest.mark.parametrize("cells", SIZES)
def test_commit_full_republish(benchmark, tmp_path, cells):
    farm = build_farm(tmp_path, cells)
    conn = repro.connect(farm, nr_threads=1)
    statement = conn.prepare("INSERT INTO log VALUES (1, 2.5)")

    def commit_and_republish():
        statement.execute()
        conn.save(farm)

    benchmark(commit_and_republish)

    committed = conn.execute("SELECT COUNT(*) FROM log").scalar()
    conn.close()
    _assert_durable(farm, committed)


@pytest.mark.benchmark(group="E21-recovery")
@pytest.mark.parametrize("commits", [16, 128])
def test_recovery_vs_wal_length(benchmark, tmp_path, monkeypatch, commits):
    monkeypatch.setenv("REPRO_WAL_CHECKPOINT_RECORDS", _NO_AUTO_CHECKPOINT)
    farm = build_farm(tmp_path, 10_000)
    conn = repro.connect(farm, durable=True, nr_threads=1)
    statement = conn.prepare("INSERT INTO log VALUES (?, 0.5)")
    for index in range(commits):
        statement.execute((index,))
    conn.close()

    def reopen():
        recovered = repro.connect(farm, nr_threads=1)
        count = recovered.execute("SELECT COUNT(*) FROM log").scalar()
        recovered.close()
        assert count == commits

    benchmark(reopen)


@pytest.mark.benchmark(group="E21-checkpoint")
@pytest.mark.parametrize("cells", [100_000, 1_000_000])
def test_checkpoint_cost(benchmark, tmp_path, monkeypatch, cells):
    monkeypatch.setenv("REPRO_WAL_CHECKPOINT_RECORDS", _NO_AUTO_CHECKPOINT)
    farm = build_farm(tmp_path, cells)
    conn = repro.connect(farm, durable=True, nr_threads=1)
    conn.execute("INSERT INTO log VALUES (1, 2.5)")

    benchmark(conn.database.checkpoint)

    conn.close()
    _assert_durable(farm, 1)


def test_wal_small_commit_speedup_on_1m_rows(tmp_path, monkeypatch):
    """Acceptance: durable WAL commit ≥5x faster than a full republish
    when the database holds 1M rows (the gap is typically far larger)."""
    monkeypatch.setenv("REPRO_WAL_CHECKPOINT_RECORDS", _NO_AUTO_CHECKPOINT)

    def best_commit_seconds(wal):
        farm = build_farm(tmp_path / ("wal" if wal else "full"), 1_000_000)
        conn = repro.connect(farm, durable=wal, nr_threads=1)
        statement = conn.prepare("INSERT INTO log VALUES (1, 2.5)")
        statement.execute()  # warm plan cache + WAL bootstrap
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            statement.execute()
            if not wal:
                conn.save(farm)  # the baseline: republish the whole farm
            best = min(best, time.perf_counter() - start)
        conn.close()
        return best

    wal = best_commit_seconds(True)
    full = best_commit_seconds(False)
    assert full >= 5 * wal, (
        f"WAL commit {wal * 1e3:.2f} ms vs full republish {full * 1e3:.2f} ms"
    )
