"""Whole-array writes publish their values as the column's next BAT.

A write that provably covers an array in cell order (``INSERT INTO A
SELECT [x], [y], f(..) FROM A``, or ``UPDATE`` without ``WHERE``) lowers
to ``sql.update`` without oids: no ``bat.mirror``, no position array, no
scatter.  The old BAT is untouched, so snapshots still read it, and the
WAL logs the values once, with ``"oids": null``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro
from repro.engine import wal as wal_mod
from repro.mal.modules import REGISTRY

LIFE = (
    "INSERT INTO life SELECT [x], [y], "
    "CASE WHEN SUM(v) - v = 3 OR (SUM(v) - v = 2 AND v = 1) THEN 1 ELSE 0 END "
    "FROM life GROUP BY life[x-1:x+2][y-1:y+2]"
)
SIDE = 12


def _board() -> np.ndarray:
    rng = np.random.default_rng(39)
    return (rng.random((SIDE, SIDE)) < 0.4).astype(np.int32)


def _seed(conn) -> None:
    conn.execute(
        f"CREATE ARRAY life (x INT DIMENSION[0:1:{SIDE}], "
        f"y INT DIMENSION[0:1:{SIDE}], v INT DEFAULT 0)"
    )
    conn.register_array("seed", _board())
    conn.execute("INSERT INTO life SELECT [x], [y], v FROM seed")


def _grid(conn) -> np.ndarray:
    return conn.execute("SELECT [x], [y], v FROM life").grid()


@pytest.fixture
def life():
    conn = repro.connect(nr_threads=1, fragment_rows=math.inf)
    _seed(conn)
    yield conn
    conn.close()


def test_the_life_plan_addresses_no_cell(life):
    plan = life.explain(LIFE)
    assert "bat.mirror(" not in plan and "array.cellindex(" not in plan
    [update] = [line for line in plan.splitlines() if "sql.update(" in line]
    assert update.count(",") == 2  # target, column, values


def test_the_statement_result_becomes_the_column(life, monkeypatch):
    produced = []
    expr = REGISTRY[("batcalc", "expr")]

    def recording(*args):
        produced.append(expr(*args))
        return produced[-1]

    monkeypatch.setitem(REGISTRY, ("batcalc", "expr"), recording)
    life.execute(LIFE)
    assert len(produced) == 1
    assert life.database.catalog.get("life").bats["v"].tail is produced[0].tail


def test_a_snapshot_still_reads_the_old_board(life):
    reader = life.database.connect()
    reader.begin()
    before = _grid(reader)
    life.execute(LIFE)
    assert np.array_equal(_grid(reader), before)
    assert not np.array_equal(_grid(life), before)
    reader.rollback()
    assert not np.array_equal(_grid(reader), before)
    reader.close()


def test_durable_generations_replay_without_oids(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_WAL_CHECKPOINT_RECORDS", "1000000")
    farm = tmp_path / "farm"
    staging = repro.connect()
    _seed(staging)
    staging.save(farm)
    staging.close()
    reference = repro.connect(nr_threads=1)
    _seed(reference)
    writer = repro.connect(str(farm), durable=True, nr_threads=1)
    for _ in range(3):
        writer.execute(LIFE)
        reference.execute(LIFE)
    expected = _grid(reference)
    assert np.array_equal(_grid(writer), expected)
    del writer  # dropped without a clean close: only the log has the writes

    records = wal_mod.load_records(wal_mod.wal_path_for(farm))
    ops = [op for record in records for change in record["changes"] for op in change["ops"]]
    assert [op["method"] for op in ops] == ["replace_values"] * 3
    assert all(op["payload"]["oids"] is None for op in ops)
    assert all(len(op["payload"]["values"]) == SIDE * SIDE for op in ops)

    reopened = repro.connect(str(farm), nr_threads=1)
    assert np.array_equal(_grid(reopened), expected)
    reopened.close()
    reference.close()


def test_a_bare_column_update_copies(conn):
    conn.execute("CREATE TABLE t (a INT, b INT)")
    conn.execute("INSERT INTO t VALUES (1, 2), (3, 4)")
    conn.execute("UPDATE t SET a = b")
    table = conn.database.catalog.get("t")
    assert table.bats["a"].tail is not table.bats["b"].tail
    assert conn.execute("SELECT a, b FROM t").rows() == [(2, 2), (4, 4)]
