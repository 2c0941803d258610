"""E20: the network front door — wire cost on top of the engine.

What the socket layer adds to (and must not subtract from) the
in-process engine:

* ``E20-server-churn``     — full connect/handshake/close cycles per
  second, the cost :class:`ConnectionPool` exists to amortise (one
  pooled-acquire leg for contrast);
* ``E20-server-pointsel``  — point-select QPS over one socket,
  unprepared vs prepared (the wire adds a fixed per-request hop, so
  the prepared/unprepared gap should mirror E13);
* ``E20-server-scan``      — streamed 2M-row scan throughput via the
  remote ``fetchnumpy`` against the in-process ``to_numpy`` baseline
  on the same Database (the quotient is pure wire+codec cost);
* ``E20-server-clients-N`` — aggregate prepared point-select
  throughput with N ∈ {1, 4, 16} concurrent client threads on one
  shared server (the server runs these on its event loop, so the
  clients contend for it).

Every leg asserts its answers, so a wire-protocol regression cannot
hide behind a fast wrong result.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro
from repro.net.client import ConnectionPool
from repro.net.server import ServerThread

SIZE = 64
POINT_SQL = "SELECT v FROM m WHERE x = ? AND y = ?"
READS_PER_ROUND = 64
SCAN_ROWS = 2_000_000


def make_database(scan_rows: int = 0) -> repro.Database:
    db = repro.Database(nr_threads=1)
    conn = db.connect()
    conn.execute(
        f"CREATE ARRAY m (x INT DIMENSION[0:1:{SIZE}], "
        f"y INT DIMENSION[0:1:{SIZE}], v INT DEFAULT 0)"
    )
    conn.execute("UPDATE m SET v = x * 100 + y")
    if scan_rows:
        conn.register_array("big", np.arange(scan_rows, dtype=np.int64))
    conn.close()
    return db


# ----------------------------------------------------------------------
# connection churn
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="E20-server-churn")
def test_connect_close_churn(benchmark):
    db = make_database()
    with ServerThread(db) as server:
        url = server.url

        def churn():
            for _ in range(8):
                conn = repro.connect(url)
                assert conn.execute("SELECT 1").scalar() == 1
                conn.close()

        benchmark(churn)
    db.close()


@pytest.mark.benchmark(group="E20-server-churn")
def test_pooled_acquire_churn(benchmark):
    db = make_database()
    with ServerThread(db) as server:
        with ConnectionPool(server.url, size=1) as pool:

            def churn():
                for _ in range(8):
                    with pool.acquire() as conn:
                        assert conn.execute("SELECT 1").scalar() == 1

            benchmark(churn)
    db.close()


# ----------------------------------------------------------------------
# point-select QPS: prepared vs unprepared
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="E20-server-pointsel")
def test_point_select_unprepared(benchmark):
    db = make_database()
    with ServerThread(db) as server:
        conn = repro.connect(server.url)
        assert conn.execute(POINT_SQL, (3, 9)).scalar() == 309

        def round_trip():
            for i in range(READS_PER_ROUND):
                conn.execute(POINT_SQL, (i % SIZE, 9))

        benchmark(round_trip)
        conn.close()
    db.close()


@pytest.mark.benchmark(group="E20-server-pointsel")
def test_point_select_prepared(benchmark):
    db = make_database()
    with ServerThread(db) as server:
        conn = repro.connect(server.url)
        stmt = conn.prepare(POINT_SQL)
        assert stmt.execute((3, 9)).scalar() == 309

        def round_trip():
            for i in range(READS_PER_ROUND):
                stmt.execute((i % SIZE, 9))

        benchmark(round_trip)
        stmt.close()
        conn.close()
    db.close()


# ----------------------------------------------------------------------
# streamed large scan vs the in-process baseline
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="E20-server-scan")
def test_scan_2m_in_process(benchmark):
    db = make_database(SCAN_ROWS)
    session = db.connect()

    def scan():
        arrays = session.execute("SELECT v FROM big").to_numpy()
        assert len(arrays["v"]) == SCAN_ROWS
        return arrays

    benchmark(scan)
    session.close()
    db.close()


@pytest.mark.benchmark(group="E20-server-scan")
def test_scan_2m_streamed_remote(benchmark):
    db = make_database(SCAN_ROWS)
    with ServerThread(db) as server:
        conn = repro.connect(server.url)

        def scan():
            cursor = conn.cursor()
            cursor.execute("SELECT v FROM big")
            arrays = cursor.fetchnumpy()
            assert len(arrays["v"]) == SCAN_ROWS
            return arrays

        benchmark(scan)
        conn.close()
    db.close()


# ----------------------------------------------------------------------
# concurrent clients
# ----------------------------------------------------------------------
def _hammer(clients: int, benchmark) -> None:
    # Prepared point selects: the statements the server runs on its
    # event loop, so N clients contend for the loop, not the pool.
    db = make_database()
    with ServerThread(db) as server:
        connections = [repro.connect(server.url) for _ in range(clients)]
        statements = [conn.prepare(POINT_SQL) for conn in connections]
        for statement in statements:
            assert statement.execute((0, 0)).scalar() == 0
        per_client = max(1, READS_PER_ROUND // clients)

        def round_trip():
            def work(statement, base):
                for i in range(per_client):
                    assert statement.execute(((base + i) % SIZE, 9)).scalar() == (base + i) % SIZE * 100 + 9

            threads = [
                threading.Thread(target=work, args=(statement, index * per_client))
                for index, statement in enumerate(statements)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        benchmark(round_trip)
        for conn in connections:
            conn.close()
    db.close()


@pytest.mark.benchmark(group="E20-server-clients")
def test_concurrent_clients_1(benchmark):
    _hammer(1, benchmark)


@pytest.mark.benchmark(group="E20-server-clients")
def test_concurrent_clients_4(benchmark):
    _hammer(4, benchmark)


@pytest.mark.benchmark(group="E20-server-clients")
def test_concurrent_clients_16(benchmark):
    _hammer(16, benchmark)
