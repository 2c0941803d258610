"""Query governance over the wire: CANCEL, deadlines, shutdown, retry.

The network half of the lifecycle layer: a remote ``CANCEL`` must
interrupt a statement *mid-execution* (not merely between result
batches) — a prepared one too, which only small reads may run on the
server's event loop — ``statement_timeout_ms`` travels in the session handshake,
``ServerThread.stop(drain_timeout=...)`` drains in-flight statements
before disconnecting, and the client retries idempotent conversations
with exponential backoff.  Engine-level governance is covered by
``tests/engine/test_lifecycle.py``; proxy-injected faults by
``tests/net/test_chaos.py``.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

import repro
from repro.errors import (
    NetworkError,
    ProgrammingError,
    QueryCancelledError,
    QueryTimeoutError,
)
from repro.mal.interpreter import PARALLEL_MIN_ROWS
from repro.net.client import ConnectionPool
from repro.net.server import ServerThread


def _wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError("condition not reached within timeout")


#: long enough to be interrupted mid-flight, cheap enough for CI.
SLOW_ROWS = 3000
SLOW_SQL = (
    "SELECT COUNT(*) FROM t AS a CROSS JOIN t AS b "
    "WHERE a.v + b.v > 10"
)


def _seed_slow_table(db, rows: int = SLOW_ROWS) -> None:
    session = db.connect()
    session.execute("CREATE TABLE t (v INT)")
    session.executemany(
        "INSERT INTO t VALUES (?)", [(i,) for i in range(rows)]
    )
    session.close()


class TestRemoteCancelMidExecution:
    """Regression for CANCEL that only fired between result batches.

    A single-row aggregate never yields a batch until the whole plan
    ran, so the old check never triggered; the reader task now routes
    CANCEL into the session's cancellation token and the statement
    dies at its next instruction boundary.
    """

    def test_cancel_kills_scan_that_never_yields_a_batch(self, db, server):
        _seed_slow_table(db)
        remote = repro.connect(server.url)
        caught: list = []

        def run():
            try:
                remote.execute(SLOW_SQL)
            except QueryCancelledError as exc:
                caught.append(exc)
            except Exception as exc:  # pragma: no cover - diagnostic
                caught.append(AssertionError(f"wrong error: {exc!r}"))
            else:  # pragma: no cover - diagnostic
                caught.append(AssertionError("statement completed"))

        worker = threading.Thread(target=run)
        worker.start()
        # Only cancel once the statement is demonstrably executing.
        _wait_until(db.list_queries)
        remote.cancel()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert caught and isinstance(caught[0], QueryCancelledError), caught
        assert server.server.stats.cancelled == 1
        # The session survives its own cancellation.
        assert remote.ping()
        assert remote.execute("SELECT 2 + 2").scalar() == 4
        remote.close()


class TestPreparedStatementsOffTheLoop:
    """Only small prepared reads run on the event loop.

    A server that ran *every* prepared read on the loop would answer
    nobody while a join of thousands of rows ran, and would read the
    CANCEL frame only after the statement completed.  The inline rule
    (``repro.net.server`` docstring, rule 1) keeps joins and large
    binds on the executor.
    """

    def test_cancel_kills_prepared_statement_mid_execution(self, db, server):
        _seed_slow_table(db)
        remote = repro.connect(server.url)
        other = repro.connect(server.url)
        statement = remote.prepare(SLOW_SQL.replace("> 10", "> ?"))
        caught: list = []

        def run():
            try:
                statement.execute((10,))
            except QueryCancelledError as exc:
                caught.append(exc)
            except Exception as exc:  # pragma: no cover - diagnostic
                caught.append(AssertionError(f"wrong error: {exc!r}"))
            else:  # pragma: no cover - diagnostic
                caught.append(AssertionError("statement completed"))

        worker = threading.Thread(target=run)
        worker.start()
        _wait_until(db.list_queries)
        # Another client is still served while the statement runs.
        started = time.perf_counter()
        assert other.ping()
        assert time.perf_counter() - started < 0.05
        assert db.list_queries(), "the statement finished before the ping"
        remote.cancel()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert caught and isinstance(caught[0], QueryCancelledError), caught
        assert server.server.stats.cancelled == 1
        assert server.server.stats.inline_statements == 0
        assert remote.execute("SELECT 2 + 2").scalar() == 4
        remote.close()
        other.close()

    def test_only_small_prepared_reads_run_inline(self):
        # Unfragmented plans: the row count alone must keep the large
        # read off the loop, not a pooled plan.
        db = repro.Database(fragment_rows=float("inf"))
        session = db.connect()
        session.execute(
            "CREATE ARRAY m (x INT DIMENSION[0:1:64], y INT DIMENSION[0:1:64], v INT DEFAULT 0)"
        )
        for name, rows in (("small", PARALLEL_MIN_ROWS - 1), ("big", PARALLEL_MIN_ROWS)):
            session.execute(f"CREATE TABLE {name} (v INT)")
            session.executemany(
                f"INSERT INTO {name} VALUES (?)", [(i,) for i in range(rows)]
            )
        session.close()
        with ServerThread(db) as thread:
            remote = repro.connect(thread.url)
            stats = thread.server.stats
            point = remote.prepare("SELECT v FROM m WHERE x = ? AND y = ?")
            assert point.execute((3, 4)).scalar() == 0
            assert stats.inline_statements == 1
            assert remote.stats()["inline_statements"] == 1
            for name, rows, inline in (("small", PARALLEL_MIN_ROWS - 1, 2), ("big", PARALLEL_MIN_ROWS, 2)):
                count = remote.prepare(f"SELECT COUNT(*) FROM {name} WHERE v >= ?")
                assert count.execute((0,)).scalar() == rows
                assert stats.inline_statements == inline
            write = remote.prepare("UPDATE m SET v = ? WHERE x = 3 AND y = 4")
            assert write.execute((7,)).affected == 1
            assert stats.inline_statements == 2
            assert point.execute((3, 4)).scalar() == 7
            assert stats.inline_statements == 3
            remote.close()
        db.close()


class TestRemoteStatementTimeout:
    def test_timeout_in_hello_header(self, db, server):
        _seed_slow_table(db)
        remote = repro.connect(server.url, statement_timeout_ms=1)
        with pytest.raises(QueryTimeoutError):
            remote.execute(SLOW_SQL)
        # The session outlives the abort (PING is not a statement).
        assert remote.ping()
        remote.close()

    def test_timeout_as_url_option(self, db, server):
        _seed_slow_table(db)
        remote = repro.connect(f"{server.url}?statement_timeout_ms=1")
        with pytest.raises(QueryTimeoutError):
            remote.execute(SLOW_SQL)
        remote.close()

    def test_governance_errors_cross_the_wire_typed(self, db, server):
        """The wire protocol maps the new error classes by name."""
        _seed_slow_table(db)
        remote = repro.connect(server.url, statement_timeout_ms=1)
        with pytest.raises(QueryTimeoutError) as excinfo:
            remote.execute(SLOW_SQL)
        assert "statement timeout" in str(excinfo.value)
        remote.close()


class TestPing:
    def test_ping_pong(self, remote):
        assert remote.ping() is True
        # Repeatable, and interleaves fine with statements.
        assert remote.execute("SELECT 1").scalar() == 1
        assert remote.ping() is True

    def test_ping_on_closed_connection(self, remote):
        remote.close()
        assert remote.ping() is False

    def test_ping_detects_dead_server(self, db):
        thread = ServerThread(db).start()
        remote = repro.connect(thread.url)
        assert remote.ping() is True
        thread.stop()
        assert remote.ping() is False
        # ping() marked the connection closed; it is not half-alive.
        assert remote.closed


class TestGracefulShutdown:
    def test_drain_lets_inflight_statement_finish(self):
        db = repro.Database()
        _seed_slow_table(db, rows=2500)
        thread = ServerThread(db).start()
        remote = repro.connect(thread.url)
        results: list = []
        worker = threading.Thread(
            target=lambda: results.append(remote.execute(SLOW_SQL).scalar())
        )
        worker.start()
        _wait_until(db.list_queries)
        thread.stop(drain_timeout=30.0)
        worker.join(timeout=30)
        assert not worker.is_alive()
        # The full result arrived even though the listener was already
        # closed when the statement was still running.
        assert results and results[0] > 0

    def test_expired_drain_cancels_stragglers(self):
        db = repro.Database()
        _seed_slow_table(db)
        thread = ServerThread(db).start()
        remote = repro.connect(thread.url)
        caught: list = []

        def run():
            try:
                remote.execute(SLOW_SQL)
            except repro.Error as exc:
                caught.append(exc)

        worker = threading.Thread(target=run)
        worker.start()
        _wait_until(db.list_queries)
        started = time.monotonic()
        thread.stop(drain_timeout=0.05)
        stop_took = time.monotonic() - started
        worker.join(timeout=30)
        assert not worker.is_alive()
        # Teardown did not wait for the multi-second join to finish.
        assert stop_took < 10.0
        # The straggler was cancelled/disconnected, not left hanging:
        # depending on timing the client sees the typed cancellation
        # or the connection teardown.
        assert caught, "statement neither finished nor failed"
        assert isinstance(
            caught[0], (QueryCancelledError, NetworkError)
        ), caught


class TestConnectRetry:
    def test_connect_retries_until_server_is_up(self, monkeypatch):
        monkeypatch.setenv("REPRO_NET_RETRIES", "8")
        monkeypatch.setenv("REPRO_NET_RETRY_BACKOFF_MS", "100")
        # Reserve a port, release it, and bring the server up on it
        # only after the client's first attempts have been refused.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        db = repro.Database()
        thread_box: list = []

        def late_start():
            time.sleep(0.4)
            thread_box.append(ServerThread(db, port=port).start())

        starter = threading.Thread(target=late_start)
        starter.start()
        try:
            remote = repro.connect(f"repro://127.0.0.1:{port}")
            assert remote.execute("SELECT 1").scalar() == 1
            remote.close()
        finally:
            starter.join(timeout=30)
            if thread_box:
                thread_box[0].stop()

    def test_retries_exhausted_is_network_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_NET_RETRIES", "1")
        monkeypatch.setenv("REPRO_NET_RETRY_BACKOFF_MS", "1")
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(NetworkError):
            repro.connect(f"repro://127.0.0.1:{port}")

    def test_invalid_retry_knob_is_programming_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_NET_RETRIES", "many")
        with pytest.raises(ProgrammingError):
            repro.connect("repro://127.0.0.1:1")


class TestReconnectReprepare:
    """Statement ids are per server session; a reconnect is a new one."""

    @pytest.fixture(autouse=True)
    def _fast_backoff(self, monkeypatch):
        monkeypatch.setenv("REPRO_NET_RETRY_BACKOFF_MS", "1")

    def test_prepared_statement_survives_reconnect(self, db, remote):
        remote.execute("CREATE TABLE r (v INT)")
        remote.execute("INSERT INTO r VALUES (1), (2), (3)")
        select = remote.prepare("SELECT v FROM r WHERE v > ? ORDER BY v")
        insert = remote.prepare("INSERT INTO r VALUES (?)")
        assert select.execute((1,)).rows() == [(2,), (3,)]
        compiles = db.stats()["compile_count"]
        remote._sock.shutdown(socket.SHUT_RDWR)
        # stats() is idempotent: it silently opens a fresh server
        # session, in which the old statement ids mean nothing.
        assert remote.stats()["sessions"] >= 1
        assert select.execute((2,)).rows() == [(3,)]
        assert select.parameters == (0,)
        assert insert.executemany([(4,), (5,)]).affected == 2
        assert select.execute((3,)).rows() == [(4,), (5,)]
        # Re-preparing found both plans in the shared cache, once each.
        assert db.stats()["compile_count"] == compiles
        # close() must not release an id of the dead session — in the
        # new one that number may name someone else's statement.
        stale = remote.prepare("SELECT 1")
        remote._sock.shutdown(socket.SHUT_RDWR)
        remote.stats()
        survivor = [
            remote.prepare("SELECT COUNT(*) FROM r")
            for _ in range(stale.statement_id)
        ][-1]
        assert survivor.statement_id == stale.statement_id
        stale.close()
        assert survivor.execute().scalar() == 5

    def test_no_reprepare_inside_a_transaction(self, remote):
        remote.execute("CREATE TABLE r (v INT)")
        statement = remote.prepare("INSERT INTO r VALUES (?)")
        remote.begin()
        statement.execute((1,))
        remote._sock.shutdown(socket.SHUT_RDWR)
        # The transaction died with the socket: nothing reconnects,
        # so nothing re-prepares — the loss stays loud.
        with pytest.raises(NetworkError):
            remote.stats()
        with pytest.raises(NetworkError):
            statement.execute((2,))


class TestPoolHealth:
    def test_ping_on_acquire_evicts_dead_connection(self, server):
        with ConnectionPool(server.url, size=1) as pool:
            with pool.acquire() as conn:
                first = conn
                assert conn.execute("SELECT 1").scalar() == 1
            # Sever the idle connection's socket underneath it — the
            # client object still believes it is open.
            first._sock.shutdown(socket.SHUT_RDWR)
            with pool.acquire() as conn:
                assert conn is not first
                assert conn.execute("SELECT 1").scalar() == 1

    def test_ping_on_acquire_can_be_disabled(self, server):
        with ConnectionPool(
            server.url, size=1, ping_on_acquire=False
        ) as pool:
            with pool.acquire() as conn:
                first = conn
            with pool.acquire() as conn:
                assert conn is first

    def test_reap_idle_closes_expired_connections(self, server):
        # A long idle_timeout keeps the background reaper out of the
        # way (first tick ~1s out); backdating the check-in stamp
        # makes the manual reap deterministic.
        pool = ConnectionPool(server.url, size=2, idle_timeout=30.0)
        with pool.acquire() as conn:
            conn.execute("SELECT 1")
        recycled, _ = pool._idle.get_nowait()
        pool._idle.put((recycled, time.monotonic() - 60.0))
        assert pool.reap_idle() == 1
        assert pool._created == 0
        assert recycled.closed
        # The pool still serves fresh connections afterwards.
        with pool.acquire() as conn:
            assert conn.execute("SELECT 1").scalar() == 1
        pool.close()

    def test_reaper_thread_runs(self, server):
        pool = ConnectionPool(server.url, size=1, idle_timeout=0.05)
        with pool.acquire() as conn:
            conn.execute("SELECT 1")
        # No manual reap_idle(): the background reaper must act.
        _wait_until(lambda: pool._created == 0, timeout=10.0)
        pool.close()

    def test_invalid_idle_timeout(self, server):
        with pytest.raises(ProgrammingError):
            ConnectionPool(server.url, idle_timeout=0.0)
