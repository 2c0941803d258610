"""Query lifecycle governance: cancellation, deadlines, memory budgets.

Covers the engine-level half of the governance layer: the
:class:`~repro.lifecycle.QueryContext` threading through the MAL
interpreter, the per-database query registry behind
``Database.list_queries`` / ``Database.kill_query``, the SQL admin
surface (``SHOW QUERIES`` / ``KILL <qid>``), and the invariant that a
governed abort leaves the session clean — open transaction rolled
back, session reusable.  The network half lives in
``tests/net/test_governance.py`` and ``tests/net/test_chaos.py``.
"""

from __future__ import annotations

import threading
import time

import pytest

import repro
from repro.errors import (
    OperationalError,
    ProgrammingError,
    QueryCancelledError,
    QueryGovernanceError,
    QueryTimeoutError,
    ResourceError,
)
from repro.io import import_array_csv, import_csv
from repro.lifecycle import QueryContext
from repro.mal import interpreter
from repro.mal.modules import REGISTRY, load_all

#: a 2-way cross join over this many rows runs long enough (hundreds
#: of ms) to be killed mid-flight while crossing many instruction
#: boundaries; a WHERE clause keeps the result small.
SLOW_ROWS = 3000

SLOW_SQL = (
    "SELECT COUNT(*) FROM t AS a CROSS JOIN t AS b "
    "WHERE a.v + b.v > 10"
)


def _make_slow_table(conn, rows: int = SLOW_ROWS) -> None:
    conn.execute("CREATE TABLE t (v INT)")
    conn.executemany(
        "INSERT INTO t VALUES (?)", [(i,) for i in range(rows)]
    )


def _wait_until(predicate, timeout: float = 10.0, interval: float = 0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError("condition not reached within timeout")


class TestErrorTaxonomy:
    """The new errors are exported and PEP 249-layered."""

    def test_exported_from_package_root(self):
        for name in (
            "QueryGovernanceError",
            "QueryCancelledError",
            "QueryTimeoutError",
            "ResourceError",
        ):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_hierarchy(self):
        assert issubclass(QueryGovernanceError, OperationalError)
        assert issubclass(QueryCancelledError, QueryGovernanceError)
        assert issubclass(QueryTimeoutError, QueryGovernanceError)
        assert issubclass(ResourceError, OperationalError)


class TestStatementTimeout:
    def test_expired_deadline_raises_and_session_survives(self, conn):
        _make_slow_table(conn, rows=100)
        conn.statement_timeout = 1e-9  # pre-expired at the first check
        with pytest.raises(QueryTimeoutError):
            conn.execute("SELECT COUNT(*) FROM t")
        conn.statement_timeout = None
        assert conn.execute("SELECT COUNT(*) FROM t").rows() == [(100,)]

    def test_deadline_fires_mid_execution(self, conn):
        _make_slow_table(conn)
        conn.statement_timeout = 0.05
        started = time.monotonic()
        with pytest.raises(QueryTimeoutError):
            conn.execute(SLOW_SQL)
        # Cooperative, but within instruction boundaries — far sooner
        # than the seconds the full join would take.
        assert time.monotonic() - started < 5.0

    def test_timeout_error_is_operational(self, conn):
        conn.statement_timeout = 1e-9
        with pytest.raises(OperationalError):
            conn.execute("SELECT 1")


class TestMemoryBudget:
    def test_budget_exceeded_raises_resource_error(self, conn):
        _make_slow_table(conn, rows=2000)
        conn.mem_budget_bytes = 4096  # the join intermediates dwarf this
        with pytest.raises(ResourceError) as excinfo:
            conn.execute(SLOW_SQL)
        assert "memory budget" in str(excinfo.value)

    def test_generous_budget_is_inert(self, conn):
        _make_slow_table(conn, rows=50)
        conn.mem_budget_bytes = 1 << 30
        assert conn.execute("SELECT COUNT(*) FROM t").rows() == [(50,)]

    def test_session_usable_after_budget_abort(self, conn):
        _make_slow_table(conn, rows=2000)
        conn.mem_budget_bytes = 4096
        with pytest.raises(ResourceError):
            conn.execute(SLOW_SQL)
        conn.mem_budget_bytes = None
        assert conn.execute("SELECT COUNT(*) FROM t").rows() == [(2000,)]


class _CancelAtPoll(QueryContext):
    """Governance whose *k*-th poll, and every later one, cancels."""

    def __init__(self, k: int):
        super().__init__(qid=0)
        self.k = k
        self.polls = 0
        self.lock = threading.Lock()

    def check(self) -> None:
        with self.lock:
            self.polls += 1
            if self.polls >= self.k:
                self.cancel(f"poll {self.k}")
        super().check()


class TestPerStepPolls:
    """Cancellation latency, pinned without a clock: every step polls
    once, on the thread that runs it, before its kernel — so when the
    k-th poll cancels, exactly the steps behind the k-1 polls before it
    ran, on the scheduler thread and on pool workers alike."""

    #: Connection._governed polls once before the interpreter runs.
    ENTRY_POLLS = 1
    SQL = "INSERT INTO t SELECT k + 100, v * 2 FROM t WHERE v > 3"

    @pytest.mark.parametrize("pooled", [False, True], ids=["inline", "pooled"])
    def test_kth_poll_stops_after_k_minus_1_polls(self, monkeypatch, pooled):
        if pooled:
            monkeypatch.setattr(interpreter, "PARALLEL_MIN_ROWS", 0)
        lock = threading.Lock()
        ran = [0]

        def counted(kernel):
            def run(ctx, *args):
                with lock:
                    ran[0] += 1
                return kernel(ctx, *args)

            return run

        load_all()
        for op, kernel in list(REGISTRY.items()):
            monkeypatch.setitem(REGISTRY, op, counted(kernel))
        conn = repro.connect(nr_threads=4 if pooled else 1, fragment_rows=7)
        conn.execute("CREATE TABLE t (k INT, v INT)")
        conn.executemany("INSERT INTO t VALUES (?, ?)", [(i % 5, i) for i in range(40)])
        conn.execute("BEGIN")
        conn.execute(self.SQL)  # compiles and links the plan
        conn.execute("ROLLBACK")
        ran[0] = 0
        conn.execute("BEGIN")
        conn.execute(self.SQL, collect_stats=True)
        steps = ran[0]
        assert steps == conn.last_stats.instructions_executed
        assert (conn.last_stats.parallel_batches > 0) == pooled
        conn.execute("ROLLBACK")

        database = conn.database
        register = database.register_query
        for k in range(self.ENTRY_POLLS + 1, self.ENTRY_POLLS + steps + 1):
            query = _CancelAtPoll(k)
            monkeypatch.setattr(
                database,
                "register_query",
                lambda sql, *rest, query=query: (
                    query if sql == self.SQL else register(sql, *rest)
                ),
            )
            conn.execute("BEGIN")
            conn.execute("INSERT INTO t VALUES (-1, -1)")
            ran[0] = 0
            with pytest.raises(QueryCancelledError):
                conn.execute(self.SQL)
            assert ran[0] == k - 1 - self.ENTRY_POLLS, (k, steps)
            # The transaction rolled back; the session takes the next statement.
            assert not conn.in_transaction
            assert conn.execute("SELECT COUNT(*) FROM t").rows() == [(40,)]
        conn.close()


class TestKillQuery:
    def test_cross_thread_kill(self):
        db = repro.Database()
        conn = db.connect()
        _make_slow_table(conn)
        failure: list = []

        def run():
            try:
                conn.execute(SLOW_SQL)
            except QueryCancelledError:
                pass
            except Exception as exc:  # pragma: no cover - diagnostic
                failure.append(exc)
            else:  # pragma: no cover - diagnostic
                failure.append(AssertionError("query was not cancelled"))

        worker = threading.Thread(target=run)
        worker.start()
        running = _wait_until(db.list_queries)
        db.kill_query(running[0]["qid"], "killed by test")
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert not failure, failure
        # Registry drains once the statement aborts.
        _wait_until(lambda: not db.list_queries())
        # The session survives its own killing.
        assert conn.execute("SELECT COUNT(*) FROM t").rows() == [(SLOW_ROWS,)]

    def test_kill_unknown_qid_is_programming_error(self):
        db = repro.Database()
        with pytest.raises(ProgrammingError):
            db.kill_query(999999)

    def test_list_queries_reports_progress_fields(self):
        db = repro.Database()
        conn = db.connect()
        _make_slow_table(conn)

        def run():
            try:
                conn.execute(SLOW_SQL)
            except QueryGovernanceError:
                pass

        worker = threading.Thread(target=run)
        worker.start()
        try:
            running = _wait_until(db.list_queries)
            row = running[0]
            assert set(row) == {
                "qid", "session", "sql", "status", "elapsed_ms",
                "rows", "bytes",
            }
            assert row["session"] == conn.session_id
            assert row["sql"] == SLOW_SQL
            assert row["status"] in ("running", "cancelling")
            assert row["elapsed_ms"] >= 0.0
        finally:
            conn.cancel_running("test teardown")
            worker.join(timeout=30)


class TestSqlAdminSurface:
    def test_show_queries_shape(self, conn):
        result = conn.execute("SHOW QUERIES")
        assert result.names == [
            "qid", "session", "status", "elapsed_ms", "rows", "bytes", "sql",
        ]
        # SHOW QUERIES runs outside governance registration (it must
        # not list itself), so an idle engine shows nothing.
        assert result.rows() == []

    def test_show_queries_sees_concurrent_statement(self):
        db = repro.Database()
        busy, admin = db.connect(), db.connect()
        _make_slow_table(busy)

        def run():
            try:
                busy.execute(SLOW_SQL)
            except QueryGovernanceError:
                pass

        worker = threading.Thread(target=run)
        worker.start()
        try:
            rows = _wait_until(
                lambda: admin.execute("SHOW QUERIES").rows()
            )
            qids = [row[0] for row in rows]
            sessions = [row[1] for row in rows]
            assert busy.session_id in sessions
            assert all(qid > 0 for qid in qids)
        finally:
            busy.cancel_running("test teardown")
            worker.join(timeout=30)

    def test_sql_kill_aborts_statement(self):
        db = repro.Database()
        busy, admin = db.connect(), db.connect()
        _make_slow_table(busy)
        caught: list = []

        def run():
            try:
                busy.execute(SLOW_SQL)
            except QueryCancelledError as exc:
                caught.append(exc)

        worker = threading.Thread(target=run)
        worker.start()
        running = _wait_until(db.list_queries)
        result = admin.execute(f"KILL {running[0]['qid']}")
        assert result.affected == 1
        worker.join(timeout=30)
        assert caught and "killed by KILL" in str(caught[0])

    def test_sql_kill_unknown_qid(self, conn):
        with pytest.raises(ProgrammingError):
            conn.execute("KILL 424242")

    def test_explain_admin_statement_rejected(self, conn):
        with pytest.raises(ProgrammingError, match="administrative"):
            conn.execute("EXPLAIN SHOW QUERIES")
        with pytest.raises(ProgrammingError, match="administrative"):
            conn.execute("EXPLAIN KILL 1")


def _csv_table(conn, tmp):
    (tmp / "t.csv").write_text("k,v\n" + "".join(f"{i},{i}\n" for i in range(100)))
    import_csv(conn, "t", tmp / "t.csv")


def _csv_array(conn, tmp):
    (tmp / "a.csv").write_text("x,v\n" + "".join(f"{i},1\n" for i in range(100)))
    import_array_csv(conn, "a", tmp / "a.csv")


#: every way rows are loaded, each a governed statement: executemany
#: into a table and into an array, and the two CSV loaders.
LOADS = {
    "executemany-table": lambda conn, tmp: conn.executemany(
        "INSERT INTO t VALUES (?, ?)", [(i, i) for i in range(100)]
    ),
    "executemany-array": lambda conn, tmp: conn.executemany(
        "INSERT INTO a VALUES (?, 1)", [(i,) for i in range(100)]
    ),
    "import_csv": _csv_table,
    "import_array_csv": _csv_array,
}


def _load_targets(conn) -> None:
    conn.execute("CREATE TABLE t (k INT, v INT)")
    conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:100], v INT DEFAULT 0)")


def _contents(conn) -> tuple:
    return (
        conn.execute("SELECT COUNT(*) FROM t").scalar(),
        conn.execute("SELECT SUM(v) FROM a").scalar(),
    )


class TestGovernedLoads:
    """A load is one governed statement in one transaction: the budget,
    the deadline and a KILL abort it, and the target is unchanged."""

    @pytest.mark.parametrize("load", LOADS)
    def test_memory_budget_covers_every_load(self, conn, tmp_path, load):
        _load_targets(conn)
        empty = _contents(conn)
        conn.mem_budget_bytes = 100
        with pytest.raises(ResourceError):
            LOADS[load](conn, tmp_path)
        conn.mem_budget_bytes = None
        assert _contents(conn) == empty
        LOADS[load](conn, tmp_path)  # the session takes the load again
        assert _contents(conn) != empty

    def test_deadline_covers_executemany(self, conn):
        conn.execute("CREATE TABLE t (k INT, v INT, w INT)")
        conn.statement_timeout = 0.05
        with pytest.raises(QueryTimeoutError):
            conn.executemany(
                "INSERT INTO t VALUES (?, ?, ?)", [(i, i, i) for i in range(200_000)]
            )
        conn.statement_timeout = None
        assert conn.execute("SELECT COUNT(*) FROM t").scalar() == 0

    @pytest.mark.parametrize("load", ["executemany-table", "executemany-array"])
    def test_kill_aborts_executemany_before_it_writes(self, monkeypatch, tmp_path, load):
        # The first pack of the batch holds until KILL has landed; the
        # next step's poll then aborts the batch ahead of its write.
        db = repro.Database()
        conn, admin = db.connect(), db.connect()
        _load_targets(conn)
        empty = _contents(conn)
        entered, release = threading.Event(), threading.Event()
        load_all()
        pack = REGISTRY[("bat", "pack")]

        def held(ctx, *values):
            entered.set()
            release.wait(10)
            return pack(ctx, *values)

        monkeypatch.setitem(REGISTRY, ("bat", "pack"), held)
        caught: list = []

        def run():
            try:
                LOADS[load](conn, tmp_path)
            except QueryCancelledError as exc:
                caught.append(exc)

        worker = threading.Thread(target=run)
        worker.start()
        assert entered.wait(10)
        qid = db.list_queries()[0]["qid"]
        assert admin.execute(f"KILL {qid}").affected == 1
        release.set()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert caught and "killed by KILL" in str(caught[0])
        monkeypatch.setitem(REGISTRY, ("bat", "pack"), pack)
        assert _contents(conn) == empty
        LOADS[load](conn, tmp_path)
        assert _contents(conn) != empty
        db.close()


class TestSessionHygiene:
    def test_abort_inside_transaction_rolls_back(self, conn):
        conn.execute("CREATE TABLE t (v INT)")
        conn.execute("BEGIN")
        conn.execute("INSERT INTO t VALUES (1), (2)")
        assert conn.in_transaction
        conn.statement_timeout = 1e-9
        with pytest.raises(QueryTimeoutError):
            conn.execute("SELECT COUNT(*) FROM t")
        conn.statement_timeout = None
        # The open transaction was rolled back, not left dangling.
        assert not conn.in_transaction
        assert conn.execute("SELECT COUNT(*) FROM t").rows() == [(0,)]

    def test_abort_rollback_invisible_to_concurrent_session(self):
        db = repro.Database()
        writer, reader = db.connect(), db.connect()
        writer.execute("CREATE TABLE t (v INT)")
        writer.execute("BEGIN")
        writer.execute("INSERT INTO t VALUES (7)")
        writer.statement_timeout = 1e-9
        with pytest.raises(QueryTimeoutError):
            writer.execute("SELECT 1")
        assert reader.execute("SELECT COUNT(*) FROM t").rows() == [(0,)]

    def test_executemany_is_one_query_entry(self):
        db = repro.Database()
        conn = db.connect()
        conn.execute("CREATE TABLE t (v INT)")
        seen_qids: set = set()
        snap = threading.Event()
        done = threading.Event()

        def snoop():
            while not done.is_set():
                for row in db.list_queries():
                    seen_qids.add(row["qid"])
                    snap.set()
                time.sleep(0.001)

        watcher = threading.Thread(target=snoop)
        watcher.start()
        conn.executemany(
            "INSERT INTO t VALUES (?)", [(i,) for i in range(2000)]
        )
        done.set()
        watcher.join(timeout=10)
        # The whole batch registered as at most one qid; the registry
        # may also have drained before the snoop thread ever looked.
        assert len(seen_qids) <= 1

    def test_registry_empty_when_idle(self, conn):
        conn.execute("CREATE TABLE t (v INT)")
        conn.execute("INSERT INTO t VALUES (1)")
        assert conn.database.list_queries() == []
