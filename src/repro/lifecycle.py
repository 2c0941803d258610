"""Query lifecycle governance: cancellation, deadlines, memory budgets.

Every statement a :class:`~repro.engine.connection.Connection` executes
carries a :class:`QueryContext` — one query id, one cancellation token,
an optional deadline and an optional memory budget.  The MAL
interpreter consults the context before each instruction, on the
thread that runs it (the scheduler *or* one of the pool's workers), so a
runaway query is stopped cooperatively within one instruction boundary
rather than holding a worker thread and its intermediates forever.

The module sits below the engine (it imports only :mod:`repro.errors`)
so both :mod:`repro.mal.interpreter` and :mod:`repro.engine` can use it
without an import cycle.  The per-database registry that makes running
queries observable (``SHOW QUERIES``) and killable (``KILL <qid>``)
lives here too; :class:`~repro.engine.database.Database` owns one
instance.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Optional

from repro.errors import (
    ProgrammingError,
    QueryCancelledError,
    QueryTimeoutError,
    ResourceError,
)


class QueryContext:
    """Governance state for one executing statement.

    The cancellation token is a plain flag set by *other* threads
    (``kill_query``, the network server's CANCEL path) and polled by
    the executing thread via :meth:`check` — cooperative, lock-free on
    the hot path.  ``bytes_materialised`` totals the bytes of every BAT
    an instruction produced; crossing ``mem_budget_bytes`` raises
    :class:`ResourceError` at the next boundary.  Deadlines use the
    monotonic clock.
    """

    __slots__ = (
        "qid",
        "sql",
        "session_id",
        "started_at",
        "_started_monotonic",
        "deadline",
        "mem_budget_bytes",
        "bytes_materialised",
        "rows_materialised",
        "_cancelled",
        "_cancel_reason",
    )

    def __init__(
        self,
        qid: int,
        sql: str = "",
        session_id: int = 0,
        timeout: Optional[float] = None,
        mem_budget_bytes: Optional[int] = None,
    ):
        self.qid = qid
        self.sql = sql
        self.session_id = session_id
        self.started_at = time.time()
        self._started_monotonic = time.monotonic()
        self.deadline = (
            None if timeout is None else self._started_monotonic + timeout
        )
        self.mem_budget_bytes = mem_budget_bytes
        self.bytes_materialised = 0
        self.rows_materialised = 0
        self._cancelled = False
        self._cancel_reason = ""

    # ------------------------------------------------------------------
    # cancellation token
    # ------------------------------------------------------------------
    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self, reason: str = "") -> None:
        """Request cancellation; the query aborts at its next boundary."""
        self._cancel_reason = reason or self._cancel_reason
        self._cancelled = True

    def check(self) -> None:
        """Raise the pending governance error, if any (hot-path poll)."""
        if self._cancelled:
            reason = self._cancel_reason or "query cancelled"
            raise QueryCancelledError(f"query {self.qid} cancelled: {reason}")
        deadline = self.deadline
        if deadline is not None and time.monotonic() >= deadline:
            elapsed = time.monotonic() - self._started_monotonic
            raise QueryTimeoutError(
                f"query {self.qid} exceeded its statement timeout "
                f"after {elapsed:.3f}s"
            )

    # ------------------------------------------------------------------
    # memory accounting
    # ------------------------------------------------------------------
    def note_materialised(self, nbytes: int, rows: int) -> None:
        """Account one instruction's output; enforce the byte budget.

        Races between pool workers can transiently under-count (the
        ``+=`` is not atomic under free-threading), but the budget is a
        backstop, not an invoice — the check re-runs at every
        subsequent boundary.
        """
        self.bytes_materialised += nbytes
        self.rows_materialised += rows
        budget = self.mem_budget_bytes
        if budget is not None and self.bytes_materialised > budget:
            raise ResourceError(
                f"query {self.qid} exceeded its memory budget: "
                f"{self.bytes_materialised} bytes materialised "
                f"(budget {budget})"
            )

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def elapsed(self) -> float:
        """Wall-clock seconds since this query started."""
        return time.monotonic() - self._started_monotonic

    def describe(self) -> dict[str, Any]:
        """One JSON-able row for ``SHOW QUERIES`` / ``list_queries``."""
        return {
            "qid": self.qid,
            "session": self.session_id,
            "sql": self.sql,
            "status": "cancelling" if self._cancelled else "running",
            "elapsed_ms": self.elapsed * 1000.0,
            "rows": self.rows_materialised,
            "bytes": self.bytes_materialised,
        }


class QueryRegistry:
    """The database-wide table of running statements.

    Registration happens once per top-level statement (not per
    interpreter run — an ``executemany`` batch is one entry), so
    ``SHOW QUERIES`` mirrors what a client sees as in-flight work and
    ``KILL <qid>`` aborts the whole batch.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._running: dict[int, QueryContext] = {}
        self._next_qid = 0

    def register(
        self,
        sql: str = "",
        session_id: int = 0,
        timeout: Optional[float] = None,
        mem_budget_bytes: Optional[int] = None,
    ) -> QueryContext:
        with self._lock:
            self._next_qid += 1
            query = QueryContext(
                self._next_qid, sql, session_id, timeout, mem_budget_bytes
            )
            self._running[query.qid] = query
            return query

    def finish(self, query: QueryContext) -> None:
        with self._lock:
            self._running.pop(query.qid, None)

    def list(self) -> list[dict[str, Any]]:
        with self._lock:
            contexts = list(self._running.values())
        return [context.describe() for context in sorted(
            contexts, key=lambda context: context.qid
        )]

    def kill(self, qid: int, reason: str = "") -> None:
        """Cancel the running query *qid* (cooperative, returns at once).

        Raises :class:`ProgrammingError` when no such query is running
        — a qid from ``SHOW QUERIES`` that already finished is gone.
        """
        with self._lock:
            query = self._running.get(qid)
        if query is None:
            raise ProgrammingError(f"no running query with qid {qid}")
        query.cancel(reason or f"killed via kill_query({qid})")
