"""The shared engine: one database, many concurrent sessions.

The paper's system is a multi-user server — many clients issue
SQL/SciQL queries against one shared column store.  This module is the
engine half of that split:

* :class:`Database` owns everything shared: the committed catalog
  (as a chain of immutable :class:`CatalogVersion` snapshots), the
  global dataflow scheduler (one
  :class:`~repro.mal.interpreter.Interpreter` + worker pool), the
  cross-session compiled-plan cache, and persistence.
* :class:`Transaction` is the per-session staging area: a
  copy-on-write :meth:`~repro.catalog.Catalog.fork` of the snapshot it
  started from, plus the set of object names it wrote.
* :meth:`Database.connect` hands out lightweight
  :class:`~repro.engine.connection.Connection` sessions (PEP 249
  ``threadsafety >= 2``): every session reads a consistent committed
  snapshot, writers stage into their transaction fork, and
  :meth:`Database.commit_transaction` publishes a new version
  atomically — first committer wins, a conflicting concurrent commit
  raises :class:`~repro.errors.OperationalError`.

Concurrency protocol
--------------------

Committed catalogs are immutable by convention: every write path goes
through a fork, so a reader that picked up ``Database.head()`` keeps a
torn-free view for as long as it likes.  ``_writer_lock`` serialises
publishes (and the whole execute-and-publish span of autocommit write
statements, so independent autocommit writers never see spurious
conflicts); readers never take it.  The plan cache and the
observability counters are guarded by ``_cache_lock``.  Plans are
keyed by the schema version of the snapshot they were compiled
against, which generalises the old per-connection schema-version
invalidation: a DDL commit simply mints keys no stale entry can match.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
import weakref
from collections import OrderedDict
from pathlib import Path
from typing import Optional

from repro import knobs
from repro.errors import (
    DurabilityWarning,
    InterfaceError,
    OperationalError,
    ProgrammingError,
    SciQLError,
)
from repro.catalog import Catalog
from repro.catalog.catalog import farm_versions
from repro.engine import wal as wal_mod
from repro.lifecycle import QueryContext, QueryRegistry
from repro.gdk.persist import recover_farm
from repro.mal.interpreter import Interpreter
from repro.mal.optimizer import DEFAULT_PIPELINE, build_pipeline
from repro.testing.faultpoints import crash_point

#: default capacity of the shared LRU statement cache.
DEFAULT_STATEMENT_CACHE_SIZE = 128

#: cap on the automatic worker-thread count.
MAX_AUTO_THREADS = 8

#: checkpoint when the WAL grows past this many bytes, or past
#: ``REPRO_WAL_CHECKPOINT_RECORDS`` commit records, whichever comes first.
DEFAULT_CHECKPOINT_BYTES = 64 * 1024 * 1024


def resolve_durable(value, path) -> bool:
    """Validate the ``durable`` knob: a bool, honoured only with a *path*.

    ``True`` selects write-ahead logging — commits append fsync'd
    deltas to ``<farm>.wal`` and checkpoints fold them into the farm.
    """
    if not isinstance(value, bool):
        hint = (
            "; the whole-farm republish it selected is Database.save() / "
            "Database.checkpoint() after the commit"
            if value == "full"
            else ""
        )
        raise ProgrammingError(
            f"invalid durable value {value!r}: expected True or False{hint}"
        )
    if value and path is None:
        # Durability requires a farm path (an in-memory database has
        # nowhere to log to).  Historically this *silently* stayed
        # in-memory; now the dropped request is loud.
        warnings.warn(
            f"durable={value!r} requested without a database path: an "
            "in-memory database cannot be durable, continuing without "
            "durability (pass a farm path to keep commits crash-safe)",
            DurabilityWarning,
            stacklevel=3,
        )
        return False
    return value


def _checkpoint_records() -> int:
    return knobs.integer("REPRO_WAL_CHECKPOINT_RECORDS", knobs.WAL_CHECKPOINT_RECORDS, 1)


def resolve_nr_threads(value: Optional[int]) -> int:
    """Worker count: explicit knob > ``REPRO_NR_THREADS`` > cpu count."""
    if value is None:
        auto = min(os.cpu_count() or 1, MAX_AUTO_THREADS)
        return knobs.integer("REPRO_NR_THREADS", auto, 1)
    try:
        return max(1, int(value))
    except (TypeError, ValueError):
        raise ProgrammingError(
            f"invalid nr_threads value {value!r}: expected an integer"
        ) from None


def resolve_fragment_rows(value) -> Optional[float]:
    """Fragment size: ``None`` = auto, ``math.inf`` = fragmentation off.

    Accepts ints, ``float('inf')``, and the ``REPRO_FRAGMENT_ROWS``
    environment override (``"inf"``/``"off"``/``"0"`` disable).
    """
    source = "fragment_rows"
    if value is None:
        env = knobs.raw("REPRO_FRAGMENT_ROWS")
        if env is not None:
            value = env
            source = "REPRO_FRAGMENT_ROWS"
    if value is None:
        return None
    try:
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in ("", "inf", "off", "none", "auto"):
                return math.inf if lowered != "auto" else None
        value = float(value)
    except (TypeError, ValueError):
        raise ProgrammingError(
            f"invalid {source} value {value!r}: expected a row count, "
            "'inf'/'off' or 'auto'"
        ) from None
    if math.isinf(value) or value <= 0:
        return math.inf
    return int(value)


def default_statement_timeout() -> Optional[float]:
    """Session default deadline in *seconds* from ``REPRO_STATEMENT_TIMEOUT_MS``.

    ``None`` (no deadline) when unset, empty or non-positive.
    """
    millis = knobs.number("REPRO_STATEMENT_TIMEOUT_MS", 0.0, 0.0)
    return millis / 1000.0 if millis > 0 else None


def default_mem_budget() -> Optional[int]:
    """Session default per-query byte budget from ``REPRO_MEM_BUDGET_BYTES``.

    ``None`` (no budget) when unset, empty or non-positive.
    """
    return knobs.integer("REPRO_MEM_BUDGET_BYTES", 0, 0) or None


class CatalogVersion:
    """One committed, immutable-by-convention state of the database.

    ``version`` counts every commit; ``schema_version`` only advances
    on committed DDL and keys the shared plan cache.
    """

    __slots__ = ("catalog", "version", "schema_version")

    def __init__(self, catalog: Catalog, version: int, schema_version: int):
        self.catalog = catalog
        self.version = version
        self.schema_version = schema_version

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CatalogVersion(v{self.version}, schema v{self.schema_version}, "
            f"{len(self.catalog.names())} objects)"
        )


class Transaction:
    """Per-session staging: a copy-on-write fork plus write tracking.

    All statement execution inside the transaction binds against
    ``self.catalog`` — the fork — so readers of the committed head
    never observe staged changes.  ``writes`` holds the lowercased
    names of every object the transaction created, mutated or dropped;
    commit uses it for first-committer-wins conflict detection and for
    merging onto a head that advanced underneath the transaction.

    Direct catalog manipulation (the ``connection.catalog`` escape
    hatch) is staged too when a transaction is active, but the engine
    cannot observe it — call :meth:`note_write` so commit knows about
    those objects.
    """

    __slots__ = ("base", "catalog", "writes", "schema_changes", "serial")

    def __init__(self, base: CatalogVersion, serial: int = 0):
        self.base = base
        self.catalog = base.catalog.fork()
        self.writes: set[str] = set()
        self.schema_changes = 0
        self.serial = serial

    @property
    def schema_token(self):
        """Plan-validity token: the committed int, or a private tuple
        once local DDL happened (never collides with committed keys)."""
        if self.schema_changes:
            return ("txn", self.serial, self.schema_changes)
        return self.base.schema_version

    def note_write(self, name: str) -> None:
        """Record that *name* was (or will be) written by this txn."""
        self.writes.add(name.lower())

    def note_schema_change(self) -> None:
        """Record staged DDL (bumps the published schema version)."""
        self.schema_changes += 1

    @property
    def dirty(self) -> bool:
        return bool(self.writes or self.schema_changes)


class _HeadCatalogView:
    """A live ``.get()`` view of the committed head, for the optimizer.

    Interned fragmented pipelines outlive any single catalog version;
    mitosis only needs current row-count estimates, so it resolves
    through this proxy instead of pinning one snapshot.
    """

    __slots__ = ("_database",)

    def __init__(self, database: "Database"):
        self._database = database

    def get(self, name: str):
        return self._database.head().catalog.get(name)


class Database:
    """A shared engine instance: catalog versions, scheduler, plan cache.

    Create one per logical database and call :meth:`connect` once per
    client thread/session.  ``repro.connect()`` remains the
    single-session shorthand: it builds a private Database and returns
    its first session.
    """

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        optimize: bool = True,
        statement_cache_size: int = DEFAULT_STATEMENT_CACHE_SIZE,
        nr_threads: Optional[int] = None,
        fragment_rows: Optional[float] = None,
        path: Optional[str | Path] = None,
        durable: bool = False,
    ):
        self._head = CatalogVersion(
            catalog if catalog is not None else Catalog(), 0, 0
        )
        #: serialises commit publishes and autocommit write statements.
        self._writer_lock = threading.RLock()
        #: guards the shared plan cache and the observability counters.
        self._cache_lock = threading.RLock()
        self.default_optimize = optimize
        self._nr_threads = resolve_nr_threads(nr_threads)
        self._fragment_rows = resolve_fragment_rows(fragment_rows)
        #: shared LRU capacity of the compiled-plan cache (0 disables).
        self.statement_cache_size = statement_cache_size
        self._plan_cache: OrderedDict[tuple, object] = OrderedDict()
        self._pipelines: dict[tuple, tuple] = {}
        self._head_view = _HeadCatalogView(self)
        #: the one dataflow scheduler every session shares; raw
        #: ``interpreter.run(program)`` calls bind against the live head.
        self.interpreter = Interpreter(self._catalog_now, self._nr_threads)
        self._sessions: weakref.WeakSet = weakref.WeakSet()
        self._txn_serial = 0
        self._session_serial = 0
        #: registry of running statements (SHOW QUERIES / KILL <qid>).
        self._queries = QueryRegistry()
        self._closed = False
        #: commit-time durability: append fsync'd logical deltas to
        #: ``<farm>.wal`` before a commit returns, checkpoint on
        #: thresholds.
        self.path = Path(path) if path is not None else None
        self.durable = resolve_durable(durable, self.path)
        self._wal: Optional[wal_mod.WriteAheadLog] = None
        self.checkpoint_bytes = DEFAULT_CHECKPOINT_BYTES
        self.checkpoint_records = _checkpoint_records()
        #: aggregate observability across all sessions.
        self.compile_count = 0
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("database is closed")

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close every session, the scheduler and the plan cache."""
        if self._closed:
            return
        self._closed = True
        for session in list(self._sessions):
            session._close_session()
        with self._cache_lock:
            self._plan_cache.clear()
        if self._wal is not None:
            self._wal.close()
            self._wal = None
        self.interpreter.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------
    def connect(
        self,
        optimize: Optional[bool] = None,
        nr_threads: Optional[int] = None,
        fragment_rows: Optional[float] = None,
    ):
        """A new concurrent session against this database.

        Knobs default to the database-wide settings; per-session
        overrides only affect that session's plans and scheduling.
        """
        from repro.engine.connection import Connection

        self._check_open()
        return Connection(
            optimize=self.default_optimize if optimize is None else optimize,
            nr_threads=self._nr_threads if nr_threads is None else nr_threads,
            fragment_rows=(
                self._fragment_rows if fragment_rows is None else fragment_rows
            ),
            database=self,
        )

    def _register_session(self, session) -> None:
        with self._cache_lock:
            self._session_serial += 1
            session._session_id = self._session_serial
        self._sessions.add(session)

    @property
    def session_count(self) -> int:
        """Number of live (not-yet-closed) sessions on this engine."""
        return sum(1 for session in self._sessions if not session._closed)

    # ------------------------------------------------------------------
    # query lifecycle governance
    # ------------------------------------------------------------------
    def register_query(
        self,
        sql: str,
        session_id: int = 0,
        timeout: Optional[float] = None,
        mem_budget_bytes: Optional[int] = None,
    ) -> QueryContext:
        """Enter one top-level statement into the running-query registry."""
        return self._queries.register(sql, session_id, timeout, mem_budget_bytes)

    def finish_query(self, query: QueryContext) -> None:
        """Remove a statement from the registry (always runs, even on abort)."""
        self._queries.finish(query)

    def list_queries(self) -> list[dict]:
        """One dict per running statement: qid, session, sql, status,
        elapsed_ms, rows, bytes (the SQL surface is ``SHOW QUERIES``)."""
        return self._queries.list()

    def kill_query(self, qid: int, reason: str = "") -> None:
        """Cancel the running statement *qid* cooperatively.

        The executing thread observes the token at its next instruction
        boundary and aborts with
        :class:`~repro.errors.QueryCancelledError`; its session rolls
        back any open transaction and stays usable.  Raises
        :class:`ProgrammingError` when *qid* is not running.
        """
        crash_point("govern.kill_requested")
        self._queries.kill(qid, reason)

    def stats(self) -> dict:
        """Engine-level observability as one JSON-able snapshot.

        The network server surfaces this through its STATS message;
        in-process callers can poll it too.  All counters are the
        database-wide aggregates (per-session counters live on each
        :class:`~repro.engine.connection.Connection`).
        """
        self._check_open()
        head = self._head
        with self._cache_lock:
            return {
                "sessions": self.session_count,
                "queries_running": len(self._queries.list()),
                "version": head.version,
                "schema_version": head.schema_version,
                "objects": len(head.catalog.names()),
                "nr_threads": self._nr_threads,
                "compile_count": self.compile_count,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "plan_cache_entries": len(self._plan_cache),
                "plan_cache_capacity": self.statement_cache_size,
                "durable": self.durable,
                "path": str(self.path) if self.path is not None else None,
            }

    # ------------------------------------------------------------------
    # catalog versions
    # ------------------------------------------------------------------
    def _catalog_now(self) -> Catalog:
        return self._head.catalog

    def head(self) -> CatalogVersion:
        """The current committed snapshot (atomic read)."""
        self._check_open()
        return self._head

    @property
    def catalog(self) -> Catalog:
        """The committed head catalog (a consistent snapshot)."""
        return self.head().catalog

    @property
    def version(self) -> int:
        """Monotonic commit counter."""
        return self.head().version

    @property
    def schema_version(self) -> int:
        """Monotonic committed-DDL counter (keys the plan cache)."""
        return self.head().schema_version

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    def begin_transaction(self) -> Transaction:
        """A new transaction on the current head snapshot."""
        self._check_open()
        with self._writer_lock:
            self._txn_serial += 1
            return Transaction(self._head, self._txn_serial)

    def commit_transaction(self, txn: Transaction) -> CatalogVersion:
        """Publish *txn* as the next committed version (atomic).

        First committer wins: if another transaction committed a change
        to any object this one wrote since it began, the commit raises
        :class:`OperationalError` and publishes nothing.  Disjoint
        concurrent commits merge cleanly (snapshot isolation).
        """
        self._check_open()
        with self._writer_lock:
            head = self._head
            if head is not txn.base:
                base = txn.base.catalog
                for name in sorted(txn.writes):
                    if base.entry(name) is not head.catalog.entry(name):
                        raise OperationalError(
                            f"transaction conflict: {name!r} was modified "
                            "by a concurrent commit (first committer wins)"
                        )
            # Assemble the new version from the head plus only the
            # objects this transaction wrote: untouched objects keep
            # their identity, which is what makes the conflict check
            # above (and disjoint-commit merging) work.
            catalog = head.catalog.clone()
            for name in txn.writes:
                catalog.set_entry(name, txn.catalog.entry(name))
            published = CatalogVersion(
                catalog,
                head.version + 1,
                head.schema_version + txn.schema_changes,
            )
            if self.durable:
                # Write-ahead: the logical delta must be on stable
                # storage *before* the commit is visible or acknowledged.
                changes = wal_mod.extract_changes(txn)
                self._ensure_wal().append_commit(
                    published.version, published.schema_version, changes
                )
            self._head = published
            crash_point("commit.published")
            for name in txn.writes:
                obj = catalog.entry(name)
                if obj is not None:
                    obj._disarm_journal()
            if self.durable:
                log = self._wal
                if (
                    log.record_count >= self.checkpoint_records
                    or log.size >= self.checkpoint_bytes
                ):
                    self._checkpoint_locked()
            return published

    # ------------------------------------------------------------------
    # optimizer pipelines (interned per knob pair, shared by sessions)
    # ------------------------------------------------------------------
    def pipeline_for(self, nr_threads: int, fragment_rows) -> tuple:
        """The optimizer pipeline for one session's execution knobs.

        Interned so equal knobs yield the *same* tuple — plan-cache
        keys include the pipeline, and identical objects are what lets
        sessions share each other's compiled plans.  Fragmented
        pipelines resolve row counts through the live head view.
        """
        fragmented = fragment_rows is not None and not (
            isinstance(fragment_rows, float) and math.isinf(fragment_rows)
        )
        if fragment_rows is None and nr_threads > 1:
            fragmented = True  # auto mode sizes fragments per thread
        if not fragmented:
            return DEFAULT_PIPELINE
        key = (nr_threads, fragment_rows)
        with self._cache_lock:
            pipeline = self._pipelines.get(key)
            if pipeline is None:
                rows = None if fragment_rows is None else int(fragment_rows)
                pipeline = build_pipeline(
                    self._head_view, rows, nr_threads, fragmented=True
                )
                self._pipelines[key] = pipeline
            return pipeline

    # ------------------------------------------------------------------
    # the shared plan cache
    # ------------------------------------------------------------------
    def lookup_plan(self, key: tuple, session) -> Optional[object]:
        """Cache hit/miss bookkeeping for one lookup by *session*."""
        with self._cache_lock:
            entry = self._plan_cache.get(key)
            if entry is not None:
                self._plan_cache.move_to_end(key)
                session.cache_hits += 1
                self.cache_hits += 1
            else:
                session.cache_misses += 1
                self.cache_misses += 1
            return entry

    def store_plan(self, key: tuple, entry) -> None:
        with self._cache_lock:
            if self.statement_cache_size <= 0:
                return
            self._plan_cache[key] = entry
            self._plan_cache.move_to_end(key)
            while len(self._plan_cache) > self.statement_cache_size:
                self._plan_cache.popitem(last=False)

    def note_compile(self, session) -> None:
        """Count one full front-end compile, race-free."""
        with self._cache_lock:
            session.compile_count += 1
            self.compile_count += 1

    def note_uncached_miss(self, session) -> None:
        """Count a lookup that had to bypass the shared cache."""
        with self._cache_lock:
            session.cache_misses += 1
            self.cache_misses += 1

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def _ensure_wal(self) -> wal_mod.WriteAheadLog:
        """The open WAL, bootstrapping farm + log on first durable commit.

        Called under the writer lock.  A database that was *not* opened
        from its farm (fresh engine handed a path) first publishes a
        full checkpoint of the current head, so WAL replay always has
        the matching base state to build on; any stale log from an
        earlier incarnation is truncated at the same time.
        """
        if self._wal is None:
            head = self._head
            head.catalog.save(self.path, head.version, head.schema_version)
            self._wal = wal_mod.WriteAheadLog(wal_mod.wal_path_for(self.path))
            self._wal.reset()
        return self._wal

    def checkpoint(self) -> None:
        """Fold the write-ahead log into the farm (atomic swap).

        Publishes the committed head as a full farm snapshot and then
        truncates the WAL.  A crash between the two steps is safe:
        replay skips records no younger than the farm's recorded
        version.  Automatic checkpoints run inside the commit path when
        the WAL passes the size/record thresholds
        (``Database.checkpoint_bytes`` / ``REPRO_WAL_CHECKPOINT_RECORDS``).
        """
        self._check_open()
        if self.path is None:
            raise ProgrammingError("checkpoint needs a database path")
        with self._writer_lock:
            self._checkpoint_locked()

    def _checkpoint_locked(self) -> None:
        head = self._head
        crash_point("checkpoint.before_publish")
        head.catalog.save(self.path, head.version, head.schema_version)
        crash_point("checkpoint.before_reset")
        if self._wal is not None:
            self._wal.reset()

    def save(self, directory: str | Path) -> None:
        """Publish the committed head under *directory* (atomic swap).

        The writer lock is held across the publish so a concurrent
        durable commit never races this save on the same farm's
        staging directories.  Saving onto the database's own farm path
        doubles as a checkpoint: the WAL is truncated once the snapshot
        is on disk.
        """
        self._check_open()
        directory = Path(directory)
        with self._writer_lock:
            head = self._head
            head.catalog.save(directory, head.version, head.schema_version)
            if self._wal is not None and directory == self.path:
                self._wal.reset()

    @classmethod
    def open(
        cls,
        directory: str | Path,
        optimize: bool = True,
        statement_cache_size: int = DEFAULT_STATEMENT_CACHE_SIZE,
        nr_threads: Optional[int] = None,
        fragment_rows: Optional[float] = None,
        durable: bool = False,
    ) -> "Database":
        """Open a database farm previously written by :meth:`save`.

        Runs crash recovery: adopts a stranded ``.retired`` farm when a
        publish was interrupted mid-swap, loads the last checkpoint,
        replays any write-ahead-log records younger than it through the
        normal catalog mutation code, and truncates a torn final WAL
        record (an unacknowledged in-flight commit) with a
        :class:`~repro.errors.RecoveryWarning`.  The recovered state is
        therefore exactly the last acknowledged commit (plus at most
        one fully-logged in-flight commit that crashed before its ack).

        ``durable=True`` keeps subsequent commits durable via the WAL.
        """
        directory = Path(directory)
        recover_farm(directory)
        if not directory.exists():
            raise SciQLError(
                f"no database at {directory}; use connect() and save()"
            )
        catalog = Catalog.load(directory)
        version, schema_version = farm_versions(directory)
        wal_path = wal_mod.wal_path_for(directory)
        records: list = []
        if wal_path.exists():
            records = wal_mod.load_records(wal_path, repair=True)
            for record in records:
                if record["version"] <= version:
                    continue  # already folded into the checkpoint
                wal_mod.apply_record(catalog, record)
                version = record["version"]
                schema_version = record["schema_version"]
        database = cls(
            catalog,
            optimize=optimize,
            statement_cache_size=statement_cache_size,
            nr_threads=nr_threads,
            fragment_rows=fragment_rows,
            path=directory,
            durable=durable,
        )
        database._head = CatalogVersion(catalog, version, schema_version)
        if database.durable:
            log = wal_mod.WriteAheadLog(wal_path)
            log.open()
            log.record_count = len(records)
            database._wal = log
        return database
