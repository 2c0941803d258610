"""The public entry point: DB-API 2.0 sessions over a shared Database.

A :class:`Connection` is one *session* against a shared
:class:`~repro.engine.database.Database` engine.  The engine owns the
committed catalog versions, the global dataflow scheduler and the
cross-session plan cache; the session owns its transaction state, its
execution knobs and its observability counters.  Every statement still
drives the full Figure 2 pipeline for *new* statement text:

    parse → bind/compile → MAL generation → MAL optimization →
    MAL interpretation → result

Compiled plans live in the **shared** LRU statement cache keyed on the
SQL text, the session knobs and the schema version of the snapshot the
plan was compiled against, so repeated :meth:`Connection.execute` calls
— from any session — and every re-execution of a
:class:`PreparedStatement` skip straight from parameter binding to MAL
interpretation.  Committed DDL advances the schema version, which
lazily retires every stale entry.

Transactions (snapshot isolation):

* Autocommit is the default — each statement is its own transaction,
  exactly like the engine behaved before sessions existed.
* ``BEGIN`` / :meth:`Connection.begin` opens an explicit transaction: a
  copy-on-write fork of the committed snapshot.  Reads inside the
  transaction see the fork (their own staged writes included), readers
  elsewhere keep seeing committed state only.
* ``COMMIT`` publishes the fork atomically; the first committer wins —
  if a concurrent commit modified an object this transaction wrote,
  commit raises :class:`~repro.errors.OperationalError`.
* ``ROLLBACK`` discards the fork; catalog and storage are restored
  byte-identically because the committed snapshot was never touched.

Sessions are safe to share between threads (PEP 249
``threadsafety == 2``): statements on one session serialise on a
session lock, different sessions execute concurrently on the shared
scheduler.
"""

from __future__ import annotations

import re
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from repro.errors import ProgrammingError, QueryGovernanceError
from repro.lifecycle import QueryContext
from repro.catalog import Catalog
from repro.catalog.objects import Array, ColumnDef, DimensionDef
from repro.gdk.atoms import NUMPY_DTYPE, Atom, atom_for_dtype, coerce_array
from repro.gdk.bat import BAT
from repro.gdk.column import Column
from repro.algebra import nodes
from repro.algebra.compiler import plan_statement
from repro.algebra.malgen import MALGenerator
from repro.mal.interpreter import ExecutionStats
from repro.mal.analysis import annotate_program, verify_program
from repro.mal.optimizer import optimize as optimize_program
from repro.mal.program import MALProgram
from repro.sql import ast_nodes as ast
from repro.sql.parser import Parser, parse
from repro.engine.cursor import Params, Session, Statement, scalar_column, scalar_parameter
from repro.engine.database import (
    DEFAULT_STATEMENT_CACHE_SIZE,
    Database,
    Transaction,
    default_mem_budget,
    default_statement_timeout,
    resolve_durable,
    resolve_fragment_rows,
    resolve_nr_threads,
)
from repro.engine.result import Result
from repro.testing.faultpoints import crash_point

#: statements whose execution changes the schema (bumps the version).
_DDL_NODES = (
    ast.CreateTable,
    ast.CreateArray,
    ast.DropObject,
    ast.AlterArrayDimension,
)

#: transaction-control statements intercepted before the SQL parser
#: (``BEGIN`` / ``START TRANSACTION`` / ``COMMIT`` / ``ROLLBACK``).
_TXN_COMMAND = re.compile(
    r"^\s*(?:(?P<begin>BEGIN|START\s+TRANSACTION)|(?P<commit>COMMIT)"
    r"|(?P<rollback>ROLLBACK))(?:\s+(?:TRANSACTION|WORK))?\s*;?\s*$",
    re.IGNORECASE,
)


@dataclass
class CompiledStatement:
    """One fully compiled statement: the unit the plan cache stores."""

    sql: str
    program: MALProgram
    param_keys: tuple
    is_explain: bool
    is_ddl: bool
    #: plan-validity token of the snapshot this was compiled against:
    #: the committed schema version (int) or a transaction-private tuple.
    schema_token: Any
    #: a one-row parameterised INSERT ... VALUES: ``executemany`` runs
    #: the plan once with each ``?`` bound to the column of its values.
    binds_columns: bool = False
    #: lowercased catalog objects the program mutates (empty = read-only).
    write_targets: frozenset = frozenset()
    #: the parsed AST when the entry came from a script (no SQL text).
    statement: Any = None
    #: VerificationReport when compiled via EXPLAIN VERIFY, else None.
    verify_report: Any = None
    #: administrative AST node (SHOW QUERIES / KILL) — executed against
    #: the query registry instead of the MAL interpreter.
    admin: Any = None

    @property
    def is_write(self) -> bool:
        return bool(self.write_targets)


def bind_parameters(param_keys: tuple, params: Params) -> dict:
    """Validate *params* against a statement's parameter signature.

    Returns the ``key -> value`` bindings the interpreter resolves
    :class:`~repro.mal.program.Param` operands from.  Raises
    :class:`ProgrammingError` on arity or style mismatches and on
    values :func:`~repro.engine.cursor.scalar_parameter` rejects
    (:class:`~repro.errors.DataError` for an int outside ``lng``).
    """
    if not param_keys:
        if params:
            raise ProgrammingError(
                "statement takes no parameters but bindings were supplied"
            )
        return {}
    if isinstance(param_keys[0], str):  # named style (:name)
        if not isinstance(params, Mapping):
            raise ProgrammingError(
                "statement uses named parameters; supply a mapping"
            )
        bindings = {}
        for key in param_keys:
            if key not in params:
                raise ProgrammingError(f"missing value for parameter :{key}")
            bindings[key] = scalar_parameter(params[key])
        return bindings
    expected = max(param_keys) + 1  # positional style (?)
    if type(params) not in (tuple, list) and (  # skip the ABC walk for rows
        params is None
        or isinstance(params, (str, bytes, Mapping))
        or not isinstance(params, Sequence)
    ):
        raise ProgrammingError(
            f"statement takes {expected} positional parameters; "
            "supply a sequence"
        )
    if len(params) != expected:
        raise ProgrammingError(
            f"statement takes {expected} positional parameters, "
            f"{len(params)} given"
        )
    return {index: scalar_parameter(value) for index, value in enumerate(params)}


def bind_columns(param_keys: tuple, seq: list) -> dict:
    """:func:`bind_parameters` of every row of a batch, as ``key ->
    [values]``.

    Positional rows that are all tuples or lists of the right width
    are checked a column at a time; any other batch binds row by row,
    so a bad row raises what it raises alone.
    """
    if (
        isinstance(param_keys[0], int)
        and set(map(type, seq)) <= {tuple, list}
        and set(map(len, seq)) == {len(param_keys)}
    ):
        return {key: scalar_column([row[key] for row in seq]) for key in param_keys}
    rows = [bind_parameters(param_keys, params) for params in seq]
    return {key: [row[key] for row in rows] for key in param_keys}


def _ingest_column(array_values: np.ndarray, atom: Atom) -> Column:
    """Flatten one attribute ndarray into a Column (NaN/None -> NULL)."""
    flat = np.ascontiguousarray(array_values).reshape(-1)
    if atom is Atom.DBL:
        return Column(atom, flat, np.isnan(flat.astype(np.float64)))
    if atom is not Atom.STR and flat.dtype == NUMPY_DTYPE[atom]:
        return Column(atom, flat)  # the carrier already: shared, not copied
    # By the rule ``Column.cast`` applies: a uint64 past lng is NULL.
    return Column(atom, *coerce_array(flat, None, atom, atom))


_DEFAULT_DIMENSION_NAMES = ("x", "y", "z", "w")


class Connection(Session):
    """One transactional session against a shared :class:`Database`."""

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        statement_cache_size: int = DEFAULT_STATEMENT_CACHE_SIZE,
        nr_threads: Optional[int] = None,
        fragment_rows: Optional[float] = None,
        database: Optional[Database] = None,
    ):
        if database is None:
            # Single-session shorthand: a private engine this session
            # owns (closing the session closes the engine).
            database = Database(
                catalog=catalog,
                statement_cache_size=statement_cache_size,
                nr_threads=nr_threads,
                fragment_rows=fragment_rows,
            )
            self._owns_database = True
        else:
            if catalog is not None:
                raise ProgrammingError(
                    "pass either a catalog or a database, not both"
                )
            self._owns_database = False
        self._database = database
        #: execution knobs: worker threads for the dataflow scheduler and
        #: the scan fragment size.  ``nr_threads=1, fragment_rows=inf``
        #: reproduces the sequential engine exactly (plans included).
        self._nr_threads = (
            database._nr_threads
            if nr_threads is None
            else resolve_nr_threads(nr_threads)
        )
        self._fragment_rows = (
            database._fragment_rows
            if fragment_rows is None
            else resolve_fragment_rows(fragment_rows)
        )
        self.pipeline = database.pipeline_for(
            self._nr_threads, self._fragment_rows
        )
        #: statistics of the last executed statement (instruction counts).
        self.last_stats: Optional[ExecutionStats] = None
        #: session-accurate observability counters (updated race-free
        #: under the engine's cache lock).
        self.compile_count = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self._txn: Optional[Transaction] = None
        self._lock = threading.RLock()
        #: query governance: deadline (seconds; None = unbounded) and
        #: per-query memory budget (bytes; None = unbounded), seeded
        #: from REPRO_STATEMENT_TIMEOUT_MS / REPRO_MEM_BUDGET_BYTES.
        self.statement_timeout: Optional[float] = default_statement_timeout()
        self.mem_budget_bytes: Optional[int] = default_mem_budget()
        #: the statement currently executing on this session.  Guarded
        #: by ``_query_lock`` (NOT the session lock) so other threads —
        #: kill_query, the server's CANCEL path — can cancel while the
        #: executing thread holds ``_lock``.
        self._query_lock = threading.Lock()
        self._active_query: Optional[QueryContext] = None
        self._session_id = 0  # assigned by _register_session
        database._register_session(self)

    # ------------------------------------------------------------------
    # shared-engine accessors
    # ------------------------------------------------------------------
    @property
    def database(self) -> Database:
        """The shared engine this session talks to."""
        return self._database

    @property
    def catalog(self) -> Catalog:
        """The catalog this session currently sees.

        Inside a transaction: the transaction's private fork (staged
        writes included).  Otherwise: the committed head snapshot.
        It is for reading: data enters through SQL or
        :meth:`register_array`, never by mutating these objects.
        """
        txn = self._txn
        if txn is not None:
            return txn.catalog
        return self._database.head().catalog

    @property
    def interpreter(self):
        """The shared dataflow scheduler (binds against the live head)."""
        return self._database.interpreter

    # ------------------------------------------------------------------
    # execution knobs (parallel fragmented execution)
    # ------------------------------------------------------------------
    @property
    def nr_threads(self) -> int:
        """Dataflow worker threads (1 = all on the caller's thread)."""
        return self._nr_threads

    @property
    def fragment_rows(self):
        """Scan fragment size: int, ``None`` (auto) or ``inf`` (off)."""
        return self._fragment_rows

    @fragment_rows.setter
    def fragment_rows(self, value) -> None:
        self._fragment_rows = resolve_fragment_rows(value)
        self.pipeline = self._database.pipeline_for(
            self._nr_threads, self._fragment_rows
        )

    def last_profile(self) -> list[dict]:
        """Per-operation profile of the last ``collect_stats`` execution.

        Returns one entry per MAL operation, ordered by cumulative wall
        time (descending): ``{"operation", "calls", "rows", "seconds"}``.
        Returns an empty list when the last statement ran without
        ``collect_stats=True``.
        """
        stats = self.last_stats
        if stats is None:
            return []
        out = [
            {
                "operation": operation,
                "calls": stats.per_operation.get(operation, 0),
                "rows": stats.rows_per_operation.get(operation, 0),
                "seconds": seconds,
            }
            for operation, seconds in stats.seconds_per_operation.items()
        ]
        out.sort(key=lambda entry: entry["seconds"], reverse=True)
        # Storage-engine counters ride along as synthetic zero-time
        # entries so profiles expose pruning/fault behaviour without a
        # schema change: "calls" carries the count, "rows" the bytes.
        if stats.fragments_pruned:
            out.append({
                "operation": "storage.fragments_pruned",
                "calls": stats.fragments_pruned,
                "rows": 0,
                "seconds": 0.0,
            })
        if stats.bytes_faulted:
            out.append({
                "operation": "storage.bytes_faulted",
                "calls": 1,
                "rows": stats.bytes_faulted,
                "seconds": 0.0,
            })
        return out

    # ------------------------------------------------------------------
    # PEP 249 lifecycle (the rest is inherited from Session)
    # ------------------------------------------------------------------
    def _close_session(self) -> None:
        """Close this session only (rolls back any open transaction).

        :meth:`Database.close` calls this on every session, so a closed
        engine means a closed session.
        """
        with self._lock:
            self._txn = None
            self._closed = True

    def close(self) -> None:
        """Close the session; further operations raise InterfaceError.

        A session created by ``repro.connect()`` owns its private
        engine, so closing it also shuts the engine down (scheduler
        pool included).  Sessions from :meth:`Database.connect` leave
        the shared engine running.
        """
        self._close_session()
        if self._owns_database:
            self._database.close()

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    @property
    def in_transaction(self) -> bool:
        """True while an explicit transaction is open."""
        return self._txn is not None

    def begin(self) -> None:
        """Open an explicit transaction on the current committed snapshot.

        All statements until :meth:`commit` / :meth:`rollback` execute
        against a private copy-on-write fork (snapshot isolation).
        """
        with self._lock:
            self._check_open()
            if self._txn is not None:
                raise ProgrammingError("a transaction is already active")
            self._txn = self._database.begin_transaction()

    def commit(self) -> None:
        """Publish the open transaction atomically (PEP 249 commit).

        First committer wins: raises :class:`OperationalError` when a
        concurrent commit modified an object this transaction wrote
        (the transaction is rolled back in that case).  Outside a
        transaction this is a no-op — the session autocommits.
        """
        with self._lock:
            self._check_open()
            txn, self._txn = self._txn, None
            if txn is not None and txn.dirty:
                self._database.commit_transaction(txn)

    def rollback(self) -> None:
        """Discard the open transaction (PEP 249 rollback).

        The committed snapshot was never touched, so catalog and
        storage are restored exactly.  Outside a transaction this is a
        no-op.
        """
        with self._lock:
            self._check_open()
            self._txn = None

    @contextmanager
    def transaction(self):
        """``with conn.transaction() as txn:`` — begin/commit/rollback.

        Commits on clean exit, rolls back when the block raises.
        """
        # Hold the session lock for the whole span so the begin → body
        # → commit sequence is atomic with respect to other threads
        # sharing this session (their statements queue until the block
        # finishes; the lock is reentrant for the body's own calls).
        with self._lock:
            self.begin()
            try:
                yield self._txn
            except BaseException:
                self.rollback()
                raise
            else:
                self.commit()

    # ------------------------------------------------------------------
    # compilation + the shared statement cache
    # ------------------------------------------------------------------
    def _schema_token(self):
        """Plan-validity token of the snapshot this session executes on."""
        txn = self._txn
        if txn is not None:
            return txn.schema_token
        return self._database.head().schema_version

    @staticmethod
    def _generate(statement, catalog: Catalog):
        """statement → (plan, the MAL program before any optimizer pass)."""
        if isinstance(statement, ast.Explain):
            statement = statement.statement
        plan = plan_statement(statement, catalog)
        return plan, MALGenerator(catalog).generate(plan)

    def _compile(self, statement, catalog: Catalog, verify: Optional[bool] = None):
        """The one compile entry: statement → (plan, program, report).

        plan → MAL generation → the session's optimizer pipeline
        (``pipeline = ()`` runs the generated program unchanged).
        ``verify=True`` forces per-pass verification on and returns the
        final :class:`~repro.mal.analysis.VerificationReport` (``None``
        defers to ``REPRO_VERIFY_PLANS`` and yields no report).
        """
        plan, program = self._generate(statement, catalog)
        self._database.note_compile(self)
        program = optimize_program(program, self.pipeline, verify=verify)
        # The pipeline already re-checked after every pass; one final
        # run produces the report EXPLAIN VERIFY / verify_plan display.
        report = verify_program(program, phase="final") if verify else None
        return plan, program, report

    def _cache_key(self, sql: str) -> tuple:
        # The optimizer pipeline is part of the identity: ablation runs
        # swap pipelines per session, and a fragmenting pipeline is
        # interned per (nr_threads, fragment_rows) pair, so it carries
        # the plan shape those knobs decide.  The schema token makes
        # entries snapshot-valid: committed DDL mints keys no stale
        # entry can match.
        return (sql, self.pipeline, self._schema_token())

    def _build_entry(
        self, statement, param_keys: tuple, sql: str = ""
    ) -> CompiledStatement:
        """Compile *statement* against the snapshot this session sees.

        ``sql=""`` marks a script entry: it keeps the AST so
        :meth:`_refresh` can recompile without statement text.
        """
        token = self._schema_token()
        is_explain = isinstance(statement, ast.Explain)
        inner = statement.statement if is_explain else statement
        entry = CompiledStatement(
            sql,
            MALProgram(),
            param_keys,
            is_explain,
            isinstance(inner, _DDL_NODES),
            token,
            statement=None if sql else statement,
        )
        if isinstance(inner, (ast.ShowQueries, ast.KillQuery)):
            if is_explain:
                raise ProgrammingError(
                    "cannot EXPLAIN an administrative statement"
                )
            # Administrative statements never reach the planner: they
            # execute against the query registry at run time.
            entry.admin = inner
            return entry
        wants_verify = is_explain and statement.verify
        plan, entry.program, entry.verify_report = self._compile(
            inner, self.catalog, verify=True if wants_verify else None
        )
        entry.program.param_keys = param_keys
        entry.binds_columns = bool(
            param_keys
            and isinstance(plan, nodes.InsertValuesPlan)
            and len(plan.rows) == 1
        )
        if not is_explain:
            entry.write_targets = entry.program.write_targets()
        return entry

    def _compiled(self, sql: str) -> CompiledStatement:
        """Shared-cache lookup or full compile of one statement text."""
        self._check_open()
        database = self._database
        key = None
        # Plans compiled against transaction-private DDL (a tuple token)
        # are valid for that transaction only and bypass the cache.
        if (
            isinstance(self._schema_token(), int)
            and database.statement_cache_size > 0
        ):
            key = self._cache_key(sql)
            entry = database.lookup_plan(key, self)
            if entry is not None:
                return entry
        else:
            database.note_uncached_miss(self)
        parser = Parser(sql)
        statement = parser.parse_statement()
        entry = self._build_entry(statement, tuple(parser.parameters), sql)
        if key is not None:
            database.store_plan(key, entry)
        return entry

    def _refresh(self, entry: CompiledStatement) -> CompiledStatement:
        """Re-validate a compiled statement against the current snapshot."""
        if entry.schema_token == self._schema_token():
            return entry
        if entry.sql:
            return self._compiled(entry.sql)
        # script entry: recompile from the AST
        return self._build_entry(entry.statement, entry.param_keys)

    def compile(self, sql: str) -> MALProgram:
        """Compile one statement down to (optimized) MAL."""
        return self._compiled(sql).program

    def prepare(self, sql: str) -> "PreparedStatement":
        """Compile once; re-execute under fresh parameter bindings."""
        return PreparedStatement(self, self._compiled(sql))

    # ------------------------------------------------------------------
    # query lifecycle governance
    # ------------------------------------------------------------------
    @property
    def session_id(self) -> int:
        """Engine-assigned session serial (shown by ``SHOW QUERIES``)."""
        return self._session_id

    def cancel_running(self, reason: str = "") -> bool:
        """Cancel whatever statement this session is executing right now.

        Safe to call from any thread (the network server's CANCEL path
        and disconnect reclaim use it); returns False when the session
        is idle.  The executing thread aborts at its next instruction
        boundary with :class:`~repro.errors.QueryCancelledError`.
        """
        with self._query_lock:
            query = self._active_query
        if query is None:
            return False
        query.cancel(reason or "cancelled by request")
        return True

    @contextmanager
    def _governed(self, sql: str):
        """Register one top-level statement with the query registry.

        Reentrant: nested execution (``executemany`` driving
        ``_run_compiled`` per row) rides on the already-active context
        so the whole batch is one qid, one deadline and one budget.
        Callers hold the session lock, so the reuse check cannot race
        another statement of this session.

        A governance abort (cancel / deadline / budget) rolls any open
        transaction back before the error surfaces: the statement may
        have died mid-write inside the transaction fork, and a torn
        fork must never survive into the next statement.
        """
        with self._query_lock:
            active = self._active_query
        if active is not None:
            yield active
            return
        database = self._database
        query = database.register_query(
            sql,
            self._session_id,
            self.statement_timeout,
            self.mem_budget_bytes,
        )
        with self._query_lock:
            self._active_query = query
        try:
            # One upfront poll so an already-expired deadline (or a
            # pre-armed cancel) aborts even statements that never enter
            # the interpreter (empty programs, an empty executemany).
            query.check()
            yield query
        except QueryGovernanceError:
            self._txn = None
            # Kill-during-rollback must recover byte-identically: the
            # crash matrix dies here and asserts the farm digest.
            crash_point("govern.cancel_rollback")
            raise
        finally:
            with self._query_lock:
                if self._active_query is query:
                    self._active_query = None
            database.finish_query(query)

    def _admin_result(self, admin) -> Result:
        """Execute SHOW QUERIES / KILL against the query registry."""
        if isinstance(admin, ast.ShowQueries):
            rows = self._database.list_queries()
            atoms = [
                Atom.LNG, Atom.LNG, Atom.STR, Atom.DBL,
                Atom.LNG, Atom.LNG, Atom.STR,
            ]
            names = [
                "qid", "session", "status", "elapsed_ms",
                "rows", "bytes", "sql",
            ]
            return Result(
                "table",
                names,
                [
                    Column.from_pylist(atom, [row[name] for row in rows])
                    for name, atom in zip(names, atoms)
                ],
                {"dims": [], "atoms": [atom.value for atom in atoms]},
            )
        self._database.kill_query(admin.qid, f"killed by KILL {admin.qid}")
        return Result(affected=1)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(
        self, sql: str, params: Params = None, collect_stats: bool = False
    ) -> Result:
        """Execute one statement and return its result.

        ``params`` binds ``?`` (sequence) or ``:name`` (mapping)
        placeholders.  ``EXPLAIN <statement>`` returns the optimized
        MAL program text as a one-column result instead of executing
        the statement.  ``BEGIN`` / ``COMMIT`` / ``ROLLBACK`` control
        the session transaction.
        """
        command = _TXN_COMMAND.match(sql)
        if command is not None:
            self._check_open()
            if params:
                raise ProgrammingError(
                    "transaction control statements take no parameters"
                )
            if command.group("begin"):
                self.begin()
            elif command.group("commit"):
                self.commit()
            else:
                self.rollback()
            return Result()
        return self._run_compiled(self._compiled(sql), params, collect_stats)

    def _explain_result(self, program: MALProgram, report=None) -> Result:
        lines = annotate_program(program).splitlines()
        if report is not None:
            lines.append(
                f"# verified: {report.checked_ops} ops, {report.frees} frees, "
                f"{len(report.fragment_groups)} fragment groups"
            )
        return Result(
            "table",
            ["mal"],
            [Column.from_pylist(Atom.STR, lines)],
            {"dims": [], "atoms": [Atom.STR.value]},
        )

    def _execute_entry(
        self,
        entry: CompiledStatement,
        bindings: dict,
        collect_stats: bool,
        txn: Optional[Transaction] = None,
    ) -> Result:
        """Interpret *entry* in *txn*'s fork, or on the committed head."""
        if txn is None:
            catalog = self._database.head().catalog
        else:
            # Track targets before running so a half-failed statement
            # still conflicts correctly at commit time.
            txn.writes.update(entry.write_targets)
            if entry.is_ddl:
                txn.note_schema_change()
            catalog = txn.catalog
        with self._query_lock:
            query = self._active_query
        context, stats = self._database.interpreter.run(
            entry.program,
            collect_stats,
            bindings,
            catalog=catalog,
            nr_threads=self._nr_threads,
            query=query,
        )
        self.last_stats = stats if collect_stats else None
        if context.result is not None:
            return Result.from_internal(context.result, context.affected)
        return Result(affected=context.affected)

    @contextmanager
    def _autocommit(self):
        """The transaction a write stages into — the one write span.

        The session's open transaction when there is one (left open);
        otherwise fork → body → publish, all under the writer lock, so
        concurrent autocommit writers serialise instead of conflicting.
        A body that raises publishes nothing.
        """
        txn = self._txn
        if txn is not None:
            yield txn
            return
        database = self._database
        with database._writer_lock:
            txn = database.begin_transaction()
            yield txn
            database.commit_transaction(txn)

    def _run_compiled(
        self,
        entry: CompiledStatement,
        params: Params = None,
        collect_stats: bool = False,
    ) -> Result:
        self._check_open()
        if entry.is_explain:
            return self._explain_result(entry.program, entry.verify_report)
        if entry.admin is not None:
            if params:
                raise ProgrammingError(
                    "administrative statements take no parameters"
                )
            return self._admin_result(entry.admin)
        bindings = bind_parameters(entry.param_keys, params)
        with self._lock:
            with self._governed(entry.sql or "<script statement>"):
                if self._txn is None and not entry.is_write:
                    # Read-only autocommit: bind against the committed
                    # head snapshot — never blocks on, nor observes,
                    # writers.
                    return self._execute_entry(entry, bindings, collect_stats)
                with self._autocommit() as txn:
                    return self._execute_entry(
                        self._refresh(entry), bindings, collect_stats, txn
                    )

    def executemany(
        self, sql: str, seq_of_params: Iterable[Params]
    ) -> Result:
        """Execute the statement once per parameter set.

        A one-row parameterised ``INSERT ... VALUES`` runs its plan once,
        with each ``?`` bound to the column of its values.  The batch is
        one governed statement in one transaction; the returned Result
        totals the affected rows.
        """
        return self._executemany_compiled(self._compiled(sql), seq_of_params)

    def _executemany_compiled(
        self, entry: CompiledStatement, seq_of_params: Iterable[Params]
    ) -> Result:
        self._check_open()
        if entry.is_explain:
            raise ProgrammingError("cannot executemany an EXPLAIN statement")
        if entry.admin is not None:
            raise ProgrammingError(
                "cannot executemany an administrative statement"
            )
        seq = list(seq_of_params)
        # The whole batch is one governed statement: one qid, one
        # deadline, one budget — KILL aborts every remaining row.
        with self._lock, self._governed(entry.sql or "<script statement>"):
            if not entry.is_write:
                total = 0
                for params in seq:
                    total += self._run_compiled(entry, params).affected
                return Result(affected=total)
            # One transaction for the whole batch: a single fork +
            # publish instead of one per parameter row, and the batch
            # becomes atomic (all rows or none).
            with self._autocommit() as txn:
                entry = self._refresh(entry)
                if entry.binds_columns and seq:
                    columns = bind_columns(entry.param_keys, seq)
                    return self._execute_entry(entry, columns, False, txn)
                rows = [bind_parameters(entry.param_keys, params) for params in seq]
                total = 0
                for bindings in rows:
                    total += self._execute_entry(entry, bindings, False, txn).affected
                return Result(affected=total)

    def execute_script(self, sql: str) -> list[Result]:
        """Execute a ``;``-separated script; returns one result each.

        Each statement autocommits, or stages into the session's open
        transaction.  Transaction-control statements
        (``BEGIN``/``COMMIT``/``ROLLBACK``) are not part of the script
        grammar — open a transaction around the call instead
        (``with conn.transaction(): conn.execute_script(...)``).
        """
        self._check_open()
        parser = Parser(sql)
        statements = parser.parse_script()
        if parser.parameters:
            raise ProgrammingError("bind parameters are not allowed in scripts")
        return [
            self._run_compiled(self._build_entry(statement, ()))
            for statement in statements
        ]

    # ------------------------------------------------------------------
    # plan inspection
    # ------------------------------------------------------------------
    def explain(self, sql: str) -> str:
        """The optimized MAL program of a statement as MAL surface text.

        The listing is prefixed with a stable content digest and one
        line per fragment group, so plan-shape regressions
        diff cleanly in golden tests.
        """
        return annotate_program(self.compile(sql))

    def verify_plan(self, sql: str):
        """Statically verify the optimized plan of *sql*.

        Recompiles the statement with per-pass verification forced on
        (regardless of ``REPRO_VERIFY_PLANS``) and returns the final
        :class:`~repro.mal.analysis.VerificationReport`; a malformed
        plan raises :class:`~repro.errors.PlanVerificationError`
        naming the offending pass and instruction.
        """
        self._check_open()
        _, _, report = self._compile(parse(sql), self.catalog, verify=True)
        return report

    def explain_unoptimized(self, sql: str) -> str:
        """The MAL program before the optimizer pipeline runs."""
        self._check_open()
        return self._generate(parse(sql), self.catalog)[1].to_text()

    # ------------------------------------------------------------------
    # NumPy array ingestion
    # ------------------------------------------------------------------
    def register_array(
        self,
        name: str,
        values: Union[np.ndarray, Mapping[str, np.ndarray]],
        dims: Optional[Sequence[str]] = None,
        attribute: str = "v",
    ) -> Array:
        """Install an ndarray as a SciQL array: the one door for NumPy data.

        ``values`` is one ndarray (stored under *attribute*) or a
        mapping of attribute name to ndarray (all of one shape).  Each
        axis becomes an INT dimension ``[0:1:size]`` named after
        ``dims`` (default ``x``, ``y``, ``z``, ``w``, then ``d4``...).
        Float NaNs and object-array ``None`` entries become NULL cells,
        so round-tripping through ``Result.grid()`` is exact.  An
        ndarray already in its atom's carrier dtype is shared, not
        copied: pass a copy if you will write to it later.  The
        installation is transactional DDL: it stages into an open
        transaction, or publishes immediately under autocommit.
        """
        self._check_open()
        if isinstance(values, Mapping):
            arrays = {key: np.asarray(value) for key, value in values.items()}
        else:
            arrays = {attribute: np.asarray(values)}
        if not arrays:
            raise ProgrammingError("register_array needs at least one attribute")
        shapes = {array.shape for array in arrays.values()}
        if len(shapes) != 1:
            raise ProgrammingError(
                f"attribute arrays must share one shape, got {sorted(shapes)}"
            )
        shape = shapes.pop()
        if len(shape) == 0:
            raise ProgrammingError("register_array needs at least one axis")
        if dims is None:
            dims = [
                _DEFAULT_DIMENSION_NAMES[i]
                if i < len(_DEFAULT_DIMENSION_NAMES)
                else f"d{i}"
                for i in range(len(shape))
            ]
        if len(dims) != len(shape):
            raise ProgrammingError(
                f"array has {len(shape)} axes but {len(dims)} dimension names"
            )
        dimensions = [
            DimensionDef(dim_name, Atom.INT, 0, 1, int(size))
            for dim_name, size in zip(dims, shape)
        ]
        atoms = {
            attr: atom_for_dtype(array.dtype) for attr, array in arrays.items()
        }
        attributes = [ColumnDef(attr, atoms[attr]) for attr in arrays]
        with self._lock, self._autocommit() as txn:
            array_obj = txn.catalog.create_array(name, dimensions, attributes)
            for attr, array in arrays.items():
                array_obj.bats[attr] = BAT(_ingest_column(array, atoms[attr]))
            txn.note_write(name)
            txn.note_schema_change()
            return array_obj

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, directory: str | Path) -> None:
        """Persist the committed database under *directory* (the "farm").

        The farm swap is atomic; staged (uncommitted) transaction state
        is not included.
        """
        self._check_open()
        self._database.save(directory)


class PreparedStatement(Statement):
    """A statement compiled once, re-executed under fresh bindings.

    Re-execution skips lexing, parsing, binding, MAL generation and
    optimization entirely: only parameter validation and MAL
    interpretation run.  If the schema changed since compilation the
    statement transparently re-prepares itself first.
    """

    def __init__(self, connection: Connection, compiled: CompiledStatement):
        super().__init__(connection, compiled.sql, compiled.param_keys)
        self._compiled = compiled

    @property
    def program(self) -> MALProgram:
        """The compiled (optimized) MAL program."""
        return self._compiled.program

    def execute(self, params: Params = None, collect_stats: bool = False) -> Result:
        """Run the compiled plan under *params*."""
        self._check_open()
        self._compiled = self.connection._refresh(self._compiled)
        return self.connection._run_compiled(self._compiled, params, collect_stats)

    def executemany(self, seq_of_params: Iterable[Params]) -> Result:
        """Run once per parameter set; the Result totals affected rows.

        A one-row parameterised INSERT runs its plan once, as in
        :meth:`Connection.executemany`.
        """
        self._check_open()
        self._compiled = self.connection._refresh(self._compiled)
        return self.connection._executemany_compiled(self._compiled, seq_of_params)

    def explain(self) -> str:
        """MAL surface text of the compiled plan."""
        return self.program.to_text()


def connect(
    path: Optional[str | Path] = None,
    statement_cache_size: int = DEFAULT_STATEMENT_CACHE_SIZE,
    nr_threads: Optional[int] = None,
    fragment_rows: Optional[float] = None,
    durable: bool = False,
    **client_options,
) -> Connection:
    """Create a session: in-memory by default, or load a saved farm.

    The returned :class:`Connection` owns a private
    :class:`Database`; use ``conn.database.connect()`` (or build a
    :class:`Database` directly) for additional concurrent sessions
    against the same store.

    ``nr_threads`` sizes the dataflow scheduler's worker pool (default:
    auto from ``os.cpu_count()``, capped at 8; 1 keeps the sequential
    interpreter).  ``fragment_rows`` sizes the scan fragments
    (default: auto — roughly one fragment per worker for large scans;
    ``float('inf')`` disables fragmentation).  Both accept
    ``REPRO_NR_THREADS`` / ``REPRO_FRAGMENT_ROWS`` environment
    overrides when not given explicitly.  ``durable=True`` (with a
    *path*) makes every commit crash-safe: the commit's logical delta
    is fsync'd to a write-ahead log (``<path>.wal``) before the commit
    returns, and checkpoints fold the log into the farm; reopening the
    path replays the log automatically.  ``durable`` is a bool — to
    republish the whole farm at a moment of your choosing call
    :meth:`Connection.save` or :meth:`Database.checkpoint`.

    *path* may also be a ``repro://host:port`` URL, in which case the
    call connects to a running :mod:`repro.net` server instead and
    returns a :class:`~repro.net.client.RemoteConnection`: the same
    :class:`~repro.engine.cursor.Session` / cursor / prepared-statement
    surface over a socket (the remaining keyword arguments are
    server-side concerns and are ignored for remote sessions).
    Extra keyword arguments — ``user``, ``password``, ``batch_rows``,
    ``timeout``, ``statement_timeout_ms`` — are client options
    forwarded to the remote connection and are an error otherwise.

    ``durable`` without a *path* cannot be honoured — there is no farm
    to log against — so it emits a :class:`DurabilityWarning` and
    continues in memory.
    """
    if isinstance(path, str) and path.startswith("repro://"):
        from repro.net.client import connect_url

        return connect_url(path, **client_options)
    if client_options:
        raise ProgrammingError(
            f"option(s) {sorted(client_options)} only apply to "
            "repro:// URLs"
        )
    if path is None:
        resolve_durable(durable, None)
        return Connection(
            statement_cache_size=statement_cache_size,
            nr_threads=nr_threads,
            fragment_rows=fragment_rows,
        )
    # Opening runs crash recovery (checkpoint + write-ahead-log replay;
    # see Database.open); the session owns the freshly loaded engine.
    session = Database.open(
        Path(path),
        statement_cache_size=statement_cache_size,
        nr_threads=nr_threads,
        fragment_rows=fragment_rows,
        durable=durable,
    ).connect()
    session._owns_database = True
    return session
