"""The MAL interpreter: sequential reference and dataflow scheduler.

The sequential path executes a :class:`~repro.mal.program.MALProgram`
instruction by instruction against the module registry, exactly like
MonetDB's MAL interpreter walks the compiled plan (paper, Figure 2).

With ``nr_threads > 1`` the interpreter instead runs MonetDB's
*dataflow* discipline: instructions whose inputs are all resolved
dispatch to a thread pool, so the independent fragments produced by the
mitosis/mergetable optimizer passes execute concurrently (the NumPy
kernels release the GIL, so fragment-parallel select/calc/aggregate
work scales on real cores).  Side-effecting instructions act as
barriers, which preserves program order for catalog mutation and result
delivery; ``nr_threads=1`` keeps the exact sequential behaviour.

One interpreter (and its worker pool) is shared by every session of a
:class:`~repro.engine.database.Database`: each :meth:`Interpreter.run`
resolves catalog binds through the *catalog snapshot passed for that
execution* — the session's transaction fork or the committed head —
never through shared mutable state, so concurrent sessions schedule
onto one pool without observing each other's uncommitted writes.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from threading import Lock
from typing import Any, Callable, Optional, Union

from repro.errors import MALError
from repro.catalog import Catalog
from repro.gdk import storage as gdk_storage
from repro.gdk.bat import BAT
from repro.lifecycle import QueryContext
from repro.mal.modules import REGISTRY, load_all
from repro.mal.program import Constant, Instruction, MALProgram, Param, Var

#: instructions whose largest BAT input is below this row count run on
#: the scheduler thread — pool dispatch overhead would dominate.  A
#: hand-off is two futex wake-ups plus the GIL changing hands around
#: every kernel call, and what it costs depends on where the host put
#: the vCPUs, not on the plan: the two-fragment Life plan (65 536
#: cells, 0.1–0.3 ms kernels) takes 1.0 ms per statement with no system
#: time on the scheduler thread and 1.6–2.7 ms with 0.6 ms of it on
#: two workers (2 vCPUs, PR 19), and its throughput swung between runs.
#: Fragments of 500 000 rows (``scan_agg``) do pay: 13 ms against 20.
PARALLEL_MIN_ROWS = 131072

#: operations that are (near) zero-cost regardless of input size —
#: never worth a pool round-trip.  ``mat.partition`` returns a view.
INLINE_OPS = {("mat", "partition"), ("bat", "getcount"), ("bat", "mirror")}


def _bat_bytes(bat: BAT) -> int:
    """Approximate heap bytes of one BAT tail (values + null mask)."""
    tail = bat.tail
    nbytes = tail.values.nbytes
    if tail.mask is not None:
        nbytes += tail.mask.nbytes
    return nbytes


def _output_cost(output: Any) -> tuple[int, int]:
    """(bytes, rows) one instruction materialised, for budget accounting."""
    if isinstance(output, BAT):
        return _bat_bytes(output), len(output)
    if isinstance(output, tuple):
        nbytes = 0
        rows = 0
        for item in output:
            if isinstance(item, BAT):
                nbytes += _bat_bytes(item)
                rows += len(item)
        return nbytes, rows
    return 0, 0


@dataclass
class ExecutionContext:
    """Mutable state shared by every instruction of one execution."""

    catalog: Catalog
    result: Any = None
    affected: int = 0
    variables: dict[str, Any] = field(default_factory=dict)
    #: bind-parameter values for this execution (key -> Python scalar).
    params: dict[Any, Any] = field(default_factory=dict)
    #: governance state (cancellation token, deadline, memory budget)
    #: polled at every instruction dispatch; None = ungoverned run.
    query: Optional[QueryContext] = None


@dataclass
class ExecutionStats:
    """Profiling counters for one program run (used by benchmarks).

    ``rows_processed`` totals the BAT rows consumed by every executed
    instruction; ``rows_per_operation`` breaks that down per MAL
    operation.  ``seconds_per_operation`` / ``instruction_timings``
    hold per-instruction wall-clock time (collected under
    ``collect_stats``), ``parallel_batches`` counts the dataflow
    scheduling waves that dispatched more than one instruction
    concurrently — 0 for a fully sequential run — and
    ``halo_fragments`` counts the ``array.tilepart`` halo-fragment
    evaluations a fragmented tiling plan executed (0 when tiling ran
    whole-array).
    """

    instructions_executed: int = 0
    per_operation: dict[str, int] = field(default_factory=dict)
    rows_processed: int = 0
    rows_per_operation: dict[str, int] = field(default_factory=dict)
    #: cumulative wall-clock seconds per MAL operation.
    seconds_per_operation: dict[str, float] = field(default_factory=dict)
    #: (instruction index, "module.function", wall seconds) per executed
    #: instruction, in completion order.
    instruction_timings: list[tuple[int, str, float]] = field(default_factory=list)
    #: dataflow waves with >= 2 instructions in flight.
    parallel_batches: int = 0
    #: halo-fragment tiling kernels executed (array.tilepart calls).
    halo_fragments: int = 0
    #: fragments the select kernels skipped wholesale via zone maps.
    fragments_pruned: int = 0
    #: bytes of memory-mapped payload the scan kernels touched.
    bytes_faulted: int = 0

    def record(self, index: int, instruction: Instruction, rows: int, seconds: float) -> None:
        key = f"{instruction.module}.{instruction.function}"
        self.instructions_executed += 1
        self.per_operation[key] = self.per_operation.get(key, 0) + 1
        self.rows_processed += rows
        self.rows_per_operation[key] = self.rows_per_operation.get(key, 0) + rows
        self.seconds_per_operation[key] = (
            self.seconds_per_operation.get(key, 0.0) + seconds
        )
        if key == "array.tilepart":
            self.halo_fragments += 1
        self.instruction_timings.append((index, key, seconds))


class Interpreter:
    """Dispatching interpreter over the MAL module registry.

    ``catalog`` is the default bind target: either a
    :class:`~repro.catalog.Catalog` or a zero-argument callable
    returning one (a *provider* — the engine passes the database head
    so raw ``interpreter.run(program)`` calls always see the latest
    committed version).  Individual :meth:`run` calls override it with
    the snapshot the statement must execute against.
    """

    def __init__(
        self,
        catalog: Union[Catalog, Callable[[], Catalog], None] = None,
        nr_threads: int = 1,
    ):
        load_all()
        self.catalog = catalog
        self.nr_threads = max(1, int(nr_threads))
        self._executor: Optional[ThreadPoolExecutor] = None
        self._pool_lock = Lock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        with self._pool_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def set_threads(self, nr_threads: int) -> None:
        """Change the worker count; tears down any existing pool.

        Not safe while other sessions are mid-execution on the shared
        pool — resize at session-setup time.
        """
        nr_threads = max(1, int(nr_threads))
        if nr_threads != self.nr_threads:
            self.close()
            self.nr_threads = nr_threads

    def _pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.nr_threads,
                    thread_name_prefix="mal-dataflow",
                )
            return self._executor

    def _default_catalog(self) -> Catalog:
        if callable(self.catalog):
            return self.catalog()
        if self.catalog is None:
            raise MALError("interpreter has no catalog to execute against")
        return self.catalog

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def run(
        self,
        program: MALProgram,
        collect_stats: bool = False,
        params: dict | None = None,
        *,
        catalog: Optional[Catalog] = None,
        nr_threads: Optional[int] = None,
        query: Optional[QueryContext] = None,
    ) -> tuple[ExecutionContext, ExecutionStats]:
        """Execute *program*; returns the final context and statistics.

        ``params`` supplies the values for any late-bound
        :class:`~repro.mal.program.Param` operands of the program
        (prepared-statement re-execution).  ``catalog`` is the snapshot
        this execution binds against (default: the interpreter's own);
        ``nr_threads`` lets a session request sequential execution (1)
        or dataflow scheduling on the shared pool.  ``query`` is the
        statement's governance context: its cancellation token,
        deadline and memory budget are enforced at every instruction
        boundary (see :class:`~repro.lifecycle.QueryContext`).
        """
        if catalog is None:
            catalog = self._default_catalog()
        threads = self.nr_threads if nr_threads is None else max(1, int(nr_threads))
        context = ExecutionContext(catalog, params=params or {}, query=query)
        stats = ExecutionStats()
        pruned_before, faulted_before = gdk_storage.counters()
        if threads > 1 and self._wants_dataflow(program):
            self._run_dataflow(program, context, stats, collect_stats, threads)
        else:
            self._run_sequential(program, context, stats, collect_stats)
        pruned_after, faulted_after = gdk_storage.counters()
        stats.fragments_pruned = pruned_after - pruned_before
        stats.bytes_faulted = faulted_after - faulted_before
        return context, stats

    @staticmethod
    def _wants_dataflow(program: MALProgram) -> bool:
        """Dataflow pays off on fragmented plans; plain plans stay serial.

        Unfragmented plans are chains with almost no instruction-level
        parallelism, so the scheduler would only add dispatch latency to
        point queries (the prepared-statement fast path in particular).
        """
        flag = getattr(program, "_dataflow_worthwhile", None)
        if flag is None:
            flag = any(
                instruction.module == "mat" for instruction in program.instructions
            )
            program._dataflow_worthwhile = flag
        return flag

    # ------------------------------------------------------------------
    # sequential reference loop
    # ------------------------------------------------------------------
    def _run_sequential(
        self,
        program: MALProgram,
        context: ExecutionContext,
        stats: ExecutionStats,
        collect_stats: bool,
    ) -> None:
        env: dict[str, Any] = {}
        for index, instruction in enumerate(program.instructions):
            if instruction.module == "language" and instruction.function == "free":
                # Garbage-collection pseudo-op inserted by the optimizer.
                for arg in instruction.args:
                    if isinstance(arg, Constant):
                        env.pop(arg.value, None)
                continue
            if collect_stats:
                started = time.perf_counter()
                rows = self._execute(instruction, env, context, True)
                stats.record(
                    index, instruction, rows, time.perf_counter() - started
                )
            else:
                self._execute(instruction, env, context, False)

    # ------------------------------------------------------------------
    # dataflow scheduler
    # ------------------------------------------------------------------
    @staticmethod
    def _dependency_state(program: MALProgram) -> list[set[int]]:
        deps = getattr(program, "_dataflow_deps", None)
        if deps is None:
            deps = program.dependencies()
            program._dataflow_deps = deps
        return deps

    def _run_dataflow(
        self,
        program: MALProgram,
        context: ExecutionContext,
        stats: ExecutionStats,
        collect_stats: bool,
        nr_threads: Optional[int] = None,
    ) -> None:
        if nr_threads is None:
            nr_threads = self.nr_threads
        instructions = program.instructions
        deps = self._dependency_state(program)
        remaining = [set(edges) for edges in deps]
        dependents: list[list[int]] = [[] for _ in instructions]
        for index, edges in enumerate(deps):
            for producer in edges:
                dependents[producer].append(index)
        env: dict[str, Any] = {}
        ready: deque[int] = deque(
            index for index, edges in enumerate(remaining) if not edges
        )
        in_flight: dict[Any, int] = {}
        pool = self._pool()
        failure: Optional[BaseException] = None

        def complete(index: int) -> None:
            for dependent in dependents[index]:
                pending = remaining[dependent]
                pending.discard(index)
                if not pending:
                    ready.append(dependent)

        query = context.query
        while (ready or in_flight) and failure is None:
            if query is not None:
                # Scheduler-side poll: a cancelled/expired query stops
                # dispatching new waves even while workers are busy;
                # the failure path below cancels the pending futures.
                try:
                    query.check()
                except Exception as exc:
                    failure = exc
                    break
            submitted = 0
            while ready:
                index = ready.popleft()
                instruction = instructions[index]
                if (
                    instruction.module == "language"
                    and instruction.function == "free"
                ):
                    for arg in instruction.args:
                        if isinstance(arg, Constant):
                            env.pop(arg.value, None)
                    complete(index)
                    continue
                # Inline when there is nothing to overlap with (a lone
                # ready instruction and an idle pool), when the pool's
                # backlog is already deep enough to keep every worker
                # busy (the scheduler thread then shares the work
                # instead of queueing), or when the inputs are too
                # small to amortise pool dispatch.
                if (
                    (not ready and not in_flight)
                    or len(in_flight) >= 2 * nr_threads
                    or self._run_inline(instruction, env)
                ):
                    try:
                        if collect_stats:
                            started = time.perf_counter()
                            rows = self._execute(instruction, env, context, True)
                            stats.record(
                                index,
                                instruction,
                                rows,
                                time.perf_counter() - started,
                            )
                        else:
                            self._execute(instruction, env, context, False)
                    except BaseException as exc:  # noqa: BLE001 - cleanup path
                        failure = exc
                        break
                    complete(index)
                    continue
                future = pool.submit(
                    self._worker, index, instruction, env, context, collect_stats
                )
                in_flight[future] = index
                submitted += 1
            if submitted > 1 or (submitted and in_flight and len(in_flight) > 1):
                stats.parallel_batches += 1
            if failure is not None or not in_flight:
                continue
            finished, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            for future in finished:
                index = in_flight.pop(future)
                try:
                    rows, seconds, output = future.result()
                except BaseException as exc:  # noqa: BLE001 - cleanup path
                    failure = exc
                    continue
                self._store(instructions[index], output, env)
                if collect_stats:
                    stats.record(index, instructions[index], rows, seconds)
                complete(index)
        if failure is not None:
            for future in in_flight:
                future.cancel()
            if in_flight:
                wait(list(in_flight))
            raise failure

    @staticmethod
    def _run_inline(instruction: Instruction, env: dict[str, Any]) -> bool:
        """Small inputs run on the scheduler thread — dispatch costs more."""
        if (instruction.module, instruction.function) in INLINE_OPS:
            return True
        largest = 0
        for arg in instruction.args:
            if isinstance(arg, Var):
                value = env.get(arg.name)
                if isinstance(value, BAT):
                    length = len(value)
                    if length > largest:
                        largest = length
        return largest < PARALLEL_MIN_ROWS

    def _worker(
        self,
        index: int,
        instruction: Instruction,
        env: dict[str, Any],
        context: ExecutionContext,
        count_rows: bool,
    ) -> tuple[int, float, Any]:
        """Execute one instruction off-thread; results are stored by the
        scheduler thread, so workers never mutate the environment."""
        started = time.perf_counter()
        args, rows = self._resolve_args(instruction, env, context, count_rows)
        output = self._apply(instruction, args, context)
        return rows, time.perf_counter() - started, output

    # ------------------------------------------------------------------
    # shared execution machinery
    # ------------------------------------------------------------------
    def _resolve_args(
        self,
        instruction: Instruction,
        env: dict[str, Any],
        context: ExecutionContext,
        count_rows: bool,
    ) -> tuple[list[Any], int]:
        args: list[Any] = []
        rows = 0
        for arg in instruction.args:
            if isinstance(arg, Var):
                if arg.name not in env:
                    raise MALError(f"variable {arg.name!r} not bound at runtime")
                value = env[arg.name]
                if count_rows and isinstance(value, BAT):
                    rows += len(value)
                args.append(value)
            elif isinstance(arg, Param):
                try:
                    args.append(context.params[arg.key])
                except KeyError:
                    raise MALError(f"unbound statement parameter {arg}") from None
            else:
                args.append(arg.value)
        return args, rows

    @staticmethod
    def _apply(
        instruction: Instruction, args: list[Any], context: ExecutionContext
    ) -> Any:
        implementation = REGISTRY.get((instruction.module, instruction.function))
        if implementation is None:
            raise MALError(
                f"undefined MAL operation {instruction.module}.{instruction.function}"
            )
        # Governance boundary: the cancellation token / deadline is
        # polled before every instruction (sequential loop, inlined
        # dataflow instructions and pool workers all funnel through
        # here), and the instruction's output bytes are charged against
        # the memory budget afterwards.  Both raise outside the kernel
        # try-block so governance errors keep their PEP 249 type
        # instead of being wrapped as MALError.
        query = context.query
        if query is not None:
            query.check()
        try:
            output = implementation(context, *args)
        except MALError:
            raise
        except Exception as exc:  # surface kernel errors with MAL context
            raise MALError(
                f"{instruction.module}.{instruction.function} failed: {exc}"
            ) from exc
        if query is not None:
            nbytes, rows = _output_cost(output)
            if nbytes or rows:
                query.note_materialised(nbytes, rows)
        return output

    @staticmethod
    def _store(instruction: Instruction, output: Any, env: dict[str, Any]) -> None:
        if not instruction.results:
            return
        if len(instruction.results) == 1:
            env[instruction.results[0]] = output
            return
        if not isinstance(output, tuple) or len(output) != len(instruction.results):
            raise MALError(
                f"{instruction.module}.{instruction.function}: arity mismatch"
            )
        for name, value in zip(instruction.results, output):
            env[name] = value

    def _execute(
        self,
        instruction: Instruction,
        env: dict[str, Any],
        context: ExecutionContext,
        count_rows: bool = False,
    ) -> int:
        """Execute one instruction; returns the BAT rows it consumed.

        Row accounting only runs under *count_rows* so the non-profiled
        dispatch loop stays untouched.
        """
        args, rows = self._resolve_args(instruction, env, context, count_rows)
        self._store(instruction, self._apply(instruction, args, context), env)
        return rows
