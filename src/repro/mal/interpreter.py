"""The MAL interpreter: linked plans and one ready-queue loop.

MonetDB resolves a MAL plan once and then walks it (paper, Figure 2).
:func:`link` turns a :class:`~repro.mal.program.MALProgram`, on its
first run, into a :class:`LinkedPlan` kept in ``program.linked``: a
:class:`Step` per instruction holding the registry implementation (an
undefined operation fails here), an argument template with constants in
place, the slots and parameter keys that fill the rest, the slots it
writes and frees, and whether its signature returns a BAT (only those
outputs are charged to the memory budget).  ``language.free`` becomes
the ``frees`` of the step before it or, in a plan with ``mat`` ops, a
step without implementation that waits for its variables' readers.

:meth:`Interpreter.run` executes every plan in one loop over a ready
queue, with values in a list indexed by slot; an unwritten or freed slot
holds a sentinel, so a use after free is a :class:`MALError`.  With one
thread or no ``mat`` op the queue is the program order, run on the
calling thread.  Otherwise it holds the steps whose dependencies have
completed — MonetDB's *dataflow* discipline — and fragments run on a
worker pool (the NumPy kernels release the GIL) unless a hand-off costs
more than it buys: ``INLINE_OPS``, no BAT operand, operands under
``PARALLEL_MIN_ROWS`` rows, nothing to overlap with, or a backlog of
twice the workers.  Side-effecting steps are barriers.  Every step polls
the statement's :class:`~repro.lifecycle.QueryContext` on the thread
that runs it, right before its kernel, so a cancelled statement stops
within one step per thread.  One interpreter and pool serve every
session: each run binds against the catalog snapshot passed for it.
"""

from __future__ import annotations

import functools
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
#: Read at run time, not link time: cached plans outlive appends.
PARALLEL_MIN_ROWS = 131072

#: operations that are (near) zero-cost regardless of input size —
#: never worth a pool round-trip.  ``mat.partition`` returns a view.
INLINE_OPS = {("mat", "partition"), ("bat", "getcount"), ("bat", "mirror")}

#: what a slot holds before its producer ran and after it was freed.
_UNBOUND = object()


def _output_cost(output: Any) -> tuple[int, int]:
    """(bytes, rows) one instruction materialised, for budget accounting:
    the tail values and null masks of the BATs it returned."""
    nbytes = rows = 0
    for bat in output if isinstance(output, tuple) else (output,):
        if isinstance(bat, BAT):
            tail = bat.tail
            nbytes += tail.values.nbytes + (0 if tail.mask is None else tail.mask.nbytes)
            rows += len(bat)
    return nbytes, rows


@functools.lru_cache(maxsize=1)
def _scalar_ops() -> frozenset:
    """Ops whose signature returns scalars or nothing: never charged."""
    from repro.mal.analysis.signatures import signature_table

    table = signature_table()
    return frozenset(
        op for op, sig in table.items() if all(r.kind == "scalar" for r in sig.results)
    )


@dataclass(slots=True, eq=False)
class Step:
    """One linked instruction.  ``args`` is its argument template: the
    constants, a slot at each position in ``reads``, a parameter key at
    each position in ``params``.  ``fn`` is ``None`` for a fragmented
    plan's ``language.free``; ``dependents`` are plan positions."""

    index: int
    instruction: Instruction
    fn: Optional[Callable[..., Any]]
    args: Any = ()
    reads: Any = ()
    params: tuple = ()
    outs: Any = ()
    charged: bool = False
    inline: bool = False
    frees: tuple = ()
    dependents: Any = ()


class LinkedPlan:
    """A MAL program resolved once for execution (see :func:`link`).
    ``pooled`` plans — those with ``mat`` ops — carry the dependency
    graph: ``counts[i]`` steps complete before step *i* is ready, and
    ``roots`` are ready at the start."""

    __slots__ = ("steps", "slots", "pooled", "counts", "roots")

    def __init__(self, program: MALProgram):
        instructions = program.instructions
        self.pooled = pooled = "mat" in [i.module for i in instructions]
        scalar_ops = _scalar_ops()
        slot_of: dict[str, int] = {}
        steps: list[Step] = []
        for index, instruction in enumerate(instructions):
            if instruction.function == "free" and instruction.module == "language":
                if pooled:  # a graph node: waits for producer and readers
                    steps.append(Step(index, instruction, None))
                if steps:  # else: program order, released after the step before
                    for arg in instruction.args:
                        if type(arg) is Constant and arg.value in slot_of:
                            steps[-1].frees += (slot_of[arg.value],)
                continue
            key = (instruction.module, instruction.function)
            if (fn := REGISTRY.get(key)) is None:
                raise MALError(f"undefined MAL operation {key[0]}.{key[1]}")
            args, reads, params = [], [], ()
            for position, arg in enumerate(instruction.args):
                kind = type(arg)
                if kind is Var:
                    if (slot := slot_of.get(arg.name)) is None:
                        slot = slot_of[arg.name] = len(slot_of)
                    reads.append(position)
                    args.append(slot)
                elif kind is Param:
                    params += (position,)
                    args.append(arg.key)
                else:
                    args.append(arg.value)
            outs = []
            for name in instruction.results:
                if (slot := slot_of.get(name)) is None:
                    slot = slot_of[name] = len(slot_of)
                outs.append(slot)
            steps.append(Step(
                index, instruction, fn, args, reads, params, outs,
                key not in scalar_ops, key in INLINE_OPS,
            ))
        self.steps = tuple(steps)
        self.slots = len(slot_of)
        self.counts = self.roots = ()
        if pooled:  # steps and instructions correspond one to one here
            deps = program.dependencies()
            for step in steps:
                step.dependents = []
            for index, edges in enumerate(deps):
                for producer in edges:
                    steps[producer].dependents.append(index)
            self.counts = tuple(map(len, deps))
            self.roots = tuple(s for s, n in zip(steps, self.counts) if not n)


def link(program: MALProgram) -> LinkedPlan:
    """*program*'s :class:`LinkedPlan`: resolved on first use and kept
    in ``program.linked``, which :meth:`MALProgram.emit` drops."""
    if program.linked is None:
        program.linked = LinkedPlan(program)
    return program.linked


def _bat_rows(step: Step, values: list) -> list[int]:
    """Row counts of the step's BAT operands."""
    return [len(v) for p in step.reads if isinstance(v := values[step.args[p]], BAT)]


def _execute(step: Step, values: list, context: ExecutionContext) -> None:
    """One step's work, on whichever thread runs it: the governance
    poll, the arguments, the kernel, the budget charge, the results
    (workers write distinct slots).  Governance errors are raised
    outside the kernel's try-block so they keep their PEP 249 type
    instead of being wrapped as :class:`MALError`."""
    query, op = context.query, step.instruction
    if query is not None:
        query.check()
    args = list(step.args)
    for position in step.reads:
        if (value := values[args[position]]) is _UNBOUND:
            raise MALError(f"variable {op.args[position].name!r} not bound at runtime")
        args[position] = value
    for position in step.params:
        if (key := args[position]) not in context.params:
            raise MALError(f"unbound statement parameter {op.args[position]}")
        args[position] = context.params[key]
    try:
        output = step.fn(context, *args)
    except MALError:
        raise
    except Exception as exc:  # surface kernel errors with MAL context
        raise MALError(f"{op.module}.{op.function} failed: {exc}") from exc
    if query is not None and step.charged:
        nbytes, rows = _output_cost(output)
        if nbytes or rows:
            query.note_materialised(nbytes, rows)
    outs = step.outs
    if len(outs) == 1:
        values[outs[0]] = output
    elif outs:
        if not isinstance(output, tuple) or len(output) != len(outs):
            raise MALError(f"{op.module}.{op.function}: arity mismatch")
        for slot, value in zip(outs, output):
            values[slot] = value


def _timed(step: Step, values: list, context: ExecutionContext) -> float:
    """:func:`_execute`, returning its wall-clock seconds."""
    started = time.perf_counter()
    _execute(step, values, context)
    return time.perf_counter() - started


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
        plan = link(program)
        context = ExecutionContext(catalog, params=params or {}, query=query)
        stats = ExecutionStats()
        pruned_before, faulted_before = gdk_storage.counters()
        self._loop(plan, context, stats, collect_stats, threads if plan.pooled else 1)
        pruned_after, faulted_after = gdk_storage.counters()
        stats.fragments_pruned = pruned_after - pruned_before
        stats.bytes_faulted = faulted_after - faulted_before
        return context, stats

    def _loop(self, plan, context, stats, collect_stats, threads) -> None:
        """The one interpreter loop (see the module docstring)."""
        steps, values = plan.steps, [_UNBOUND] * plan.slots
        pool = self._pool() if threads > 1 else None
        pending = None if pool is None else list(plan.counts)
        ready = deque(steps if pool is None else plan.roots)  # program order is topological
        in_flight: dict[Any, tuple[Step, int]] = {}  # future -> (step, rows)
        failure: Optional[BaseException] = None

        def finish(step: Step) -> None:
            for slot in step.frees:
                values[slot] = _UNBOUND
            if pending is not None:
                for position in step.dependents:
                    pending[position] -= 1
                    if not pending[position]:
                        ready.append(steps[position])

        while (ready or in_flight) and failure is None:
            submitted = 0
            while ready:
                step = ready.popleft()
                try:
                    if step.fn is not None:
                        rows = sum(_bat_rows(step, values)) if collect_stats else 0
                        if (
                            pool is not None
                            and not step.inline
                            and (ready or in_flight)  # something to overlap with
                            and len(in_flight) < 2 * threads  # no deep backlog
                            # no BAT operand: inline even at PARALLEL_MIN_ROWS = 0
                            and max(_bat_rows(step, values), default=-1) >= PARALLEL_MIN_ROWS
                        ):
                            in_flight[pool.submit(_timed, step, values, context)] = (step, rows)
                            submitted += 1
                            continue
                        if collect_stats:
                            seconds = _timed(step, values, context)
                            stats.record(step.index, step.instruction, rows, seconds)
                        else:
                            _execute(step, values, context)
                except BaseException as exc:  # noqa: BLE001 - cleanup path
                    failure = exc
                    break
                finish(step)
            if submitted > 1 or (submitted and len(in_flight) > 1):
                stats.parallel_batches += 1
            if failure is not None or not in_flight:
                continue
            for future in wait(in_flight, return_when=FIRST_COMPLETED)[0]:
                step, rows = in_flight.pop(future)
                try:
                    seconds = future.result()
                except BaseException as exc:  # noqa: BLE001 - cleanup path
                    failure = exc
                    continue
                if collect_stats:
                    stats.record(step.index, step.instruction, rows, seconds)
                finish(step)
        if failure is not None:
            for future in in_flight:
                future.cancel()
            wait(list(in_flight))
            raise failure
