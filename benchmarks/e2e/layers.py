"""Outside-in layer trace: spans around the engine's public functions.

No file under ``src/`` knows about this.  The untraced run executes a
statement the way a user does (:class:`PlainExecutor`:
``PreparedStatement.execute`` / ``Connection.execute``).  The traced
run executes the same statement with :class:`LayeredExecutor`, which
walks the Figure 2 pipeline itself — ``Parser.parse_statement`` →
``plan_statement`` → ``MALGenerator.generate`` → each
``OptimizerPass.apply`` of ``conn.pipeline`` → ``bind_parameters`` →
``Interpreter.run`` → ``Result.from_internal`` → ``conn.commit()`` —
and wraps each call in a span.

A span is ``(name, start, end, parent, op_id)``; spans stay in memory
until the run ends.  A layer's self time is its span minus the part
its children cover, so the spans of one op add up to the op's wall
time with the remainder reported as ``trace.unattributed_us``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass

from repro.algebra.compiler import plan_statement
from repro.algebra.malgen import MALGenerator
from repro.engine.connection import bind_parameters
from repro.engine.result import Result
from repro.mal.analysis import verify_program
from repro.sql.parser import Parser

now = time.perf_counter

#: ExecutionStats is read on every n-th layered run only.
STATS_EVERY = 4
#: MAL modules reported on their own; the rest lands in ``mal.other_us``.
MAL_MODULES = ("algebra", "batcalc", "aggr", "group", "array", "mat", "sql", "bat")


class _Span:
    """Context manager recording one span (cheaper than a generator)."""

    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        self.index = len(tracer.spans)
        parent = tracer.stack[-1] if tracer.stack else -1
        tracer.spans.append([self.name, now(), 0.0, parent, tracer.op_id])
        tracer.stack.append(self.index)
        return self

    def __exit__(self, *exc_info) -> None:
        tracer = self.tracer
        tracer.spans[self.index][2] = now()
        tracer.stack.pop()


class Tracer:
    """In-memory span store for one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1  # -1 = set-up, outside any op

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span whose bounds were measured by the caller."""
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, start, end, parent, self.op_id])

    def self_times(self) -> list[float]:
        """Per span: its duration minus what its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def dump(self) -> dict:
        """Compact JSON form: times in microseconds from the first span."""
        names = sorted({span[0] for span in self.spans})
        ids = {name: index for index, name in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        return {
            "columns": ["name", "start_us", "end_us", "parent", "op_id"],
            "names": names,
            "spans": [
                [
                    ids[name],
                    round((start - origin) * 1e6, 1),
                    round((end - origin) * 1e6, 1),
                    parent,
                    op_id,
                ]
                for name, start, end, parent, op_id in self.spans
            ],
        }


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return None


_NO_SPAN = _NoSpan()


class PlainExecutor:
    """The user's path; works on a ``Connection`` and a ``RemoteConnection``."""

    layered = False

    def __init__(self, conn):
        self.conn = conn

    def prepare(self, sql: str):
        return self.conn.prepare(sql)

    def execute(self, sql: str) -> Result:
        return self.conn.execute(sql)

    def fetching(self):
        """Wraps the caller's ``grid()`` / ``to_numpy()`` / ``scalar()``."""
        return _NO_SPAN


@dataclass
class _Compiled:
    """Stands in for a ``PreparedStatement`` on the layered path."""

    executor: "LayeredExecutor"
    program: object
    param_keys: tuple
    write_targets: frozenset

    def execute(self, params=None) -> Result:
        return self.executor.run(self, params)


class LayeredExecutor:
    """Executes statements layer by layer, one span per public call.

    Counters that are not times (instruction counts, rows, MAL module
    seconds out of ``ExecutionStats``) accumulate in ``counts``.
    """

    layered = True

    def __init__(self, conn, tracer: Tracer):
        self.conn = conn
        self.tracer = tracer
        self.counts: dict[str, float] = defaultdict(float)
        #: every statement compiled since the last ``verify_compiled``.
        self.compiled: list[_Compiled] = []
        #: durable sessions pay the WAL append inside ``conn.commit()``.
        self.commit_span = (
            "wal.append" if conn.database.durable else "engine.commit"
        )

    def prepare(self, sql: str) -> _Compiled:
        return self.compile(sql)

    def compile(self, sql: str) -> _Compiled:
        span, conn, counts = self.tracer.span, self.conn, self.counts
        with span("sql.parse"):
            parser = Parser(sql)
            statement = parser.parse_statement()
        catalog = conn.catalog
        with span("algebra.plan"):
            plan = plan_statement(statement, catalog)
        with span("algebra.malgen"):
            program = MALGenerator(catalog).generate(plan)
        counts["compiles"] += 1
        counts["malgen_instrs"] += len(program.instructions)
        with span("optimizer"):
            for optimizer_pass in conn.pipeline:
                with span("optimizer." + optimizer_pass.name):
                    program = optimizer_pass.apply(program)
        counts["instrs_out"] += len(program.instructions)
        program.param_keys = tuple(parser.parameters)
        compiled = _Compiled(
            self, program, program.param_keys, program.write_targets()
        )
        self.compiled.append(compiled)
        return compiled

    def verify_compiled(self) -> None:
        """Price ``REPRO_VERIFY_PLANS=1`` on every plan compiled so far.

        Off the default path, so callers keep it outside the ops they
        time.
        """
        for compiled in self.compiled:
            with self.tracer.span("analysis.verify"):
                verify_program(compiled.program, phase="final")
        self.compiled.clear()

    def execute(self, sql: str) -> Result:
        return self.run(self.compile(sql), None)

    def run(self, compiled: _Compiled, params) -> Result:
        span, conn = self.tracer.span, self.conn
        with span("engine.bind"):
            bindings = bind_parameters(compiled.param_keys, params)
        if compiled.write_targets:
            started = now()
            with conn.transaction() as txn:
                for target in compiled.write_targets:
                    txn.note_write(target)
                self.tracer.add("engine.begin", started, now())
                context = self._interpret(compiled, bindings)
                body_done = now()
            self.tracer.add(self.commit_span, body_done, now())
        else:
            context = self._interpret(compiled, bindings)
        with span("engine.result"):
            if context.result is None:
                return Result(affected=context.affected)
            return Result.from_internal(context.result, context.affected)

    def _interpret(self, compiled: _Compiled, bindings: dict):
        conn, counts = self.conn, self.counts
        # ExecutionStats costs two clock reads per instruction, so only
        # every STATS_EVERY-th run pays for it; the others time the
        # interpreter as the user's path runs it.
        collect = counts["runs"] % STATS_EVERY == 0
        with self.tracer.span(
            "interpreter.run_stats" if collect else "interpreter.run"
        ):
            context, stats = conn.interpreter.run(
                compiled.program,
                collect,
                bindings,
                catalog=conn.catalog,
                nr_threads=conn.nr_threads,
            )
        counts["runs"] += 1
        counts["fragments_pruned"] += stats.fragments_pruned
        counts["bytes_faulted"] += stats.bytes_faulted
        if collect:
            counts["stats_runs"] += 1
            counts["instrs"] += stats.instructions_executed
            counts["rows_processed"] += stats.rows_processed
            counts["parallel_batches"] += stats.parallel_batches
            counts["halo_fragments"] += stats.halo_fragments
            for operation, seconds in stats.seconds_per_operation.items():
                module = operation.split(".", 1)[0]
                if module not in MAL_MODULES:
                    module = "other"
                counts["mal." + module] += seconds
        return context

    def fetching(self):
        """Wraps the caller's ``grid()`` / ``to_numpy()`` / ``scalar()``."""
        return self.tracer.span("engine.result")
