"""Measurement loops shared by every workload.

Load model: closed loop, one client thread — a DB-API caller waits for
its reply before it sends the next statement.  The only other threads
are the engine's own dataflow workers at default knobs, plus one
server process for ``remote_fetch`` and one engine child for
``durable_commit``.

A workload is a cycle of *parts* (statement classes).  An *op* — the
unit whose latency is reported — is one part, or for short cycles the
whole cycle (``parts_per_op``).  Each part's answer is checked against
the workload's NumPy oracle right after it was timed; the check is
outside the timed window.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

from calibrate import CALIBRATE_EVERY_S, Calibrator
from layers import MAL_MODULES, LayeredExecutor, PlainExecutor, Tracer
from oracles import same

now = time.perf_counter
cpu_now = time.process_time

#: share of the run spent warming plan caches, lazy imports and mapped
#: pages before anything is timed.
WARMUP_SHARE = 0.03


@dataclass
class Samples:
    """Raw per-op measurements of one timed loop."""

    latency: list = field(default_factory=list)  # seconds per op
    cpu: list = field(default_factory=list)  # process CPU seconds per op
    #: machine slowdown around each op (see :class:`Calibrator`).
    slowdown: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: CPU seconds and peak RSS (KiB) of engine processes other than
    #: the one that ran the loop (the ``remote_fetch`` server).
    other_cpu_s: float = 0.0
    other_rss_kb: int = 0
    #: peak RSS (KiB) of the process that ran the loop.
    rss_kb: int = 0


class Workload:
    """Base class: one benchmark workload (see ``workloads.py``)."""

    name = ""
    #: the statement classes of one cycle, in execution order.
    parts: tuple = ("op",)
    #: parts per reported op: 1, or ``len(parts)`` for whole-cycle ops.
    parts_per_op = 1
    #: ops of the traced pass (fixed, so exact counts repeat exactly).
    traced_ops = 100
    #: per-layer metric name and unit scale for a class's plain latency.
    class_metrics: dict = {}
    #: bytes of column data the ops read (picks the Calibrator's probes).
    data_bytes = 0

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir
        self.conn = None

    # -- life cycle ----------------------------------------------------
    def setup(self) -> None:
        """Everything ``setup_s`` counts: generate, load, save, open."""
        raise NotImplementedError

    def build_oracle(self) -> None:
        """Expected answers that need precomputing (not part of set-up)."""

    def attach(self, executor):
        """Prepare this workload's statements on *executor*."""
        raise NotImplementedError

    def layered_conn(self):
        """The in-process session the layered executor drives."""
        return self.conn

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None

    # -- ops -------------------------------------------------------------
    def part_class(self, n: int) -> str:
        return self.parts[n % len(self.parts)]

    def is_write(self, n: int) -> bool:
        return False

    def part(self, n: int, executor, statements):
        """Execute the *n*-th part and return its fetched answer."""
        raise NotImplementedError

    def check(self, n: int, value) -> bool:
        raise NotImplementedError

    def finish(self) -> bool:
        """End-of-run state check (boards, scratch arrays)."""
        return True

    def layer_probes(self, latencies: list) -> dict:
        """Workload-specific per-layer metrics (kernel-only calls, ...).

        *latencies* holds every part latency of the traced pass.
        """
        return {}

    def engine_pids(self) -> list:
        """Engine processes other than this one (the server)."""
        return []

    # -- measurement entry points (overridden by durable_commit) --------
    def measure(self, seconds: float) -> Samples:
        executor = PlainExecutor(self.conn)
        pids = self.engine_pids()
        cpu_before = sum(process_cpu_s(pid) for pid in pids)
        samples = timed_loop(self, executor, self.attach(executor), seconds)
        samples.other_cpu_s = sum(process_cpu_s(pid) for pid in pids) - cpu_before
        samples.other_rss_kb = sum(process_peak_rss_kb(pid) for pid in pids)
        samples.rss_kb = peak_rss_kb()
        return samples

    def trace(self, seconds: float) -> "TraceResult":
        plain = PlainExecutor(self.conn)
        layered = LayeredExecutor(self.layered_conn(), Tracer())
        return traced_loop(self, plain, layered, seconds)


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def process_cpu_s(pid: int) -> float:
    """user + system CPU seconds of another live process (Linux procfs)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def process_peak_rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def timed_loop(workload: Workload, executor, statements, seconds: float) -> Samples:
    """Warm up, then run whole ops until *seconds* have passed."""
    samples = Samples()
    calibrator = Calibrator(workload.data_bytes)
    per_op = workload.parts_per_op
    cycle = len(workload.parts) // per_op  # ops per cycle
    part, check = workload.part, workload.check
    latency, cpu, ended = samples.latency, samples.cpu, []
    op = 0
    probed = calibrator.sample()
    for timed, budget in ((False, seconds * WARMUP_SHARE), (True, seconds)):
        deadline = now() + budget
        while True:
            first = op * per_op
            c0 = cpu_now()
            t0 = now()
            try:
                values = [
                    part(n, executor, statements)
                    for n in range(first, first + per_op)
                ]
                t1 = now()
                c1 = cpu_now()
                ok = all(
                    check(n, value)
                    for n, value in zip(range(first, first + per_op), values)
                )
            except Exception as exc:  # an op that raises is a failed op
                t1, c1, ok = now(), cpu_now(), False
                if samples.failed == 0:
                    print(f"# {workload.name}: op {op} raised {exc!r}")
            samples.attempted += 1
            samples.failed += not ok
            if timed:
                latency.append(t1 - t0)
                cpu.append(c1 - c0)
                ended.append(t1)
            op += 1
            if t1 - probed >= CALIBRATE_EVERY_S:
                probed = calibrator.sample()
            if op % cycle == 0 and now() >= deadline:
                break
    calibrator.sample()
    samples.slowdown = calibrator.slowdown_at(ended).tolist()
    samples.attempted += 1
    samples.failed += not workload.finish()
    return samples


# ----------------------------------------------------------------------
# the traced pass
# ----------------------------------------------------------------------
@dataclass
class TraceResult:
    metrics: dict  # per-layer metric name -> value
    shares: dict  # layer -> share of layered op time
    spans: dict  # Tracer.dump()
    attempted: int = 0
    failed: int = 0
    truncated: bool = False


def traced_loop(
    workload: Workload, plain, layered: LayeredExecutor, seconds: float
) -> TraceResult:
    """Run each part the user's way and layer by layer, and compare.

    Read parts run both ways and the two answers must be equal.  Write
    parts alternate between the two paths (they cannot run twice on
    one state) and both paths are held to the same oracle.  The pass
    runs ``traced_ops`` ops, or fewer if *seconds* run out first.
    """
    tracer = layered.tracer
    plain_statements = workload.attach(plain)
    layered_statements = workload.attach(layered)
    session = workload.conn
    lookups_before = _cache_counters(session)
    plain_lat: dict = defaultdict(list)
    layered_lat: dict = defaultdict(list)
    first_cycle = 0.0
    attempted = failed = 0
    truncated = False
    cycle = len(workload.parts)
    deadline = now() + seconds
    for n in range(workload.traced_ops * workload.parts_per_op):
        if n % cycle == 0 and now() >= deadline:
            truncated = True
            break
        cls = workload.part_class(n)
        both = not workload.is_write(n)
        try:
            if both or n % 2 == 0:
                t0 = now()
                value = plain_value = workload.part(n, plain, plain_statements)
                elapsed = now() - t0
                plain_lat[cls].append(elapsed)
                if n < cycle:
                    first_cycle += elapsed
            if both or n % 2 == 1:
                tracer.op_id = n
                with tracer.span("op") as root:
                    value = workload.part(n, layered, layered_statements)
                tracer.op_id = -1  # verification is not part of the op
                _, started, ended, _, _ = tracer.spans[root.index]
                layered_lat[cls].append(ended - started)
                layered.verify_compiled()
            ok = workload.check(n, value)
            if both:
                ok = ok and same(value, plain_value)
        except Exception as exc:  # a part that raises is a failed part
            ok = False
            tracer.stack.clear()
            if failed == 0:
                print(f"# {workload.name}: traced part {n} raised {exc!r}")
        tracer.op_id = -1
        attempted += 1
        failed += not ok
    attempted += 1
    failed += not workload.finish()

    metrics = _layer_metrics(tracer, layered.counts, plain_lat, layered_lat)
    hits, misses, compiles = (
        after - before
        for after, before in zip(_cache_counters(session), lookups_before)
    )
    metrics["engine.compile_count"] = compiles
    metrics["engine.plan_cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 1.0
    )
    for cls, (name, scale) in workload.class_metrics.items():
        if cls == "first_cycle":
            metrics[name] = first_cycle * scale
        elif plain_lat.get(cls):
            metrics[name] = statistics.median(plain_lat[cls]) * scale
    latencies = [v for values in plain_lat.values() for v in values]
    latencies += [v for values in layered_lat.values() for v in values]
    metrics.update(workload.layer_probes(latencies))
    return TraceResult(
        metrics, _shares(tracer, layered.counts), tracer.dump(),
        attempted, failed, truncated,
    )


def _cache_counters(session) -> tuple[int, int, int]:
    """(hits, misses, compiles) of the session the plain path uses."""
    if hasattr(session, "cache_hits"):
        return session.cache_hits, session.cache_misses, session.compile_count
    stats = session.stats()  # remote session: the server's engine counters
    return stats["cache_hits"], stats["cache_misses"], stats["compile_count"]


def _instruction_seconds(counts) -> float:
    return sum(seconds for key, seconds in counts.items() if key.startswith("mal."))


def _layer_metrics(tracer: Tracer, counts, plain_lat, layered_lat) -> dict:
    """Per-layer metrics every workload shares (see README glossary).

    Compile stages are means per compile, interpreter and MAL module
    times means per run, result/unattributed means per layered part.
    """
    seconds: dict = defaultdict(float)  # span name -> inclusive seconds
    calls: dict = defaultdict(int)
    own: dict = defaultdict(float)  # span name -> self seconds
    for (name, start, end, _, _), self_s in zip(tracer.spans, tracer.self_times()):
        seconds[name] += end - start
        calls[name] += 1
        own[name] += self_s

    def mean_us(name: str) -> float:
        return seconds[name] / calls[name] * 1e6 if calls[name] else 0.0

    metrics = {
        "sql.parse_us": mean_us("sql.parse"),
        "algebra.plan_us": mean_us("algebra.plan"),
        "algebra.malgen_us": mean_us("algebra.malgen"),
        "optimizer.total_us": mean_us("optimizer"),
        "analysis.verify_us": mean_us("analysis.verify"),
        "engine.commit_us": mean_us("engine.commit"),
        "wal.append_us": mean_us("wal.append"),
        "interpreter.run_us": mean_us("interpreter.run"),
    }
    for name in [name for name in calls if name.startswith("optimizer.")]:
        metrics[name + "_us"] = mean_us(name)
    compiles = counts["compiles"] or 1
    metrics["algebra.malgen_instrs"] = counts["malgen_instrs"] / compiles
    metrics["optimizer.instrs_out"] = counts["instrs_out"] / compiles

    runs = counts["runs"] or 1
    stats_runs = counts["stats_runs"] or 1
    metrics["interpreter.instrs_per_op"] = counts["instrs"] / stats_runs
    # Negative when fragments ran in parallel: instruction seconds add
    # up across worker threads, the span is wall time.
    metrics["interpreter.overhead_us"] = (
        (seconds["interpreter.run_stats"] - _instruction_seconds(counts))
        / stats_runs * 1e6
    )
    metrics["interpreter.parallel_batches"] = counts["parallel_batches"] / stats_runs
    for module in (*MAL_MODULES, "other"):
        metrics[f"mal.{module}_us"] = counts["mal." + module] / stats_runs * 1e6
    metrics["mal.rows_processed"] = counts["rows_processed"] / stats_runs
    metrics["gdk.halo_fragments"] = counts["halo_fragments"] / stats_runs
    metrics["gdk.fragments_pruned"] = counts["fragments_pruned"] / runs
    metrics["gdk.bytes_faulted"] = counts["bytes_faulted"] / runs

    layered_parts = sum(len(values) for values in layered_lat.values()) or 1
    unattributed_s = own["op"] / layered_parts
    metrics["engine.result_us"] = seconds["engine.result"] / layered_parts * 1e6
    metrics["trace.unattributed_us"] = unattributed_s * 1e6

    # What the user's path spends beyond the layer functions (binding
    # bookkeeping, governance registration, locks, plan-cache lookup):
    # its wall time minus the layered path's attributed time, per class.
    overhead = weight = plain_p50 = layered_p50 = 0.0
    for cls, plain_values in plain_lat.items():
        layered_values = layered_lat.get(cls)
        if not layered_values:
            continue
        overhead += len(plain_values) * (
            statistics.fmean(plain_values)
            - (statistics.fmean(layered_values) - unattributed_s)
        )
        weight += len(plain_values)
        plain_p50 += statistics.median(plain_values)
        layered_p50 += statistics.median(layered_values)
    metrics["engine.session_overhead_us"] = overhead / weight * 1e6 if weight else 0.0
    metrics["trace.overhead_ratio"] = layered_p50 / plain_p50 if plain_p50 else 0.0
    metrics["trace.overhead_base_us"] = plain_p50 * 1e6
    return metrics


def _layer_of(name: str) -> str:
    """The layer (module) a span's self time is reported under."""
    if name == "op":
        return "unattributed"
    if name.startswith("interpreter"):
        return "mal.interpreter"
    if name.startswith("engine"):
        return name
    return name.split(".", 1)[0]


def _shares(tracer: Tracer, counts) -> dict:
    """Each layer's share of the layered parts' wall time (self times).

    The interpreter's share is split into the MAL module kernels and
    the dispatch loop around them, in the proportion the runs with
    ExecutionStats measured.
    """
    per_layer: dict = defaultdict(float)
    stats_run_s = 0.0
    for (name, start, end, _, op_id), self_s in zip(tracer.spans, tracer.self_times()):
        if op_id >= 0:
            per_layer[_layer_of(name)] += self_s
        if name == "interpreter.run_stats":
            stats_run_s += end - start
    if stats_run_s:
        kernel_share = min(1.0, _instruction_seconds(counts) / stats_run_s)
        interpreter_s = per_layer.pop("mal.interpreter", 0.0)
        per_layer["mal.modules"] = interpreter_s * kernel_share
        per_layer["mal.interpreter"] = interpreter_s * (1.0 - kernel_share)
    total = sum(per_layer.values()) or 1.0
    return {layer: seconds / total for layer, seconds in sorted(per_layer.items())}
