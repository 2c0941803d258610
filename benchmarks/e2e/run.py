#!/usr/bin/env python3
"""The repo benchmark: one command, eight workloads, every metric by name.

    python3 benchmarks/e2e/run.py [--seed S] [--workload W] [--seconds F]
                                  [--trace [0|1]] [--repeat N] [--out FILE]

With ``--workload W`` the workload runs in this process and the last
line of standard output is one JSON object (the contract
``BENCHMARK.json`` describes): the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separate traced pass with
``--trace 1``.  Without ``--workload`` (or with ``--repeat`` /
``--out``) every workload runs in a child process of its own, so peak
RSS and CPU are per workload; ``--trace`` adds the traced pass after
each untraced one, ``--repeat N`` reports median and quartiles, and
``--out`` keeps the runs for ``compare.py``.

Metric names, units, directions and bounds live in ``BENCHMARK.json``
and nowhere else.  The harness claims no gain; it is the ruler.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
now = time.perf_counter

#: set-up runs once untimed (lazy imports, first compiles, the
#: allocator's first page faults), then this often timed, and the median
#: is reported.  A fixed count, so that peak RSS (which grows with every
#: repeat's garbage) does not depend on how fast the machine happened
#: to be.
SETUP_REPEATS = 5


def release_memory() -> None:
    """Hand freed heap back to the OS, so that every set-up repeat starts
    from the same allocator state (whether glibc reuses the last
    repeat's arenas or maps fresh pages is a 3x swing in set-up time)."""
    gc.collect()
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim(0)


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def meta(seed: int) -> dict:
    """What a number is worthless without: where and how it was taken."""
    import numpy
    from repro import knobs

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "knobs": {knob.name: knobs.raw(knob.name) for knob in knobs.KNOBS},
    }


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def set_up(cls, seed: int, workdir, calibrator, repeats: int):
    """Set the workload up ``1 + repeats`` times; the last one is kept.

    Returns it and the ``(start, end)`` times of the timed repeats, with
    machine-speed probes on both sides of each.
    """
    setups = []
    while True:
        workload = cls(seed, workdir)
        try:
            calibrator.sample()
            started = calibrator.sample()
            workload.setup()
            setups.append((started, now()))
            calibrator.sample()
            calibrator.sample()
        except BaseException:
            workload.close()
            raise
        if len(setups) > repeats:
            return workload, setups[1:]  # the first one was the warm-up
        workload.close()
        release_memory()


def end_to_end(samples, setups, calibrator) -> dict:
    """The end-to-end metrics, every time at reference machine speed:
    divided by the slowdown the interleaved probes saw (calibrate.py)."""
    import numpy as np

    ops = len(samples.latency)
    slowdown = np.array(samples.slowdown)
    latency = np.array(samples.latency) / slowdown
    cpu_s = (np.array(samples.cpu) / slowdown).sum()
    cpu_s += samples.other_cpu_s / np.median(slowdown)
    starts, ends = np.array(setups).T
    setup = (ends - starts) / calibrator.slowdown_at((starts + ends) / 2)
    print(f"# {ops} timed ops, {len(setups)} timed set-ups, failed_ratio "
          f"{samples.failed / samples.attempted:.6g}")
    print(f"# machine slowdown during the run: median {np.median(slowdown):.3f}, "
          f"range {slowdown.min():.3f}-{slowdown.max():.3f}; as-measured p50 "
          f"{np.percentile(samples.latency, 50) * 1e3:.6g} ms, p90 "
          f"{np.percentile(samples.latency, 90) * 1e3:.6g} ms, set-up "
          f"{np.median(ends - starts):.6g} s")
    return {
        "latency_p50_ms": float(np.percentile(latency, 50)) * 1e3,
        "latency_p90_ms": float(np.percentile(latency, 90)) * 1e3,
        "ops_per_s": ops / float(latency.sum()),
        "cpu_ms_per_op": float(cpu_s) / ops * 1e3,
        "peak_rss_mb": (samples.rss_kb + samples.other_rss_kb) / 1024,
        "setup_s": float(np.median(setup)),
    }


def per_layer(name: str, result, listed: dict, run_meta: dict) -> dict:
    """The traced pass's metrics; spans and shares go to ``out/``."""
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{name}.json", "w") as handle:
        json.dump(
            {"workload": name, "meta": run_meta, "metrics": result.metrics,
             "shares": result.shares, **result.spans},
            handle,
        )
    for extra in sorted(set(result.metrics) - set(listed)):
        print(f"# base {extra} = {result.metrics[extra]:.6g}")
    if result.truncated:
        print("# traced pass hit --seconds before its op count")
    shares = {layer: round(share, 4) for layer, share in result.shares.items()}
    print(f"# layer shares {json.dumps(shares)}")
    return {metric: result.metrics.get(metric, 0.0) for metric in listed}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from calibrate import Calibrator
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        sys.exit(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    section = load_contract()["per_layer" if trace else "end_to_end"]
    listed = {metric["name"]: metric["unit"] for metric in section}
    run_meta = meta(seed)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = None
    try:
        calibrator = Calibrator(WORKLOADS[name].data_bytes)
        workload, setups = set_up(
            WORKLOADS[name], seed, workdir, calibrator, 0 if trace else SETUP_REPEATS
        )
        workload.build_oracle()
        if trace:
            result = workload.trace(seconds)
            values = per_layer(name, result, listed, run_meta)
        else:
            result = workload.measure(seconds)
            measured = end_to_end(result, setups, calibrator)
            values = {metric: measured[metric] for metric in listed}
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"# meta {json.dumps(run_meta)}")
    for metric, value in values.items():
        print(f"{name}.{metric} = {value:.6g} {listed[metric]}")
    return {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            metric: {"value": value, "unit": listed[metric]}
            for metric, value in values.items()
        },
    }


# ----------------------------------------------------------------------
# every workload, each in a child process
# ----------------------------------------------------------------------
def run_child(name: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.exit(f"{name} failed:\n{done.stdout}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        if line.startswith("#"):
            print(f"  {name}: {line[2:]}")
    return json.loads(lines[-1])


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_all(names: list, seed: int, seconds: float, trace: bool, repeat: int, out) -> dict:
    contract = load_contract()
    runs = []
    for round_ in range(repeat):
        for name in names:
            for traced in (0, 1) if trace else (0,):
                print(f"[{round_ + 1}/{repeat}] {name} trace={traced}", flush=True)
                result = run_child(name, seed, seconds, traced)
                runs.append({"workload": name, "trace": traced, **result})
    print(f"\n{'workload':<20}{'metric':<34}{'median':>14} {'unit':<8}{'q1':>14}{'q3':>14}")
    for name in names:
        for traced, section in ((0, "end_to_end"), (1, "per_layer")):
            mine = [r for r in runs if r["workload"] == name and r["trace"] == traced]
            if not mine:
                continue
            failed = sum(r["failed"] for r in mine)
            attempted = sum(r["attempted"] for r in mine)
            print(f"{name:<20}{'failed_ratio':<34}{failed / attempted:>14.6g}")
            for metric in contract[section]:
                values = [r["metrics"][metric["name"]]["value"] for r in mine]
                q1, q2, q3 = quartiles(values)
                print(f"{name:<20}{metric['name']:<34}{q2:>14.6g} "
                      f"{metric['unit']:<8}{q1:>14.6g}{q3:>14.6g}")
    record = {"seed": seed, "seconds": seconds, "repeat": repeat, "runs": runs}
    if out:
        with open(out, "w") as handle:
            json.dump(record, handle, indent=1)
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no engine source at {SRC}: nothing to measure", file=sys.stderr)
        return 2
    # Default knobs only: a stray override would silently change the plan.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    sys.path[:0] = [str(SRC), str(HERE)]
    seconds = args.seconds
    if seconds is None:
        seconds = load_contract()["run_seconds"]
    if args.workload and args.repeat == 1 and not args.out:
        print(json.dumps(run_workload(args.workload, args.seed, seconds, bool(args.trace))))
        return 0
    from workloads import WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    run_all(names, args.seed, seconds, bool(args.trace), args.repeat, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
