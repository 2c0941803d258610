#!/usr/bin/env python
"""Benchmark driver: run the GDK perf suites, write a local JSON report.

It runs the pytest-benchmark suites that exercise the vectorized GDK
hot path (the kernel microbenchmarks, the Figure 1 array-operation
suite, and the E11 tiling-scaling suite) and stores pytest-benchmark's
raw JSON report under the git-ignored ``.benchmarks/`` directory, plus
a compact per-group summary on stdout.  The repository's *tracked*
benchmark is ``benchmarks/e2e`` (see ``BENCHMARK.json``); raw rounds
stay out of git.

Usage::

    python benchmarks/run_benchmarks.py                 # full run
    python benchmarks/run_benchmarks.py --quick         # smoke (no timing)
    python benchmarks/run_benchmarks.py --output my.json --suite benchmarks/bench_gdk_kernels.py
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: suites that define the tracked GDK perf trajectory.  The tiling
#: suite carries E11 (tile/array-size scaling) and E19 (prefix-sum /
#: sliding-window kernels vs the shifted-scan baseline); the scenario
#: suites track the Game of Life and grey-scale pipelines end to end.
DEFAULT_SUITES = [
    "benchmarks/bench_gdk_kernels.py",
    "benchmarks/bench_fig1_array_ops.py",
    "benchmarks/bench_tiling_scaling.py",
    "benchmarks/bench_scenario1_life.py",
    "benchmarks/bench_scenario2_grayscale.py",
    "benchmarks/bench_prepared.py",
    "benchmarks/bench_parallel.py",
    "benchmarks/bench_concurrency.py",
    "benchmarks/bench_durability.py",
    "benchmarks/bench_server.py",
    "benchmarks/bench_storage.py",
    "benchmarks/bench_coercion_ingestion.py",
]


def run(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        default=".benchmarks/BENCH_gdk.json",
        help="where to write the pytest-benchmark JSON report",
    )
    parser.add_argument(
        "--suite",
        action="append",
        dest="suites",
        help="benchmark file to run (repeatable; defaults to the GDK suites)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run the suites once without timing (CI smoke pass)",
    )
    args = parser.parse_args(argv)

    suites = args.suites or DEFAULT_SUITES
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )

    command = [sys.executable, "-m", "pytest", "-q", *suites]
    if args.quick:
        command.append("--benchmark-disable")
    else:
        (REPO_ROOT / args.output).parent.mkdir(parents=True, exist_ok=True)
        command.append(f"--benchmark-json={args.output}")
    result = subprocess.run(command, cwd=REPO_ROOT, env=env)
    if result.returncode != 0:
        return result.returncode
    if not args.quick:
        summarize(REPO_ROOT / args.output)
    return 0


def summarize(report_path: pathlib.Path) -> None:
    """Print min runtimes per benchmark group, flagging reference baselines."""
    with open(report_path) as handle:
        report = json.load(handle)
    groups: dict[str, list[tuple[str, float]]] = {}
    for bench in report.get("benchmarks", []):
        groups.setdefault(bench.get("group") or "ungrouped", []).append(
            (bench["name"], bench["stats"]["min"])
        )
    print(f"\nwrote {report_path} ({len(report.get('benchmarks', []))} benchmarks)")
    for name in sorted(groups):
        print(f"  {name}")
        entries = sorted(groups[name], key=lambda item: item[1])
        fastest = entries[0][1]
        for bench_name, minimum in entries:
            ratio = minimum / fastest if fastest else float("inf")
            print(f"    {minimum * 1e3:10.3f} ms  ({ratio:5.1f}x)  {bench_name}")


if __name__ == "__main__":
    sys.exit(run())
