#!/usr/bin/env python3
"""Compare two benchmark records under the bounds of ``BENCHMARK.json``.

    python3 benchmarks/e2e/compare.py A.json B.json

``A.json`` and ``B.json`` are ``run.py --repeat N --out FILE`` records
(A = parent, B = change).  One row per (workload, end-to-end metric):

* ``ok``          B's median is no worse than A's by more than the bound;
* ``regressed``   it is worse by more than the bound;
* ``unresolved``  either side's own run-to-run spread (distance between
  its quartiles as a share of its median) is wider than the bound, so
  the runs cannot tell.

Failed ops are compared as counts.  Advisory: exit status 1 when any
row regressed or B failed more ops than A.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def summarise(record: dict) -> dict:
    """``(workload, metric) -> values`` of the untraced runs, plus failures."""
    values: dict = {}
    failed: dict = {}
    for run in record["runs"]:
        if run["trace"]:
            continue
        workload = run["workload"]
        failed[workload] = failed.get(workload, 0) + run["failed"]
        for metric, entry in run["metrics"].items():
            values.setdefault((workload, metric), []).append(entry["value"])
    return {"values": values, "failed": failed}


def spread(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    with open(ROOT / "BENCHMARK.json") as handle:
        contract = json.load(handle)
    sides = []
    for path in sys.argv[1:]:
        with open(path) as handle:
            sides.append(summarise(json.load(handle)))
    a, b = sides
    bad = False
    print(f"{'workload':<20}{'metric':<18}{'A median':>12}{'B median':>12}"
          f"{'worse by':>10}{'spread A':>10}{'spread B':>10}  verdict")
    for workload in [name for name in a["failed"] if name in b["failed"]]:
        for metric in contract["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a["values"] or key not in b["values"]:
                continue
            median_a = statistics.median(a["values"][key])
            median_b = statistics.median(b["values"][key])
            worse = (median_b - median_a) / median_a
            if metric["better"] == "higher":
                worse = -worse
            spread_a, spread_b = spread(a["values"][key]), spread(b["values"][key])
            if max(spread_a, spread_b) > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "regressed"
                bad = True
            else:
                verdict = "ok"
            print(f"{workload:<20}{metric['name']:<18}{median_a:>12.5g}{median_b:>12.5g}"
                  f"{worse:>+10.1%}{spread_a:>10.1%}{spread_b:>10.1%}  {verdict}")
        failed_a, failed_b = a["failed"].get(workload, 0), b["failed"].get(workload, 0)
        verdict = "ok" if failed_b <= failed_a else "regressed"
        bad = bad or failed_b > failed_a
        print(f"{workload:<20}{'failed ops':<18}{failed_a:>12}{failed_b:>12}"
              f"{'':>30}  {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
