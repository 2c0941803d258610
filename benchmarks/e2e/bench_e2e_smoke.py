"""Smoke test of the benchmark itself (not a timing).

    PYTHONPATH=src python3 -m pytest benchmarks/e2e/bench_e2e_smoke.py -q

Named ``bench_*`` so tier-1 collection and run time are unchanged.
Runs all eight workloads for a fraction of a second, untraced and
traced, and asserts that every metric ``BENCHMARK.json`` lists comes
out with its unit, that no op fails, that the layered path agrees with
``execute`` (a disagreement counts as a failed op), and that a planted
wrong answer is counted as a failure by every workload's oracle.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import oracles  # noqa: E402
from layers import PlainExecutor  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SECONDS = "0.3"

with open(ROOT / "BENCHMARK.json") as handle:
    CONTRACT = json.load(handle)


@pytest.mark.parametrize("name", [w["name"] for w in CONTRACT["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric(name, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "5",
         "--seconds", SECONDS, "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_workload_names_match_contract():
    assert list(WORKLOADS) == [w["name"] for w in CONTRACT["workloads"]]


@pytest.fixture
def workdir():
    path = HERE / "out" / "work-smoke"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("name", [n for n in WORKLOADS if n != "durable_commit"])
def test_planted_wrong_answer_is_a_failure(name, workdir):
    workload = WORKLOADS[name](5, workdir)
    try:
        workload.setup()
        workload.build_oracle()
        executor = PlainExecutor(workload.conn)
        statements = workload.attach(executor)
        for n in range(len(workload.parts)):  # every statement class once
            value = workload.part(n, executor, statements)
            assert not workload.check(n, oracles.perturb(value)), workload.part_class(n)
    finally:
        workload.close()


def test_lost_durable_commit_is_a_failure(workdir):
    workload = WORKLOADS["durable_commit"](5, workdir)
    try:
        workload.setup()
        samples = workload.measure(float(SECONDS))
        assert samples.failed == 0
        # Claim more acknowledged ops than the child ran: the replay
        # oracle must report the difference as lost.
        lost, _, _ = workload.recover(workload.acked + 7)
        assert lost > 0
    finally:
        workload.close()


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
