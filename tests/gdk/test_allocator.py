"""The engine's heap policy (:mod:`repro.gdk.storage`): on glibc it pins
the mmap and trim thresholds at import, so a statement's 256 KiB–2 MiB
temporaries come back warm from the heap instead of page-faulting in
again, and it leaves a threshold the host set alone.

The policy's decisions are checked in-process against a stand-in
``mallopt``.  Its effect is measured in child processes, each with a
clean environment and heap: the six grey-scale statements of the
paper's Scenario II on a 512² image and a Life generation on 256²,
warmed up and then run repeatedly, minor faults counted by
``getrusage``.  Without the policy a grey-scale statement takes about
540 minor faults.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from repro.gdk import storage

on_glibc = pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
    reason="the heap policy pins glibc's thresholds",
)

SRC = Path(__file__).resolve().parents[2] / "src"

CHILD = r"""
import json, resource, sys
import numpy as np
import repro
from repro.gdk import storage

runs = int(sys.argv[1])
grey = [  # invert, edge, avg3, avg17, min3, reduce
    "SELECT [x], [y], 255 - v FROM img",
    "SELECT [x], [y], ABS(img[x][y] - img[x-1][y]) + ABS(img[x][y] - img[x][y-1]) FROM img",
    "SELECT [x], [y], AVG(v) FROM img GROUP BY img[x-1:x+2][y-1:y+2]",
    "SELECT [x], [y], AVG(v) FROM img GROUP BY img[x-8:x+9][y-8:y+9]",
    "SELECT [x], [y], MIN(v) FROM img GROUP BY img[x-1:x+2][y-1:y+2]",
    "SELECT [x / 2], [y / 2], AVG(v) FROM img GROUP BY img[x:x+2][y:y+2] "
    "HAVING x MOD 2 = 0 AND y MOD 2 = 0",
]
life = (
    "INSERT INTO life SELECT [x], [y], CASE WHEN SUM(v) - v = 3 OR "
    "(SUM(v) - v = 2 AND v = 1) THEN 1 ELSE 0 END "
    "FROM life GROUP BY life[x-1:x+2][y-1:y+2]"
)
rng = np.random.default_rng(7)
conn = repro.connect(nr_threads=1)
conn.register_array("img", rng.integers(0, 256, (512, 512)).astype(np.int32))
conn.execute(
    "CREATE ARRAY life (x INT DIMENSION[0:1:256], y INT DIMENSION[0:1:256], v INT DEFAULT 0)"
)
conn.register_array("seed", (rng.random((256, 256)) < 0.3).astype(np.int32))
conn.execute("INSERT INTO life SELECT [x], [y], v FROM seed")
statements = [(conn.prepare(sql), True) for sql in grey] + [(conn.prepare(life), False)]


def run(statement, grid):
    result = statement.execute()
    return result.grid() if grid else result.affected


faults = []
for statement, grid in statements:
    for _ in range(3):  # warm-up
        run(statement, grid)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(runs):
        run(statement, grid)
    faults.append((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / runs)
print(json.dumps({"pinned": list(storage.HEAP_PINNED), "faults": faults}))
"""


#: the child's statements, in its order.
STATEMENTS = ["invert", "edge", "avg3", "avg17", "min3", "reduce", "life"]


def faults_per_statement(runs: int, **host) -> dict:
    """The child's pinned thresholds and minor faults per statement
    (:data:`STATEMENTS`), under the host's malloc settings *host*."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("MALLOC_") and key != "GLIBC_TUNABLES"
    }
    env.update(host, PYTHONPATH=str(SRC))
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(runs)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


# ----------------------------------------------------------------------
# what the policy decides
# ----------------------------------------------------------------------
class FakeLibc:
    """A libc whose ``mallopt`` records its calls and answers *accepts*."""

    def __init__(self, accepts: int = 1):
        self.calls: list = []
        self.accepts = accepts

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return self.accepts


@pytest.fixture
def libc(monkeypatch):
    """A stand-in libc under a host that set no malloc threshold."""
    for key in list(os.environ):
        if key.startswith("MALLOC_") or key == "GLIBC_TUNABLES":
            monkeypatch.delenv(key)
    fake = FakeLibc()
    monkeypatch.setattr(storage.ctypes, "CDLL", lambda name: fake)
    return fake


class TestPolicy:
    def test_glibc_gets_both_thresholds_pinned(self, libc):
        assert storage._pin_heap() == ("MMAP_THRESHOLD", "TRIM_THRESHOLD")
        assert libc.calls == [(-3, 8 << 20), (-1, 32 << 20)]

    def test_the_trim_threshold_is_four_mmap_thresholds(self):
        assert storage.HEAP_TRIM_THRESHOLD == 4 * storage.HEAP_MMAP_THRESHOLD

    @pytest.mark.parametrize(
        "key, value, kept",
        [
            ("MALLOC_MMAP_THRESHOLD_", "131072", "MMAP_THRESHOLD"),
            ("MALLOC_TRIM_THRESHOLD_", "131072", "TRIM_THRESHOLD"),
            ("GLIBC_TUNABLES", "glibc.malloc.mmap_threshold=131072", "MMAP_THRESHOLD"),
            ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=131072", "TRIM_THRESHOLD"),
        ],
        ids=["mmap-environment", "trim-environment", "mmap-tunables", "trim-tunables"],
    )
    def test_a_threshold_the_host_set_is_not_called(self, libc, monkeypatch, key, value, kept):
        monkeypatch.setenv(key, value)
        pinned = storage._pin_heap()
        assert kept not in pinned and len(pinned) == 1
        assert [param for param, _ in libc.calls] == [-1 if kept == "MMAP_THRESHOLD" else -3]

    def test_other_tunables_leave_both_pinned(self, libc, monkeypatch):
        monkeypatch.setenv("GLIBC_TUNABLES", "glibc.malloc.tcache_count=0")
        assert storage._pin_heap() == ("MMAP_THRESHOLD", "TRIM_THRESHOLD")

    def test_a_libc_without_mallopt_is_left_alone(self, monkeypatch):
        monkeypatch.setattr(storage.ctypes, "CDLL", lambda name: object())
        assert storage._pin_heap() == ()

    def test_a_refused_call_pins_nothing(self, libc):
        libc.accepts = 0
        assert storage._pin_heap() == ()
        assert len(libc.calls) == 2


# ----------------------------------------------------------------------
# what the policy does to a statement's faults
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def pinned_report() -> dict:
    return faults_per_statement(20)


@on_glibc
def test_the_engine_pinned_both_thresholds(pinned_report):
    assert pinned_report["pinned"] == ["MMAP_THRESHOLD", "TRIM_THRESHOLD"]


@on_glibc
@pytest.mark.parametrize("statement", STATEMENTS)
def test_a_steady_state_statement_does_not_page_fault(pinned_report, statement):
    faults = pinned_report["faults"][STATEMENTS.index(statement)]
    assert faults < 32, pinned_report["faults"]


@on_glibc
@pytest.mark.parametrize(
    "host",
    [
        {"MALLOC_MMAP_THRESHOLD_": "131072"},
        {"GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=131072"},
    ],
    ids=["environment", "tunables"],
)
def test_a_threshold_the_host_set_is_left_alone(host):
    report = faults_per_statement(5, **host)
    assert report["pinned"] == ["TRIM_THRESHOLD"]
    grey = report["faults"][:6]
    assert sum(grey) / len(grey) > 256, grey  # 128 KiB: every temporary maps again
