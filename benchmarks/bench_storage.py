"""E22: out-of-core storage — zone maps, dictionary strings, mmap heaps.

Four measurement families, each asserting correctness before timing
counts:

* ``E22-scan-*`` — a selective range scan over an 8M-row column at 1%,
  10% and 90% selectivity, pruned vs unpruned.  The pruned session
  fragments the column, and each fragment consults its source's zone
  map; the unpruned one reads the same rows unfragmented, an input
  without statistics, as one scan run.  Both run on one thread.
* ``E22-dict-*`` — equality select, LIKE, and grouping over a 512k-row
  low-cardinality string column, dictionary-encoded (int32 codes) vs
  the plain object payload.  The encoded kernels run per *distinct*
  value; the plain ones per row.
* ``E22-cold-open`` — ``repro.connect`` on a saved 8M-cell farm plus
  one selective query, with mmap-backed lazy heaps
  (``REPRO_MMAP_THRESHOLD_BYTES=0``) vs the eager CRC-checked load (a
  threshold above the heap file).
* the peak-RSS probe — a subprocess per storage mode runs the same
  cold-open query and reports ``ru_maxrss``; the mmap run must stay
  well under the eager one because pruning leaves most of the heap
  untouched on disk.
"""

from __future__ import annotations

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.gdk import group, select, strings
from repro.gdk.atoms import Atom
from repro.gdk.bat import BAT
from repro.gdk.column import Column
from repro.gdk.dictenc import DictColumn, encode_values

SCAN_ROWS = 8_000_000
SCAN_FRAGMENT_ROWS = 512 * 1024
DICT_ROWS = 512_000
DICT_TAGS = 50
FARM_CELLS = 8_000_000  # float64 → 64 MB heap
FRAGMENT_ROWS = 65_536


# ----------------------------------------------------------------------
# E22-scan: selective scans, zone maps consulted vs absent
# ----------------------------------------------------------------------
def _scan_session(fragment_rows):
    conn = repro.connect(nr_threads=1, fragment_rows=fragment_rows)
    conn.register_array("big", np.arange(SCAN_ROWS, dtype=np.int32))
    return conn


@pytest.fixture(scope="module")
def scan_conns():
    conns = {
        "pruned": _scan_session(SCAN_FRAGMENT_ROWS),
        "unpruned": _scan_session(math.inf),
    }
    yield conns
    for conn in conns.values():
        conn.close()


def _scan(conn, hi, collect_stats=False):
    return conn.execute(
        f"SELECT v FROM big WHERE v BETWEEN 0 AND {hi}", collect_stats=collect_stats
    )


def _bench_scan(benchmark, conns, pct, leg):
    conn = conns[leg]
    expected = SCAN_ROWS * pct // 100
    result = benchmark(_scan, conn, expected - 1)
    assert len(result.rows()) == expected
    _scan(conn, expected - 1, collect_stats=True)
    pruned = conn.last_stats.fragments_pruned
    assert pruned > 0 if leg == "pruned" else pruned == 0


@pytest.mark.benchmark(group="E22-scan-1pct")
@pytest.mark.parametrize("leg", ["pruned", "unpruned"])
def test_selective_scan_1pct(benchmark, scan_conns, leg):
    _bench_scan(benchmark, scan_conns, 1, leg)


@pytest.mark.benchmark(group="E22-scan-10pct")
@pytest.mark.parametrize("leg", ["pruned", "unpruned"])
def test_selective_scan_10pct(benchmark, scan_conns, leg):
    _bench_scan(benchmark, scan_conns, 10, leg)


@pytest.mark.benchmark(group="E22-scan-90pct")
@pytest.mark.parametrize("leg", ["pruned", "unpruned"])
def test_selective_scan_90pct(benchmark, scan_conns, leg):
    _bench_scan(benchmark, scan_conns, 90, leg)


# ----------------------------------------------------------------------
# E22-dict: string kernels on codes vs the object payload
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def string_pair():
    values = np.array(
        [f"tag-{i % DICT_TAGS:02d}" for i in range(DICT_ROWS)], dtype=object
    )
    plain = Column(Atom.STR, values)
    dictionary, codes = encode_values(values)
    encoded = DictColumn(Atom.STR, codes, dictionary)
    return plain, encoded


@pytest.mark.benchmark(group="E22-dict-eq")
@pytest.mark.parametrize("encoding", ["dict", "object"])
def test_string_equality_select(benchmark, string_pair, encoding):
    plain, encoded = string_pair
    column = encoded if encoding == "dict" else plain
    result = benchmark(select.thetaselect, BAT(column), "tag-03", "==")
    reference = select.thetaselect(BAT(plain), "tag-03", "==")
    assert np.array_equal(result.tail.values, reference.tail.values)
    assert len(result) == DICT_ROWS // DICT_TAGS


@pytest.mark.benchmark(group="E22-dict-like")
@pytest.mark.parametrize("encoding", ["dict", "object"])
def test_string_like(benchmark, string_pair, encoding):
    plain, encoded = string_pair
    column = encoded if encoding == "dict" else plain
    bits = benchmark(strings.like, column, "tag-1%")
    reference = strings.like(plain, "tag-1%")
    assert np.array_equal(bits.values, reference.values)
    assert int(bits.values.sum()) == DICT_ROWS // DICT_TAGS * 10


@pytest.mark.benchmark(group="E22-dict-group")
@pytest.mark.parametrize("encoding", ["dict", "object"])
def test_string_group(benchmark, string_pair, encoding):
    plain, encoded = string_pair
    column = encoded if encoding == "dict" else plain
    grouping = benchmark(group.group, column)
    reference = group.group(plain)
    assert np.array_equal(grouping.groups.values, reference.groups.values)
    assert len(grouping.extents) == DICT_TAGS


# ----------------------------------------------------------------------
# E22-cold-open + peak-RSS probe: lazy mmap heaps vs eager load
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def saved_farm(tmp_path_factory):
    farm = tmp_path_factory.mktemp("e22") / "db"
    conn = repro.connect(nr_threads=1)
    conn.register_array("big", np.arange(FARM_CELLS, dtype=np.float64))
    conn.save(farm)
    conn.close()
    return farm


def _mmap_threshold(farm, mode):
    """``REPRO_MMAP_THRESHOLD_BYTES`` for *mode*: ``0`` maps every
    payload, one byte past the largest payload file maps none."""
    if mode == "mmap":
        return "0"
    return str(max(p.stat().st_size for p in farm.rglob("*.npy")) + 1)


def _cold_open_query(farm):
    conn = repro.connect(farm, nr_threads=1, fragment_rows=FRAGMENT_ROWS)
    try:
        return conn.execute(
            "SELECT v FROM big WHERE v BETWEEN 1000 AND 1050"
        ).rows()
    finally:
        conn.close()


def _heap_is_mapped(farm) -> bool:
    conn = repro.connect(farm, nr_threads=1)
    try:
        return isinstance(conn.database.catalog.get("big").bind("v").tail.values, np.memmap)
    finally:
        conn.close()


def _storage_env(threshold):
    env = dict(os.environ)
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    env["REPRO_MMAP_THRESHOLD_BYTES"] = threshold
    return env


@pytest.mark.benchmark(group="E22-cold-open")
@pytest.mark.parametrize("mode", ["mmap", "eager"])
def test_cold_open(benchmark, saved_farm, monkeypatch, mode):
    monkeypatch.setenv("REPRO_MMAP_THRESHOLD_BYTES", _mmap_threshold(saved_farm, mode))
    rows = benchmark(_cold_open_query, saved_farm)
    assert len(rows) == 51
    assert _heap_is_mapped(saved_farm) == (mode == "mmap")


# Peak RSS via /proc/self/status VmHWM: unlike ``ru_maxrss``, the
# high-water mark is reset on exec, so the probe never inherits the
# parent test process's footprint.
_RSS_PROBE = """\
import sys

import numpy as np
import repro

conn = repro.connect(sys.argv[1], nr_threads=1, fragment_rows={fragment_rows})
heap = conn.database.catalog.get("big").bind("v").tail.values
assert isinstance(heap, np.memmap) == (sys.argv[2] == "mmap"), type(heap)
rows = conn.execute("SELECT v FROM big WHERE v BETWEEN 1000 AND 1050").rows()
assert len(rows) == 51, len(rows)
conn.close()
with open("/proc/self/status") as handle:
    for line in handle:
        if line.startswith("VmHWM"):
            print(line.split()[1])
""".format(fragment_rows=FRAGMENT_ROWS)


def _probe_rss(farm, mode):
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_PROBE, str(farm), mode],
        env=_storage_env(_mmap_threshold(farm, mode)),
        capture_output=True,
        text=True,
        check=True,
    )
    return int(proc.stdout.strip())  # KiB on Linux


def test_peak_rss_probe(saved_farm):
    """A pruned mmap scan must keep most of the 64 MB heap off-RSS."""
    eager_kib = _probe_rss(saved_farm, "eager")
    mmap_kib = _probe_rss(saved_farm, "mmap")
    heap_kib = FARM_CELLS * 8 // 1024
    print(f"\npeak RSS: eager={eager_kib} KiB mmap={mmap_kib} KiB "
          f"(heap {heap_kib} KiB)")
    assert mmap_kib < eager_kib
    # The eager probe materialises the whole heap; the lazy one only
    # faults the fragments the zone maps could not prune.
    assert eager_kib - mmap_kib > heap_kib // 4
