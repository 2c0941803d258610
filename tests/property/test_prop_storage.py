"""Out-of-core storage equivalence properties.

The storage engine's three mechanisms — zone-map fragment pruning,
dictionary/RLE encoding, and mmap-backed lazy heaps — are all pure
*representation* changes: every query must return byte-identical
results whichever representation the input and the thresholds pick
(zone statistics or none, a column below or above
``REPRO_DICT_MIN_ROWS``, a payload below or above
``REPRO_MMAP_THRESHOLD_BYTES``), across fragment sizes, and for every
predicate polarity (all fragments pruned, none pruned, partial),
NULL-heavy columns included.  ``repr`` comparison keeps the check
honest for floats (``-0.0`` vs ``0.0`` would slip through ``==``).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.gdk import storage

FRAGMENT_ROWS = [7, 64, math.inf]

#: predicate polarity suite over INT column v in [0, 100) with NULLs
#: and low-cardinality strings: all-match, none-match (both pruning
#: edges), partial overlap, NULL tests, dict equality/LIKE/IN, and a
#: grouped aggregate over the string column.
QUERIES = [
    "SELECT k, v FROM t WHERE v >= 0",            # every fragment all-hit
    "SELECT k, v FROM t WHERE v > 1000000",       # every fragment pruned
    "SELECT k, v FROM t WHERE v < -1",            # every fragment pruned
    "SELECT k, v FROM t WHERE v BETWEEN 20 AND 40",
    "SELECT k, v FROM t WHERE v NOT BETWEEN 20 AND 40",
    "SELECT k, v FROM t WHERE v <> 37",
    "SELECT k FROM t WHERE v IS NULL",
    "SELECT k FROM t WHERE v IS NOT NULL",
    "SELECT k, s FROM t WHERE s = 'tag-3'",
    "SELECT k, s FROM t WHERE s = 'absent'",
    "SELECT k, s FROM t WHERE s LIKE 'tag-1%'",
    "SELECT k, s FROM t WHERE s >= 'tag-5'",
    "SELECT k, v FROM t WHERE v IN (3, 5, 700)",
    "SELECT s, COUNT(*), SUM(v) FROM t GROUP BY s",
    "SELECT t.k, u.s FROM t JOIN u ON t.s = u.s",
]


def _rows(n):
    # v covers [0, 100) densely-ish, every 7th NULL; strings are
    # low-cardinality tags (dictionary-encodable).
    return [
        (
            i,
            None if i % 7 == 3 else (i * 13) % 100,
            f"tag-{i % 11}",
        )
        for i in range(n)
    ]


def _load(conn, n=300):
    conn.execute("CREATE TABLE t (k INT, v INT, s VARCHAR(10))")
    conn.execute("CREATE TABLE u (s VARCHAR(10))")
    conn.executemany("INSERT INTO t VALUES (?, ?, ?)", _rows(n))
    conn.executemany(
        "INSERT INTO u VALUES (?)", [(f"tag-{i}",) for i in range(4)]
    )


def _payloads(conn):
    """The stored payload array of every column of ``t`` and ``u``."""
    from repro.gdk.dictenc import DictColumn

    out = []
    for name, columns in (("t", ("k", "v", "s")), ("u", ("s",))):
        table = conn.database.catalog.get(name)
        for column in columns:
            tail = table.bind(column).tail
            out.append(tail.codes if isinstance(tail, DictColumn) else tail.values)
    return out


class TestPrunedEqualsUnpruned:
    """Zone-map short-circuits change nothing but the work done."""

    @pytest.mark.parametrize("fragment_rows", FRAGMENT_ROWS)
    def test_polarity_suite(self, fragment_rows, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ZONE_ROWS", "16")
        seed = repro.connect()
        _load(seed)
        seed.save(tmp_path / "db")
        seed.close()
        # The reference reads the same rows through inputs without
        # statistics: an unfragmented in-memory session of its own
        # database (a fragmenting session would cache zone maps on the
        # shared BATs).  The pruned legs read zone maps built for
        # in-memory fragments and a reopened farm's saved ones.
        unpruned = repro.connect(nr_threads=1, fragment_rows=math.inf)
        _load(unpruned)
        in_memory = repro.connect(nr_threads=1, fragment_rows=fragment_rows)
        _load(in_memory)
        farm = repro.connect(
            tmp_path / "db", nr_threads=1, fragment_rows=fragment_rows
        )
        fired = 0
        for sql in QUERIES:
            expected = repr(unpruned.execute(sql, collect_stats=True).rows())
            assert unpruned.last_stats.fragments_pruned == 0, sql
            for pruned in (in_memory, farm):
                got = pruned.execute(sql, collect_stats=True).rows()
                assert repr(got) == expected, (sql, fragment_rows)
                fired += pruned.last_stats.fragments_pruned
        assert fired > 0
        for conn in (unpruned, in_memory, farm):
            conn.close()

    def test_pruning_fires_and_is_profiled(self, monkeypatch):
        monkeypatch.setenv("REPRO_ZONE_ROWS", "16")
        conn = repro.connect(nr_threads=1, fragment_rows=64)
        _load(conn)
        result = conn.execute(
            "SELECT k FROM t WHERE v > 1000000", collect_stats=True
        )
        assert result.rows() == []
        assert conn.last_stats.fragments_pruned > 0
        profile = {entry["operation"]: entry for entry in conn.last_profile()}
        assert (
            profile["storage.fragments_pruned"]["calls"]
            == conn.last_stats.fragments_pruned
        )
        conn.close()

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.one_of(st.none(), st.integers(-50, 50)),
            min_size=0,
            max_size=80,
        ),
        st.integers(-55, 55),
        st.integers(-55, 55),
    )
    def test_random_ranges(self, values, a, b):
        lo, hi = min(a, b), max(a, b)
        baseline = repro.connect(nr_threads=1, fragment_rows=math.inf)
        fragmented = repro.connect(nr_threads=1, fragment_rows=7)
        for conn in (baseline, fragmented):
            conn.execute("CREATE TABLE t (v INT)")
            conn.executemany(
                "INSERT INTO t VALUES (?)", [(v,) for v in values]
            )
        for sql in (
            f"SELECT v FROM t WHERE v BETWEEN {lo} AND {hi}",
            f"SELECT v FROM t WHERE v NOT BETWEEN {lo} AND {hi}",
            f"SELECT v FROM t WHERE v > {lo}",
            f"SELECT v FROM t WHERE v <= {hi}",
            f"SELECT v FROM t WHERE v = {lo}",
        ):
            assert repr(fragmented.execute(sql).rows()) == repr(
                baseline.execute(sql).rows()
            ), sql
        baseline.close()
        fragmented.close()


class TestEncodedEqualsPlain:
    """Dictionary encoding is invisible to every query result."""

    @pytest.mark.parametrize("fragment_rows", [7, math.inf])
    def test_dict_crosses_threshold_mid_append(self, fragment_rows, monkeypatch):
        from repro.gdk.dictenc import DictColumn

        plain = repro.connect(nr_threads=1, fragment_rows=fragment_rows)
        encoded = repro.connect(nr_threads=1, fragment_rows=fragment_rows)
        rows = _rows(200)
        # The plain reference is a session whose threshold exceeds the
        # column, so its strings are never considered for encoding.
        for conn, min_rows in ((plain, "1000"), (encoded, "64")):
            monkeypatch.setenv("REPRO_DICT_MIN_ROWS", min_rows)
            conn.execute("CREATE TABLE t (k INT, v INT, s VARCHAR(10))")
            conn.execute("CREATE TABLE u (s VARCHAR(10))")
            # First batch sits below REPRO_DICT_MIN_ROWS (stays plain),
            # the second crosses it mid-append (re-encodes in place).
            conn.executemany("INSERT INTO t VALUES (?, ?, ?)", rows[:40])
            conn.executemany("INSERT INTO t VALUES (?, ?, ?)", rows[40:])
            conn.executemany(
                "INSERT INTO u VALUES (?)", [(f"tag-{i}",) for i in range(4)]
            )
        tail = encoded.database.catalog.get("t").bind("s").tail
        assert isinstance(tail, DictColumn)
        plain_tail = plain.database.catalog.get("t").bind("s").tail
        assert not isinstance(plain_tail, DictColumn)
        for sql in QUERIES + [
            "SELECT UPPER(s), LENGTH(s) FROM t WHERE v IS NOT NULL",
            "SELECT s FROM t ORDER BY s, k LIMIT 9",
            "SELECT DISTINCT s FROM t",
        ]:
            assert repr(encoded.execute(sql).rows()) == repr(
                plain.execute(sql).rows()
            ), sql
        plain.close()
        encoded.close()


class TestMmapEqualsEager:
    """Lazy mmap heaps return the same bytes the eager path returns."""

    @pytest.mark.parametrize("fragment_rows", [64, math.inf])
    def test_reopened_farm_matrix(self, fragment_rows, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DICT_MIN_ROWS", "64")
        seed = repro.connect()
        _load(seed, n=400)
        seed.save(tmp_path / "db")
        seed.close()

        # Eager is a threshold above every payload file, lazy is 0.
        payload_bytes = max(p.stat().st_size for p in (tmp_path / "db").rglob("*.npy"))
        monkeypatch.setenv("REPRO_MMAP_THRESHOLD_BYTES", str(payload_bytes + 1))
        eager = repro.connect(
            tmp_path / "db", nr_threads=1, fragment_rows=fragment_rows
        )
        assert not any(isinstance(p, np.memmap) for p in _payloads(eager))
        expected = {sql: repr(eager.execute(sql).rows()) for sql in QUERIES}
        eager.close()

        monkeypatch.setenv("REPRO_MMAP_THRESHOLD_BYTES", "0")
        lazy = repro.connect(
            tmp_path / "db", nr_threads=1, fragment_rows=fragment_rows
        )
        assert all(isinstance(p, np.memmap) for p in _payloads(lazy))
        for sql in QUERIES:
            assert repr(lazy.execute(sql).rows()) == expected[sql], sql
        lazy.close()

    def test_pruned_mmap_scan_faults_a_fraction(self, tmp_path, monkeypatch):
        """A selective scan over a lazy heap pages in ≪ the full heap."""
        monkeypatch.setenv("REPRO_ZONE_ROWS", "256")
        seed = repro.connect()
        seed.execute("CREATE TABLE big (v INT)")
        seed.executemany(
            "INSERT INTO big VALUES (?)", [(i,) for i in range(20_000)]
        )
        seed.save(tmp_path / "db")
        seed.close()

        monkeypatch.setenv("REPRO_MMAP_THRESHOLD_BYTES", "0")
        conn = repro.connect(tmp_path / "db", nr_threads=1, fragment_rows=512)
        total_bytes = 20_000 * 4  # int32 heap
        result = conn.execute(
            "SELECT v FROM big WHERE v BETWEEN 100 AND 150",
            collect_stats=True,
        )
        assert len(result.rows()) == 51
        stats = conn.last_stats
        assert stats.fragments_pruned > 0
        assert 0 < stats.bytes_faulted < total_bytes // 4
        profile = {entry["operation"]: entry for entry in conn.last_profile()}
        assert profile["storage.bytes_faulted"]["rows"] == stats.bytes_faulted
        conn.close()

    def test_scan_faults_follow_selectivity_within_one_fragment(
        self, tmp_path, monkeypatch
    ):
        """One fragment covers the whole lazy column, so only zones can
        spare bytes: a clustered range of any width faults at most its
        two boundary zones, and a uniform predicate the whole column."""
        zone_rows, rows = 256, 80 * 256  # every zone holds a u < 10
        monkeypatch.setenv("REPRO_ZONE_ROWS", str(zone_rows))
        seed = repro.connect()
        seed.execute("CREATE TABLE big (v INT, u INT)")
        seed.executemany(
            "INSERT INTO big VALUES (?, ?)",
            [(i, (i * 7919) % 1000) for i in range(rows)],
        )
        seed.save(tmp_path / "db")
        seed.close()

        monkeypatch.setenv("REPRO_MMAP_THRESHOLD_BYTES", "0")
        conn = repro.connect(tmp_path / "db", nr_threads=1, fragment_rows=math.inf)
        boundary_bytes = 2 * zone_rows * 4  # two int32 zones
        for low, high in [(1000, 1100), (1000, 9000), (300, 19_700)]:
            result = conn.execute(
                f"SELECT v FROM big WHERE v BETWEEN {low} AND {high}",
                collect_stats=True,
            )
            assert [row[0] for row in result.rows()] == list(range(low, high + 1))
            assert 0 < conn.last_stats.bytes_faulted <= boundary_bytes, (low, high)
        result = conn.execute("SELECT v FROM big WHERE u < 10", collect_stats=True)
        assert len(result.rows()) == sum((i * 7919) % 1000 < 10 for i in range(rows))
        assert conn.last_stats.bytes_faulted == rows * 4
        conn.close()


class TestFaultPointCoverage:
    def test_new_publish_steps_are_registered(self):
        from repro.testing.faultpoints import REGISTERED_POINTS

        assert "persist.dict_staged" in REGISTERED_POINTS
        assert "persist.zones_computed" in REGISTERED_POINTS
