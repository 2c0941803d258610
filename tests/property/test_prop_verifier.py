"""Pipeline-corpus verification under ``REPRO_VERIFY_PLANS=1``.

The suite's conftest turns per-pass plan verification on globally, so
every statement executed below is already statically checked after
every optimizer pass.  This module makes the corpus explicit: the plan
shapes behind the paper's experiment matrix — E13 (optimizer
ablations), E17 (fragment-parallel aggregation), E22 (out-of-core
selective scans) — across the fragmentation knob grid, asserting both
that verification accepts every shape and that the fragmented engines
return exactly the sequential engine's answers.
"""

import pytest

import repro

#: statements covering every plan family the optimizer emits: scans,
#: zone-map-foldable predicates, joins, value + structural grouping,
#: sort/limit, set operations, DML read-modify-write.
CORPUS = [
    "SELECT day, temp FROM obs WHERE day > 6",
    "SELECT temp FROM obs WHERE temp IS NOT NULL AND day BETWEEN 3 AND 17",
    "SELECT day FROM obs WHERE station = 's1' OR temp < 2.5",
    "SELECT station, SUM(temp), COUNT(*), AVG(temp) FROM obs GROUP BY station",
    "SELECT DISTINCT station FROM obs",
    "SELECT day, temp FROM obs ORDER BY temp DESC, day LIMIT 5",
    "SELECT o.day, s.city FROM obs o JOIN stations s ON o.station = s.name",
    "SELECT day FROM obs WHERE day < 5 UNION SELECT day FROM obs WHERE day > 25",
    "SELECT CASE WHEN temp > 5 THEN 1 ELSE 0 END, day * 2 + 1 FROM obs",
    "SELECT [x], [y], AVG(v) FROM m GROUP BY m[x:x+2][y:y+2]",
    "SELECT v FROM m WHERE x = y",
    "SELECT [x], [y], v + 1 FROM m WHERE v > 10",
]

#: (nr_threads, fragment_rows) — sequential reference first, then the
#: E17-style fragment grid (tiny fragments force deep fragment plans).
MODES = [(2, 7), (4, 3), (1, 13)]


def build(conn):
    conn.execute(
        "CREATE TABLE obs (station VARCHAR(10), day INT, temp DOUBLE)"
    )
    rows = ", ".join(
        f"('s{i % 4}', {i}, {(i * 7) % 29 / 4})" for i in range(30)
    )
    conn.execute(f"INSERT INTO obs VALUES {rows}, ('s9', 30, NULL)")
    conn.execute("CREATE TABLE stations (name VARCHAR(10), city VARCHAR(20))")
    conn.execute(
        "INSERT INTO stations VALUES ('s0', 'Delft'), ('s1', 'Leiden'), "
        "('s2', 'Gouda')"
    )
    conn.execute(
        "CREATE ARRAY m (x INT DIMENSION[0:1:6], y INT DIMENSION[0:1:6], "
        "v INT DEFAULT 0)"
    )
    conn.execute("UPDATE m SET v = x * 6 + y")
    return conn


@pytest.fixture(scope="module")
def reference():
    conn = build(repro.connect(nr_threads=1, fragment_rows=float("inf")))
    return {sql: sorted(conn.execute(sql).rows()) for sql in CORPUS}


@pytest.mark.parametrize("nr_threads,fragment_rows", MODES)
def test_corpus_verifies_and_matches_sequential(
    reference, nr_threads, fragment_rows
):
    conn = build(
        repro.connect(nr_threads=nr_threads, fragment_rows=fragment_rows)
    )
    for sql in CORPUS:
        report = conn.verify_plan(sql)
        assert report.checked_ops > 0, sql
        assert sorted(conn.execute(sql).rows()) == reference[sql], sql


def test_fragmented_corpus_actually_fragments(reference):
    """The grid isn't vacuous: small fragments produce partition groups."""
    conn = build(repro.connect(nr_threads=2, fragment_rows=7))
    grouped = [
        sql for sql in CORPUS if conn.verify_plan(sql).fragment_groups
    ]
    assert grouped  # mergetable split at least the table scans


def test_dml_round_trip_verifies(reference):
    """E13-style read-modify-write: every DML plan is verified too."""
    conn = build(repro.connect(nr_threads=2, fragment_rows=7))
    conn.execute("UPDATE obs SET temp = temp + 1 WHERE day > 10")
    conn.execute("DELETE FROM obs WHERE station = 's3'")
    conn.execute("INSERT INTO obs SELECT station, day + 100, temp FROM obs")
    assert conn.execute("SELECT COUNT(*) FROM obs").scalar() > 0
