"""Zone-granular selects against a NumPy mask oracle, byte for byte.

Every value select walks its input as runs of zone classes (skip a
miss run, emit an all run as an oid range, compare a scan run in
place).  Whatever the runs are, the answer must be the oids a plain
NumPy mask over the whole column selects: NULL rows never match, NaN
fails every comparison (so it matches an ``anti`` range and ``!=``),
and ``±inf`` are ordinary values.  The oracle never looks at zones.

The grid covers clustered and uniform columns (INT, BIGINT, DOUBLE with
NaN and ``±inf``, dictionary-coded text), ``REPRO_ZONE_ROWS`` from one
row to more than the column, fragment windows that start and end
mid-zone (``mat.partition`` of 1–5 pieces), a whole column with and
without statistics, and an optional candidate list.  The ``zonemaps``
parameter picks the inputs: with statistics (``1``) or the same windows
as plain BATs without any (``0``, the one-scan-run reference, which
must never count a pruned input).  SQL selects run in process and over
``repro://``, against a reopened farm's saved zone maps or an
unfragmented in-memory table without statistics.
"""

import math
import operator

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.gdk import select, storage, zonemap
from repro.gdk.atoms import Atom
from repro.gdk.bat import BAT, partition
from repro.gdk.column import Column
from repro.gdk.dictenc import DictColumn, encode_values
from repro.net.server import ServerThread

OPS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: text vocabulary; the probes include values absent from every column.
WORDS = ["ant", "bee", "cat", "dog", "eel", "fox", "gnu", "hen"]
PROBES = ["", "a", "bee", "bz", "dog", "dz", "hen", "zzz"]

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(params=[1, 3, 16, 4096], ids=lambda rows: f"zone{rows}")
def zone_rows(request, monkeypatch):
    monkeypatch.setenv("REPRO_ZONE_ROWS", str(request.param))
    return request.param


@pytest.fixture(params=[False, True], ids=["zonemaps0", "zonemaps1"])
def zonemaps(request):
    """Whether the select inputs carry zone statistics."""
    return request.param


def _pruned() -> int:
    return storage.counters()[0]


# ----------------------------------------------------------------------
# data
# ----------------------------------------------------------------------
@st.composite
def columns(draw, atom):
    """``(values, null mask, constants)``: clustered or uniform."""
    n = draw(st.integers(0, 120))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    clustered = draw(st.booleans())
    null_share = draw(st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0]))
    if atom is Atom.STR:
        values = gen.choice(np.array(WORDS, dtype=object), n)
        if clustered:
            values = np.sort(values)
    else:
        values = gen.integers(-20, 20, n).astype(np.float64)
        if clustered:
            values = np.sort(values)
        if atom is Atom.DBL:
            specials = gen.random(n)
            values[specials < 0.08] = np.nan
            values[(specials >= 0.08) & (specials < 0.11)] = np.inf
            values[(specials >= 0.11) & (specials < 0.14)] = -np.inf
        else:
            values = values.astype(np.int32 if atom is Atom.INT else np.int64)
    mask = gen.random(n) < null_share
    if draw(st.booleans()):  # NULLs in one contiguous block
        mask = np.zeros(n, dtype=np.bool_)
        lo = draw(st.integers(0, n))
        mask[lo:draw(st.integers(lo, n))] = True
    if atom is Atom.STR:
        constants = list(PROBES)
    else:
        constants = [-21, -20, -3, -2.5, 0, 4, 4.5, 19, 20, 2**40]
        if atom is Atom.DBL:
            constants += [np.inf, -np.inf, np.nan]
    return values, mask, constants


def _column(atom, values, mask):
    if atom is Atom.STR:
        dictionary, codes = encode_values(values)
        return DictColumn(Atom.STR, codes, dictionary, mask)
    return Column(atom, values, mask)


def _inputs(atom, values, mask, pieces, zoned):
    """Every BAT shape a select meets: the whole column without and
    with statistics, and mid-zone fragments of one source.  Unless
    *zoned*, the fragments and the source are plain BATs over the same
    windows, without statistics."""
    yield BAT(_column(atom, values, mask))
    source = BAT(_column(atom, values, mask))
    for index in range(pieces):
        fragment = partition(source, index, pieces)
        yield fragment if zoned else BAT(fragment.tail, fragment.hseqbase)
    if zoned:
        zonemap.ensure(source)  # a farm column: statistics on the whole BAT
    yield source


def _check(out, fragment, expected_mask, candidates):
    start = fragment.hseqbase
    window = expected_mask[start:start + len(fragment)]
    if candidates is None:
        expected = np.flatnonzero(window).astype(np.int64) + start
    else:
        oids = candidates.tail.values
        expected = oids[window[oids - start]]
    got = out.tail.values
    assert out.atom is Atom.OID
    assert got.dtype == np.int64
    assert got.tobytes() == expected.tobytes(), (got, expected)


def _candidates(gen, fragment, use):
    if not use:
        return None
    keep = gen.random(len(fragment)) < 0.6
    return BAT.from_oids(np.flatnonzero(keep) + fragment.hseqbase)


def _run_all(atom, data, pieces, seed, use_candidates, zoned):
    """Run every kernel over every input shape against the oracle."""
    values, mask, constants = data
    valid = ~mask
    gen = np.random.default_rng(seed)
    # NaN compares False both ways in NumPy, as in the kernels; text
    # compares as Python strings.
    with np.errstate(invalid="ignore"):
        cases = []
        for op, compare in OPS.items():
            for c in constants:
                hit = np.array([compare(v, c) for v in values], dtype=np.bool_)
                cases.append((("theta", c, op), hit & valid))
        for _ in range(12):
            lo, hi = gen.choice(len(constants), 2)
            lo, hi = constants[lo], constants[hi]
            lo_inc, hi_inc, anti = (bool(flag) for flag in gen.integers(0, 2, 3))
            below = operator.le if lo_inc else operator.lt
            above = operator.le if hi_inc else operator.lt
            inside = np.array(
                [below(lo, v) and above(v, hi) for v in values], dtype=np.bool_
            )
            # NaN fails both comparisons, so it is "not inside" for anti.
            hit = ~inside if anti else inside
            cases.append((("range", lo, hi, lo_inc, hi_inc, anti), hit & valid))
        for _ in range(6):
            size = int(gen.integers(1, 4))
            wanted = [constants[i] for i in gen.choice(len(constants), size)]
            hit = np.array([any(v == w for w in wanted) for v in values], dtype=np.bool_)
            cases.append((("in", wanted), hit & valid))
        cases.append((("isnull", True), mask.copy()))
        cases.append((("isnull", False), valid.copy()))
    before = _pruned()
    for fragment in _inputs(atom, values, mask, pieces, zoned):
        if not zoned:  # the reference: one scan run, never a zone
            assert select._zone_window(fragment)[0] is None
        for case, expected in cases:
            candidates = _candidates(gen, fragment, use_candidates)
            kind, *args = case
            if kind == "theta":
                out = select.thetaselect(fragment, args[0], args[1], candidates)
            elif kind == "range":
                out = select.rangeselect(fragment, *args, candidates=candidates)
            elif kind == "in":
                out = select.in_select(fragment, args[0], candidates)
            else:
                out = select.isnull_select(fragment, args[0], candidates)
            _check(out, fragment, expected, candidates)
    # With statistics some input is answered from its zones alone (an
    # absent constant misses every zone); without, none ever is.
    assert (_pruned() > before) == zoned


@pytest.mark.parametrize("atom", [Atom.INT, Atom.LNG, Atom.DBL, Atom.STR])
class TestZoneScanOracle:
    @SETTINGS
    @given(data=st.data(), pieces=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_selects_equal_the_mask(self, atom, zone_rows, zonemaps, data, pieces, seed):
        values = data.draw(columns(atom))
        _run_all(atom, values, pieces, seed, use_candidates=False, zoned=zonemaps)

    @SETTINGS
    @given(data=st.data(), pieces=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_candidate_selects_equal_the_mask(
        self, atom, zone_rows, zonemaps, data, pieces, seed
    ):
        values = data.draw(columns(atom))
        _run_all(atom, values, pieces, seed, use_candidates=True, zoned=zonemaps)


class TestSelectTrue:
    @SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 80))
    def test_bit_column_equals_the_mask(self, zone_rows, zonemaps, seed, n):
        gen = np.random.default_rng(seed)
        bits = gen.random(n) < 0.5
        mask = gen.random(n) < 0.2
        b = BAT(Column(Atom.BIT, bits, mask), 5)
        if zonemaps:
            zonemap.ensure(b)
        before = _pruned()
        out = select.select_true(b)
        assert _pruned() == before  # its bit column's statistics are never asked
        expected = np.flatnonzero(bits & ~mask).astype(np.int64) + 5
        assert out.tail.values.tobytes() == expected.tobytes()


class TestThroughTheEngine:
    """The same oracle over SQL, in process and over ``repro://``.
    With statistics the table is a reopened farm whose fragment edges
    follow the connection's own fragmentation (``REPRO_FRAGMENT_ROWS``
    in the fragmented CI leg), so they fall mid-zone there; without,
    it is an unfragmented in-memory table."""

    PREDICATES = {
        "c >= 30 AND c < 90": lambda c, u, d: (c >= 30) & (c < 90),
        "c BETWEEN -5 AND 400": lambda c, u, d: (c >= -5) & (c <= 400),
        "c NOT BETWEEN 40 AND 160": lambda c, u, d: (c < 40) | (c > 160),
        "c = 77": lambda c, u, d: c == 77,
        "c <> 77": lambda c, u, d: c != 77,
        "c IN (3, 90, 91, 5000)": lambda c, u, d: np.isin(c, [3, 90, 91, 5000]),
        "u < 3": lambda c, u, d: u < 3,
        "u >= 0": lambda c, u, d: u >= 0,
        "d > 1.5": lambda c, u, d: d > 1.5,
        "d <> 2.0": lambda c, u, d: d != 2.0,
        "d NOT BETWEEN -1 AND 1": lambda c, u, d: ~((d >= -1) & (d <= 1)),
    }

    def test_sql_selects_equal_the_mask(self, zone_rows, zonemaps, tmp_path):
        n = 400
        gen = np.random.default_rng(11)
        c = np.arange(n, dtype=np.int64) // 2  # clustered
        u = gen.integers(0, 50, n)  # uniform
        d = gen.normal(0, 3, n)
        d[gen.random(n) < 0.05] = np.nan
        d[gen.random(n) < 0.03] = np.inf
        d[gen.random(n) < 0.03] = -np.inf
        null = np.zeros(n, dtype=np.bool_)
        null[100:140] = True  # a NULL block across zone edges
        null[gen.random(n) < 0.05] = True
        db = repro.Database(fragment_rows=None if zonemaps else math.inf)
        local = db.connect()
        local.execute("CREATE TABLE t (k INT, c BIGINT, u INT, d DOUBLE)")
        local.executemany(
            "INSERT INTO t VALUES (?, ?, ?, ?)",
            [
                (i, *(None if null[i] else v for v in (int(c[i]), int(u[i]), float(d[i]))))
                for i in range(n)
            ],
        )
        if zonemaps:  # a farm column is loaded with its zone maps
            db.save(tmp_path / "farm")
            db.close()
            db = repro.Database.open(tmp_path / "farm")
            local = db.connect()
        with np.errstate(invalid="ignore"):
            cases = {
                f"SELECT k FROM t WHERE {predicate}": oracle(c, u, d) & ~null
                for predicate, oracle in self.PREDICATES.items()
            }
        cases["SELECT k FROM t WHERE c IS NULL"] = null
        with ServerThread(db) as server:
            remote = repro.connect(server.url)
            cursor = remote.cursor()
            pruned = 0
            for sql, mask in cases.items():
                got = local.execute(sql, collect_stats=True).to_numpy()["k"]
                pruned += local.last_stats.fragments_pruned
                expected = np.flatnonzero(mask).astype(got.dtype)
                assert got.tobytes() == expected.tobytes(), sql
                cursor.execute(sql)
                assert cursor.fetchnumpy()["k"].tobytes() == got.tobytes(), sql
            remote.close()
        if not zonemaps:
            assert pruned == 0  # the reference took the one-scan-run path
        elif zone_rows == 1:
            assert pruned > 0  # one-row zones answer ``c = 77`` alone
        local.close()
        db.close()
