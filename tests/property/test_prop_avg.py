"""One AVG: every plan shape divides the exact total by the count.

A grouped AVG lowers to SUM and COUNT plus the ``aggr.mean`` finisher,
whose fragment partials merge as those aggregates' do; the scalar AVG
and the tile AVG divide by the same rule.  For random INT, LNG and DBL
columns with NULLs — groups whose every value is NULL, LNG totals past
2**53 and past ``lng``, keys chained through ``subgroup`` — each of them
must give, bit for bit, the correctly rounded mean of the exact
rational total, ``float(Fraction(total, count))``:

* the grouped AVG under the default pipeline, under ``frag64`` (four
  threads, 64-row fragments) and with ``common_terms`` ablated, so the
  SUM and COUNT the AVG reads are its own, not the select list's;
* the scalar AVG, the whole column as one group;
* the tiled AVG over a 1-D tile that covers the column from every anchor.

DBL values are multiples of 1/4 below 2**18, so every partial sum is a
double whatever the summation order, and the exact mean is what each
path must reach.
"""

import itertools
import math
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro

SQL_TYPES = {"int": "INT", "lng": "BIGINT", "dbl": "DOUBLE"}

VALUES = {
    "int": st.integers(-(2**31) + 1, 2**31 - 1),
    # Small values, totals near 2**53 and totals past lng.
    "lng": st.integers(-50, 50)
    | st.integers(2**53 - 4, 2**53 + 4)
    | st.integers(-(2**62), 2**62),
    "dbl": st.integers(-(2**20), 2**20).map(lambda k: k / 4),
}

_names = itertools.count()


@st.composite
def tables(draw):
    """``(atom, keys per row, values per row)``: one or two key columns."""
    atom = draw(st.sampled_from(list(VALUES)))
    rows = draw(st.integers(0, 150))
    levels = draw(st.integers(1, 2))
    key = st.integers(0, 4) | st.none()
    keys = [
        tuple(draw(st.lists(key, min_size=levels, max_size=levels)))
        for _ in range(rows)
    ]
    values = draw(st.lists(VALUES[atom] | st.none(), min_size=rows, max_size=rows))
    return atom, keys, values


def _mean(values):
    """The exact mean of the non-NULL *values*, correctly rounded."""
    present = [Fraction(v) for v in values if v is not None]
    return float(sum(present) / len(present)) if present else None


def _bits(value):
    return None if value is None else struct.pack("<d", value)


@pytest.fixture(scope="module")
def engines():
    default = repro.connect(nr_threads=1, fragment_rows=math.inf)
    ablated = default.database.connect()
    ablated.pipeline = tuple(p for p in default.pipeline if p.name != "common_terms")
    assert len(ablated.pipeline) == len(default.pipeline) - 1
    frag64 = default.database.connect(nr_threads=4, fragment_rows=64)
    yield {"default": default, "no-common_terms": ablated, "frag64": frag64}
    for conn in (frag64, ablated, default):
        conn.close()


class TestOneAvg:
    @given(table=tables())
    @settings(max_examples=60, deadline=None)
    def test_grouped_and_scalar_avg_are_the_exact_mean(self, engines, table):
        atom, keys, values = table
        name = f"t{next(_names)}"
        levels = len(keys[0]) if keys else 1
        columns = [f"k{level}" for level in range(levels)]
        conn = engines["default"]
        conn.execute(
            f"CREATE TABLE {name} ("
            + ", ".join(f"{c} INT" for c in columns)
            + f", v {SQL_TYPES[atom]})"
        )
        marks = ", ".join("?" * (levels + 1))
        conn.executemany(
            f"INSERT INTO {name} VALUES ({marks})",
            [key + (value,) for key, value in zip(keys, values)],
        )
        by_key: dict = {}
        for key, value in zip(keys, values):
            by_key.setdefault(key, []).append(value)
        expected = {key: _bits(_mean(group)) for key, group in by_key.items()}
        key_list = ", ".join(columns)
        # The select list's SUM and COUNT are the terms the AVG shares.
        grouped = (
            f"SELECT {key_list}, SUM(v), AVG(v), COUNT(v) FROM {name} GROUP BY {key_list}"
        )
        for label, engine in engines.items():
            rows = engine.execute(grouped).rows()
            got = {row[:levels]: _bits(row[levels + 1]) for row in rows}
            assert got == expected, label
            scalar = engine.execute(f"SELECT AVG(v) FROM {name}").scalar()
            assert _bits(scalar) == _bits(_mean(values)), label
        conn.execute(f"DROP TABLE {name}")

    @given(table=tables())
    @settings(max_examples=40, deadline=None)
    def test_tile_avg_covering_the_column_is_the_exact_mean(self, engines, table):
        atom, _, values = table
        if not values:
            return
        name = f"a{next(_names)}"
        n = len(values)
        conn = engines["default"]
        conn.execute(
            f"CREATE ARRAY {name} (i INT DIMENSION[0:1:{n}], v {SQL_TYPES[atom]})"
        )
        cells = [(i, v) for i, v in enumerate(values) if v is not None]
        if cells:
            conn.executemany(f"INSERT INTO {name} VALUES (?, ?)", cells)
        expected = _bits(_mean(values))
        tiled = f"SELECT [i], AVG(v) FROM {name} GROUP BY {name}[i-{n}:i+{n}]"
        for label, engine in engines.items():
            rows = engine.execute(tiled).rows()
            assert [_bits(avg) for _, avg in rows] == [expected] * n, label
        conn.execute(f"DROP ARRAY {name}")


class TestRoundingCases:
    """Inputs on which a float total rounds twice: the scalar and the
    tile AVG must still equal the grouped one, the exact mean."""

    CASES = [
        [29451006937133881, 18818635562008284, 18346041029558814],
        [2**53, 1, 1],
    ]

    @pytest.fixture(params=CASES, ids=["three-bigints", "2**53+1+1"])
    def loaded(self, request):
        values = request.param
        conn = repro.connect(nr_threads=1, fragment_rows=math.inf)
        conn.execute("CREATE TABLE t (k INT, v BIGINT)")
        conn.executemany("INSERT INTO t VALUES (1, ?)", [(v,) for v in values])
        conn.execute(f"CREATE ARRAY a (i INT DIMENSION[0:1:{len(values)}], v BIGINT)")
        conn.executemany("INSERT INTO a VALUES (?, ?)", list(enumerate(values)))
        exact = float(Fraction(sum(values), len(values)))
        assert conn.execute("SELECT k, AVG(v) FROM t GROUP BY k").rows() == [(1, exact)]
        yield conn, values, exact
        conn.close()

    def test_scalar_avg_is_the_grouped_one(self, loaded):
        conn, _, exact = loaded
        assert conn.execute("SELECT AVG(v) FROM t").scalar() == exact

    def test_full_tile_avg_is_the_grouped_one(self, loaded):
        conn, values, exact = loaded
        # The full tile is anchor 0's.
        tiled = conn.execute(f"SELECT [i], AVG(v) FROM a GROUP BY a[i:i+{len(values)}]")
        assert tiled.rows()[0] == (0, exact)
