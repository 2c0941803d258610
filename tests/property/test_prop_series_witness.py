"""The series witness is only a shortcut: with it or without it, one answer.

A dimension column built by ``series_column`` carries ``series``, the
``array.series`` parameters it spells, and :mod:`repro.gdk.cells`
composes those in O(#dims) instead of reading the values.  For random
1–3-D arrays with negative starts and non-unit steps, every consumer of
the kernel — ``Result.to_array()``/``grid()`` (plain projections,
HAVING-masked and HAVING-filtered ``[x/2]``-scaled tilings, NULL-valued anchors, with
and without ``defaults``), ``Array.cell_oids`` and ``array.cellindex``
— must give byte-identical answers with the witness present and with
it stripped.  And no op that makes a new column passes it on.
"""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.coercion import table_to_array_columns
from repro.engine.result import Result
from repro.gdk.atoms import Atom
from repro.gdk.bat import BAT, pack_bats, partition
from repro.gdk.cells import series_column
from repro.gdk.column import Column
from repro.mal.modules.array_mod import _cellindex


def stripped(column: Column) -> Column:
    """The same payload as a fresh column: no witness."""
    return Column(column.atom, column.values, column.mask)


@st.composite
def arrays(draw):
    axes = [
        (draw(st.integers(-7, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 5)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    cells = math.prod(size for _, _, size in axes)
    values = draw(
        st.lists(st.one_of(st.none(), st.integers(-50, 50)), min_size=cells, max_size=cells)
    )
    other = [
        (draw(st.integers(-7, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 5)))
        for _ in axes
    ]
    return axes, values, other


def load(axes, values):
    conn = repro.connect()
    names = [f"d{i}" for i in range(len(axes))]
    specs = ", ".join(
        f"{name} INT DIMENSION[{start}:{step}:{start + step * size}]"
        for name, (start, step, size) in zip(names, axes)
    )
    conn.execute(f"CREATE ARRAY a ({specs}, v INT)")
    ranks = np.indices([size for _, _, size in axes]).reshape(len(axes), -1)
    rows = [
        tuple(int(start + step * ranks[i][cell]) for i, (start, step, _) in enumerate(axes))
        + (value,)
        for cell, value in enumerate(values)
        if value is not None
    ]
    if rows:
        conn.executemany(f"INSERT INTO a VALUES ({', '.join('?' * (len(axes) + 1))})", rows)
    return conn, names


def queries(names):
    dims = ", ".join(f"[{name}]" for name in names)
    reversed_dims = ", ".join(f"[{name}]" for name in names[::-1])
    halves = ", ".join(f"[{name} / 2]" for name in names)
    tile = "".join(f"[{name}:{name}+2]" for name in names)
    window = "".join(f"[{name}-1:{name}+2]" for name in names)
    even = " AND ".join(f"{name} MOD 2 = 0" for name in names)
    return [
        f"SELECT {dims}, v FROM a",
        f"SELECT {dims}, v * 2, v FROM a",
        f"SELECT {reversed_dims}, v FROM a",  # witnessed, but not row-major
        f"SELECT {dims}, MIN(v) FROM a GROUP BY a{window}",
        f"SELECT {dims}, SUM(v) FROM a GROUP BY a{tile} HAVING {even}",
        f"SELECT {halves}, AVG(v) FROM a GROUP BY a{tile} HAVING {even}",
    ]


def assert_same_arrays(left, right):
    (left_dims, left_grids), (right_dims, right_grids) = left, right
    assert [(d.name, d.start, d.step, d.stop) for d in left_dims] == [
        (d.name, d.start, d.step, d.stop) for d in right_dims
    ]
    assert list(left_grids) == list(right_grids)
    for name, grid in left_grids.items():
        other = right_grids[name]
        assert grid.dtype == other.dtype and grid.shape == other.shape
        assert grid.tobytes() == other.tobytes()


def assert_same_dense(left, right):
    assert len(left) == len(right)
    for mine, theirs in zip(left, right):
        assert mine.atom is theirs.atom
        assert mine.values.tobytes() == theirs.values.tobytes()
        assert np.array_equal(mine.effective_mask(), theirs.effective_mask())


class TestWitnessedEqualsStripped:
    @settings(max_examples=60, deadline=None)
    @given(arrays())
    def test_results_grids_and_defaults(self, case):
        axes, values, _ = case
        conn, names = load(axes, values)
        for sql in queries(names):
            result = conn.execute(sql)
            bare = Result(
                result.kind, result.names, [stripped(c) for c in result.columns], result.meta
            )
            if not len(result.columns[0]):
                # A HAVING that keeps no anchor of an [x/2]-scaled tiling
                # leaves no row: every dimension is empty, either way.
                assert_same_arrays(result.to_array(), bare.to_array())
                for name, grid in result.to_array()[1].items():
                    empty = result.columns[result.names.index(name)].to_numpy()
                    assert grid.shape == (0,) * len(names) and grid.dtype == empty.dtype
                continue
            if sql.startswith(f"SELECT [{names[0]}],"):
                # The dimensions flow to the result untouched: witnessed.
                assert all(c.series is not None for c in result.columns[: len(names)])
            assert_same_arrays(result.to_array(), bare.to_array())
            dims = len(names)
            for defaults in (None, [7] * (len(result.columns) - dims)):
                witnessed = table_to_array_columns(
                    result.columns[:dims], result.columns[dims:],
                    defaults=defaults, skip_all_null_rows=True,
                )
                plain = table_to_array_columns(
                    bare.columns[:dims], bare.columns[dims:],
                    defaults=defaults, skip_all_null_rows=True,
                )
                assert [d.axis for d in witnessed[0]] == [d.axis for d in plain[0]]
                assert_same_dense(witnessed[1], plain[1])
        conn.close()

    @settings(max_examples=60, deadline=None)
    @given(arrays())
    def test_cell_oids_and_cellindex(self, case):
        axes, values, other = case
        conn, names = load(axes, values)
        array = conn.catalog.get("a")
        columns = [array.bats[name].tail for name in names]
        assert all(column.series is not None for column in columns)
        bare = [stripped(column) for column in columns]
        assert array.cell_oids(columns).tobytes() == array.cell_oids(bare).tobytes()
        for target in (axes, other):
            shape = json.dumps([size for _, _, size in target])
            spec = json.dumps([[start, step, start + step * size] for start, step, size in target])
            witnessed = _cellindex(None, shape, spec, *[BAT(c) for c in columns])
            plain = _cellindex(None, shape, spec, *[BAT(c) for c in bare])
            assert witnessed.tail.values.tobytes() == plain.tail.values.tobytes()
        conn.close()


class TestNewColumnsStartWithoutWitness:
    def test_every_op_that_makes_a_column_drops_it(self):
        column = series_column(-4, 3, 11, 2, 3, Atom.INT)
        assert column.series == (-4, 3, 5, 2, 3)
        bat = BAT(column)
        made = {
            "take": column.take(np.arange(len(column))),
            "slice": column.slice(0, len(column)),
            "mat.partition": partition(bat, 0, 1).tail,
            "mat.pack": pack_bats([partition(bat, i, 2) for i in range(2)]).tail,
            "cast": column.cast(Atom.LNG),
            "replace": column.replace(np.array([0]), Column(Atom.INT, np.array([-4], np.int32))),
        }
        for op, result in made.items():
            assert result.series is None, op
            assert result.values.tolist() == column.values.tolist(), op

    def test_a_series_with_nulls_has_no_witness(self):
        # 2**31 does not fit an INT dimension: NULL, as the one cast rule says.
        column = series_column(2**31 - 2, 1, 2**31 + 1, 1, 1, Atom.INT)
        assert column.to_pylist() == [2**31 - 2, 2**31 - 1, None]
        assert column.series is None
