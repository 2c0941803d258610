"""Two doors for data, and every loader goes through one of them.

NumPy arrays enter through ``Connection.register_array``; Python rows
enter through the statement's own INSERT plan, a one-row parameterised
``INSERT ... VALUES`` running once with each ``?`` bound to a column.
So every loader stores what its door stores — the atom, the values,
the NULLs and what ``MAX`` / ``SUM`` / ``COUNT`` make of them — and a
NumPy load is one commit, never an empty array a reader could see.
Governance of the loads is pinned in ``test_lifecycle.py`` (and over
the wire in ``tests/net/test_governance.py``), the CSV record width in
``test_csv_statistics.py``.
"""

from __future__ import annotations

import csv
import math
import re

import numpy as np
import pytest

import repro
from repro.apps import imaging
from repro.apps.timeseries import SensorLog
from repro.core import ArrayHandle
from repro.gdk.atoms import Atom
from repro.gdk.bat import BAT
from repro.io import import_array_csv, import_csv
from repro.mal.modules import REGISTRY, load_all
from repro.net.server import ServerThread

NUMPY_CASES = {
    "float-nan": np.array([[1.5, np.nan, 2.0], [3.0, np.nan, -1.0]]),
    "int64-past-int32": np.array([[2**40, 1, -(2**35)], [5, 6, 7]], dtype=np.int64),
    "bool": np.array([[True, False, True], [False, False, True]]),
    "uint8": np.array([[0, 255, 7], [8, 9, 200]], dtype=np.uint8),
}


def _register(conn, name, data):
    conn.register_array(name, data)


#: loader -> (how it loads *data* as *name*, the ``register_array`` it matches).
NUMPY_LOADERS = {
    "ArrayHandle.from_numpy": (ArrayHandle.from_numpy, _register),
    "load_image": (imaging.load_image, _register),
    "SensorLog.from_numpy": (  # a float signal, whatever the dtype
        lambda conn, name, data: SensorLog.from_numpy(conn, name, data.ravel()),
        lambda conn, name, data: conn.register_array(
            name, data.ravel().astype(np.float64), dims=("t",)
        ),
    ),
}

#: case -> (the column's SQL type, the Python values of its rows).
ROW_CASES = {
    "float-nan": ("DOUBLE", [1.5, math.nan, None, -1.0]),
    "int64-past-int32": ("INT", [2**40, 1, None, -(2**35)]),
    "bool": ("BOOLEAN", [True, False, None, True]),
    "uint8": ("INT", [np.uint8(0), np.uint8(255), None, np.uint8(7)]),
}


def _canon(value):
    """NaN as a string, so a stored NaN compares equal to itself."""
    return "nan" if isinstance(value, float) and math.isnan(value) else value


def _aggregates(conn, name: str) -> list:
    out = []
    for aggregate in ("MAX(v)", "SUM(v)", "COUNT(v)"):
        try:
            out.append(_canon(conn.execute(f"SELECT {aggregate} FROM {name}").scalar()))
        except repro.Error as exc:
            out.append(type(exc))
    return out


def _array_facts(conn, name: str) -> tuple:
    """What a NumPy load stored: dimensions, the atom of ``v``, every
    cell's ``v`` in cell order, and the aggregates over it."""
    array = conn.catalog.get_array(name)
    return (
        [(d.name, d.atom, d.start, d.step, d.stop) for d in array.dimensions],
        array.attribute_def("v").atom,
        [_canon(v) for v in conn.execute(f"SELECT v FROM {name}").column("v")],
        _aggregates(conn, name),
    )


@pytest.mark.parametrize("case", NUMPY_CASES)
@pytest.mark.parametrize("loader", NUMPY_LOADERS)
def test_numpy_loaders_store_what_register_array_stores(conn, loader, case):
    load, door = NUMPY_LOADERS[loader]
    data = NUMPY_CASES[case]
    door(conn, "want", data)
    mine = data.copy()
    before = conn.database.head().version
    load(conn, "got", mine)
    assert conn.database.head().version == before + 1  # create and fill: one commit
    mine[...] = 0  # the caller's buffer stays the caller's
    assert _array_facts(conn, "got") == _array_facts(conn, "want")


def test_a_sensor_log_stays_a_float_signal(conn):
    """An integer signal still records fractional samples."""
    log = SensorLog.from_numpy(conn, "s", np.arange(4))
    log.record(1, 2.5)
    assert log.to_numpy().tolist() == [0.0, 2.5, 2.0, 3.0]


@pytest.mark.parametrize(
    "bad", [(3,), (3, object()), (3, 2**63), (3, np.int64(4), 5)], ids=repr
)
def test_a_bad_row_fails_the_batch_as_it_fails_alone(conn, bad):
    """``executemany`` binds a batch a column at a time when it can;
    a bad row still raises what it raises alone, and nothing loads."""
    conn.execute("CREATE TABLE t (k INT, v BIGINT)")
    sql = "INSERT INTO t VALUES (?, ?)"
    with pytest.raises(repro.Error) as alone:
        conn.execute(sql, bad)
    with pytest.raises(type(alone.value), match=re.escape(str(alone.value))):
        conn.executemany(sql, [(1, 2), [2, np.int64(3)], bad, (4, 5)])
    assert conn.execute("SELECT COUNT(*) FROM t").scalar() == 0


def _row_facts(conn, name: str) -> tuple:
    atom = conn.catalog.get(name).column_def("v").atom
    rows = conn.execute(f"SELECT k, v FROM {name} ORDER BY k").rows()
    return atom, [(k, _canon(v)) for k, v in rows], _aggregates(conn, name)


def _write_csv(path, rows) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["k", "v"])
        writer.writerows([[k, "" if v is None else v] for k, v in rows])


def _row_loaders(tmp_path):
    """loader -> how it loads ``(k, v)`` rows into table or array *name*."""

    def executemany(conn, name, rows):
        conn.executemany(f"INSERT INTO {name} VALUES (?, ?)", rows)

    def per_row(conn, name, rows):
        for row in rows:
            conn.execute(f"INSERT INTO {name} VALUES (?, ?)", row)

    def from_csv(conn, name, rows):
        path = tmp_path / f"{name}.csv"
        _write_csv(path, rows)
        if conn.catalog.get(name).kind == "array":
            import_array_csv(conn, name, path)
        else:
            import_csv(conn, name, path)

    return {"executemany": executemany, "per-row execute": per_row, "csv": from_csv}


@pytest.mark.parametrize("kind", ["table", "array"])
@pytest.mark.parametrize("loader", ["executemany", "per-row execute", "csv"])
@pytest.mark.parametrize("case", ROW_CASES)
def test_row_loaders_store_what_multi_row_values_stores(conn, tmp_path, kind, loader, case):
    sql_type, values = ROW_CASES[case]
    rows = list(enumerate(values))
    for name in ("want", "got"):
        if kind == "table":
            conn.execute(f"CREATE TABLE {name} (k INT, v {sql_type})")
        else:
            conn.execute(
                f"CREATE ARRAY {name} (k INT DIMENSION[0:1:{len(rows)}], v {sql_type})"
            )
    conn.execute(
        "INSERT INTO want VALUES " + ", ".join(["(?, ?)"] * len(rows)),
        [value for row in rows for value in row],
    )
    _row_loaders(tmp_path)[loader](conn, "got", rows)
    assert _row_facts(conn, "got") == _row_facts(conn, "want")


#: case -> (the column's SQL type, the two values, what the column holds).
MIXED = {
    "varchar-number-first": ("VARCHAR(8)", [3, "a"], ["3", "a"]),
    "varchar-text-first": ("VARCHAR(8)", ["a", 3], ["a", "3"]),
    "double-text-second": ("DOUBLE", [1, "2.5"], [1.0, 2.5]),
}


@pytest.fixture(scope="module")
def remote_db():
    db = repro.Database()
    with ServerThread(db) as thread:
        yield db, thread.url
    db.close()


@pytest.mark.parametrize("where", ["in-process", "repro://"])
@pytest.mark.parametrize("case", MIXED)
def test_mixed_values_convert_once_into_the_column(remote_db, where, case):
    """``bat.pack`` converts each VALUES column straight into the
    target's atom, so the first value no longer types the column."""
    sql_type, values, want = MIXED[case]
    db, url = remote_db
    session = db.connect() if where == "in-process" else repro.connect(url)
    name = f"m_{case.replace('-', '_')}_{where == 'repro://'}"
    session.execute(f"CREATE TABLE {name} (k INT, v {sql_type})")
    rows = list(enumerate(values))
    ways = {
        "multi-row execute": lambda: session.execute(
            f"INSERT INTO {name} VALUES (?, ?), (?, ?)", [x for row in rows for x in row]
        ),
        "executemany": lambda: session.executemany(f"INSERT INTO {name} VALUES (?, ?)", rows),
        "per-row execute": lambda: [
            session.execute(f"INSERT INTO {name} VALUES (?, ?)", row) for row in rows
        ],
    }
    stored = {}
    for way, load in ways.items():
        session.execute(f"DELETE FROM {name}")
        load()
        stored[way] = session.execute(f"SELECT v FROM {name} ORDER BY k").column("v")
    session.close()
    assert stored == dict.fromkeys(ways, want)


class TestConstantSlots:
    """In a one-row template, a constant slot broadcasts against the
    column the first ``?`` is bound to."""

    def test_into_a_table(self, conn):
        conn.execute("CREATE TABLE t (k INT, tag VARCHAR(4), v DOUBLE, n INT)")
        sql = "INSERT INTO t VALUES (?, 'x', ?, NULL)"
        rows = [(i, i / 2) for i in range(5)]
        assert conn.executemany(sql, rows).affected == 5
        many = conn.execute("SELECT * FROM t ORDER BY k").rows()
        conn.execute("DELETE FROM t")
        for row in rows:
            conn.execute(sql, row)
        assert conn.execute("SELECT * FROM t ORDER BY k").rows() == many
        assert many == [(i, "x", i / 2, None) for i in range(5)]

    def test_into_an_array(self, conn):
        conn.execute(
            "CREATE ARRAY a (x INT DIMENSION[0:1:4], y INT DIMENSION[0:1:4], v INT DEFAULT 0)"
        )
        cells = [(0, 1), (2, 3), (3, 3), (9, 9)]  # (9, 9) is outside the array
        assert conn.executemany("INSERT INTO a VALUES (?, ?, 1)", cells).affected == 3
        assert conn.execute("SELECT x, y FROM a WHERE v = 1 ORDER BY x").rows() == [
            (0, 1), (2, 3), (3, 3),
        ]

    def test_constant_coordinate(self, conn):
        conn.execute(
            "CREATE ARRAY a (x INT DIMENSION[0:1:4], y INT DIMENSION[0:1:4], v INT DEFAULT 0)"
        )
        conn.executemany("INSERT INTO a VALUES (?, 2, ?)", [(0, 5), (1, 6)])
        assert conn.execute("SELECT x, v FROM a WHERE y = 2 AND v > 0").rows() == [
            (0, 5), (1, 6),
        ]

    @pytest.mark.parametrize("constant", ["2.5", str(2**40), "NULL"])
    def test_a_constant_column_carries_the_targets_atom(self, conn, monkeypatch, constant):
        """A constant of another kind converts once, into the column's
        atom, before it repeats: ``sql.append`` gets an ``int`` BAT."""
        load_all()
        append = REGISTRY[("sql", "append")]
        atoms = []

        def spy(ctx, target, names, *columns):
            atoms.append([column.atom for column in columns if isinstance(column, BAT)])
            return append(ctx, target, names, *columns)

        monkeypatch.setitem(REGISTRY, ("sql", "append"), spy)
        conn.execute("CREATE TABLE t (k INT, v INT)")
        sql = f"INSERT INTO t VALUES (?, {constant})"
        conn.executemany(sql, [(1,), (2,)])
        conn.execute(sql, (3,))
        assert atoms == [[Atom.INT, Atom.INT]] * 2
        want = {"2.5": 2, str(2**40): None, "NULL": None}[constant]
        assert conn.execute("SELECT k, v FROM t ORDER BY k").rows() == [
            (k, want) for k in (1, 2, 3)
        ]
