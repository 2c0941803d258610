"""Array dimensions carry their series witness: built, saved, reopened.

``Array.materialise`` builds each dimension once, in its own atom, as a
witnessed ``series_column``; a farm reopen re-checks each stored
dimension against its definition and re-stamps it, so ``grid()`` on a
reopened array still reshapes without reading a coordinate.
"""

import numpy as np
import pytest

import repro
from repro.gdk import cells, persist
from repro.gdk.atoms import Atom
from repro.gdk.bat import BAT
from repro.gdk.column import Column

GRID_SQL = "SELECT [x], [y], v FROM a"


@pytest.fixture
def series_axes_calls(monkeypatch):
    """Record every O(n) series check the addressing kernel makes."""
    calls = []
    check = cells.series_axes

    def spy(columns):
        calls.append(len(columns))
        return check(columns)

    monkeypatch.setattr(cells, "series_axes", spy)
    return calls


def make_farm(tmp_path):
    conn = repro.connect()
    conn.execute(
        "CREATE ARRAY a (x BIGINT DIMENSION[-3:2:9], y INT DIMENSION[0:1:5], v INT)"
    )
    conn.executemany(
        "INSERT INTO a VALUES (?, ?, ?)",
        [(x, y, x * 10 + y) for x in range(-3, 9, 2) for y in range(5) if (x + y) % 3],
    )
    expected = conn.execute(GRID_SQL).grid()
    farm = tmp_path / "farm"
    conn.save(farm)
    conn.close()
    return farm, expected


def dimension_columns(conn):
    array = conn.catalog.get("a")
    return [array.bats[name].tail for name in ("x", "y")]


class TestMaterialise:
    def test_each_dimension_is_built_in_its_atom_with_a_witness(self):
        conn = repro.connect()
        conn.execute(
            "CREATE ARRAY a (x BIGINT DIMENSION[-3:2:9], y INT DIMENSION[0:1:5], v INT)"
        )
        x, y = dimension_columns(conn)
        assert x.values.dtype == np.int64 and y.values.dtype == np.int32
        assert x.series == (-3, 2, 6, 5, 1) and y.series == (0, 1, 5, 1, 6)
        assert x.to_pylist() == np.repeat(np.arange(-3, 9, 2), 5).tolist()
        assert y.to_pylist() == list(range(5)) * 6

    def test_a_fresh_grid_reads_no_coordinate(self, series_axes_calls):
        conn = repro.connect()
        conn.execute("CREATE ARRAY a (x INT DIMENSION[-2:3:10], y INT DIMENSION[0:1:4], v INT)")
        conn.execute("UPDATE a SET v = x * y")
        grid = conn.execute(GRID_SQL).grid()
        assert series_axes_calls == []
        x, y = np.meshgrid(np.arange(-2, 10, 3), np.arange(4), indexing="ij")
        assert grid.dtype == np.int32 and grid.tolist() == (x * y).tolist()


class TestReopenedFarm:
    @pytest.fixture(autouse=True)
    def eager_loads(self, monkeypatch):
        # Every payload loads eagerly, whatever the environment says.
        monkeypatch.setenv("REPRO_MMAP_THRESHOLD_BYTES", str(1 << 30))

    def test_a_reopened_array_keeps_the_witness(self, tmp_path, series_axes_calls):
        farm, expected = make_farm(tmp_path)
        series_axes_calls.clear()  # the INSERT addressed its own rows
        conn = repro.connect(str(farm))
        assert [c.series for c in dimension_columns(conn)] == [
            (-3, 2, 6, 5, 1), (0, 1, 5, 1, 6)
        ]
        grid = conn.execute(GRID_SQL).grid()
        assert series_axes_calls == []
        assert grid.dtype == expected.dtype
        assert grid.tobytes() == expected.tobytes()
        conn.close()

    def test_a_tampered_dimension_file_is_not_stamped(self, tmp_path, series_axes_calls):
        farm, expected = make_farm(tmp_path)
        stored = persist.load_bat(farm / "a", "x").tail
        shifted = Column(Atom.LNG, stored.values + 10)
        persist.save_bat(BAT(shifted), farm / "a", "x")
        series_axes_calls.clear()
        conn = repro.connect(str(farm))
        x, y = dimension_columns(conn)
        assert x.series is None and y.series == (0, 1, 5, 1, 6)
        dimensions, grids = conn.execute(GRID_SQL).to_array()
        # The stored values decide, read the O(n) way.
        assert series_axes_calls != []
        assert dimensions[0].axis == (7, 2, 6)
        assert grids["v"].tobytes() == expected.tobytes()
        conn.close()

    def test_memory_mapped_dimensions_are_not_read_at_open(self, tmp_path, monkeypatch):
        farm, expected = make_farm(tmp_path)
        monkeypatch.setenv("REPRO_MMAP_THRESHOLD_BYTES", "0")
        conn = repro.connect(str(farm))
        x, y = dimension_columns(conn)
        assert isinstance(y.values, np.memmap) and y.series is None
        assert conn.execute(GRID_SQL).grid().tobytes() == expected.tobytes()
        conn.close()
