"""Arrays with an empty dimension: no cells, and nothing else goes wrong.

A dimension ``[0:1:0]`` has size 0, so ``array.series`` of every other
dimension repeats its values 0 times.  The array is created empty, like
a one-dimensional empty array; its grid has the declared shape with a
0 in it, and the session goes on working.
"""

import numpy as np
import pytest

import repro
from repro.core.coercion import table_to_array_columns
from repro.gdk.atoms import Atom
from repro.gdk.cells import series_column
from repro.gdk.column import Column

SHAPES = {
    "2d-inner-empty": ("x INT DIMENSION[0:1:3], y INT DIMENSION[0:1:0]", (3, 0)),
    "2d-outer-empty": ("x INT DIMENSION[4:2:4], y INT DIMENSION[-2:1:2]", (0, 4)),
    "3d-middle-empty": (
        "x INT DIMENSION[0:1:2], y INT DIMENSION[7:1:7], z INT DIMENSION[0:1:4]",
        (2, 0, 4),
    ),
    "3d-last-empty": (
        "x INT DIMENSION[0:1:2], y INT DIMENSION[0:1:3], z BIGINT DIMENSION[1:1:1]",
        (2, 3, 0),
    ),
}


@pytest.mark.parametrize("dimensions, shape", SHAPES.values(), ids=SHAPES)
class TestEmptyDimension:
    def _create(self, conn, dimensions):
        conn.execute(f"CREATE ARRAY e ({dimensions}, v INT DEFAULT 1)")
        return [part.split()[0] for part in dimensions.split(", ")]

    def test_counts_no_cells(self, conn, dimensions, shape):
        names = self._create(conn, dimensions)
        assert conn.execute("SELECT COUNT(*), SUM(v) FROM e").rows() == [(0, None)]
        assert conn.execute(f"SELECT {', '.join(names)}, v FROM e").rows() == []

    def test_grid_is_empty_in_the_declared_shape(self, conn, dimensions, shape):
        names = self._create(conn, dimensions)
        cells = ", ".join(f"[{name}]" for name in names)
        grid = conn.execute(f"SELECT {cells}, v FROM e").grid()
        assert grid.shape == shape and grid.size == 0
        tiles = "".join(f"[{name}:{name}+2]" for name in names)
        tiled = conn.execute(f"SELECT {cells}, SUM(v) FROM e GROUP BY e{tiles}")
        assert tiled.rows() == []

    def test_the_session_keeps_working(self, conn, dimensions, shape):
        self._create(conn, dimensions)
        assert conn.execute("UPDATE e SET v = 2").affected == 0
        assert conn.execute("DELETE FROM e").affected == 0
        conn.execute("CREATE TABLE t (a INT)")
        conn.execute("INSERT INTO t VALUES (1), (2)")
        assert conn.execute("SELECT SUM(a) FROM t").scalar() == 3
        conn.execute("DROP ARRAY e")
        conn.execute("CREATE ARRAY e (x INT DIMENSION[0:1:2], v INT DEFAULT 5)")
        assert conn.execute("SELECT [x], v FROM e").grid().tolist() == [5, 5]

    def test_a_saved_farm_reopens_empty(self, tmp_path, dimensions, shape):
        conn = repro.connect()
        names = self._create(conn, dimensions)
        conn.database.save(tmp_path / "farm")
        conn.close()
        conn = repro.connect(tmp_path / "farm")
        try:
            assert conn.execute("SELECT COUNT(*) FROM e").scalar() == 0
            cells = ", ".join(f"[{name}]" for name in names)
            assert conn.execute(f"SELECT {cells}, v FROM e").grid().shape == shape
        finally:
            conn.close()


def test_a_one_dimensional_empty_array_has_an_empty_grid(conn):
    conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:0], v INT)")
    assert conn.execute("SELECT COUNT(*) FROM a").scalar() == 0
    grid = conn.execute("SELECT [x], v FROM a").grid()
    assert grid.shape == (0,)
    assert np.array_equal(grid, np.zeros(0, dtype=np.int32))


#: statements over a 4×4 INT array that keep no row.
NO_ROW = [
    "SELECT [x], [y], v FROM a WHERE v > 1000",
    "SELECT [x / 2], [y / 2], SUM(v) FROM a GROUP BY a[x:x+2][y:y+2] "
    "HAVING x MOD 7 = 5 AND y MOD 2 = 0",
]


@pytest.mark.parametrize("sql", NO_ROW)
@pytest.mark.parametrize(
    "pipeline", [{}, {"nr_threads": 4, "fragment_rows": 7}], ids=["whole", "frag7"]
)
def test_a_result_with_no_row_has_empty_grids(sql, pipeline):
    """With no row to infer them from, every dimension is empty, and each
    grid is ``(0,) * k`` in the dtype of its column's own grid."""
    conn = repro.connect(**pipeline)
    conn.register_array("a", np.arange(16, dtype=np.int32).reshape(4, 4))
    result = conn.execute(sql)
    assert result.rows() == []
    dimensions, grids = result.to_array()
    assert [d.size for d in dimensions] == [0, 0]
    (name, grid), = grids.items()
    dtype = np.int32 if name == "v" else np.int64
    assert grid.shape == (0, 0) and grid.dtype == dtype
    assert np.array_equal(result.grid(), np.empty((0, 0), dtype=dtype))
    conn.close()


def test_rows_without_a_witness_keep_a_stamped_start_and_step():
    witnessed = series_column(5, 2, 5, 3, 1)  # no value; the other axis is bare
    bare = Column.from_pylist(Atom.INT, [])
    dimensions, dense = table_to_array_columns(
        [witnessed, bare], [Column.from_pylist(Atom.DBL, [])], dimension_names=["x", "y"]
    )
    assert [(d.start, d.step, d.size) for d in dimensions] == [(5, 2, 0), (0, 1, 0)]
    assert len(dense[0]) == 0 and dense[0].atom is Atom.DBL
