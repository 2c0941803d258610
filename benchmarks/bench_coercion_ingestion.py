"""E13 + E14: coercion throughput and the ingestion claim.

E13 measures array↔table coercions across cell counts (both should be
linear), and ``Result.grid()`` alone on a 512x512 result for the three
shapes rows arrive in: already cell-ordered (a reshape), coarsened by
``[x/2]`` with HAVING-masked duplicates, and permuted (both scatter
through the general addressing path).  E14 measures the paper's
motivating complaint — "ingestion of terabytes of data is too slow"
with tuple-at-a-time interfaces — by comparing three load paths for the
same cells:

* tuple-at-a-time INSERT statements (the status quo),
* one bulk multi-row INSERT,
* array materialisation via ``array.filler`` + data-vault bulk load.
"""

import numpy as np
import pytest

import repro
from repro.apps import imaging

SIZES = [32, 100]  # side lengths: 1 024 and 10 000 cells


def build_array(conn, side, name="a"):
    conn.execute(
        f"CREATE ARRAY {name} (x INT DIMENSION[0:1:{side}], "
        f"y INT DIMENSION[0:1:{side}], v INT DEFAULT 7)"
    )


@pytest.mark.benchmark(group="E13-array-to-table")
@pytest.mark.parametrize("side", SIZES)
def test_array_to_table(benchmark, conn, side):
    build_array(conn, side)
    result = benchmark(conn.execute, "SELECT x, y, v FROM a")
    assert len(result.rows()) == side * side


@pytest.mark.benchmark(group="E13-table-to-array")
@pytest.mark.parametrize("side", SIZES)
def test_table_to_array(benchmark, conn, side):
    conn.execute("CREATE TABLE rows (x INT, y INT, v INT)")
    values = ", ".join(
        f"({x}, {y}, 1)" for x in range(side) for y in range(side)
    )
    conn.execute(f"INSERT INTO rows VALUES {values}")

    def coerce():
        return conn.execute("SELECT [x], [y], v FROM rows").grid()

    grid = benchmark(coerce)
    assert grid.shape == (side, side)


GRID_SIDE = 512
GRID_QUERIES = {
    "dense": ("SELECT [x], [y], 255 - v FROM img", GRID_SIDE),
    "halved-duplicates": (
        "SELECT [x / 2], [y / 2], AVG(v) FROM img GROUP BY img[x:x+2][y:y+2] "
        "HAVING x MOD 2 = 0 AND y MOD 2 = 0",
        GRID_SIDE // 2,
    ),
    "permuted": ("SELECT [px], [py], v FROM shuffled", GRID_SIDE),
}


@pytest.mark.benchmark(group="E13-result-grid")
@pytest.mark.parametrize("shape", list(GRID_QUERIES))
def test_result_grid(benchmark, conn, shape):
    """``grid()`` only: the query runs once, outside the timed call."""
    rng = np.random.default_rng(7)
    image = rng.integers(0, 256, (GRID_SIDE, GRID_SIDE)).astype(np.int32)
    conn.register_array("img", image)
    if shape == "permuted":
        order = rng.permutation(image.size)
        conn.register_array(
            "shuffled",
            {
                "px": (order // GRID_SIDE).astype(np.int32),
                "py": (order % GRID_SIDE).astype(np.int32),
                "v": image.reshape(-1)[order],
            },
            dims=["i"],
        )
    sql, side = GRID_QUERIES[shape]
    result = conn.execute(sql)
    grid = benchmark(result.grid)
    assert grid.shape == (side, side)
    if shape != "halved-duplicates":
        expected = 255 - image if shape == "dense" else image
        assert np.array_equal(grid, expected)


@pytest.mark.benchmark(group="E14-ingestion")
def test_tuple_at_a_time_insert(benchmark, conn):
    conn.execute("CREATE TABLE sink (x INT, y INT, v INT)")
    side = 16  # 256 single-row statements per round

    def load():
        conn.execute("DELETE FROM sink")
        for x in range(side):
            for y in range(side):
                conn.execute(f"INSERT INTO sink VALUES ({x}, {y}, 1)")

    benchmark(load)
    assert conn.execute("SELECT COUNT(*) FROM sink").scalar() == side * side


@pytest.mark.benchmark(group="E14-ingestion")
def test_bulk_insert(benchmark, conn):
    conn.execute("CREATE TABLE sink (x INT, y INT, v INT)")
    side = 16
    values = ", ".join(
        f"({x}, {y}, 1)" for x in range(side) for y in range(side)
    )

    def load():
        conn.execute("DELETE FROM sink")
        conn.execute(f"INSERT INTO sink VALUES {values}")

    benchmark(load)
    assert conn.execute("SELECT COUNT(*) FROM sink").scalar() == side * side


@pytest.mark.benchmark(group="E14-ingestion")
def test_array_filler_and_vault(benchmark, conn):
    """CREATE ARRAY materialisation + data-vault bulk attribute load."""
    side = 16
    image = np.ones((side, side), dtype=np.int64)
    counter = [0]

    def load():
        imaging.load_image(conn, f"vault_{counter[0]}", image)
        counter[0] += 1

    benchmark(load)
    assert (
        conn.execute(f"SELECT COUNT(*) FROM vault_0").scalar() == side * side
    )
