"""Relative cell references: the one-cell-tile lowering and its fallbacks.

``A[x-1][y]`` over an unrestricted scan of ``A`` itself is a constant
shift of the attribute BAT: malgen lowers it to ``array.tileagg(attr,
"min", <one offset per dimension>)``, which mergetable splits
into halo ``array.tilepart`` fragments in the scan's aligned row space,
so the expression around it runs per fragment — no ``array.cellindex``,
no ``algebra.projectionsafe`` gather, no ``mat.pack`` in front of it.
Every other shape of reference (a computed offset, another array, an
offset that is no multiple of the dimension's step, a restricted scan,
a non-numeric attribute) keeps the gather.  Both paths must answer like
NumPy at {1, 2} threads x fragment rows {inf, 7}.
"""

import math

import numpy as np
import pytest

import repro

ROWS, COLS = 16, 6
EDGE = (
    "SELECT [x], [y], ABS(img[x][y] - img[x-1][y]) + "
    "ABS(img[x][y] - img[x][y-1]) FROM img"
)


def _image() -> np.ndarray:
    """16x6 floats (NaN = hole) holding small integers."""
    rng = np.random.default_rng(11)
    image = rng.integers(0, 200, (ROWS, COLS)).astype(np.float64)
    image[rng.random((ROWS, COLS)) < 0.15] = np.nan
    return image


def _load(conn) -> None:
    image = _image()
    conn.register_array("seed", np.nan_to_num(image).astype(np.int32))
    conn.execute(
        f"CREATE ARRAY img (x INT DIMENSION[0:1:{ROWS}], "
        f"y INT DIMENSION[0:1:{COLS}], v INT DEFAULT 0)"
    )
    conn.execute("INSERT INTO img SELECT [x], [y], v FROM seed")
    for x, y in zip(*np.nonzero(np.isnan(image))):
        conn.execute(f"DELETE FROM img WHERE x = {x} AND y = {y}")
    conn.register_array(
        "other", (np.arange(ROWS * COLS) * 3).reshape(ROWS, COLS).astype(np.int32)
    )
    conn.execute(
        "CREATE ARRAY s2 (x INT DIMENSION[0:2:12], y INT DIMENSION[0:1:5], v INT DEFAULT 0)"
    )
    conn.execute("UPDATE s2 SET v = x * 10 + y")
    conn.execute("CREATE ARRAY lab (x INT DIMENSION[0:1:9], s VARCHAR(8) DEFAULT 'a')")
    for x in range(9):
        conn.execute(f"UPDATE lab SET s = 'r{x}' WHERE x = {x}")
    rng = np.random.default_rng(5)
    conn.register_array("life", (rng.random((ROWS, ROWS)) < 0.4).astype(np.int32))


@pytest.fixture(scope="module")
def engines():
    connections = {}
    for nr_threads in (1, 2):
        for fragment_rows in (math.inf, 7):
            conn = repro.connect(nr_threads=nr_threads, fragment_rows=fragment_rows)
            _load(conn)
            connections[f"threads{nr_threads}-rows{fragment_rows}"] = conn
    yield connections
    for conn in connections.values():
        conn.close()


def shifted(grid: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """``grid[x+dx][y+dy]`` per cell, NaN outside the array."""
    out = np.full(grid.shape, np.nan)
    n0, n1 = grid.shape
    if abs(dx) < n0 and abs(dy) < n1:
        out[max(-dx, 0) : n0 - max(dx, 0), max(-dy, 0) : n1 - max(dy, 0)] = grid[
            max(dx, 0) : n0 + min(dx, 0), max(dy, 0) : n1 + min(dy, 0)
        ]
    return out


def same(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and bool(
        np.all((got == want) | (np.isnan(got) & np.isnan(want)))
    )


def plan_ops(conn, sql: str) -> list[str]:
    """``module.function`` of every instruction of the optimized plan."""
    ops = []
    for line in conn.explain(sql).splitlines():
        if ":=" in line:
            ops.append(line.split(":=", 1)[1].strip().split("(", 1)[0])
    return ops


class TestOneCellTile:
    def test_edge_matches_numpy_on_an_image_with_holes(self, engines):
        image = _image()
        want = np.abs(image - shifted(image, -1, 0)) + np.abs(image - shifted(image, 0, -1))
        assert np.isnan(want).sum() > ROWS + COLS  # holes spread to their neighbours
        for name, conn in engines.items():
            assert same(conn.execute(EDGE).grid(), want), name

    def test_edge_plan_has_no_gather_and_fuses_per_fragment(self, engines):
        for name, conn in engines.items():
            ops = plan_ops(conn, EDGE)
            assert "array.cellindex" not in ops, name
            assert "algebra.projectionsafe" not in ops, name
            expression = ops.index("batcalc.expr")
            assert "mat.pack" not in ops[:expression], name
            if name.endswith("rows7"):
                pieces = ops.count("batcalc.expr")
                assert pieces > 1, name
                assert ops.count("array.tilepart") == 2 * pieces, name
                assert "array.tileagg" not in ops, name
            else:
                assert ops.count("array.tileagg") == 2, name

    def test_zero_offsets_are_the_bound_attribute(self, engines):
        image = _image()
        for name, conn in engines.items():
            assert same(conn.execute("SELECT [x], [y], img[x][y] FROM img").grid(), image), name
            ops = plan_ops(conn, "SELECT [x], [y], img[x][y] + 1 FROM img")
            assert not {"array.tileagg", "array.tilepart", "array.cellindex"} & set(ops), name

    @pytest.mark.parametrize("dx, dy", [(1, -1), (0, 5), (-15, 0), (-16, 0), (3, 40)])
    def test_offsets_inside_on_and_beyond_the_border(self, engines, dx, dy):
        image = _image()
        sql = f"SELECT [x], [y], img[x{dx:+d}][y{dy:+d}] FROM img"
        for name, conn in engines.items():
            assert same(conn.execute(sql).grid(), shifted(image, dx, dy)), name
            assert "array.cellindex" not in plan_ops(conn, sql), name

    def test_step_two_dimension_shifts_by_rank(self, engines):
        base = np.array([[x * 10 + y for y in range(5)] for x in range(0, 12, 2)], dtype=float)
        sql = "SELECT [x], [y], s2[x-2][y] FROM s2"
        for name, conn in engines.items():
            assert same(conn.execute(sql).grid(), shifted(base, -1, 0)), name
            assert "array.cellindex" not in plan_ops(conn, sql), name

    def test_update_reads_the_statement_snapshot(self, engines):
        for name, conn in engines.items():
            before = conn.execute("SELECT [x], [y], v FROM other").grid()
            conn.execute("UPDATE other SET v = other[x-1][y] WHERE x > 0")
            want = before.copy()
            want[1:] = before[:-1]
            assert same(conn.execute("SELECT [x], [y], v FROM other").grid(), want), name
            conn.execute("UPDATE other SET v = (x * 6 + y) * 3")
            assert same(conn.execute("SELECT [x], [y], v FROM other").grid(), before), name


class TestGatherKept:
    """Shapes the lowering declines: the gather stays and still answers right."""

    def check(self, engines, sql, want):
        for name, conn in engines.items():
            assert same(conn.execute(sql).grid(), want), name
            assert "array.cellindex" in plan_ops(conn, sql), name

    def test_computed_offset(self, engines):
        image = _image()
        want = np.full(image.shape, np.nan)
        for x in range(ROWS):
            for y in range(COLS):
                if not np.isnan(image[x, y]) and 0 <= x - image[x, y] % 5 < ROWS:
                    want[x, y] = image[int(x - image[x, y] % 5), y]
        self.check(engines, "SELECT [x], [y], img[x - v MOD 5][y] FROM img", want)

    def test_another_array(self, engines):
        other = (np.arange(ROWS * COLS) * 3.0).reshape(ROWS, COLS)
        self.check(
            engines, "SELECT [x], [y], other[x-1][y] FROM img", shifted(other, -1, 0)
        )

    def test_offset_between_the_steps_of_a_dimension(self, engines):
        # x-1 is never a valid value of x in [0:2:12]
        self.check(
            engines, "SELECT [x], [y], s2[x-1][y] FROM s2", np.full((6, 5), np.nan)
        )

    def test_transposed_indexes(self, engines):
        first = next(iter(engines.values()))
        life = first.execute("SELECT [x], [y], v FROM life").grid()
        self.check(engines, "SELECT [x], [y], life[y][x] FROM life", life.T)

    def test_restricted_scan(self, engines):
        image = _image()
        up = shifted(image, -1, 0)
        want = [
            (x, y, None if np.isnan(up[x, y]) else int(up[x, y]))
            for x in range(ROWS) for y in range(COLS) if x > 9
        ]
        sql = "SELECT x, y, img[x-1][y] FROM img WHERE x > 9"
        for name, conn in engines.items():
            assert sorted(conn.execute(sql).rows()) == sorted(want), name
            assert "array.cellindex" in plan_ops(conn, sql), name

    def test_string_attribute(self, engines):
        sql = "SELECT x, lab[x-1] FROM lab"
        want = [(x, f"r{x - 1}" if x else None) for x in range(9)]
        for name, conn in engines.items():
            assert sorted(conn.execute(sql).rows()) == want, name
            assert "array.cellindex" in plan_ops(conn, sql), name


class TestLifeByReferences:
    TILED = (
        "SELECT [x], [y], CASE WHEN SUM(v) - v = 3 OR (SUM(v) - v = 2 AND v = 1) "
        "THEN 1 ELSE 0 END FROM life GROUP BY life[x-1:x+2][y-1:y+2]"
    )

    def test_eight_references_return_the_tiled_board(self, engines):
        neighbours = " + ".join(
            f"CASE WHEN life[x{dx:+d}][y{dy:+d}] IS NULL THEN 0 "
            f"ELSE life[x{dx:+d}][y{dy:+d}] END"
            for dx in (-1, 0, 1) for dy in (-1, 0, 1) if dx or dy
        )
        by_reference = (
            f"SELECT [x], [y], CASE WHEN {neighbours} = 3 OR "
            f"({neighbours} = 2 AND v = 1) THEN 1 ELSE 0 END FROM life"
        )
        boards = set()
        for name, conn in engines.items():
            tiled = conn.execute(self.TILED).grid()
            assert same(conn.execute(by_reference).grid(), tiled), name
            assert "array.cellindex" not in plan_ops(conn, by_reference), name
            boards.add(tiled.tobytes())
        assert len(boards) == 1
