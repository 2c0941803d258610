"""Reused memory never reaches held data.

With the heap policy of :mod:`repro.gdk.storage`, a kernel's output
buffer is whatever malloc hands back first: most often the memory a
temporary of the statement before freed.  Kernels write in place into
buffers they own (tile sums, sliding extrema, widened operands,
expression steps), so these tests hold on to everything a buffer can be
reachable from (a catalog column, a snapshot, a result, a journal
entry, a memory-mapped heap window), run statements that free and
allocate hard, and check that what they hold never changed and that
every answer is the oracle's.
"""

import sys

import numpy as np

import repro
from repro.apps.life import numpy_life_step
from repro.gdk import calc
from repro.gdk.atoms import Atom
from repro.gdk.column import Column
from repro.mal import interpreter

#: a 128² INT board is 64 KiB: every Life temporary comes from the heap.
SIDE = 128
LIFE_STEP = (
    "INSERT INTO life SELECT [x], [y], "
    "CASE WHEN SUM(v) - v = 3 OR (SUM(v) - v = 2 AND v = 1) "
    "THEN 1 ELSE 0 END "
    "FROM life GROUP BY life[x-1:x+2][y-1:y+2]"
)
#: Scenario II as the benchmark runs it.
GREY = {
    "invert": "SELECT [x], [y], 255 - v FROM img",
    "edge": (
        "SELECT [x], [y], ABS(img[x][y] - img[x-1][y]) + "
        "ABS(img[x][y] - img[x][y-1]) FROM img"
    ),
    "avg3": "SELECT [x], [y], AVG(v) FROM img GROUP BY img[x-1:x+2][y-1:y+2]",
    "avg17": "SELECT [x], [y], AVG(v) FROM img GROUP BY img[x-8:x+9][y-8:y+9]",
    "min3": "SELECT [x], [y], MIN(v) FROM img GROUP BY img[x-1:x+2][y-1:y+2]",
    "reduce": (
        "SELECT [x / 2], [y / 2], AVG(v) FROM img GROUP BY img[x:x+2][y:y+2] "
        "HAVING x MOD 2 = 0 AND y MOD 2 = 0"
    ),
}


def make_board(seed: int = 5) -> np.ndarray:
    return (np.random.default_rng(seed).random((SIDE, SIDE)) < 0.35).astype(np.int32)


def load_life(conn, board) -> None:
    conn.execute(
        f"CREATE ARRAY life (x INT DIMENSION[0:1:{SIDE}], "
        f"y INT DIMENSION[0:1:{SIDE}], v INT DEFAULT 0)"
    )
    conn.register_array("seed", board)
    conn.execute("INSERT INTO life SELECT [x], [y], v FROM seed")
    conn.execute("DROP ARRAY seed")


def life_values(conn) -> np.ndarray:
    """The catalog's own payload of ``life.v``."""
    return conn.catalog.get_array("life").bats["v"].tail.values


def board_of(conn) -> np.ndarray:
    return conn.execute("SELECT [x], [y], v FROM life").grid()


def digest(result) -> list:
    return [(name, array.dtype.str, array.tobytes()) for name, array in result.to_numpy().items()]


class TestHeldBuffersStayPut:
    def test_catalog_columns_and_the_published_column(self):
        conn = repro.connect()
        board = make_board()
        load_life(conn, board)
        step = conn.prepare(LIFE_STEP)
        earlier = []
        for _ in range(6):
            earlier.append((life_values(conn), life_values(conn).copy()))
            assert step.execute().affected == board.size
            board = numpy_life_step(board)
            assert life_values(conn).reshape(SIDE, SIDE).tobytes() == board.tobytes()
        for published, copy in earlier:  # every generation's column, still held here
            assert published.tobytes() == copy.tobytes()
        conn.close()

    def test_another_sessions_snapshot(self):
        writer = repro.connect()
        board = make_board(7)
        load_life(writer, board)
        reader = writer.database.connect()
        reader.execute("BEGIN")
        seen = board_of(reader)
        snapshot = life_values(reader)
        kept = snapshot.copy()
        for _ in range(4):
            writer.execute(LIFE_STEP)
            board = numpy_life_step(board)
        assert board_of(reader).tobytes() == seen.tobytes()
        assert snapshot.tobytes() == kept.tobytes()
        reader.execute("ROLLBACK")
        assert board_of(reader).tobytes() == board.tobytes()
        reader.close()
        writer.close()

    def test_results_and_grids_the_caller_holds(self):
        conn = repro.connect()
        image = np.random.default_rng(3).integers(0, 256, (SIDE, SIDE)).astype(np.int32)
        conn.register_array("img", image)
        kept = []
        for _ in range(2):
            for sql in GREY.values():
                result = conn.execute(sql)
                grid = result.grid()
                kept.append((result, digest(result), grid, grid.copy()))
        for result, before, grid, copy in kept:
            assert digest(result) == before and grid.tobytes() == copy.tobytes()
        first, second = kept[: len(GREY)], kept[len(GREY) :]
        assert [k[1] for k in first] == [k[1] for k in second]  # same statements, same bytes
        conn.close()

    def test_the_journal_of_a_durable_write(self, tmp_path):
        farm = tmp_path / "farm"
        conn = repro.connect()
        board = make_board(9)
        load_life(conn, board)
        conn.save(str(farm))
        conn.close()
        conn = repro.connect(str(farm), durable=True)
        conn.execute("BEGIN")  # the journal holds both generations until COMMIT
        conn.execute(LIFE_STEP)
        conn.execute(LIFE_STEP)
        conn.execute("COMMIT")
        conn.execute(LIFE_STEP)  # and an autocommit one
        for _ in range(3):
            board = numpy_life_step(board)
        assert board_of(conn).tobytes() == board.tobytes()
        conn.close()
        replayed = repro.connect(str(farm))
        assert board_of(replayed).tobytes() == board.tobytes()
        replayed.close()

    def test_memory_mapped_heap_windows(self, tmp_path, monkeypatch):
        farm = tmp_path / "farm"
        conn = repro.connect()
        board = make_board(11)
        load_life(conn, board)
        conn.register_array("img", board * 200)
        conn.save(str(farm))
        conn.close()
        monkeypatch.setenv("REPRO_MMAP_THRESHOLD_BYTES", "0")
        conn = repro.connect(str(farm))
        window = life_values(conn)
        image = conn.catalog.get_array("img").bats["v"].tail.values
        assert isinstance(window, np.memmap)
        kept = window.copy(), image.copy()
        for sql in GREY.values():
            conn.execute(sql).grid()
        conn.execute(LIFE_STEP)
        assert board_of(conn).tobytes() == numpy_life_step(board).tobytes()
        assert window.tobytes() == kept[0].tobytes() and image.tobytes() == kept[1].tobytes()
        conn.close()

    def test_a_reused_buffer_carries_no_stale_span(self):
        """Step 0's buffer, span [1, 10], dies and malloc may hand it back
        as step 2's output, span near 2^31: step 3 must square the new
        values and find their overflow, not trust the old span."""
        n = SIDE * SIDE
        small = Column(Atom.LNG, np.arange(n, dtype=np.int64) % 10)
        large = Column(Atom.LNG, np.full(n, 1 << 31, dtype=np.int64))
        text = "add(mul(add($0,1),2),mul(mul($1,1),mul($1,1)))"
        want = calc.evaluate(text, [small, large])
        got = calc.evaluate(text, [small, large])
        assert got.null_count() == 0 and got.to_pylist() == want.to_pylist()
        wide = np.full(n, (1 << 62) - 1, dtype=np.int64)
        text = "mul(add(mul($0,1),1),mul(add($1,0),4))"
        got = calc.evaluate(text, [small, Column(Atom.LNG, wide)])
        assert got.null_count() == n  # every product leaves lng

    def test_pooled_fragments_never_share_a_buffer(self, monkeypatch):
        """Four workers free and allocate on one heap, switching threads
        every microsecond: the packed answers are the sequential ones,
        which a buffer written by two fragments at once would break."""

        def answers(nr_threads):
            conn = repro.connect(nr_threads=nr_threads, fragment_rows=SIDE * 8)
            load_life(conn, make_board(13))
            conn.register_array("img", make_board(17) * 255)
            out = []
            for _ in range(3):
                out += [digest(conn.execute(sql)) for sql in GREY.values()]
                conn.execute(LIFE_STEP)
                out.append(board_of(conn).tobytes())
            conn.close()
            return out

        monkeypatch.setattr(interpreter, "PARALLEL_MIN_ROWS", 0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = answers(4)
        finally:
            sys.setswitchinterval(interval)
        assert pooled == answers(1)
