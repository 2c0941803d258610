"""The buffer recycler (:mod:`repro.gdk.storage`).

A dying BAT's, column's or array's buffer feeds the next kernel that
asks for its dtype and size — but only when CPython refcounts prove that
nothing else can reach it.  These tests hold on to everything a buffer
can be reachable from (a catalog column, a snapshot, a result, a
journal entry, a view, a memory-mapped heap window, a dictionary
column), run statements that recycle hard, and check that what they
hold neither changed nor sits in the recycler.  The draw counts pin the
other half: after warm-up a Life generation and each grey-scale query
allocate only the buffer that escapes the statement.
"""

import math
import sys

import numpy as np
import pytest

import repro
from repro.apps.life import numpy_life_step
from repro.gdk import calc, storage
from repro.gdk.atoms import Atom
from repro.gdk.bat import BAT
from repro.gdk.column import Column
from repro.gdk.dictenc import DictColumn
from repro.mal import interpreter

#: a 128² INT board is 64 KiB, so every Life temporary reaches the floor.
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


@pytest.fixture
def recycler(monkeypatch):
    """An empty recycler of the test's own."""
    monkeypatch.setattr(storage, "_held", {})
    monkeypatch.setattr(storage, "_wanted", set())
    monkeypatch.setattr(storage, "_held_bytes", 0)
    return storage


@pytest.fixture
def recycle_all(recycler, monkeypatch):
    """The test's own recycler, taking buffers of any size: tiny
    fragments (a fragmented test run) recycle too."""
    monkeypatch.setattr(storage, "RECYCLE_MIN_BYTES", 0)
    return storage


def held() -> list:
    return [buffer for idle in storage._held.values() for buffer in idle]


def assert_unreachable(*arrays) -> None:
    """No buffer the recycler holds overlaps any of *arrays*."""
    for array in arrays:
        assert not any(np.may_share_memory(buffer, array) for buffer in held())


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


# ----------------------------------------------------------------------
# the ownership rule, call by call
# ----------------------------------------------------------------------
class TestOwnership:
    def test_a_dying_buffer_feeds_the_next_draw_of_its_size(self, recycler):
        before = storage.recycler_counts()
        buffer = storage.empty((SIDE, SIDE), np.int64)  # a miss: the size is wanted now
        address = buffer.ctypes.data
        storage.recycle(buffer)
        del buffer
        again = storage.empty((SIDE * SIDE,), np.int64)  # same size, another shape
        assert again.ctypes.data == address and again.shape == (SIDE * SIDE,)
        fresh, recycled = storage.recycler_counts()
        assert (fresh - before[0], recycled - before[1]) == (1, 1)
        storage.recycle(again)  # a whole-buffer reshape gives back its owner
        del again
        assert [buffer.ctypes.data for buffer in held()] == [address]

    def test_a_size_no_kernel_asked_for_is_left_to_the_allocator(self, recycler):
        storage.recycle(np.ones(SIDE * SIDE))
        assert held() == []

    def test_a_buffer_with_another_holder_stays_put(self, recycler):
        buffer = storage.empty((SIDE, SIDE), np.int64)
        kept = buffer
        storage.recycle(buffer)
        column = Column(Atom.LNG, storage.empty((SIDE * SIDE,), np.int64))
        shared = Column(Atom.LNG, column.values)
        storage.recycle(column)
        bat = BAT(Column(Atom.LNG, storage.empty((SIDE * SIDE,), np.int64)))
        also = BAT(bat.tail)  # two BATs, one column
        storage.recycle(bat)
        assert held() == []
        assert kept is buffer and shared.values is column.values and also.tail is bat.tail

    def test_views_and_foreign_memory_stay_put(self, recycler, tmp_path):
        storage.empty((SIDE * SIDE,), np.int64)
        storage.empty((SIDE * SIDE // 2,), np.int64)
        storage.recycle(np.ones(SIDE * SIDE, dtype=np.int64)[::2])  # a strided view
        storage.recycle(np.ones(SIDE * SIDE, dtype=np.int64)[: SIDE * SIDE // 2])  # a slice
        storage.recycle(np.frombuffer(bytearray(SIDE * SIDE * 8), dtype=np.int64))
        mapped = np.memmap(tmp_path / "heap", dtype=np.int64, mode="w+", shape=(SIDE * SIDE,))
        storage.recycle(mapped)
        storage.recycle(np.asarray(mapped))  # a plain view of a heap window
        read_only = np.ones(SIDE * SIDE, dtype=np.int64)
        read_only.flags.writeable = False
        storage.recycle(read_only)
        assert held() == []

    def test_objects_small_buffers_and_oversized_ones_stay_put(self, recycler, monkeypatch):
        storage.empty((SIDE * SIDE,), object)
        storage.recycle(np.full(SIDE * SIDE, "", dtype=object))
        storage.recycle(np.ones(16, dtype=np.int64))
        monkeypatch.setattr(storage, "RECYCLE_CAP_BYTES", SIDE * SIDE * 4)
        storage.empty((SIDE * SIDE,), np.int64)
        storage.recycle(np.ones(SIDE * SIDE, dtype=np.int64))  # twice the cap
        assert held() == []

    def test_a_dictionary_column_is_neither_decoded_nor_taken(self, recycler):
        storage.empty((SIDE * SIDE,), np.int32)
        codes = np.zeros(SIDE * SIDE, dtype=np.int32)
        column = DictColumn(Atom.STR, codes, np.array(["a"], dtype=object))
        storage.recycle(BAT(column))
        assert held() == [] and column._decoded is None

    def test_the_cap_evicts_the_least_recently_fed_size(self, recycler, monkeypatch):
        monkeypatch.setattr(storage, "RECYCLE_CAP_BYTES", 3 * SIDE * SIDE * 8)
        a, b, c = SIDE * SIDE, SIDE * SIDE // 2, SIDE * SIDE * 3 // 4  # 128, 64, 96 KiB
        for size in (a, b, c):
            storage.empty((size,), np.int64)
        for size in (a, b, c, a):
            storage.recycle(np.ones(size, dtype=np.int64))
        # b was fed least recently (a's second buffer renewed a): b left.
        assert sorted(buffer.size for buffer in held()) == [c, a, a]
        assert storage._held_bytes == sum(buffer.nbytes for buffer in held())
        assert storage._held_bytes <= storage.RECYCLE_CAP_BYTES


# ----------------------------------------------------------------------
# nothing reachable is ever handed out
# ----------------------------------------------------------------------
class TestReachable:
    def test_catalog_columns_and_the_published_column(self, recycle_all):
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
            assert_unreachable(life_values(conn))
        assert held()  # the generations did recycle
        for published, copy in earlier:  # every generation's column, still held here
            assert published.tobytes() == copy.tobytes()
            assert_unreachable(published)
        conn.close()

    def test_another_sessions_snapshot(self, recycle_all):
        writer = repro.connect()
        board = make_board(7)
        load_life(writer, board)
        reader = writer.database.connect()
        reader.execute("BEGIN")
        seen = board_of(reader)
        snapshot = life_values(reader)
        for _ in range(4):
            writer.execute(LIFE_STEP)
            board = numpy_life_step(board)
        assert board_of(reader).tobytes() == seen.tobytes()
        assert_unreachable(snapshot)
        reader.execute("ROLLBACK")
        assert board_of(reader).tobytes() == board.tobytes()
        reader.close()
        writer.close()

    def test_results_and_grids_the_caller_holds(self, recycle_all):
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
            assert_unreachable(grid, *result.to_numpy().values())
        conn.close()

    def test_the_journal_of_a_durable_write(self, recycle_all, tmp_path):
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

    def test_memory_mapped_heap_windows(self, recycle_all, tmp_path, monkeypatch):
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
        assert isinstance(window, np.memmap)
        for sql in GREY.values():
            conn.execute(sql).grid()
        conn.execute(LIFE_STEP)
        assert board_of(conn).tobytes() == numpy_life_step(board).tobytes()
        assert held() and not any(isinstance(buffer, np.memmap) for buffer in held())
        assert_unreachable(window, conn.catalog.get_array("img").bats["v"].tail.values)
        conn.close()

    def test_a_recycled_buffer_carries_no_stale_span(self, recycle_all):
        """Step 0's buffer, span [1, 10], dies and comes back as step 2's
        output, span near 2^31: step 3 must square the new values and
        find their overflow, not trust the old span."""
        n = SIDE * SIDE
        small = Column(Atom.LNG, np.arange(n, dtype=np.int64) % 10)
        large = Column(Atom.LNG, np.full(n, 1 << 31, dtype=np.int64))
        text = "add(mul(add($0,1),2),mul(mul($1,1),mul($1,1)))"
        want = calc.evaluate(text, [small, large])  # warms the recycler
        before = storage.recycler_counts()[1]
        got = calc.evaluate(text, [small, large])
        assert storage.recycler_counts()[1] > before
        assert got.null_count() == 0 and got.to_pylist() == want.to_pylist()
        wide = np.full(n, (1 << 62) - 1, dtype=np.int64)
        text = "mul(add(mul($0,1),1),mul(add($1,0),4))"
        got = calc.evaluate(text, [small, Column(Atom.LNG, wide)])
        assert got.null_count() == n  # every product leaves lng

    def test_pooled_fragments_never_share_a_buffer(self, recycle_all, monkeypatch):
        """Four workers draw and feed one recycler: a buffer handed out is
        held by the recycler no more (it held it once), and the packed
        answers are the sequential ones, which a buffer written by two
        fragments at once would break."""
        draw, doubles = storage.empty, []

        def checked(shape, dtype):
            buffer = draw(shape, dtype)
            owner = buffer if buffer.base is None else buffer.base
            with storage._lock:
                if any(idle is owner for idle in held()):
                    doubles.append(owner)
            return buffer

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

        monkeypatch.setattr(storage, "empty", checked)
        monkeypatch.setattr(interpreter, "PARALLEL_MIN_ROWS", 0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = answers(4)
        finally:
            sys.setswitchinterval(interval)
        assert pooled == answers(1)
        assert doubles == []
        owners = [id(buffer) for buffer in held()]
        assert len(owners) == len(set(owners))


# ----------------------------------------------------------------------
# what a statement draws
# ----------------------------------------------------------------------
def draws_per_op(run, ops: int = 4) -> tuple:
    for _ in range(3):  # warm-up: the first runs find the recycler empty
        run()
    fresh, recycled = storage.recycler_counts()
    for _ in range(ops):
        run()
    after = storage.recycler_counts()
    return (after[0] - fresh) / ops, (after[1] - recycled) / ops


class TestDraws:
    def test_a_life_generation_draws_only_its_published_column(self, recycler):
        conn = repro.connect(nr_threads=1, fragment_rows=math.inf)
        load_life(conn, make_board())
        step = conn.prepare(LIFE_STEP)
        # Recycled: two tile-sum passes, the widened SUM, SUM(v) - v.
        assert draws_per_op(step.execute) == (1, 4)
        conn.close()

    @pytest.mark.parametrize(
        "part, recycled",
        [("invert", 0), ("edge", 6), ("avg3", 2), ("avg17", 3), ("min3", 1), ("reduce", 2)],
    )
    def test_a_grey_scale_part_draws_only_its_result(self, recycler, part, recycled):
        conn = repro.connect(nr_threads=1, fragment_rows=math.inf)
        image = np.random.default_rng(3).integers(0, 256, (2 * SIDE, 2 * SIDE)).astype(np.int32)
        conn.register_array("img", image)
        statement = conn.prepare(GREY[part])
        assert draws_per_op(lambda: statement.execute().grid()) == (1, recycled)
        conn.close()
