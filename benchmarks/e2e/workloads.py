"""The eight workloads.  Names are fixed; later issues refer to them.

Each class says in its docstring which layers do the work and which
workload is its bypass twin.  Every statement goes through the public
API only (``repro.connect``, ``Connection`` / ``PreparedStatement`` /
cursors, ``repro://``); every answer is checked by ``oracles``.
All predicates compare a column with a constant of the column's own
type, so the known INT-vs-float coercion bug cannot fail the baseline.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import repro
from repro.core.tiling import TileSpec, tile_aggregate
from repro.gdk import aggregate, group, select
from repro.gdk.atoms import Atom
from repro.gdk.bat import BAT
from repro.gdk.column import Column
from repro.net import protocol

import datagen
import oracles
from harness import Samples, TraceResult, Workload, now, peak_rss_kb

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"


def child_env() -> dict:
    """Environment of engine subprocesses: no knob overrides, our src."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def median_us(fn, repeats: int) -> float:
    """Median wall time of ``fn()`` in microseconds (kernel-only probes)."""
    fn()
    times = []
    for _ in range(repeats):
        t0 = now()
        fn()
        times.append(now() - t0)
    return statistics.median(times) * 1e6


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def in_band(label: str, value: float, low: float, high: float) -> None:
    """Set-up check: a predicate's selectivity is what the README says."""
    if not low <= value <= high:
        raise RuntimeError(f"{label}: selectivity {value} outside [{low}, {high}]")


def load_big(conn, columns: dict) -> None:
    conn.register_array("bigsrc", columns)
    conn.execute("CREATE TABLE big (k INT, g INT, v BIGINT)")
    conn.execute("INSERT INTO big SELECT k, g, v FROM bigsrc")
    conn.execute("DROP ARRAY bigsrc")


# ----------------------------------------------------------------------
class PointPrepared(Workload):
    """Prepared point selects on a 64x64 array.

    The front-end is skipped, so what is left is ``engine`` session
    overhead plus ``mal.interpreter`` dispatch of a ~10-instruction
    plan; compile and kernels do almost nothing.  Bypass twin:
    ``adhoc_compile`` (same data, opposite layers).
    """

    name = "point_prepared"
    data_bytes = datagen.POINT_SIZE**2 * 4
    traced_ops = 6000
    SQL = "SELECT v FROM m WHERE x = ? AND y = ?"

    def setup(self):
        self.conn = repro.connect()
        self.conn.register_array("m", datagen.point_matrix())
        self.xs, self.ys = datagen.point_coords(self.seed)

    def attach(self, executor):
        return executor.prepare(self.SQL)

    def part(self, n, executor, statement):
        j = n % datagen.OP_INPUTS
        result = statement.execute((self.xs[j], self.ys[j]))
        with executor.fetching():
            return result.scalar()

    def check(self, n, value):
        j = n % datagen.OP_INPUTS
        return value == self.xs[j] * 100 + self.ys[j]


# ----------------------------------------------------------------------
class AdhocCompile(Workload):
    """Fig. 1-shaped statements whose text is new every time.

    Literals are inlined, so every op misses the plan cache:
    ``sql`` -> ``algebra`` -> ``mal.optimizer`` do most of the work and
    the kernels, on at most 4096 cells, little.
    """

    name = "adhoc_compile"
    data_bytes = 2 * datagen.POINT_SIZE**2 * 4
    traced_ops = 1500
    parts = tuple(name for name, _ in datagen.ADHOC_TEMPLATES)

    def setup(self):
        conn = self.conn = repro.connect()
        conn.register_array("m", datagen.point_matrix())
        size = datagen.POINT_SIZE
        for name, n in (("matrix", 4), ("scratch", size)):
            conn.execute(
                f"CREATE ARRAY {name} (x INT DIMENSION[0:1:{n}], "
                f"y INT DIMENSION[0:1:{n}], v INT DEFAULT 0)"
            )
        # The paper's Fig. 1(b)-(c) sequence, holes included.
        conn.execute(
            "UPDATE matrix SET v = CASE WHEN x > y THEN x + y "
            "WHEN x < y THEN x - y ELSE 0 END"
        )
        conn.execute(
            "INSERT INTO matrix SELECT [x], [y], x * y FROM matrix WHERE x = y"
        )
        conn.execute("DELETE FROM matrix WHERE x > y")
        self.draws = datagen.adhoc_draws(self.seed)
        self.m = datagen.point_matrix().astype(np.int64)
        self.scratch = np.zeros((size, size), dtype=np.int64)
        # State checks read through a session of their own, so they do
        # not count in the measured session's plan-cache counters.
        self.checker = conn.database.connect()

    def build_oracle(self):
        self.tile4 = oracles.odd_anchors(oracles.tile_avg(datagen.fig1_matrix(), 0, 2))
        self.tile64 = oracles.tile_avg(self.m, 0, 2)

    def attach(self, executor):
        return None

    def _statement(self, n):
        return datagen.adhoc_statement(self.draws, n)

    def part_class(self, n):
        return self._statement(n)[0]

    def is_write(self, n):
        return self._statement(n)[0] == "update"

    def part(self, n, executor, _):
        name, sql, _ = self._statement(n)
        result = executor.execute(sql)
        with executor.fetching():
            if name == "update":
                return result.affected
            if name in ("point", "between"):
                return result.scalar()
            if name in ("in", "groupby"):
                return result.to_numpy()
            return result.grid()

    def check(self, n, value):
        name, _, (a, b, w, h, s) = self._statement(n)
        m = self.m
        if name == "point":
            return value == m[a, b] + s
        if name == "slice":
            return oracles.same(value, m[a : a + w, b : b + h] + s)
        if name == "update":
            x, y = np.indices(self.scratch.shape)
            self.scratch = np.where(x > y, x + y + s, np.where(x < y, x - y, 0))
            return value == self.scratch.size
        if name == "in":
            hits = sorted({(a, b), (a + w, b + h)})
            got = sorted(zip(value["x"].tolist(), value["y"].tolist()))
            return got == hits
        if name == "between":
            low, high = a - 32, a + 8 * w
            inside = (self.scratch >= low) & (self.scratch <= high)
            return value == int(inside.sum()) + s
        if name == "groupby":
            x, total = oracles.by_first_column(value)
            expected = m[:, : b + 1].sum(axis=1) + s
            return oracles.same(x, np.arange(len(m))) and oracles.same(total, expected)
        expected = self.tile4 if name == "tile4" else self.tile64
        return oracles.same(value, expected + s)

    def finish(self):
        grid = self.checker.execute("SELECT [x], [y], v FROM scratch").grid()
        return oracles.same(grid, self.scratch)


# ----------------------------------------------------------------------
class LifeStep(Workload):
    """Paper Scenario I: one Game of Life generation per op.

    The array path used read *and* write: ``core.tiling`` + ``batcalc``
    + array write-back + a non-durable commit at a high statement
    rate.  The statement text is the paper's, held here.
    """

    name = "life_step"
    data_bytes = datagen.LIFE_SIZE**2 * 4
    traced_ops = 400
    CHECK_EVERY = 250
    SQL = (
        "INSERT INTO life SELECT [x], [y], "
        "CASE WHEN SUM(v) - v = 3 OR (SUM(v) - v = 2 AND v = 1) "
        "THEN 1 ELSE 0 END "
        "FROM life GROUP BY life[x-1:x+2][y-1:y+2]"
    )

    def setup(self):
        conn = self.conn = repro.connect()
        n = datagen.LIFE_SIZE
        self.board = datagen.life_board(self.seed)
        conn.execute(
            f"CREATE ARRAY life (x INT DIMENSION[0:1:{n}], "
            f"y INT DIMENSION[0:1:{n}], v INT DEFAULT 0)"
        )
        conn.register_array("seed", self.board)
        conn.execute("INSERT INTO life SELECT [x], [y], v FROM seed")
        conn.execute("DROP ARRAY seed")
        self.steps = 0
        self.checker = conn.database.connect()  # see AdhocCompile.setup

    def attach(self, executor):
        return executor.prepare(self.SQL)

    def is_write(self, n):
        return True

    def part(self, n, executor, statement):
        return statement.execute().affected

    def _board_matches(self):
        grid = self.checker.execute("SELECT [x], [y], v FROM life").grid()
        return oracles.same(grid, self.board)

    def check(self, n, value):
        self.board = oracles.life_step(self.board)
        self.steps += 1
        ok = value == self.board.size
        if self.steps % self.CHECK_EVERY == 0:
            ok = ok and self._board_matches()
        return ok

    def finish(self):
        return self._board_matches()

    def layer_probes(self, latencies):
        column = Column(Atom.INT, self.board.reshape(-1))
        spec = TileSpec.from_ranges([(-1, 2), (-1, 2)])
        shape = self.board.shape
        return {
            "tiling.sum3x3_us": median_us(
                lambda: tile_aggregate(column, shape, spec, "sum"), 30
            )
        }


# ----------------------------------------------------------------------
class GrayscalePipeline(Workload):
    """Paper Scenario II: six read-only image queries on 512x512.

    The same tiling/``batcalc`` layers as ``life_step`` used read-only
    on a 4x larger array, with all three tiling kernel families and a
    262k-cell ``grid()`` per query — a gain for Life's write path that
    costs large read-only tiling shows here.  One op is one query; a
    pass of six takes ~0.3 s, too long for 120 passes in a run.
    """

    name = "grayscale_pipeline"
    data_bytes = datagen.IMAGE_SIZE**2 * 4
    traced_ops = 48
    parts = ("invert", "edge", "avg3", "avg17", "min3", "reduce")
    class_metrics = {
        part: (f"grayscale.{part}_ms", 1e3) for part in parts
    }
    SQL = {
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

    def setup(self):
        self.conn = repro.connect()
        self.image = datagen.gray_image(self.seed)
        self.conn.register_array("img", self.image)

    def build_oracle(self):
        image = self.image
        self.expected = {
            "invert": oracles.invert(image),
            "edge": oracles.edge_detect(image),
            "avg3": oracles.tile_avg(image, -1, 2),
            "avg17": oracles.tile_avg(image, -8, 9),
            "min3": oracles.tile_min(image, -1, 2),
            "reduce": oracles.reduce2(image),
        }

    def attach(self, executor):
        return {part: executor.prepare(sql) for part, sql in self.SQL.items()}

    def part(self, n, executor, statements):
        result = statements[self.part_class(n)].execute()
        with executor.fetching():
            return result.grid()

    def check(self, n, value):
        return oracles.same(value, self.expected[self.part_class(n)])

    def layer_probes(self, latencies):
        column = Column(Atom.INT, self.image.reshape(-1))
        shape = self.image.shape
        avg17 = TileSpec.from_ranges([(-8, 9), (-8, 9)])
        min3 = TileSpec.from_ranges([(-1, 2), (-1, 2)])
        return {
            "tiling.avg17x17_us": median_us(
                lambda: tile_aggregate(column, shape, avg17, "avg"), 15
            ),
            "tiling.min3x3_us": median_us(
                lambda: tile_aggregate(column, shape, min3, "min"), 15
            ),
        }


# ----------------------------------------------------------------------
class ScanAgg(Workload):
    """Aggregates over a 1M-row in-memory table.

    ``mitosis``/``mergetable``, the dataflow scheduler and the ``gdk``
    group/aggregate kernels do the work; per-statement overhead is
    noise.  No farm and no zone maps: the bypass of ``scan_select``.
    One op is one statement of the three-statement cycle.
    """

    name = "scan_agg"
    data_bytes = datagen.AGG_ROWS * 16
    traced_ops = 45
    parts = ("group5", "filteragg", "scalaragg")
    class_metrics = {part: (f"scan_agg.{part}_ms", 1e3) for part in parts}

    def setup(self):
        self.conn = repro.connect()
        self.columns = datagen.big_table(self.seed, datagen.AGG_ROWS, False)
        load_big(self.conn, self.columns)
        v, g = self.columns["v"], self.columns["g"]
        self.threshold = int(np.median(v))
        self.g_limit = datagen.SUBKEYS // 2
        in_band("v > median", float((v > self.threshold).mean()), 0.45, 0.55)
        in_band("g < limit", float((g < self.g_limit).mean()), 0.45, 0.55)
        self.sql = {
            "group5": (
                "SELECT k, SUM(v), COUNT(v), AVG(v), MIN(v), MAX(v) "
                "FROM big GROUP BY k"
            ),
            "filteragg": (
                f"SELECT k, SUM(v) FROM big WHERE v > {self.threshold} GROUP BY k"
            ),
            "scalaragg": (
                f"SELECT SUM(v), MIN(v), MAX(v) FROM big WHERE g < {self.g_limit}"
            ),
        }

    def build_oracle(self):
        k, g, v = (self.columns[name] for name in "kgv")
        groups = datagen.GROUPS
        full = oracles.group_aggregates(k, v, groups)
        kept = v[g < self.g_limit]
        self.expected = {
            "group5": list(full.values()),
            "filteragg": [
                full["k"],
                oracles.group_sum(k, v, v > self.threshold, groups),
            ],
            "scalaragg": [[kept.sum()], [kept.min()], [kept.max()]],
        }

    def attach(self, executor):
        return {part: executor.prepare(sql) for part, sql in self.sql.items()}

    def part(self, n, executor, statements):
        result = statements[self.part_class(n)].execute()
        with executor.fetching():
            return result.to_numpy()

    def check(self, n, value):
        expected = self.expected[self.part_class(n)]
        got = oracles.by_first_column(value)
        return len(got) == len(expected) and all(
            oracles.same(a, e) for a, e in zip(got, expected)
        )

    def layer_probes(self, latencies):
        k = Column(Atom.INT, self.columns["k"])
        v = Column(Atom.LNG, self.columns["v"])
        return {
            "gdk.group_aggr_us": median_us(
                lambda: aggregate.grouped_sum(v, group.group(k)), 9
            )
        }


# ----------------------------------------------------------------------
class ScanSelect(Workload):
    """Selective projections from a 2M-row farm, reopened with mmap heaps.

    ``v`` is clustered and ``g`` uniform: the select family, zone maps
    and lazy heaps do the work on ``v`` and cannot help on ``g``, so a
    pruning gain shows on one half of the cycle and must not move the
    other.  One op is the whole four-statement cycle.
    """

    name = "scan_select"
    data_bytes = datagen.SELECT_ROWS * 16
    traced_ops = 60
    parts = (
        "range_clustered", "narrow_clustered", "unclustered_1pct", "unclustered_10pct",
    )
    parts_per_op = 4
    class_metrics = {
        **{part: (f"scan_select.{part}_ms", 1e3) for part in parts},
        "first_cycle": ("scan_select.first_cycle_ms", 1e3),
    }

    def setup(self):
        rows = datagen.SELECT_ROWS
        self.columns = datagen.big_table(self.seed, rows, True)
        v, g = self.columns["v"], self.columns["g"]
        staging = repro.connect()
        load_big(staging, self.columns)
        self.farm = Path(self.workdir) / "select_farm"
        shutil.rmtree(self.farm, ignore_errors=True)
        t0 = now()
        staging.save(self.farm)
        self.save_s = now() - t0
        staging.close()
        t0 = now()
        self.conn = repro.connect(str(self.farm))
        self.open_s = now() - t0
        # Both ranges sit inside the first half of the rows, so whether
        # a fragment can be pruned does not depend on the seed.
        gen = datagen.rng(self.seed, 8)
        wide = int(gen.integers(rows // 10, rows // 5))
        narrow = int(gen.integers(rows // 4, rows // 3))
        self.bounds = {
            "range_clustered": (int(v[wide]), int(v[wide + rows // 100])),
            "narrow_clustered": (int(v[narrow]), int(v[narrow + 100])),
        }
        self.g_limits = {"unclustered_1pct": 10, "unclustered_10pct": 100}
        self.masks = {
            part: (v >= low) & (v < high)
            for part, (low, high) in self.bounds.items()
        }
        for part, limit in self.g_limits.items():
            self.masks[part] = g < limit
        share = {part: float(mask.mean()) for part, mask in self.masks.items()}
        in_band("range_clustered", share["range_clustered"], 0.009, 0.011)
        in_band("narrow_clustered", float(self.masks["narrow_clustered"].sum()), 50, 200)
        in_band("unclustered_1pct", share["unclustered_1pct"], 0.008, 0.012)
        in_band("unclustered_10pct", share["unclustered_10pct"], 0.09, 0.11)

    def attach(self, executor):
        sql = {
            part: f"SELECT k, v FROM big WHERE v >= {low} AND v < {high}"
            for part, (low, high) in self.bounds.items()
        }
        for part, limit in self.g_limits.items():
            sql[part] = f"SELECT k, v FROM big WHERE g < {limit}"
        return {part: executor.prepare(text) for part, text in sql.items()}

    def part(self, n, executor, statements):
        result = statements[self.part_class(n)].execute()
        with executor.fetching():
            return result.to_numpy()

    def check(self, n, value):
        mask = self.masks[self.part_class(n)]
        return oracles.same(value["k"], self.columns["k"][mask]) and oracles.same(
            value["v"], self.columns["v"][mask]
        )

    def layer_probes(self, latencies):
        v = self.columns["v"]
        bat = BAT(Column(Atom.LNG, v))
        low, high = self.bounds["range_clustered"]
        user_bytes = sum(column.nbytes for column in self.columns.values())
        return {
            "gdk.rangeselect_us": median_us(
                lambda: select.rangeselect(bat, low, high, True, False), 15
            ),
            "persist.save_s": self.save_s,
            "persist.open_s": self.open_s,
            "persist.farm_bytes_per_user_byte": dir_bytes(self.farm) / user_bytes,
        }


# ----------------------------------------------------------------------
class DurableOps(Workload):
    """The op stream of ``durable_commit``, run inside the engine child."""

    name = "durable_commit"
    data_bytes = datagen.DURABLE_CELLS * 8
    traced_ops = 2500
    parts = ("insert", "update")
    class_metrics = {
        "insert": ("durable.insert_us", 1e6),
        "update": ("durable.update_us", 1e6),
    }

    def __init__(self, seed, farm):
        super().__init__(seed, None)
        self.farm = Path(farm)
        self.wal = Path(str(farm) + ".wal")

    def setup(self):
        self.conn = repro.connect(str(self.farm), durable=True)
        self.ops = datagen.durable_ops(self.seed)
        self.is_update = self.ops["is_update"].tolist()
        self.cells = self.ops["cell"].tolist()
        self.values = self.ops["value"].tolist()
        self.acked = 0
        self.wal_size = self._wal_size()
        self.wal_growth = 0
        self.checkpoints = 0

    def _wal_size(self):
        return self.wal.stat().st_size if self.wal.exists() else 0

    def attach(self, executor):
        return (
            executor.prepare("INSERT INTO log VALUES (?, ?)"),
            executor.prepare("UPDATE cells SET v = ? WHERE x = ?"),
        )

    def part_class(self, n):
        return "update" if self.is_update[n % datagen.OP_INPUTS] else "insert"

    def is_write(self, n):
        return True

    def part(self, n, executor, statements):
        j = n % datagen.OP_INPUTS
        insert, update = statements
        if self.is_update[j]:
            return update.execute((self.values[j], self.cells[j])).affected
        return insert.execute((n, self.values[j])).affected

    def check(self, n, value):
        self.acked += 1
        size = self._wal_size()
        if size < self.wal_size:  # a checkpoint truncated the log
            self.checkpoints += 1
            self.wal_growth += size
        else:
            self.wal_growth += size - self.wal_size
        self.wal_size = size
        return value == 1

    def layer_probes(self, latencies):
        slowest = sorted(latencies)[-self.checkpoints :] if self.checkpoints else []
        return {
            "wal.bytes_per_commit": self.wal_growth / max(self.acked, 1),
            "wal.checkpoints": self.checkpoints,
            # The spike a median hides: the commits that ran a checkpoint.
            "wal.checkpoint_stall_ms": (
                statistics.fmean(slowest) * 1e3 if slowest else 0.0
            ),
        }


class DurableCommit(Workload):
    """Autocommit writes through the write-ahead log, then a SIGKILL.

    ``engine.wal``/``gdk.persist`` dominate; ``life_step`` is the same
    write path without the log.  The engine runs in a child that is
    killed after its last acknowledgement, without a clean close; this
    process reopens the farm and checks every acknowledged op against
    a NumPy replay.  A kill leaves the operating system's cache
    intact: this proves WAL replay, not the device flush.
    """

    name = "durable_commit"
    data_bytes = DurableOps.data_bytes
    parts = DurableOps.parts
    child = None

    def setup(self):
        self.cells = datagen.durable_cells(self.seed)
        self.farm = Path(self.workdir) / "durable_farm"
        shutil.rmtree(self.farm, ignore_errors=True)
        Path(str(self.farm) + ".wal").unlink(missing_ok=True)
        staging = repro.connect()
        staging.register_array("cells", self.cells)
        staging.execute("CREATE TABLE log (k BIGINT, v DOUBLE)")
        t0 = now()
        staging.save(self.farm)
        self.save_s = now() - t0
        staging.close()
        self.child = subprocess.Popen(
            [sys.executable, str(HERE / "durable_child.py"), str(self.farm), str(self.seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env(),
        )
        self._reply()  # "ready": farm open, statements prepared

    def _reply(self) -> dict:
        for line in self.child.stdout:
            if line.startswith("{"):
                return json.loads(line)
            print(line, end="")
        raise RuntimeError("durable_commit child exited without a reply")

    def close(self):
        child, self.child = self.child, None
        if child is not None:
            child.kill()  # no-op once it has been reaped
            child.wait()
            child.stdout.close()
            child.stdin.close()

    def _run_child(self, command: str, seconds: float) -> dict:
        self.child.stdin.write(f"{command} {seconds}\n")
        self.child.stdin.flush()
        reply = self._reply()
        os.kill(self.child.pid, signal.SIGKILL)  # after the last ack
        self.close()
        self.acked = reply["acked"]
        return reply

    def recover(self, acked: int) -> tuple[int, float, float]:
        """Reopen the farm; count acknowledged ops the replay lost."""
        farm_bytes = dir_bytes(self.farm)
        t0 = now()
        conn = repro.connect(str(self.farm))
        recover_s = now() - t0
        try:
            cells, keys, values = oracles.durable_replay(
                self.cells, datagen.durable_ops(self.seed), acked
            )
            log = conn.execute("SELECT k, v FROM log").to_numpy()
            order = np.argsort(log["k"], kind="stable")
            rows_ok = oracles.same(log["k"][order], keys) and oracles.same(
                log["v"][order], values
            )
            grid = conn.execute("SELECT [x], v FROM cells").grid()
            lost = int((grid != cells).sum())
            if not rows_ok:
                lost += max(1, abs(len(keys) - len(order)))
            user_bytes = cells.nbytes + 16 * len(keys)
        finally:
            conn.close()
        return lost, recover_s, farm_bytes / user_bytes

    def measure(self, seconds):
        reply = self._run_child("run", seconds)
        data = np.load(reply["samples"])
        lost, _, _ = self.recover(reply["acked"])
        return Samples(
            latency=data["latency"].tolist(),
            cpu=data["cpu"].tolist(),
            slowdown=data["slowdown"].tolist(),
            attempted=reply["attempted"],
            failed=min(reply["attempted"], reply["failed"] + lost),
            rss_kb=peak_rss_kb(),
            other_rss_kb=reply["rss_kb"],
        )

    def trace(self, seconds):
        reply = self._run_child("trace", seconds)
        lost, recover_s, farm_ratio = self.recover(reply["acked"])
        metrics = reply["metrics"]
        metrics.update({
            "wal.recover_s": recover_s,
            "persist.save_s": self.save_s,
            "persist.farm_bytes_per_user_byte": farm_ratio,
        })
        with open(reply["spans"]) as handle:
            spans = json.load(handle)
        return TraceResult(
            metrics, reply["shares"], spans, reply["attempted"],
            min(reply["attempted"], reply["failed"] + lost), reply["truncated"],
        )


# ----------------------------------------------------------------------
class RemoteFetch(Workload):
    """The wire used two ways, over loopback to a server subprocess.

    One op is a cycle of 32 prepared point selects (latency-bound
    round trips) and one streamed 1M-row ``SELECT v FROM big`` fetched
    with ``fetchnumpy()`` (bandwidth-bound columnar batches) — about
    half the cycle time each.  ``point_prepared`` already gives the
    in-process cost of the point statement.
    """

    name = "remote_fetch"
    data_bytes = datagen.REMOTE_ROWS * 16
    traced_ops = 40
    POINTS = 32
    parts = ("point",) * POINTS + ("scan",)
    parts_per_op = POINTS + 1
    POINT_SQL = PointPrepared.SQL
    SCAN_SQL = "SELECT v FROM big"
    server = None
    local = None

    def setup(self):
        self.columns = datagen.big_table(self.seed, datagen.REMOTE_ROWS, False)
        self.xs, self.ys = datagen.point_coords(self.seed)
        staging = repro.connect()
        staging.register_array("m", datagen.point_matrix())
        load_big(staging, self.columns)
        self.farm = Path(self.workdir) / "remote_farm"
        shutil.rmtree(self.farm, ignore_errors=True)
        t0 = now()
        staging.save(self.farm)
        self.save_s = now() - t0
        staging.close()
        self.server = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.net.server",
             "--path", str(self.farm), "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=child_env(),
        )
        line = self.server.stdout.readline()
        if "repro://" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        self.conn = repro.connect(line.split()[-1])
        self.cursor = self.conn.cursor()

    def engine_pids(self):
        return [self.server.pid]

    def layered_conn(self):
        """The same farm opened in-process: the wire tax's base."""
        t0 = now()
        self.local = repro.connect(str(self.farm))
        self.open_s = now() - t0
        return self.local

    def close(self):
        for conn in (self.conn, self.local):
            if conn is not None:
                conn.close()
        self.conn = self.local = None
        server, self.server = self.server, None
        if server is not None:
            server.send_signal(signal.SIGINT)
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
            server.stdout.close()

    def attach(self, executor):
        return {
            "point": executor.prepare(self.POINT_SQL),
            "scan": executor.prepare(self.SCAN_SQL) if executor.layered else None,
        }

    def _coords(self, n):
        j = n % datagen.OP_INPUTS
        return self.xs[j], self.ys[j]

    def part(self, n, executor, statements):
        if self.part_class(n) == "point":
            result = statements["point"].execute(self._coords(n))
            with executor.fetching():
                return result.scalar()
        if executor.layered:
            result = statements["scan"].execute()
            with executor.fetching():
                return result.to_numpy()["v"]
        self.cursor.execute(self.SCAN_SQL)
        return self.cursor.fetchnumpy()["v"]

    def check(self, n, value):
        if self.part_class(n) == "point":
            x, y = self._coords(n)
            return value == x * 100 + y
        return oracles.same(value, self.columns["v"])

    def layer_probes(self, latencies):
        conn, local = self.conn, self.local
        rows = datagen.REMOTE_ROWS

        def remote_point():
            conn_point.execute((3, 4)).scalar()

        def remote_scan():
            self.cursor.execute(self.SCAN_SQL)
            self.cursor.fetchnumpy()

        conn_point = conn.prepare(self.POINT_SQL)
        local_point = local.prepare(self.POINT_SQL)
        local_scan = local.prepare(self.SCAN_SQL)
        before = conn.stats()
        scan_us = median_us(remote_scan, 5)
        after = conn.stats()
        scans = 6  # median_us runs one extra, untimed
        point_us = median_us(remote_point, 300)
        base_point_us = median_us(lambda: local_point.execute((3, 4)).scalar(), 300)
        base_scan_us = median_us(lambda: local_scan.execute().to_numpy(), 5)
        batch = [Column(Atom.LNG, self.columns["v"][:65536])]
        frame = protocol.encode_batch(batch)
        _, header, blob, _ = protocol.decode_frame(frame)
        user_bytes = sum(column.nbytes for column in self.columns.values())
        return {
            "net.rtt_us": median_us(conn.ping, 300),
            "net.encode_batch_us": median_us(lambda: protocol.encode_batch(batch), 30),
            "net.decode_batch_us": median_us(
                lambda: protocol.decode_batch(header, blob), 30
            ),
            "net.bytes_per_row": (
                (after["bytes_streamed"] - before["bytes_streamed"]) / (scans * rows)
            ),
            "net.batches_per_scan": (
                (after["batches_streamed"] - before["batches_streamed"]) / scans
            ),
            "net.point_us": point_us,
            "net.scan_ms": scan_us / 1e3,
            "net.wire_tax_point": point_us / base_point_us,
            "net.wire_tax_point_base_us": base_point_us,
            "net.wire_tax_scan": scan_us / base_scan_us,
            "net.wire_tax_scan_base_ms": base_scan_us / 1e3,
            "persist.save_s": self.save_s,
            "persist.open_s": self.open_s,
            "persist.farm_bytes_per_user_byte": dir_bytes(self.farm) / user_bytes,
        }


WORKLOADS = {
    cls.name: cls
    for cls in (
        PointPrepared, AdhocCompile, LifeStep, GrayscalePipeline,
        ScanAgg, ScanSelect, DurableCommit, RemoteFetch,
    )
}
