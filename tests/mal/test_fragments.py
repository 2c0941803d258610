"""Units for the fragmentation stack: dependency graph, mat/merge
kernels, the mitosis/mergetable passes, and the dataflow scheduler."""

import math

import numpy as np
import pytest

import repro
from repro.errors import MALError
from repro.gdk.atoms import Atom
from repro.gdk.bat import (
    BAT,
    merge_candidates,
    pack_bats,
    partition,
    partition_bounds,
)
from repro.gdk import aggregate as aggregate_kernel
from repro.gdk.column import Column
from repro.gdk.group import explicit_grouping
from repro.catalog import Catalog
from repro.mal.interpreter import Interpreter, link
from repro.mal.optimizer.mitosis import fragment_count
from repro.mal.program import Constant, Instruction, MALProgram, Var, bat_type


class TestDependencyGraph:
    def build(self):
        program = MALProgram()
        a = program.emit1("array", "series", [0, 1, 4, 1, 1], bat_type(Atom.LNG))
        b = program.emit1("array", "series", [0, 1, 4, 1, 1], bat_type(Atom.LNG))
        c = program.emit1("bat", "append", [Var(a), Var(b)], bat_type(Atom.LNG))
        return program, (a, b, c)

    def test_data_edges(self):
        program, _ = self.build()
        deps = program.dependencies()
        assert deps[0] == set() and deps[1] == set()
        assert deps[2] == {0, 1}

    def test_linked_roots_are_parallel(self):
        program, (_, _, c) = self.build()
        assert not link(program).pooled  # no mat op: program order, no graph
        program.emit("mat", "pack", [Var(c)], [bat_type(Atom.LNG)])
        plan = link(program)  # emit dropped the old link
        assert plan.pooled
        assert [step.index for step in plan.roots] == [0, 1]
        assert plan.counts == (0, 0, 2, 1)
        assert [list(step.dependents) for step in plan.steps] == [[2], [2], [3], []]

    def test_side_effects_are_barriers(self):
        program = MALProgram()
        program.emit1("array", "series", [0, 1, 4, 1, 1], bat_type(Atom.LNG))
        program.emit("sql", "affected", [1], [bat_type(None)])
        program.emit1("array", "series", [0, 1, 4, 1, 1], bat_type(Atom.LNG))
        deps = program.dependencies()
        assert deps[1] == {0}  # the barrier waits for everything before it
        assert 1 in deps[2]  # and everything after waits for the barrier

    def test_free_waits_for_consumers(self):
        program = MALProgram()
        a = program.emit1("array", "series", [0, 1, 4, 1, 1], bat_type(Atom.LNG))
        program.emit1("bat", "getcount", [Var(a)], bat_type(None))
        program.instructions.append(
            Instruction("language", "free", [], [Constant(a)])
        )
        deps = program.dependencies()
        assert deps[2] == {0, 1}


class TestMatKernels:
    def test_partition_roundtrip(self):
        b = BAT.from_pylist(Atom.INT, list(range(10)))
        parts = [partition(b, i, 3) for i in range(3)]
        assert [p.hseqbase for p in parts] == [0, 3, 6]
        assert sum(len(p) for p in parts) == 10
        packed = pack_bats(parts)
        assert packed.tail.to_pylist() == list(range(10))
        assert packed.hseqbase == 0

    def test_partition_bounds_cover_exactly(self):
        for count in (0, 1, 7, 64):
            for pieces in (1, 2, 5):
                spans = [partition_bounds(count, i, pieces) for i in range(pieces)]
                assert spans[0][0] == 0 and spans[-1][1] == count
                for (_, stop), (start, _) in zip(spans, spans[1:]):
                    assert stop == start

    def test_merge_candidates_concatenates_in_order(self):
        a = BAT.from_oids(np.array([1, 4], dtype=np.int64))
        b = BAT.from_oids(np.array([6, 9], dtype=np.int64))
        assert merge_candidates([a, b]).tail.to_pylist() == [1, 4, 6, 9]

    def test_merge_candidates_rejects_values(self):
        with pytest.raises(Exception):
            merge_candidates([BAT.from_pylist(Atom.INT, [1])])


class TestMergeKernels:
    def grouping(self, ids, ngroups):
        return explicit_grouping(np.asarray(ids, dtype=np.int64), ngroups)

    def test_merge_sum_ignores_null_partials(self):
        partials = Column.from_pylist(Atom.LNG, [3, None, 4, None])
        grouping = self.grouping([0, 0, 1, 1], 2)
        merged = aggregate_kernel.merge_partials("sum", partials, grouping)
        assert merged.to_pylist() == [3, 4]

    def test_merge_all_null_partials_is_null(self):
        partials = Column.from_pylist(Atom.LNG, [None, None])
        grouping = self.grouping([0, 0], 1)
        merged = aggregate_kernel.merge_partials("min", partials, grouping)
        assert merged.to_pylist() == [None]

    def test_merge_avg_weights_by_count(self):
        sums = Column.from_pylist(Atom.LNG, [10, 2, None])
        counts = Column.from_pylist(Atom.LNG, [4, 1, 0])
        grouping = self.grouping([0, 0, 1], 2)
        merged = aggregate_kernel.merge_avg(sums, counts, grouping)
        assert merged.to_pylist() == [12 / 5, None]

    def test_merge_rejects_nondecomposable(self):
        with pytest.raises(Exception):
            aggregate_kernel.merge_partials(
                "stddev",
                Column.from_pylist(Atom.DBL, [1.0]),
                self.grouping([0], 1),
            )

    def test_first_occurrence(self):
        groups = Column(Atom.OID, np.array([1, 0, 1, 2, 0], dtype=np.int64))
        assert aggregate_kernel.first_occurrence(groups, 3).tolist() == [1, 0, 3]


class TestMitosisSizing:
    def test_explicit_fragment_rows(self):
        assert fragment_count(100, 10, 1) == 10
        assert fragment_count(101, 10, 1) == 11
        assert fragment_count(5, 10, 1) == 1

    def test_auto_mode(self):
        assert fragment_count(10_000_000, None, 4) == 4
        assert fragment_count(100, None, 4) == 1  # below the auto floor
        assert fragment_count(10_000_000, None, 1) == 1

    def test_caps(self):
        assert fragment_count(10_000_000, 1, 1) == 64  # MAX_FRAGMENTS
        assert fragment_count(10, 1, 1) == 10  # never more pieces than rows
        assert fragment_count(100, math.inf, 4) == 1


class TestFragmentedPlans:
    def fragmented_connection(self, rows=64):
        conn = repro.connect(nr_threads=1, fragment_rows=8)
        conn.execute("CREATE TABLE t (k INT, v INT)")
        conn.executemany(
            "INSERT INTO t VALUES (?, ?)", [(i % 3, i) for i in range(rows)]
        )
        return conn

    def test_select_project_fragmented(self):
        conn = self.fragmented_connection()
        plan = conn.explain("SELECT v FROM t WHERE v > 10")
        # malgen lowers the comparison to a value select; mergetable
        # fans it out, one copy per fragment.
        assert plan.count("algebra.thetaselect(") == 8
        assert "batcalc." not in plan  # no bit column is ever built
        assert "bat.mergecand" not in plan  # candidates never re-merged
        assert "mat.pack" in plan  # payload fragments rejoin for the result

    def test_expression_is_copied_per_fragment_over_one_row_space(self):
        conn = self.fragmented_connection()
        sql = "SELECT CASE WHEN v % 2 = 0 THEN v * k ELSE -v END FROM t"
        plan = conn.explain(sql)
        text = 'batcalc.expr("case(eq(mod($0,2),0),mul($0,$1),negate($0))", '
        assert plan.count(text) == 8  # the map rule: one copy per fragment
        assert plan.count("batcalc.") == 8 and plan.count("mat.pack(") == 1
        sequential = repro.connect(nr_threads=1, fragment_rows=math.inf)
        sequential.execute("CREATE TABLE t (k INT, v INT)")
        sequential.executemany(
            "INSERT INTO t VALUES (?, ?)", [(i % 3, i) for i in range(64)]
        )
        assert conn.execute(sql).rows() == sequential.execute(sql).rows()

    def test_expression_over_two_row_spaces_packs_first(self):
        conn = self.fragmented_connection()
        conn.execute("CREATE TABLE u (w INT)")
        conn.executemany("INSERT INTO u VALUES (?)", [(i,) for i in range(64)])
        # The join's two sides are fragments of different row spaces:
        # no per-fragment copy is sound, the leaves re-merge first.
        sql = "SELECT t.v + u.w FROM t INNER JOIN u ON t.v = u.w WHERE u.w > 60"
        plan = conn.explain(sql)
        assert plan.count("batcalc.expr(") == 1
        assert conn.execute(sql).rows() == [(122,), (124,), (126,)]

    def test_grouped_aggregate_uses_partials(self):
        conn = self.fragmented_connection()
        plan = conn.explain("SELECT k, AVG(v), COUNT(*) FROM t GROUP BY k")
        assert plan.count("group.group") == 9  # 8 fragments + distinct-key merge
        assert "aggr.mergeavg" in plan
        assert "aggr.mergecount" in plan

    def test_join_outputs_rejoin_by_concatenation(self):
        # A two-column equi join: the second key runs as a residual
        # select over the joined rows, which makes mergetable re-merge
        # the per-fragment join oid lists.  They may repeat and the
        # right side is unsorted, so they are no candidate lists: the
        # verifier rejects bat.mergecand over them, mat.pack keeps the
        # left-oid order the sequential join produces.
        conn = self.fragmented_connection()
        conn.execute("CREATE TABLE p (pk INT, pv INT)")
        conn.execute("INSERT INTO p VALUES (2, 5), (0, 3), (2, 8), (1, 61)")
        sql = "SELECT t.v, p.pv FROM t INNER JOIN p ON t.k = p.pk AND t.v = p.pv"
        report = conn.verify_plan(sql)
        assert report.fragment_groups
        plan = conn.explain(sql)
        assert plan.count("algebra.join(") == 8  # one per left fragment
        assert "bat.mergecand" not in plan
        assert conn.execute(sql).rows() == [(3, 3), (5, 5), (8, 8), (61, 61)]

    def test_nondecomposable_falls_back_to_row_groups(self):
        conn = self.fragmented_connection()
        plan = conn.explain("SELECT k, STDDEV(v) FROM t GROUP BY k")
        assert "mat.packgroups" in plan
        assert "aggr.substddev" in plan
        rows = conn.execute("SELECT k, STDDEV(v) FROM t GROUP BY k").rows()
        reference = repro.connect(nr_threads=1, fragment_rows=math.inf)
        reference.execute("CREATE TABLE t (k INT, v INT)")
        reference.executemany(
            "INSERT INTO t VALUES (?, ?)", [(i % 3, i) for i in range(64)]
        )
        assert rows == reference.execute(
            "SELECT k, STDDEV(v) FROM t GROUP BY k"
        ).rows()

    def test_join_fragments_left_side(self):
        conn = self.fragmented_connection()
        conn.execute("CREATE TABLE small (k INT, name VARCHAR(8))")
        conn.executemany(
            "INSERT INTO small VALUES (?, ?)", [(i, f"n{i}") for i in range(3)]
        )
        sql = "SELECT t.v, small.name FROM t JOIN small ON t.k = small.k"
        plan = conn.explain(sql)
        assert plan.count("algebra.join") == 8
        reference = repro.connect(nr_threads=1, fragment_rows=math.inf)
        reference.execute("CREATE TABLE t (k INT, v INT)")
        reference.executemany(
            "INSERT INTO t VALUES (?, ?)", [(i % 3, i) for i in range(64)]
        )
        reference.execute("CREATE TABLE small (k INT, name VARCHAR(8))")
        reference.executemany(
            "INSERT INTO small VALUES (?, ?)", [(i, f"n{i}") for i in range(3)]
        )
        assert conn.execute(sql).rows() == reference.execute(sql).rows()

    def test_cache_key_includes_knobs(self):
        conn = self.fragmented_connection()
        sql = "SELECT v FROM t WHERE v > 10"
        fragmented = conn.execute(sql).rows()
        conn.fragment_rows = math.inf
        assert "mat.partition" not in conn.explain(sql)
        assert conn.execute(sql).rows() == fragmented


class TestHaloTiling:
    """Structural grouping through mitosis/mergetable: halo fragments."""

    SMOOTH = "SELECT [x], [y], SUM(v) FROM g GROUP BY g[x-1:x+2][y-1:y+2]"

    def tiled_connection(self, side=32, attribute="v INT DEFAULT 1", **knobs):
        conn = repro.connect(**knobs)
        conn.execute(
            f"CREATE ARRAY g (x INT DIMENSION[0:1:{side}], "
            f"y INT DIMENSION[0:1:{side}], {attribute})"
        )
        return conn

    def test_tiling_plan_uses_halo_fragments(self):
        conn = self.tiled_connection(nr_threads=1, fragment_rows=64)
        plan = conn.explain(self.SMOOTH)
        assert "array.tilepart" in plan
        assert "array.tileagg" not in plan
        # the result stays fragmented through the SUM(v)-independent
        # output columns and rejoins once
        assert "mat.pack" in plan

    def test_mitosis_caps_fragments_to_halo_viability(self):
        # 32 rows, halo 2: cap = 32 // (2*(2+1)) = 5 fragments, even
        # though fragment_rows=7 asks for ceil(1024/7)=147.
        conn = self.tiled_connection(nr_threads=1, fragment_rows=7)
        plan = conn.explain(self.SMOOTH)
        assert plan.count("array.tilepart") == 5

    def test_halo_results_byte_identical(self):
        import numpy as np

        rng = np.random.default_rng(11)
        cells = [
            (int(x), int(y), int(rng.integers(0, 100)))
            for x in range(24)
            for y in range(24)
            if rng.random() > 0.2
        ]
        queries = [
            self.SMOOTH,
            "SELECT [x], [y], AVG(v), COUNT(*) FROM g GROUP BY g[x:x+3][y:y+3]",
            "SELECT [x], [y], MIN(v), MAX(v) FROM g GROUP BY g[x-2:x+3][y-2:y+3]",
        ]
        reference = self.tiled_connection(
            side=24, attribute="v INT", nr_threads=1, fragment_rows=math.inf
        )
        reference.executemany("INSERT INTO g VALUES (?, ?, ?)", cells)
        expected = {sql: reference.execute(sql).rows() for sql in queries}
        for threads in (1, 4):
            conn = self.tiled_connection(
                side=24, attribute="v INT", nr_threads=threads, fragment_rows=32
            )
            conn.executemany("INSERT INTO g VALUES (?, ?, ?)", cells)
            for sql in queries:
                assert "array.tilepart" in conn.explain(sql), sql
                assert conn.execute(sql).rows() == expected[sql], sql
            conn.close()

    def test_double_sum_does_not_fragment(self):
        # float prefix sums drift between slab and whole-array runs;
        # byte-identity keeps DOUBLE sums/avgs on the whole-array kernel.
        conn = self.tiled_connection(
            attribute="v DOUBLE", nr_threads=1, fragment_rows=64
        )
        plan = conn.explain(
            "SELECT [x], [y], AVG(v) FROM g GROUP BY g[x-1:x+2][y-1:y+2]"
        )
        assert "array.tilepart" not in plan
        assert "array.tileagg" in plan
        # selection-exact aggregates still fragment for DOUBLE cells
        plan = conn.explain(
            "SELECT [x], [y], MAX(v) FROM g GROUP BY g[x-1:x+2][y-1:y+2]"
        )
        assert "array.tilepart" in plan

    def test_halo_fragments_counted_in_stats(self):
        conn = self.tiled_connection(nr_threads=1, fragment_rows=64)
        result = conn.execute(self.SMOOTH, collect_stats=True)
        assert result.rows()
        assert conn.last_stats.halo_fragments == 5

    def test_sequential_knobs_keep_whole_array_tiling(self):
        conn = self.tiled_connection(nr_threads=1, fragment_rows=math.inf)
        plan = conn.explain(self.SMOOTH)
        assert "array.tilepart" not in plan
        assert "array.tileagg" in plan


class TestDataflowScheduler:
    def test_error_propagates(self):
        catalog = Catalog()
        interpreter = Interpreter(catalog, nr_threads=4)
        program = MALProgram()
        base = program.emit1("array", "series", [0, 1, 4, 1, 1], bat_type(Atom.LNG))
        bad = program.emit1(
            "mat", "partition", [Var(base), 5, 2], bat_type(Atom.LNG)
        )
        program.emit("mat", "pack", [Var(bad)], [bat_type(Atom.LNG)])
        with pytest.raises(MALError):
            interpreter.run(program)
        interpreter.close()

    def test_dataflow_matches_sequential(self):
        conn = repro.connect(nr_threads=4, fragment_rows=4)
        reference = repro.connect(nr_threads=1, fragment_rows=math.inf)
        for c in (conn, reference):
            c.execute("CREATE TABLE t (k INT, v DOUBLE)")
            c.executemany(
                "INSERT INTO t VALUES (?, ?)",
                [(i % 7, float(i) / 3.0) for i in range(200)],
            )
        sql = "SELECT k, SUM(v), MIN(v), MAX(v), AVG(v) FROM t GROUP BY k"
        assert conn.execute(sql).rows() == reference.execute(sql).rows()
        conn.close()
        reference.close()

    def test_sequential_interpreter_untouched_by_plain_plans(self):
        conn = repro.connect(nr_threads=4, fragment_rows=math.inf)
        conn.execute("CREATE TABLE t (k INT)")
        conn.execute("INSERT INTO t VALUES (1), (2)")
        # unfragmented plan: the dataflow gate keeps it on the fast path
        assert conn.execute("SELECT k FROM t").rows() == [(1,), (2,)]
        conn.close()

    @pytest.mark.parametrize("side, pooled", [(256, False), (512, True)])
    def test_small_fragments_stay_on_the_scheduler_thread(self, side, pooled):
        # Auto mode on two threads halves both boards.  The Life-sized
        # one (two fragments of 32 768 cells, kernels of 0.1-0.3 ms)
        # must not pay a pool hand-off per instruction; the image-sized
        # one (131 072 cells each) reaches the pool.  Same answer
        # either way.
        sql = "SELECT [x], [y], SUM(v) FROM g GROUP BY g[x-1:x+2][y-1:y+2]"
        board = np.arange(side * side, dtype=np.int32).reshape(side, side) % 7
        grids = []
        for threads in (2, 1):
            conn = repro.connect(nr_threads=threads, fragment_rows="auto")
            conn.register_array("g", board)
            if threads == 2:
                assert conn.explain(sql).count("array.tilepart") == 2
            grids.append(conn.execute(sql, collect_stats=True).grid())
            if threads == 2:
                assert (conn.last_stats.parallel_batches > 0) == pooled
            conn.close()
        assert grids[0].tobytes() == grids[1].tobytes()
