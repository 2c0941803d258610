"""Static plan verifier tests.

Three layers:

* the signature registry is complete (every interpreted op declares one)
  and real compiled plans verify cleanly, sequential and fragmented;
* mutation tests: a deliberately broken optimizer pass is appended to
  the pipeline and the resulting ``PlanVerificationError`` must blame
  that pass by name — one mutant per invariant class (dropped pack,
  duplicated partition, swapped operands, use-after-free, double free,
  join-result-as-candidate, unregistered op, barrier violations, ...);
* the EXPLAIN surface: plan digest, fragment-group annotations,
  ``EXPLAIN VERIFY`` summary line, ``Connection.verify_plan``.
"""

import json

import pytest

import repro
from repro import PlanVerificationError
from repro.gdk.atoms import Atom
from repro.mal import MALProgram, Var, bat_type, scalar_type
from repro.mal.analysis import (
    annotate_program,
    check_completeness,
    plan_digest,
    verify_program,
)
from repro.mal.optimizer.pipeline import OptimizerPass, optimize
from repro.mal.program import Constant, Instruction


# ----------------------------------------------------------------------
# plan builders (all verify cleanly before mutation)
# ----------------------------------------------------------------------
def source(p):
    """A column to read; the verifier is static, so nothing binds it."""
    return p.emit1("sql", "bind", ["t", "v"], bat_type(Atom.INT))


def fragment_plan(pieces=3):
    """Partition a source, run a select chain and a projection on each
    fragment, pack, deliver — the shape mergetable emits for a filter."""
    p = MALProgram()
    src = source(p)
    projected = []
    for i in range(pieces):
        part = p.emit1("mat", "partition", [src, i, pieces], bat_type(Atom.INT))
        cand = p.emit1(
            "algebra", "thetaselect", [part, 3, ">"], bat_type(Atom.OID)
        )
        cand = p.emit1(
            "algebra", "thetaselect", [part, 9, "!=", cand], bat_type(Atom.OID)
        )
        projected.append(
            p.emit1("algebra", "projection", [cand, part], bat_type(Atom.INT))
        )
    packed = p.emit1("mat", "pack", projected, bat_type(Atom.INT))
    p.emit(
        "sql", "resultSet",
        ["t", json.dumps(["v"]), json.dumps({}), packed],
        [scalar_type(Atom.INT)],
    )
    return p


def free_plan():
    """Count a BAT, free it after its last read, report the count."""
    p = MALProgram()
    src = source(p)
    count = p.emit1("bat", "getcount", [src], scalar_type(Atom.LNG))
    p.instructions.append(Instruction("language", "free", [], [Constant(src)]))
    p.emit("sql", "setVariable", ["out", count], [scalar_type(Atom.LNG)])
    return p


def join_plan():
    """Join two columns and project through the left oid list."""
    p = MALProgram()
    left = source(p)
    right = source(p)
    lo, _ro = p.emit(
        "algebra", "join", [left, right],
        [bat_type(Atom.OID), bat_type(Atom.OID)],
    )
    projected = p.emit1("algebra", "projection", [lo, left], bat_type(Atom.INT))
    p.emit(
        "sql", "resultSet",
        ["t", json.dumps(["v"]), json.dumps({}), projected],
        [scalar_type(Atom.INT)],
    )
    return p


def tilepart_plan():
    p = MALProgram()
    src = source(p)
    meta = json.dumps({"shape": [2, 2], "offsets": [[-1], [0]]})  # a one-cell tile
    slab = p.emit1(
        "array", "tilepart", [src, "sum", meta, 0, 2], bat_type(Atom.INT)
    )
    p.emit(
        "sql", "resultSet",
        ["t", json.dumps(["v"]), json.dumps({}), slab],
        [scalar_type(Atom.INT)],
    )
    return p


def expression_plan():
    """The Life rule as one batcalc.expr over a lng and an int column."""
    p = MALProgram()
    total = p.emit1("sql", "bind", ["t", "n"], bat_type(Atom.LNG))
    alive = source(p)
    text = "case(or(eq(sub($0,$1),3),and(eq(sub($0,$1),2),eq($1,1))),1,0)"
    out = p.emit1("batcalc", "expr", [text, total, alive], bat_type(Atom.INT))
    p.emit(
        "sql", "resultSet",
        ["t", json.dumps(["v"]), json.dumps({}), out],
        [scalar_type(Atom.INT)],
    )
    return p


def find(program, module, function, nth=0):
    hits = [
        i for i in program.instructions
        if (i.module, i.function) == (module, function)
    ]
    return hits[nth]


# ----------------------------------------------------------------------
# registry completeness + well-formed plans
# ----------------------------------------------------------------------
class TestRegistry:
    def test_every_interpreted_op_has_a_signature(self):
        assert check_completeness() == []

    def test_registry_covers_only_real_ops(self):
        from repro.mal.analysis.signatures import signature_table
        from repro.mal.modules import REGISTRY, load_all

        load_all()
        extra = {
            key for key in signature_table()
            if key not in REGISTRY and key[0] != "language"
        }
        assert extra == set()


class TestWellFormedPlans:
    def test_fragment_plan_verifies(self):
        report = verify_program(fragment_plan(), phase="test")
        assert report.fragment_groups == [("X_0", 3)]
        assert report.checked_ops == len(fragment_plan().instructions)

    def test_free_plan_verifies(self):
        report = verify_program(free_plan(), phase="test")
        assert report.frees == 1

    def test_expression_plan_verifies(self):
        report = verify_program(expression_plan())
        assert report.checked_ops == 4

    def test_join_and_tilepart_plans_verify(self):
        verify_program(join_plan(), phase="test")
        verify_program(tilepart_plan(), phase="test")

    def test_compiled_plans_verify(self, fig1c_conn):
        report = fig1c_conn.verify_plan(
            "SELECT [x], [y], AVG(v) FROM matrix GROUP BY matrix[x:x+2][y:y+2]"
        )
        assert report.phase == "final"
        assert report.checked_ops > 0

    def test_fragmented_compiled_plans_verify(self):
        conn = repro.connect(nr_threads=2, fragment_rows=4)
        conn.execute("CREATE TABLE t (a INT, b INT)")
        conn.execute(
            "INSERT INTO t VALUES "
            + ", ".join(f"({i}, {i * 2})" for i in range(32))
        )
        report = conn.verify_plan("SELECT SUM(b) FROM t WHERE a > 3")
        assert report.fragment_groups  # mitosis actually split the scan
        assert conn.execute("SELECT SUM(b) FROM t WHERE a > 3").scalar() == sum(
            i * 2 for i in range(32) if i > 3
        )


# ----------------------------------------------------------------------
# mutation tests: every broken plan is rejected blaming the pass
# ----------------------------------------------------------------------
def mutate(build_plan, name, mutator):
    """Optimize with a deliberately broken pass; return the error."""
    program = build_plan()
    mutant = OptimizerPass(name, mutator)
    with pytest.raises(PlanVerificationError) as exc:
        optimize(program, (mutant,), verify=True)
    assert exc.value.phase == name
    return exc.value


class TestMutations:
    def test_dropped_pack_argument(self):
        def drop(program):
            find(program, "mat", "pack").args.pop()
            return program

        error = mutate(fragment_plan, "evil_mergetable", drop)
        assert "complete group" in str(error)

    def test_subset_pack_of_two_piece_group(self):
        # Dropping down to a single-arg pack must still be rejected: a
        # pack of a strict subset of a group loses rows silently.
        def drop_to_one(program):
            pack = find(program, "mat", "pack")
            del pack.args[1:]
            return program

        error = mutate(
            lambda: fragment_plan(pieces=2), "evil_mergetable", drop_to_one
        )
        assert "complete group" in str(error)

    def test_duplicated_partition_index(self):
        def duplicate(program):
            find(program, "mat", "partition", nth=1).args[1] = Constant(0)
            return program

        error = mutate(fragment_plan, "evil_mitosis", duplicate)
        assert "partitioned twice" in str(error)

    def test_partition_index_out_of_group(self):
        def bump(program):
            find(program, "mat", "partition", nth=2).args[1] = Constant(7)
            return program

        error = mutate(fragment_plan, "evil_mitosis", bump)
        assert "outside fragment group" in str(error)

    def test_swapped_projection_operands(self):
        def swap(program):
            instruction = find(program, "algebra", "projection")
            instruction.args.reverse()
            return program

        error = mutate(fragment_plan, "evil_rewrite", swap)
        assert "algebra.projection" in str(error)

    def test_select_chain_crosses_fragments(self):
        # A mergetable that pairs fragment 1's second select with the
        # candidates of fragment 0's first one.
        def cross(program):
            chain_0_head = find(program, "algebra", "thetaselect", nth=0)
            chain_1_tail = find(program, "algebra", "thetaselect", nth=3)
            chain_1_tail.args[3] = Var(chain_0_head.results[0])
            return program

        error = mutate(fragment_plan, "evil_mergetable", cross)
        assert "must stay within one fragment" in str(error)

    def test_use_after_free(self):
        def use_late(program):
            src = program.instructions[0].results[0]
            program.emit1("bat", "getcount", [src], scalar_type(Atom.LNG))
            return program

        error = mutate(free_plan, "evil_gc", use_late)
        assert "used after language.free" in str(error)

    def test_premature_free(self):
        def free_early(program):
            free = program.instructions.pop(2)
            program.instructions.insert(1, free)
            return program

        error = mutate(free_plan, "evil_gc", free_early)
        assert "used after language.free" in str(error)

    def test_double_free(self):
        def free_twice(program):
            free = find(program, "language", "free")
            program.instructions.append(free)
            return program

        error = mutate(free_plan, "evil_gc", free_twice)
        assert "freed twice" in str(error)

    def test_free_of_pinned_variable(self):
        def pin_then_free(program):
            program.pin(program.instructions[0].results[0])
            return program

        error = mutate(free_plan, "evil_gc", pin_then_free)
        assert "pinned" in str(error)

    def test_join_result_is_not_a_candidate(self):
        def as_candidate(program):
            lo = find(program, "algebra", "join").results[0]
            merged = program.fresh(bat_type(Atom.OID))
            program.instructions.append(
                Instruction("bat", "mergecand", [merged], [Var(lo)])
            )
            return program

        error = mutate(join_plan, "evil_candidates", as_candidate)
        assert "sorted/unique candidate" in str(error)

    def test_unregistered_op(self):
        def emit_unknown(program):
            program.instructions.append(Instruction("foo", "bar", [], []))
            return program

        error = mutate(free_plan, "evil_codegen", emit_unknown)
        assert "no signature registered" in str(error)

    def test_use_before_definition(self):
        def use_undefined(program):
            count = program.fresh(scalar_type(Atom.LNG))
            program.instructions.insert(
                0, Instruction("bat", "getcount", [count], [Var("nope")])
            )
            return program

        error = mutate(free_plan, "evil_reorder", use_undefined)
        assert "used before definition" in str(error)

    def test_single_assignment(self):
        def reassign(program):
            program.instructions.append(program.instructions[0])
            return program

        error = mutate(free_plan, "evil_ssa", reassign)
        assert "assigned twice" in str(error)

    def test_two_result_sets(self):
        def deliver_twice(program):
            packed = find(program, "mat", "pack").results[0]
            program.emit(
                "sql", "resultSet",
                ["t", json.dumps(["v"]), json.dumps({}), packed],
                [scalar_type(Atom.INT)],
            )
            return program

        error = mutate(fragment_plan, "evil_results", deliver_twice)
        assert "two result sets" in str(error)

    def test_write_after_result_barrier(self):
        def write_late(program):
            program.emit(
                "sql", "createTable",
                ["t2", json.dumps({"columns": []})],
                [scalar_type(Atom.INT)],
            )
            return program

        error = mutate(fragment_plan, "evil_barrier", write_late)
        assert "after the result set was delivered" in str(error)

    def test_result_column_count_mismatch(self):
        def drop_name(program):
            result_set = find(program, "sql", "resultSet")
            result_set.args[1] = Constant(json.dumps(["a", "b"]))
            return program

        error = mutate(fragment_plan, "evil_results", drop_name)
        assert "declares 2 columns but receives 1" in str(error)

    def test_tilepart_slab_out_of_bounds(self):
        def bump(program):
            find(program, "array", "tilepart").args[3] = Constant(5)
            return program

        error = mutate(tilepart_plan, "evil_tiling", bump)
        assert "outside its group" in str(error)

    def test_tilepart_metadata_must_parse(self):
        def corrupt(program):
            find(program, "array", "tilepart").args[2] = Constant("{oops")
            return program

        error = mutate(tilepart_plan, "evil_tiling", corrupt)
        assert "JSON" in str(error)

    @pytest.mark.parametrize(
        "offsets, message",
        [
            ([[], [0]], "non-empty offset list"),
            ([[0]], "non-empty offset list"),
            ([[-3], [0]], "halo of 3 rows exceeds"),
            ([[1, 2, 3], [0]], "halo of 3 rows exceeds"),
        ],
    )
    def test_tilepart_offsets_must_fit_the_array(self, offsets, message):
        def widen(program):
            meta = json.dumps({"shape": [2, 2], "offsets": offsets})
            find(program, "array", "tilepart").args[2] = Constant(meta)
            return program

        error = mutate(tilepart_plan, "evil_tiling", widen)
        assert message in str(error)

    def test_packgroups_arity(self):
        def build():
            p = MALProgram()
            p.emit(
                "mat", "packgroups", [2, 10, 11, 12, 13], [bat_type(Atom.OID)]
            )
            out = p.emit1("bat", "getcount", [p.instructions[-1].results[0]],
                          scalar_type(Atom.LNG))
            p.emit("sql", "setVariable", ["out", out], [scalar_type(Atom.LNG)])
            return p

        def drop(program):
            find(program, "mat", "packgroups").args.pop()
            return program

        error = mutate(build, "evil_merge", drop)
        assert "declares 2 fragments" in str(error)

    @pytest.mark.parametrize(
        "text, complaint",
        [
            ("case(eq($0,$1),1", "malformed expression"),
            ("frob($0,$1)", "unknown operation"),
            ("eq($0)", "bad operand list"),
            ("sub($0,$1,$2)", "bad operand list"),
            ("sub($0,$2)", "does not number its leaves"),
            ("sub($0,3)", "takes 1 leaves, got 2"),
            ("add(sub($0,$1),$2)", "takes 3 leaves, got 2"),
            ('cast($0,"decimal")', "batcalc.expr"),
            ("sub($0,$1)", "yields lng"),
            ("concat($0,$1)", "yields str"),
            ("add(lower($0),$1)", "incompatible types str and int"),
        ],
    )
    def test_expression_must_fit_its_leaves_and_result(self, text, complaint):
        def corrupt(program):
            find(program, "batcalc", "expr").args[0] = Constant(text)
            return program

        error = mutate(expression_plan, "evil_fusion", corrupt)
        assert complaint in str(error)
        assert "batcalc.expr" in error.instruction

    def test_expression_needs_a_bat_leaf(self):
        def scalars_only(program):
            find(program, "batcalc", "expr").args[1:] = [Constant(4), Constant(1)]
            return program

        assert "no BAT leaf" in str(mutate(expression_plan, "evil_fusion", scalars_only))

    def test_aggregate_result_must_be_typed_by_the_aggregate_table(self):
        def plan():
            p = MALProgram()
            total = p.emit1("aggr", "sum", [source(p)], scalar_type(Atom.LNG))
            p.emit("sql", "setVariable", ["out", total], [scalar_type(Atom.LNG)])
            return p

        verify_program(plan())  # SUM over int is lng

        def narrow(program):
            program.types[find(program, "aggr", "sum").results[0]] = scalar_type(Atom.INT)
            return program

        error = mutate(plan, "evil_narrowing", narrow)
        assert "yields lng" in str(error) and "aggr.sum" in error.instruction

    def test_error_names_pass_and_instruction(self):
        def drop(program):
            find(program, "mat", "pack").args.pop()
            return program

        error = mutate(fragment_plan, "evil_mergetable", drop)
        assert error.index >= 0
        assert "mat.pack" in error.instruction
        assert "[evil_mergetable]" in str(error)


# ----------------------------------------------------------------------
# EXPLAIN surface: digest, annotations, VERIFY, verify_plan
# ----------------------------------------------------------------------
class TestExplainSurface:
    def test_plan_digest_is_stable(self):
        assert plan_digest(fragment_plan()) == plan_digest(fragment_plan())
        assert plan_digest(fragment_plan()) != plan_digest(free_plan())

    def test_annotations_follow_the_header(self):
        lines = annotate_program(fragment_plan()).splitlines()
        assert lines[0].startswith("function")
        assert lines[1].startswith("# plan digest ")
        assert lines[2] == "# fragment group X_0 x3"

    def test_explain_carries_digest(self, obs_conn):
        result = obs_conn.execute("EXPLAIN SELECT temp FROM obs")
        lines = [row[0] for row in result.rows()]
        assert any(line.startswith("# plan digest ") for line in lines)

    def test_explain_digest_stable_across_connections(self):
        texts = []
        for _ in range(2):
            conn = repro.connect()
            conn.execute("CREATE TABLE t (a INT)")
            result = conn.execute("EXPLAIN SELECT a FROM t WHERE a > 1")
            texts.append("\n".join(row[0] for row in result.rows()))
        assert texts[0] == texts[1]

    def test_explain_verify_appends_summary(self, obs_conn):
        result = obs_conn.execute("EXPLAIN VERIFY SELECT temp FROM obs")
        lines = [row[0] for row in result.rows()]
        assert lines[-1].startswith("# verified: ")
        plain = obs_conn.execute("EXPLAIN SELECT temp FROM obs")
        assert not any("# verified" in row[0] for row in plain.rows())

    def test_explain_verify_does_not_execute(self, obs_conn):
        obs_conn.execute("EXPLAIN VERIFY DELETE FROM obs")
        assert obs_conn.execute("SELECT COUNT(*) FROM obs").scalar() == 5

    def test_verify_is_not_a_reserved_word(self, conn):
        conn.execute("CREATE TABLE verify (a INT)")
        conn.execute("INSERT INTO verify VALUES (1)")
        assert conn.execute("SELECT a FROM verify").scalar() == 1

    def test_verify_plan_report_fields(self, obs_conn):
        report = obs_conn.verify_plan(
            "SELECT station, COUNT(*) FROM obs GROUP BY station"
        )
        assert report.phase == "final"
        assert report.instructions >= report.checked_ops > 0
        assert report.frees > 0
