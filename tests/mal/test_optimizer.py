"""MAL optimizer pass tests."""

import json

import pytest

from repro.catalog import Catalog
from repro.gdk.atoms import Atom
from repro.mal import Interpreter, MALProgram, Var, bat_type, scalar_type
from repro.mal.optimizer import DEFAULT_PIPELINE, optimize
from repro.mal.optimizer.passes import (
    common_terms,
    constant_fold,
    dead_code,
    garbage_collect,
)


def ops(program):
    return [f"{i.module}.{i.function}" for i in program.instructions]


class TestConstantFold:
    def test_folds_scalar_calc(self):
        program = MALProgram()
        a = program.emit1("calc", "add", [1, 2], scalar_type(Atom.INT))
        program.emit("sql", "setVariable", ["out", Var(a)], [scalar_type(Atom.INT)])
        folded = constant_fold(program)
        assert "calc.add" not in ops(folded)
        # the folded constant is substituted into the use site
        instruction = folded.instructions[0]
        assert instruction.args[1].value == 3

    def test_folds_chains(self):
        program = MALProgram()
        a = program.emit1("calc", "add", [1, 2], scalar_type(Atom.INT))
        b = program.emit1("calc", "mul", [Var(a), 10], scalar_type(Atom.INT))
        program.emit("sql", "setVariable", ["out", Var(b)], [scalar_type(Atom.INT)])
        folded = constant_fold(program)
        assert folded.instructions[0].args[1].value == 30

    def test_keeps_non_constant(self):
        program = MALProgram()
        x = program.emit1("bat", "pack", [1], bat_type(None))
        count = program.emit1("bat", "getcount", [Var(x)], scalar_type(Atom.LNG))
        a = program.emit1("calc", "add", [Var(count), 2], scalar_type(Atom.INT))
        program.emit("sql", "setVariable", ["out", Var(a)], [scalar_type(Atom.INT)])
        folded = constant_fold(program)
        assert "calc.add" in ops(folded)

    def test_pinned_not_folded(self):
        program = MALProgram()
        a = program.emit1("calc", "add", [1, 2], scalar_type(Atom.INT))
        program.pin(a)
        folded = constant_fold(program)
        assert "calc.add" in ops(folded)


class TestCommonTerms:
    def test_duplicate_eliminated(self):
        program = MALProgram()
        a = program.emit1("array", "series", [0, 1, 4, 1, 1], bat_type(Atom.LNG))
        b = program.emit1("array", "series", [0, 1, 4, 1, 1], bat_type(Atom.LNG))
        program.emit(
            "sql", "resultSet",
            ["table", json.dumps(["a", "b"]), json.dumps({}), Var(a), Var(b)],
            [scalar_type(Atom.INT)],
        )
        out = common_terms(program)
        assert ops(out).count("array.series") == 1
        # both resultSet args now reference the surviving variable
        args = out.instructions[-1].args
        assert args[3].name == args[4].name

    def test_different_args_kept(self):
        program = MALProgram()
        a = program.emit1("array", "series", [0, 1, 4, 1, 1], bat_type(Atom.LNG))
        b = program.emit1("array", "series", [0, 1, 5, 1, 1], bat_type(Atom.LNG))
        program.pin(a)
        program.pin(b)
        out = common_terms(program)
        assert ops(out).count("array.series") == 2

    def test_side_effects_never_merged(self):
        program = MALProgram()
        program.emit("sql", "dropObject", ["t", True], [scalar_type(Atom.INT)])
        program.emit("sql", "dropObject", ["t", True], [scalar_type(Atom.INT)])
        out = common_terms(program)
        assert ops(out).count("sql.dropObject") == 2

    def test_result_columns_renamed(self):
        program = MALProgram()
        a = program.emit1("array", "series", [0, 1, 4, 1, 1], bat_type(Atom.LNG))
        b = program.emit1("array", "series", [0, 1, 4, 1, 1], bat_type(Atom.LNG))
        program.result_columns = [("x", a), ("y", b)]
        out = common_terms(program)
        assert out.result_columns == [("x", a), ("y", a)]


class TestDeadCode:
    def test_unused_removed(self):
        program = MALProgram()
        program.emit1("calc", "add", [1, 2], scalar_type(Atom.INT))
        used = program.emit1("calc", "mul", [2, 2], scalar_type(Atom.INT))
        program.emit("sql", "setVariable", ["out", Var(used)], [scalar_type(Atom.INT)])
        out = dead_code(program)
        assert "calc.add" not in ops(out)
        assert "calc.mul" in ops(out)

    def test_transitive_liveness(self):
        program = MALProgram()
        a = program.emit1("calc", "add", [1, 2], scalar_type(Atom.INT))
        b = program.emit1("calc", "mul", [Var(a), 2], scalar_type(Atom.INT))
        program.emit("sql", "setVariable", ["out", Var(b)], [scalar_type(Atom.INT)])
        out = dead_code(program)
        assert "calc.add" in ops(out)

    def test_side_effects_kept(self):
        program = MALProgram()
        program.emit("sql", "dropObject", ["t", True], [scalar_type(Atom.INT)])
        out = dead_code(program)
        assert ops(out) == ["sql.dropObject"]

    def test_pinned_kept(self):
        program = MALProgram()
        a = program.emit1("calc", "add", [1, 2], scalar_type(Atom.INT))
        program.pin(a)
        out = dead_code(program)
        assert "calc.add" in ops(out)


class TestGarbageCollect:
    def test_free_inserted_after_last_use(self):
        program = MALProgram()
        a = program.emit1("calc", "add", [1, 2], scalar_type(Atom.INT))
        b = program.emit1("calc", "mul", [Var(a), 2], scalar_type(Atom.INT))
        program.emit("sql", "setVariable", ["out", Var(b)], [scalar_type(Atom.INT)])
        out = garbage_collect(program)
        rendered = [str(i) for i in out.instructions]
        mul_index = next(i for i, s in enumerate(rendered) if "calc.mul" in s)
        assert "language.free" in rendered[mul_index + 1]
        assert f'"{a}"' in rendered[mul_index + 1]

    def test_result_columns_protected(self):
        program = MALProgram()
        a = program.emit1("calc", "add", [1, 2], scalar_type(Atom.INT))
        program.result_columns = [("x", a)]
        out = garbage_collect(program)
        assert not any(
            f'"{a}"' in str(i) for i in out.instructions if i.module == "language"
        )


class TestPipeline:
    def test_optimizer_preserves_results(self):
        """The whole pipeline must never change query semantics."""
        catalog = Catalog()
        interp = Interpreter(catalog)
        program = MALProgram()
        x = program.emit1("array", "series", [0, 1, 4, 4, 1], bat_type(Atom.LNG))
        x2 = program.emit1("array", "series", [0, 1, 4, 4, 1], bat_type(Atom.LNG))
        dead = program.emit1("calc", "mul", [6, 7], scalar_type(Atom.INT))
        program.emit(
            "sql", "resultSet",
            ["table", json.dumps(["x", "x2"]), json.dumps({}), Var(x), Var(x2)],
            [scalar_type(Atom.INT)],
        )
        raw_context, raw_stats = interp.run(program, collect_stats=True)
        optimized = optimize(program)
        opt_context, opt_stats = interp.run(optimized, collect_stats=True)
        assert (
            raw_context.result.bats[0].tail_pylist()
            == opt_context.result.bats[0].tail_pylist()
        )
        assert opt_stats.instructions_executed < raw_stats.instructions_executed

    def test_pipeline_pass_names(self):
        assert [p.name for p in DEFAULT_PIPELINE] == [
            "constant_fold",
            "common_terms",
            "dead_code",
            "garbage_collect",
        ]
