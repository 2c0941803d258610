"""MAL IR tests: programs, instructions, validation."""

import pytest

from repro.errors import MALError
from repro.gdk.atoms import Atom
from repro.mal.program import (
    Constant,
    Instruction,
    MALProgram,
    Var,
    bat_type,
    scalar_type,
)


class TestTypes:
    def test_scalar_rendering(self):
        assert str(scalar_type(Atom.INT)) == ":int"

    def test_bat_rendering(self):
        assert str(bat_type(Atom.DBL)) == "bat[:oid,:dbl]"

    def test_untyped_bat(self):
        assert str(bat_type()) == "bat[:oid,:any]"


class TestConstants:
    def test_nil(self):
        assert str(Constant(None)) == "nil"

    def test_string_escaping(self):
        assert str(Constant('say "hi"')) == '"say \\"hi\\""'

    def test_booleans(self):
        assert str(Constant(True)) == "true"
        assert str(Constant(False)) == "false"

    def test_numbers(self):
        assert str(Constant(42)) == "42"
        assert str(Constant(1.5)) == "1.5"


class TestInstruction:
    def test_rendering_single_result(self):
        ins = Instruction("algebra", "select", ["X_1"], [Var("X_0")])
        assert str(ins) == "X_1 := algebra.select(X_0);"

    def test_rendering_multiple_results(self):
        ins = Instruction("group", "group", ["g", "e", "h"], [Var("k")])
        assert str(ins) == "(g, e, h) := group.group(k);"

    def test_rendering_no_result(self):
        ins = Instruction("language", "free", [], [Constant("X_0")])
        assert str(ins) == 'language.free("X_0");'

    def test_side_effects_classification(self):
        assert Instruction("sql", "append", [], []).has_side_effects
        assert Instruction("sql", "resultSet", [], []).has_side_effects
        assert not Instruction("batcalc", "add", ["r"], []).has_side_effects

    def test_effect_classes_come_from_the_op_declarations(self):
        from repro.mal.modules import SIGNATURE_DECLS
        from repro.mal.program import MALProgram, effect_classes

        writes = {
            ("sql", name)
            for name in ("append", "update", "delete", "createArray", "createTable",
                         "dropObject", "alterDimension")
        }
        side_effects = writes | {
            ("sql", "resultSet"), ("sql", "setVariable"), ("sql", "affected"),
            ("language", "raise"), ("language", "free"),
        }
        assert effect_classes() == (side_effects, writes)
        assert all(SIGNATURE_DECLS[op][1] == "write" for op in writes)
        program = MALProgram()
        program.emit("sql", "update", ["T", "c", "o", "v"], [])
        program.emit("sql", "bind", ["u", "c"], [])
        assert program.write_targets() == {"t"}

    def test_used_vars(self):
        ins = Instruction("m", "f", ["r"], [Var("a"), Constant(1), Var("b")])
        assert ins.used_vars() == ["a", "b"]

    def test_signature_distinguishes_constants_and_vars(self):
        a = Instruction("m", "f", ["r1"], [Var("x")])
        b = Instruction("m", "f", ["r2"], [Constant("x")])
        assert a.signature() != b.signature()

    def test_signature_ignores_results(self):
        a = Instruction("m", "f", ["r1"], [Var("x")])
        b = Instruction("m", "f", ["r2"], [Var("x")])
        assert a.signature() == b.signature()


class TestProgram:
    def test_fresh_variables_unique(self):
        program = MALProgram()
        names = {program.fresh(scalar_type(Atom.INT)) for _ in range(10)}
        assert len(names) == 10

    def test_emit_wraps_literals(self):
        program = MALProgram()
        out = program.emit1("calc", "add", [1, 2], scalar_type(Atom.INT))
        instruction = program.instructions[0]
        assert all(isinstance(a, Constant) for a in instruction.args)
        assert program.type_of(out).atom is Atom.INT

    def test_emit_recognises_known_variables(self):
        program = MALProgram()
        first = program.emit1("calc", "add", [1, 2], scalar_type(Atom.INT))
        program.emit1("calc", "add", [first, 1], scalar_type(Atom.INT))
        second = program.instructions[1]
        assert isinstance(second.args[0], Var)

    def test_validate_accepts_wellformed(self):
        program = MALProgram()
        a = program.emit1("calc", "add", [1, 2], scalar_type(Atom.INT))
        program.emit1("calc", "add", [Var(a), 1], scalar_type(Atom.INT))
        program.validate()

    def test_validate_rejects_use_before_def(self):
        program = MALProgram()
        program.emit1("calc", "add", [Var("ghost"), 1], scalar_type(Atom.INT))
        with pytest.raises(MALError):
            program.validate()

    def test_validate_rejects_double_assignment(self):
        program = MALProgram()
        a = program.emit1("calc", "add", [1, 2], scalar_type(Atom.INT))
        program.instructions.append(
            Instruction("calc", "add", [a], [Constant(1), Constant(2)])
        )
        with pytest.raises(MALError):
            program.validate()

    def test_to_text_shape(self):
        program = MALProgram("user.demo")
        program.emit1("calc", "add", [1, 2], scalar_type(Atom.INT))
        text = program.to_text()
        assert text.startswith("function user.demo();")
        assert text.endswith("end user.demo;")
        assert "calc.add(1, 2);" in text

    def test_unknown_variable_type(self):
        with pytest.raises(MALError):
            MALProgram().type_of("nope")
