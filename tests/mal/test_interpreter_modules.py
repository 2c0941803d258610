"""MAL interpreter and module tests (incl. the paper's array primitives)."""

import json

import numpy as np
import pytest

from repro.errors import MALError
from repro.catalog import Catalog
from repro.gdk.atoms import Atom
from repro.gdk.bat import BAT
from repro.mal import Interpreter, MALProgram, Var, bat_type, scalar_type
from repro.mal.modules.array_mod import filler_column, series_column


@pytest.fixture
def interp():
    return Interpreter(Catalog())


def run(interp, program, **kwargs):
    context, stats = interp.run(program, **kwargs)
    return context, stats


class TestSeriesFiller:
    """array.series / array.filler — the exact primitives of Section 3."""

    def test_series_x_pattern(self):
        # x: array.series(0,1,4,4,1) — Figure 3 left column.
        column = series_column(0, 1, 4, 4, 1)
        assert column.to_pylist() == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]

    def test_series_y_pattern(self):
        # y: array.series(0,1,4,1,4) — Figure 3 middle column.
        column = series_column(0, 1, 4, 1, 4)
        assert column.to_pylist() == [0, 1, 2, 3] * 4

    def test_series_with_step(self):
        assert series_column(0, 2, 8, 1, 1).to_pylist() == [0, 2, 4, 6]

    def test_series_negative_start(self):
        assert series_column(-2, 1, 1, 1, 1).to_pylist() == [-2, -1, 0]

    def test_series_invalid_step(self):
        with pytest.raises(Exception):
            series_column(0, 0, 4, 1, 1)

    def test_filler_value(self):
        # v: array.filler(16,0) — Figure 3 right column.
        assert filler_column(16, 0).to_pylist() == [0] * 16

    def test_filler_null(self):
        assert filler_column(3, None).to_pylist() == [None, None, None]

    def test_filler_negative_count(self):
        with pytest.raises(Exception):
            filler_column(-1, 0)

    def test_via_interpreter(self, interp):
        program = MALProgram()
        x = program.emit1("array", "series", [0, 1, 4, 4, 1], bat_type(Atom.LNG))
        program.pin(x)
        context, _ = run(interp, program)


class TestCellIndexAndTiling:
    def test_cellindex_out_of_domain(self, interp):
        program = MALProgram()
        coords = program.emit1("bat", "pack", [0, 5, 1], bat_type(None))
        oids = program.emit1(
            "array", "cellindex",
            [json.dumps([4]), json.dumps([[0, 1, 4]]), Var(coords)],
            bat_type(Atom.OID),
        )
        program.pin(oids)
        program.emit(
            "sql", "resultSet",
            ["table", json.dumps(["o"]), json.dumps({}), Var(oids)],
            [scalar_type(Atom.INT)],
        )
        context, _ = run(interp, program)
        assert context.result.bats[0].tail_pylist() == [0, -1, 1]

    def test_tileagg_sum(self, interp):
        program = MALProgram()
        v = program.emit1("bat", "pack", [1, 2, 3, 4], bat_type(None))
        agg = program.emit1(
            "array", "tileagg",
            [Var(v), "sum",
             json.dumps({"shape": [2, 2], "offsets": [[0, 1], [0, 1]]})],
            bat_type(Atom.LNG),
        )
        program.emit(
            "sql", "resultSet",
            ["table", json.dumps(["s"]), json.dumps({}), Var(agg)],
            [scalar_type(Atom.INT)],
        )
        context, _ = run(interp, program)
        assert context.result.bats[0].tail_pylist() == [10, 6, 7, 4]


class TestInterpreterMechanics:
    def test_unknown_operation(self, interp):
        program = MALProgram()
        program.emit1("nosuch", "op", [], scalar_type(Atom.INT))
        with pytest.raises(MALError):
            run(interp, program)

    def test_unbound_variable(self, interp):
        program = MALProgram()
        program.emit1("calc", "add", [Var("ghost"), 1], scalar_type(Atom.INT))
        with pytest.raises(MALError):
            run(interp, program)

    def test_kernel_error_wrapped(self, interp):
        program = MALProgram()
        b = program.emit1("bat", "pack", [1], bat_type(None))
        program.emit1("mat", "partition", [Var(b), 99, 2], bat_type(Atom.INT))
        with pytest.raises(MALError):
            run(interp, program)

    def test_stats_collection(self, interp):
        program = MALProgram()
        program.emit1("calc", "add", [1, 2], scalar_type(Atom.INT))
        program.emit1("calc", "add", [3, 4], scalar_type(Atom.INT))
        _, stats = run(interp, program, collect_stats=True)
        assert stats.instructions_executed == 2
        assert stats.per_operation["calc.add"] == 2

    def test_language_free_removes_bindings(self, interp):
        from repro.mal.program import Constant, Instruction

        program = MALProgram()
        a = program.emit1("calc", "add", [1, 2], scalar_type(Atom.INT))
        program.instructions.append(
            Instruction("language", "free", [], [Constant(a)])
        )
        program.emit1("calc", "add", [Var(a), 1], scalar_type(Atom.INT))
        with pytest.raises(MALError):
            run(interp, program)


class TestScalarCalcModule:
    @pytest.mark.parametrize(
        "fn, args, expected",
        [
            ("add", (2, 3), 5),
            ("sub", (2, 3), -1),
            ("mul", (4, 3), 12),
            ("div", (7, 2), 3),
            ("div", (-7, 2), -3),
            ("div", (7, 0), None),
            ("mod", (7, 3), 1),
            ("mod", (-7, 3), -1),
            ("mod", (5, 0), None),
            ("add", (None, 1), None),
            ("eq", (1, 1), True),
            ("lt", (2, 1), False),
            ("eq", (None, 1), None),
        ],
    )
    def test_arithmetic_and_compare(self, interp, fn, args, expected):
        program = MALProgram()
        out = program.emit1("calc", fn, list(args), scalar_type(Atom.INT))
        program.pin(out)
        program.emit(
            "sql", "setVariable", ["out", Var(out)], [scalar_type(Atom.INT)]
        )
        context, _ = run(interp, program)
        assert context.variables["out"] == expected

    def test_three_valued_scalar_logic(self, interp):
        program = MALProgram()
        a = program.emit1("calc", "and", [False, None], scalar_type(Atom.BIT))
        b = program.emit1("calc", "or", [True, None], scalar_type(Atom.BIT))
        c = program.emit1("calc", "and", [True, None], scalar_type(Atom.BIT))
        for name, var in (("a", a), ("b", b), ("c", c)):
            program.emit("sql", "setVariable", [name, Var(var)], [scalar_type(Atom.INT)])
        context, _ = run(interp, program)
        assert context.variables == {"a": False, "b": True, "c": None}


class TestRowStats:
    """ExecutionStats counts BAT rows consumed per instruction."""

    def test_rows_processed_counts_bat_inputs(self, interp):
        program = MALProgram()
        packed = program.emit1("bat", "pack", [1, 2, 3], bat_type(None))
        program.emit1("aggr", "sum", [Var(packed)], scalar_type(Atom.LNG))
        _, stats = run(interp, program, collect_stats=True)
        assert stats.rows_processed == 3
        assert stats.rows_per_operation["aggr.sum"] == 3
        assert stats.rows_per_operation["bat.pack"] == 0

    def test_rows_not_tracked_without_flag(self, interp):
        program = MALProgram()
        packed = program.emit1("bat", "pack", [1, 2], bat_type(None))
        program.emit1("aggr", "sum", [Var(packed)], scalar_type(Atom.LNG))
        _, stats = run(interp, program)
        assert stats.rows_processed == 0
        assert stats.rows_per_operation == {}
