"""Direct tests of the ``bat`` and ``sql`` MAL modules."""

import json

import numpy as np
import pytest

import repro
from repro.errors import MALError
from repro.catalog import Catalog
from repro.gdk.atoms import Atom
from repro.gdk.bat import BAT
from repro.mal import Interpreter, MALProgram, Var, bat_type, scalar_type


@pytest.fixture
def interp():
    return Interpreter(Catalog())


def run_one(interp, program):
    context, _ = interp.run(program)
    return context


def tail(context, name="v"):
    """Python list of the BAT a program exported under *name*."""
    return context.variables[name].tail_pylist()


def export(program, var, name="v"):
    program.emit("sql", "setVariable", [name, Var(var)], [scalar_type(Atom.INT)])


class TestBatModule:
    def test_append(self, interp):
        program = MALProgram()
        head = program.emit1("bat", "pack", [0], bat_type(None))
        packed = program.emit1("bat", "pack", [1, 2], bat_type(None))
        merged = program.emit1(
            "bat", "append", [Var(head), Var(packed)], bat_type(Atom.INT)
        )
        count = program.emit1("bat", "getcount", [Var(merged)], scalar_type(Atom.LNG))
        export(program, count, "n")
        export(program, merged)
        context = run_one(interp, program)
        assert context.variables["n"] == 3
        assert tail(context) == [0, 1, 2]

    def test_pack_infers_atom(self, interp):
        program = MALProgram()
        export(program, program.emit1("bat", "pack", ["a", None, "b"], bat_type(None)))
        context = run_one(interp, program)
        assert context.variables["v"].atom is Atom.STR
        assert tail(context) == ["a", None, "b"]

    def test_pack_all_null(self, interp):
        program = MALProgram()
        export(program, program.emit1("bat", "pack", [None, None], bat_type(None)))
        assert tail(run_one(interp, program)) == [None, None]

    def test_pack_needs_a_value(self, interp):
        program = MALProgram()
        program.emit1("bat", "pack", [], bat_type(None))
        with pytest.raises(MALError):
            interp.run(program)

    def test_mirror_slice(self, interp):
        program = MALProgram()
        packed = program.emit1("bat", "pack", [9, 8, 7, 6, 5], bat_type(None))
        dense = program.emit1("bat", "mirror", [Var(packed)], bat_type(Atom.OID))
        export(
            program,
            program.emit1("bat", "slice", [Var(dense), 1, 3], bat_type(Atom.OID)),
        )
        assert tail(run_one(interp, program)) == [1, 2]

    def test_cast(self, interp):
        program = MALProgram()
        packed = program.emit1("bat", "pack", [1.9], bat_type(None))
        export(
            program,
            program.emit1(
                "batcalc", "expr", ['cast($0,"int")', Var(packed)], bat_type(Atom.INT)
            ),
        )
        assert tail(run_one(interp, program)) == [1]

    def test_project_const(self, interp):
        program = MALProgram()
        base = program.emit1("bat", "pack", [0, 0, 0], bat_type(None))
        export(
            program,
            program.emit1(
                "bat", "project_const", [Var(base), 7, "int"], bat_type(Atom.INT)
            ),
        )
        assert tail(run_one(interp, program)) == [7, 7, 7]

    @pytest.mark.parametrize("value", [True, None])
    def test_project_const_keeps_the_fragment_head(self, interp, value):
        # A fragment's constant column is selected with the fragment's
        # candidate lists, whose oids start at the fragment's base.
        program = MALProgram()
        base = program.emit1("bat", "pack", [0, 0, 0, 0], bat_type(None))
        piece = program.emit1("mat", "partition", [Var(base), 1, 2], bat_type(None))
        export(
            program,
            program.emit1(
                "bat", "project_const", [Var(piece), value, "bit"], bat_type(Atom.BIT)
            ),
        )
        context = run_one(interp, program)
        assert context.variables["v"].hseqbase == 2
        assert tail(context) == [value, value]


class TestSqlModuleSideEffects:
    def test_bind_reads_catalog(self):
        conn = repro.connect()
        conn.execute("CREATE TABLE t (a INT)")
        conn.execute("INSERT INTO t VALUES (5)")
        program = MALProgram()
        export(program, program.emit1("sql", "bind", ["t", "a"], bat_type(Atom.INT)))
        context, _ = conn.interpreter.run(program)
        assert tail(context) == [5]

    def test_result_set_alignment_checked(self):
        conn = repro.connect()
        program = MALProgram()
        a = program.emit1("bat", "pack", [1], bat_type(None))
        b = program.emit1("bat", "pack", [1, 2], bat_type(None))
        program.emit(
            "sql", "resultSet",
            ["table", json.dumps(["a", "b"]), json.dumps({}), Var(a), Var(b)],
            [scalar_type(Atom.INT)],
        )
        with pytest.raises(MALError):
            conn.interpreter.run(program)

    def test_update_skips_invalid_oids(self):
        conn = repro.connect()
        conn.execute("CREATE ARRAY m (x INT DIMENSION[0:1:3], v INT DEFAULT 0)")
        program = MALProgram()
        oids = program.emit1("bat", "pack", [1, -1], bat_type(None))
        values = program.emit1("bat", "pack", [9, 9], bat_type(None))
        cast_oids = program.emit1(
            "batcalc", "expr", ['cast($0,"oid")', Var(oids)], bat_type(Atom.OID)
        )
        cast_vals = program.emit1(
            "batcalc", "expr", ['cast($0,"int")', Var(values)], bat_type(Atom.INT)
        )
        program.emit(
            "sql", "update", ["m", "v", Var(cast_oids), Var(cast_vals)],
            [scalar_type(Atom.INT)],
        )
        conn.interpreter.run(program)
        assert conn.execute("SELECT v FROM m").rows() == [(0,), (9,), (0,)]
