"""Atom type system tests."""

import math

import numpy as np
import pytest

import repro
from repro.errors import DataError, GDKError, TypeError_
from repro.gdk import calc
from repro.gdk.atoms import (
    INTEGER_RANGE,
    Atom,
    atom_for_python,
    atom_for_sql_type,
    coerce_scalar,
    common_numeric,
    comparand,
    is_numeric,
)
from repro.gdk.column import Column


class TestAtomInference:
    def test_bool_maps_to_bit(self):
        assert atom_for_python(True) is Atom.BIT

    def test_numpy_bool_maps_to_bit(self):
        assert atom_for_python(np.bool_(False)) is Atom.BIT

    def test_small_int_maps_to_int(self):
        assert atom_for_python(42) is Atom.INT

    def test_negative_int_maps_to_int(self):
        assert atom_for_python(-(2**31)) is Atom.INT

    def test_large_int_maps_to_lng(self):
        assert atom_for_python(2**31) is Atom.LNG

    def test_int_past_lng_maps_to_dbl(self):
        assert atom_for_python(2**63) is Atom.DBL
        assert atom_for_python(-(2**63)) is Atom.LNG

    def test_numpy_int64_is_a_declared_lng(self):
        assert atom_for_python(np.int64(7)) is Atom.LNG
        assert atom_for_python(np.int32(7)) is Atom.INT

    def test_float_maps_to_dbl(self):
        assert atom_for_python(3.5) is Atom.DBL

    def test_str_maps_to_str(self):
        assert atom_for_python("hello") is Atom.STR

    def test_none_rejected(self):
        with pytest.raises(GDKError):
            atom_for_python(None)

    def test_unsupported_type_rejected(self):
        with pytest.raises(GDKError):
            atom_for_python([1, 2])


class TestNumericLattice:
    def test_int_lng_widen(self):
        assert common_numeric(Atom.INT, Atom.LNG) is Atom.LNG

    def test_lng_dbl_widen(self):
        assert common_numeric(Atom.LNG, Atom.DBL) is Atom.DBL

    def test_same_type_identity(self):
        assert common_numeric(Atom.INT, Atom.INT) is Atom.INT

    def test_symmetric(self):
        assert common_numeric(Atom.DBL, Atom.INT) is Atom.DBL

    def test_str_not_numeric(self):
        assert not is_numeric(Atom.STR)
        with pytest.raises(TypeError_):
            common_numeric(Atom.STR, Atom.INT)

    def test_bit_not_numeric(self):
        assert not is_numeric(Atom.BIT)


class TestScalarCoercion:
    def test_none_passthrough(self):
        assert coerce_scalar(None, Atom.INT) is None

    def test_int_to_dbl(self):
        assert coerce_scalar(3, Atom.DBL) == 3.0

    def test_float_to_int_truncates(self):
        assert coerce_scalar(3.9, Atom.INT) == 3

    def test_str_to_int(self):
        assert coerce_scalar("17", Atom.INT) == 17

    def test_int_to_str(self):
        assert coerce_scalar(17, Atom.STR) == "17"

    def test_bit_from_strings(self):
        assert coerce_scalar("true", Atom.BIT) is True
        assert coerce_scalar("F", Atom.BIT) is False

    def test_bit_from_garbage_rejected(self):
        with pytest.raises(DataError):
            coerce_scalar("maybe", Atom.BIT)

    def test_bad_numeric_rejected(self):
        with pytest.raises(DataError):
            coerce_scalar("abc", Atom.INT)

    def test_a_number_that_does_not_fit_is_null(self):
        assert coerce_scalar(2**33, Atom.INT) is None
        assert coerce_scalar(2**63, Atom.LNG) is None
        assert coerce_scalar(1e12, Atom.INT) is None
        assert coerce_scalar(10**400, Atom.DBL) is None

    def test_non_finite_double_to_an_integer_is_null(self):
        for value in (math.inf, -math.inf, math.nan):
            assert coerce_scalar(value, Atom.INT) is None
            assert coerce_scalar(value, Atom.LNG) is None


class TestComparand:
    """The constant side of a comparison: a number is never narrowed."""

    @pytest.mark.parametrize(
        "value, atom, expected",
        [
            (1.5, Atom.INT, 1.5),
            (2.0, Atom.INT, 2),
            (2**40, Atom.INT, 2**40),
            (math.inf, Atom.LNG, math.inf),
            (np.int64(7), Atom.DBL, 7.0),
            (10**400, Atom.DBL, math.inf),
            (-(10**400), Atom.DBL, -math.inf),
            ("7", Atom.INT, 7),
            (" 2.5", Atom.DBL, 2.5),
            ("99999999999999999999", Atom.LNG, 99999999999999999999),
            (True, Atom.INT, 1),
            (3, Atom.BIT, True),
            (3, Atom.STR, "3"),
        ],
        ids=lambda v: repr(v)[:16],
    )
    def test_comparands(self, value, atom, expected):
        got = comparand(value, atom)
        assert got == expected and type(got) is type(expected)

    def test_text_that_does_not_parse_is_a_data_error(self):
        for atom in (Atom.INT, Atom.DBL, Atom.BIT):
            with pytest.raises(DataError):
                comparand("x", atom)


class TestSqlTypeMapping:
    @pytest.mark.parametrize(
        "name, atom",
        [
            ("INT", Atom.INT),
            ("integer", Atom.INT),
            ("BIGINT", Atom.LNG),
            ("DOUBLE", Atom.DBL),
            ("real", Atom.DBL),
            ("VARCHAR", Atom.STR),
            ("boolean", Atom.BIT),
            ("SMALLINT", Atom.INT),
            ("TEXT", Atom.STR),
        ],
    )
    def test_known_types(self, name, atom):
        assert atom_for_sql_type(name) is atom

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError_):
            atom_for_sql_type("GEOMETRY")


# ----------------------------------------------------------------------
# the one conversion rule, through every door
# ----------------------------------------------------------------------
#: (case, source atom, value): the value is of the source atom, by
#: :func:`atom_for_python`; whether it fits depends on the target.
PROBES = [
    ("fits", Atom.INT, -7),
    ("fits", Atom.INT, -(2**31)),
    ("fits", Atom.LNG, np.int64(7)),
    ("out of range", Atom.LNG, 2**33),
    ("out of range", Atom.LNG, -(2**63)),
    ("past lng", Atom.DBL, 2**64),
    ("past lng", Atom.DBL, -(2**63) - 1),
    ("fits", Atom.DBL, -2.7),
    ("out of range", Atom.DBL, 1e12),
    ("out of range", Atom.DBL, 1e30),
    ("non-finite", Atom.DBL, math.inf),
    ("non-finite", Atom.DBL, -math.inf),
    ("non-finite", Atom.DBL, math.nan),
    ("fits", Atom.BIT, True),
    ("fits", Atom.STR, " 42 "),
    ("fits", Atom.STR, "t"),
    ("out of range", Atom.STR, "99999999999999999999"),
    ("unparseable", Atom.STR, "yes"),
    ("unparseable", Atom.STR, ""),
] + [("NULL", atom, None) for atom in (Atom.INT, Atom.LNG, Atom.DBL, Atom.BIT, Atom.STR)]

TARGETS = {
    Atom.INT: "INT", Atom.LNG: "BIGINT", Atom.DBL: "DOUBLE",
    Atom.BIT: "BOOLEAN", Atom.STR: "VARCHAR(40)",
}
_WORDS = {"true": True, "t": True, "1": True, "false": False, "f": False, "0": False}


def oracle(value, target):
    """The rule written out: NULL for a number the target cannot hold
    (non-finite doubles included), DataError for text that does not
    parse, otherwise the converted value.  An int past ``lng`` is the
    double it rounds to."""
    if value is None:
        return None
    if type(value) is int and not INTEGER_RANGE[Atom.LNG][0] <= value <= INTEGER_RANGE[Atom.LNG][1]:
        value = float(value)
    if target is Atom.STR:
        return str(value)
    if isinstance(value, str):
        if target is Atom.BIT:
            return _WORDS.get(value.strip().lower(), DataError)
        try:
            value = float(value) if target is Atom.DBL else int(value)
        except ValueError:
            return DataError
    if target is Atom.BIT:
        return bool(value)
    if target is Atom.DBL:
        return float(value)
    if not math.isfinite(value):
        return None
    lowest, highest = INTEGER_RANGE[target]
    return int(value) if lowest <= int(value) <= highest else None


def outcome(convert):
    """The value *convert* returns (NaN as a string, so it compares
    equal to itself) or the class it raises."""
    try:
        value = convert()
    except repro.Error as exc:
        return type(exc)
    if isinstance(value, np.generic):
        value = value.item()
    return "nan" if isinstance(value, float) and math.isnan(value) else value


@pytest.fixture(scope="module")
def tables():
    conn = repro.connect()
    for target, sql_type in TARGETS.items():
        conn.execute(f"CREATE TABLE c_{target.value} (c {sql_type})")
    yield conn
    conn.close()


def _stored(conn, table, sql, params, many):
    """The last row an INSERT of bound *params* stores, or the class it
    raises; *many* sends it through ``executemany``."""
    conn.execute(f"DELETE FROM {table}")
    try:
        if many:
            conn.executemany(sql, [params])
        else:
            conn.execute(sql, params)
    except repro.Error as exc:
        return type(exc)
    return outcome(lambda: conn.execute(f"SELECT c FROM {table}").rows()[-1][0])


@pytest.mark.parametrize("target", list(TARGETS), ids=lambda atom: atom.value)
@pytest.mark.parametrize(
    "case, source, value", PROBES, ids=[f"{case}-{source.value}-{value!r}" for case, source, value in PROBES]
)
def test_every_conversion_door_gives_the_rules_answer(tables, case, source, value, target):
    """``calc.scalar("cast")`` (constant folding, scalar CAST),
    ``Column.cast`` (a CAST or a write of a column), ``Column.from_pylist``
    (bulk ingest) and an INSERT of a bound value, one VALUES row or two,
    through ``execute`` and through ``executemany`` all agree with the
    rule.  An int past ``lng`` is a double to the kernel but no
    parameter: binding it is a ``DataError`` on every path."""
    if value is not None:
        assert atom_for_python(value) is source
    want = outcome(lambda: oracle(value, target))
    if case == "NULL":
        assert want is None
    elif case == "unparseable" and target is not Atom.STR:
        assert want is DataError
    elif case == "non-finite" and target in INTEGER_RANGE:
        assert want is None
    table = f"c_{target.value}"
    one = (f"INSERT INTO {table} VALUES (?)", (value,))
    # A narrower number in the first row: the rows pack in their widest
    # atom, so the value is not first converted to the anchor's.
    anchor = 1 if value is not None and is_numeric(source) else None
    two = (f"INSERT INTO {table} VALUES (?), (?)", (anchor, value))
    # A first row of another kind (text before a number, a number before
    # text): each VALUES column converts once, into the target's atom.
    mixed = (two[0], (1 if isinstance(value, str) else "1", value))
    answers = {
        "calc.scalar": outcome(lambda: calc.scalar("cast", value, target.value)),
        "Column.cast": outcome(
            lambda: Column.from_pylist(source, [value]).cast(target).get(0)
        ),
        "Column.from_pylist": outcome(lambda: Column.from_pylist(target, [value]).get(0)),
        "execute": _stored(tables, table, *one, many=False),
        "executemany": _stored(tables, table, *one, many=True),
        "execute two rows": _stored(tables, table, *two, many=False),
        "executemany two rows": _stored(tables, table, *two, many=True),
        "execute two mixed rows": _stored(tables, table, *mixed, many=False),
        "executemany two mixed rows": _stored(tables, table, *mixed, many=True),
    }
    expected = dict.fromkeys(answers, want)
    if case == "past lng":
        expected.update({door: DataError for door in expected if "execute" in door})
    assert answers == expected
