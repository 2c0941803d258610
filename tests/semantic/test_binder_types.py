"""Semantic layer unit tests: scopes, and the binder's one annotate pass
(names resolved, every node carrying its result atom and aggregate-ness)."""

import pytest

import repro
from repro.errors import SemanticError
from repro.gdk.atoms import Atom
from repro.semantic.binder import (
    Binder,
    BoundColumn,
    Scope,
    SourceInfo,
    is_aggregate_call,
    source_from_catalog,
)
from repro.sql import ast_nodes as ast
from repro.sql.parser import parse


def scope_of(*sources):
    return Scope(list(sources))


def make_source(alias, columns, dims=()):
    from repro.catalog.objects import DimensionDef

    dimension_defs = [DimensionDef(d, Atom.INT, 0, 1, 4) for d in dims]
    return SourceInfo(alias, alias, "array" if dims else "table",
                      columns, dimension_defs)


class TestScope:
    def test_resolve_unqualified(self):
        scope = scope_of(make_source("t", [("a", Atom.INT)]))
        bound = scope.resolve("a", None)
        assert bound == BoundColumn(0, "a", Atom.INT, False)

    def test_resolve_qualified(self):
        scope = scope_of(
            make_source("t", [("a", Atom.INT)]),
            make_source("s", [("a", Atom.STR)]),
        )
        assert scope.resolve("a", "s").atom is Atom.STR

    def test_ambiguous_rejected(self):
        scope = scope_of(
            make_source("t", [("a", Atom.INT)]),
            make_source("s", [("a", Atom.INT)]),
        )
        with pytest.raises(SemanticError):
            scope.resolve("a", None)

    def test_unknown_rejected(self):
        scope = scope_of(make_source("t", [("a", Atom.INT)]))
        with pytest.raises(SemanticError):
            scope.resolve("zz", None)

    def test_dimension_flag(self):
        scope = scope_of(make_source("m", [("x", Atom.INT), ("v", Atom.INT)], dims=["x"]))
        assert scope.resolve("x", None).is_dimension
        assert not scope.resolve("v", None).is_dimension

    def test_all_columns_expansion(self):
        scope = scope_of(
            make_source("t", [("a", Atom.INT)]),
            make_source("s", [("b", Atom.STR)]),
        )
        assert [c.column for c in scope.all_columns()] == ["a", "b"]
        assert [c.column for c in scope.all_columns("s")] == ["b"]

    def test_all_columns_unknown_qualifier(self):
        scope = scope_of(make_source("t", [("a", Atom.INT)]))
        with pytest.raises(SemanticError):
            scope.all_columns("ghost")

    def test_duplicate_aliases_rejected(self):
        with pytest.raises(SemanticError):
            scope_of(
                make_source("t", [("a", Atom.INT)]),
                make_source("t", [("b", Atom.INT)]),
            )

    def test_source_from_catalog(self):
        conn = repro.connect()
        conn.execute("CREATE ARRAY m (x INT DIMENSION[0:1:2], v DOUBLE)")
        info = source_from_catalog(conn.catalog, "m", "alias")
        assert info.alias == "alias"
        assert info.kind == "array"
        assert info.columns == [("x", Atom.INT), ("v", Atom.DBL)]


def expr(sql):
    """Parse a projection expression in isolation and bind it (no FROM)."""
    return Binder(Scope([]), None).bind(parse(f"SELECT {sql}").items[0].expression)


class TestAggregateDetection:
    def test_direct_aggregate(self):
        assert is_aggregate_call(expr("sum(1)"))

    def test_non_aggregate_function(self):
        assert not is_aggregate_call(expr("sqrt(1)"))

    def test_nested_detection(self):
        assert expr("1 + max(2) * 3").aggregate
        assert expr("CASE WHEN count(*) > 1 THEN 1 END").aggregate
        assert not expr("1 + 2 * 3").aggregate

    def test_inside_in_and_between(self):
        assert expr("1 IN (min(2), 3)").aggregate
        assert expr("1 BETWEEN min(2) AND 3").aggregate

    def test_every_node_on_the_way_down_is_annotated(self):
        bound = expr("abs(1 - max(2)) + sqrt(4)")
        assert bound.aggregate and bound.left.aggregate and not bound.right.aggregate
        assert bound.left.args[0].right.aggregate and not bound.left.args[0].left.aggregate

    def test_annotations_do_not_take_part_in_equality(self):
        parsed = parse("SELECT 1 + max(2)").items[0].expression
        bound = expr("1 + max(2)")
        assert bound == parsed and hash(bound) == hash(parsed)
        assert (parsed.atom, parsed.aggregate) == (None, False)
        assert (bound.atom, bound.aggregate) == (Atom.INT, True)
        assert repr(bound) == repr(parsed)


class TestWidening:
    """CASE branches (and set-operation columns) widen through the one
    rank table; an untyped NULL widens nothing."""

    def test_null_is_neutral(self):
        assert expr("CASE WHEN TRUE THEN NULL ELSE 1 END").atom is Atom.INT
        assert expr("CASE WHEN TRUE THEN 'x' ELSE NULL END").atom is Atom.STR
        assert expr("CASE WHEN TRUE THEN NULL END").atom is None

    def test_numeric_widening(self):
        assert expr("CASE WHEN TRUE THEN 1 ELSE 2.5 END").atom is Atom.DBL
        assert expr("CASE WHEN TRUE THEN 1 ELSE 3000000000 END").atom is Atom.LNG

    def test_incompatible(self):
        with pytest.raises(SemanticError, match="incompatible types str and int"):
            expr("CASE WHEN TRUE THEN 'x' ELSE 1 END")


class TestAnnotatedAtoms:
    @pytest.mark.parametrize(
        "sql, atom",
        [
            ("1", Atom.INT),
            ("1.5", Atom.DBL),
            ("'x'", Atom.STR),
            ("TRUE", Atom.BIT),
            ("1 + 2", Atom.INT),
            ("1 + 2.0", Atom.DBL),
            ("1 = 2", Atom.BIT),
            ("1 < 2 AND TRUE", Atom.BIT),
            ("'a' || 'b'", Atom.STR),
            ("-3", Atom.INT),
            ("NOT TRUE", Atom.BIT),
            ("count(*)", Atom.LNG),
            ("avg(1)", Atom.DBL),
            ("sum(1)", Atom.LNG),
            ("sum(1.0)", Atom.DBL),
            ("min(1.5)", Atom.DBL),
            ("sqrt(4)", Atom.DBL),
            ("floor(1)", Atom.INT),
            ("floor(1.5)", Atom.DBL),
            ("abs(-2)", Atom.INT),
            ("CASE WHEN TRUE THEN 1 ELSE 2.0 END", Atom.DBL),
            ("1 IS NULL", Atom.BIT),
            ("1 IN (2, 3)", Atom.BIT),
            ("1 BETWEEN 0 AND 2", Atom.BIT),
            ("CAST(1 AS DOUBLE)", Atom.DBL),
            ("upper('x')", Atom.STR),
            ("length('x')", Atom.INT),
        ],
    )
    def test_inference_table(self, sql, atom):
        assert expr(sql).atom is atom

    def test_null_literal_untyped(self):
        assert expr("NULL").atom is None

    def test_arithmetic_on_strings_rejected(self):
        with pytest.raises(SemanticError):
            expr("'a' + 1")

    def test_unknown_function_rejected(self):
        with pytest.raises(SemanticError):
            expr("frobnicate(1)")


class TestSemanticErrorTexts:
    """One case per error the four former walkers raised; the annotate
    pass and the generic grouped-output walk keep each message."""

    @pytest.fixture
    def db(self):
        conn = repro.connect()
        conn.execute("CREATE TABLE t (a INT, b INT, s VARCHAR(8))")
        conn.execute("CREATE ARRAY m (x INT DIMENSION[0:1:4], v INT DEFAULT 0)")
        return conn

    @pytest.mark.parametrize(
        "sql, message",
        [
            (
                "SELECT a, b + 1 FROM t GROUP BY a",
                "column 'b' must appear in GROUP BY or inside an aggregate",
            ),
            (
                "SELECT CASE WHEN SUM(a) > 0 THEN b END FROM t",
                "column 'b' must appear in GROUP BY or inside an aggregate",
            ),
            (
                "SELECT x, SUM(v) + m[x-1] FROM m GROUP BY x",
                "cell references are not allowed in grouped output",
            ),
            ("SELECT s + s FROM t", "arithmetic on non-numeric type str"),
            ("SELECT s + 1 FROM t", "incompatible types str and int"),
            ("SELECT a FROM t WHERE frobnicate(a) > 1", "unknown function 'frobnicate'"),
            ("SELECT sqrt() FROM t", "function 'sqrt' needs arguments"),
            ("SELECT a FROM t UNION SELECT s FROM t", "incompatible types int and str"),
            ("SELECT CASE WHEN a > 0 THEN s ELSE b END FROM t", "incompatible types str and int"),
        ],
    )
    def test_message_text(self, db, sql, message):
        with pytest.raises(SemanticError) as error:
            db.execute(sql)
        assert str(error.value) == message
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 0  # session survives
