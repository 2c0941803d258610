"""Element-wise calculator tests (null propagation, SQL semantics)."""

import numpy as np
import pytest

from repro import errors as repro_errors
from repro.errors import GDKError
from repro.gdk import calc
from repro.gdk.atoms import Atom
from repro.gdk.column import Column

# Integer results never round-trip through float64: a float->int cast
# warning anywhere in these kernels is a failure.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def col(atom, items):
    return Column.from_pylist(atom, items)


class TestArithmetic:
    def test_add(self):
        out = calc.arithmetic("+", col(Atom.INT, [1, 2]), col(Atom.INT, [10, 20]))
        assert out.to_pylist() == [11, 22]

    def test_scalar_broadcast(self):
        out = calc.arithmetic("*", col(Atom.INT, [1, 2]), 3)
        assert out.to_pylist() == [3, 6]

    def test_scalar_left(self):
        out = calc.arithmetic("-", 10, col(Atom.INT, [1, 2]))
        assert out.to_pylist() == [9, 8]

    def test_null_propagates(self):
        out = calc.arithmetic("+", col(Atom.INT, [1, None]), col(Atom.INT, [1, 1]))
        assert out.to_pylist() == [2, None]

    def test_widening_to_double(self):
        out = calc.arithmetic("+", col(Atom.INT, [1]), col(Atom.DBL, [0.5]))
        assert out.atom is Atom.DBL
        assert out.to_pylist() == [1.5]

    def test_int_division_truncates_toward_zero(self):
        out = calc.arithmetic("/", col(Atom.INT, [7, -7]), 2)
        assert out.to_pylist() == [3, -3]

    def test_division_by_zero_is_null(self):
        out = calc.arithmetic("/", col(Atom.INT, [1, 4]), col(Atom.INT, [0, 2]))
        assert out.to_pylist() == [None, 2]

    def test_double_division(self):
        out = calc.arithmetic("/", col(Atom.DBL, [1.0]), 4)
        assert out.to_pylist() == [0.25]

    def test_double_division_by_zero_is_null(self):
        out = calc.arithmetic("/", col(Atom.DBL, [1.0]), 0)
        assert out.to_pylist() == [None]

    def test_mod_c_semantics(self):
        out = calc.arithmetic("%", col(Atom.INT, [7, -7, 7]), col(Atom.INT, [3, 3, -3]))
        assert out.to_pylist() == [1, -1, 1]

    def test_mod_by_zero_is_null(self):
        out = calc.arithmetic("%", col(Atom.INT, [5]), 0)
        assert out.to_pylist() == [None]

    def test_unknown_operator(self):
        with pytest.raises(GDKError):
            calc.arithmetic("^", col(Atom.INT, [1]), 2)

    def test_both_scalars_rejected(self):
        with pytest.raises(GDKError):
            calc.arithmetic("+", 1, 2)

    def test_length_mismatch(self):
        with pytest.raises(GDKError):
            calc.arithmetic("+", col(Atom.INT, [1]), col(Atom.INT, [1, 2]))

    def test_negate_and_abs(self):
        assert calc.negate(col(Atom.INT, [1, -2, None])).to_pylist() == [-1, 2, None]
        assert calc.absolute(col(Atom.INT, [-3, 3, None])).to_pylist() == [3, 3, None]

    def test_negate_string_rejected(self):
        with pytest.raises(GDKError):
            calc.negate(col(Atom.STR, ["a"]))


class TestComparison:
    def test_all_operators(self):
        left = col(Atom.INT, [1, 2, 3])
        assert calc.compare("==", left, 2).to_pylist() == [False, True, False]
        assert calc.compare("!=", left, 2).to_pylist() == [True, False, True]
        assert calc.compare("<", left, 2).to_pylist() == [True, False, False]
        assert calc.compare("<=", left, 2).to_pylist() == [True, True, False]
        assert calc.compare(">", left, 2).to_pylist() == [False, False, True]
        assert calc.compare(">=", left, 2).to_pylist() == [False, True, True]

    def test_null_compares_to_null(self):
        out = calc.compare("==", col(Atom.INT, [None, 1]), 1)
        assert out.to_pylist() == [None, True]

    def test_string_comparison(self):
        out = calc.compare("<", col(Atom.STR, ["a", "c"]), "b")
        assert out.to_pylist() == [True, False]

    def test_unknown_operator(self):
        with pytest.raises(GDKError):
            calc.compare("~", col(Atom.INT, [1]), 1)


class TestThreeValuedLogic:
    def test_and_truth_table(self):
        a = col(Atom.BIT, [True, True, True, False, False, None, None, False, None])
        b = col(Atom.BIT, [True, False, None, False, None, True, None, True, False])
        out = calc.logical_and(a, b)
        assert out.to_pylist() == [
            True, False, None, False, False, None, None, False, False,
        ]

    def test_or_truth_table(self):
        a = col(Atom.BIT, [True, True, True, False, False, None, None])
        b = col(Atom.BIT, [True, False, None, False, None, True, None])
        out = calc.logical_or(a, b)
        assert out.to_pylist() == [True, True, True, False, None, True, None]

    def test_not(self):
        out = calc.logical_not(col(Atom.BIT, [True, False, None]))
        assert out.to_pylist() == [False, True, None]

    def test_not_requires_bits(self):
        with pytest.raises(GDKError):
            calc.logical_not(col(Atom.INT, [1]))

    def test_isnull(self):
        out = calc.isnull(col(Atom.INT, [1, None]))
        assert out.to_pylist() == [False, True]
        assert not out.has_nulls


class TestIfThenElse:
    def test_basic(self):
        cond = col(Atom.BIT, [True, False])
        out = calc.case(cond, col(Atom.INT, [1, 1]), col(Atom.INT, [2, 2]))
        assert out.to_pylist() == [1, 2]

    def test_null_condition_takes_else(self):
        cond = col(Atom.BIT, [None, True])
        out = calc.case(cond, 1, 2)
        assert out.to_pylist() == [2, 1]

    def test_scalar_branches(self):
        cond = col(Atom.BIT, [True, False])
        out = calc.case(cond, 10, None)
        assert out.to_pylist() == [10, None]

    def test_branch_type_widening(self):
        cond = col(Atom.BIT, [True, False])
        out = calc.case(cond, col(Atom.INT, [1, 1]), col(Atom.DBL, [0.5, 0.5]))
        assert out.atom is Atom.DBL

    def test_string_branches(self):
        cond = col(Atom.BIT, [True, False])
        out = calc.case(cond, col(Atom.STR, ["y", "y"]), col(Atom.STR, ["n", "n"]))
        assert out.to_pylist() == ["y", "n"]

    def test_non_bit_condition_rejected(self):
        with pytest.raises(GDKError):
            calc.case(col(Atom.INT, [1]), 1, 2)


class TestStringsAndMath:
    def test_concat(self):
        out = calc.concat_str(col(Atom.STR, ["a", None]), "!")
        assert out.to_pylist() == ["a!", None]

    def test_concat_numbers_stringify(self):
        out = calc.concat_str(col(Atom.INT, [1]), col(Atom.STR, ["x"]))
        assert out.to_pylist() == ["1x"]

    def test_sqrt(self):
        out = calc.apply_unary_math(col(Atom.DBL, [4.0, None]), "sqrt")
        assert out.to_pylist() == [2.0, None]

    def test_sqrt_negative_is_null(self):
        out = calc.apply_unary_math(col(Atom.DBL, [-1.0]), "sqrt")
        assert out.to_pylist() == [None]

    def test_log_zero_is_null(self):
        out = calc.apply_unary_math(col(Atom.DBL, [0.0, 1.0]), "log")
        assert out.to_pylist() == [None, 0.0]

    def test_floor_preserves_int(self):
        out = calc.apply_unary_math(col(Atom.INT, [3]), "floor")
        assert out.atom is Atom.INT

    def test_floor_on_double(self):
        out = calc.apply_unary_math(col(Atom.DBL, [3.7]), "floor")
        assert out.to_pylist() == [3.0]

    def test_unknown_function(self):
        with pytest.raises(GDKError):
            calc.apply_unary_math(col(Atom.DBL, [1.0]), "sinh")


INT_MAX, INT_MIN = 2**31 - 1, -(2**31)
LNG_MAX, LNG_MIN = 2**63 - 1, -(2**63)


class TestNativeWidthIntegers:
    """Integer arithmetic computes in its own atom, never through float64,
    and the BAT path and the scalar path are one kernel."""

    @pytest.mark.parametrize("big", [2**53 + 1, 2**60 + 1, -(2**60) - 1])
    @pytest.mark.parametrize(
        "name, other", [("add", 1), ("sub", 1), ("mul", 3), ("add", -7)]
    )
    def test_bigint_arithmetic_is_exact(self, big, name, other):
        kernel = calc.KERNELS[name][0]
        expected = {"add": big + other, "sub": big - other, "mul": big * other}[name]
        assert kernel(col(Atom.LNG, [big, None]), other).to_pylist() == [expected, None]
        assert calc.scalar(name, big, other) == expected

    @pytest.mark.parametrize("big", [2**53 + 1, 2**60 + 1])
    def test_bigint_negate_and_abs_are_exact(self, big):
        assert calc.negate(col(Atom.LNG, [big])).to_pylist() == [-big]
        assert calc.absolute(col(Atom.LNG, [-big])).to_pylist() == [big]
        assert calc.scalar("negate", big) == -big
        assert calc.scalar("abs", -big) == big

    @pytest.mark.parametrize(
        "atom, top, bottom", [(Atom.INT, INT_MAX, INT_MIN), (Atom.LNG, LNG_MAX, LNG_MIN)]
    )
    def test_overflow_is_null_for_that_row_only(self, atom, top, bottom):
        column = col(atom, [top, 1, bottom, None])
        assert calc.arithmetic("+", column, column).to_pylist() == [None, 2, None, None]
        assert calc.arithmetic("+", column, 1).to_pylist() == [None, 2, bottom + 1, None]
        assert calc.arithmetic("-", column, 1).to_pylist() == [top - 1, 0, None, None]
        assert calc.arithmetic("*", column, 2).to_pylist() == [None, 2, None, None]
        assert calc.arithmetic("*", column, -1).to_pylist() == [-top, -1, None, None]
        assert calc.negate(column).to_pylist() == [-top, -1, None, None]
        assert calc.absolute(column).to_pylist() == [top, 1, None, None]
        assert calc.arithmetic("/", column, -1).to_pylist() == [-top, -1, None, None]
        assert calc.arithmetic("%", column, -1).to_pylist() == [0, 0, 0, None]
        divisors = col(atom, [-1, -1, -1, -1])
        assert calc.arithmetic("/", column, divisors).to_pylist() == [-top, -1, None, None]
        assert calc.arithmetic("+", column, column).atom is atom

    def test_int_widens_through_a_bigint_operand_not_by_itself(self):
        ints = col(Atom.INT, [INT_MAX])
        assert calc.arithmetic("+", ints, 1).to_pylist() == [None]  # int + int is int
        wide = calc.arithmetic("+", ints, 2**31)  # the literal is a lng
        assert (wide.atom, wide.to_pylist()) == (Atom.LNG, [INT_MAX + 2**31])
        assert calc.arithmetic("+", ints, col(Atom.LNG, [1])).to_pylist() == [2**31]

    def test_scalar_path_follows_the_same_rule(self):
        assert calc.scalar("add", LNG_MAX, 1) is None
        assert calc.scalar("mul", 2**40, 2**40) is None
        assert calc.scalar("negate", LNG_MIN) is None
        assert calc.scalar("div", LNG_MIN, -1) is None
        assert calc.scalar("add", 2**31, 1) == 2**31 + 1
        assert calc.scalar("div", 7, 0) is None
        assert calc.scalar("div", -7, 2) == -3

    def test_a_plain_python_int_has_no_declared_width(self):
        """int ∘ int that does not fit recomputes in lng; only a column
        (or a numpy.int64, a declared lng) pins the width."""
        assert calc.scalar("add", INT_MAX, 1) == 2**31
        assert calc.scalar("sub", INT_MIN, 1) == INT_MIN - 1
        assert calc.scalar("mul", 65536, 65536) == 2**32
        assert calc.scalar("negate", INT_MIN) == 2**31
        assert calc.scalar("abs", INT_MIN) == 2**31
        assert calc.scalar("div", INT_MIN, -1) == 2**31
        assert calc.scalar("add", np.int32(INT_MAX), np.int32(1)) == 2**31  # a bound NumPy value
        assert calc.scalar("add", INT_MAX, None) is None
        assert calc.scalar("mod", 7, 0) is None
        small = calc.scalar("add", np.int64(1), 1)  # a declared lng stays one
        assert (small, type(small)) == (2, np.int64)
        assert type(calc.scalar("add", 1, 1)) is int
        assert calc.arithmetic("+", col(Atom.INT, [INT_MAX]), 1).to_pylist() == [None]

    def test_a_cast_to_the_atom_a_scalar_already_has_passes_it_through(self):
        for value, atom in ((5, "int"), (2.5, "dbl"), ("x", "str"), (True, "bit"), (2**40, "lng")):
            assert calc.scalar("cast", value, atom) is value
        widened = calc.scalar("cast", 5, "lng")
        assert (widened, type(widened)) == (5, np.int64)
        assert calc.scalar("cast", widened, "lng") is widened
        assert calc.scalar("cast", None, "lng") is None

    def test_overflow_next_to_nulls_and_exact_rows(self):
        left = col(Atom.LNG, [LNG_MAX, 2**60 + 1, None, 5])
        right = col(Atom.LNG, [1, 2**60 + 1, 1, None])
        assert calc.arithmetic("+", left, right).to_pylist() == [None, 2**61 + 2, None, None]
        assert calc.arithmetic("*", left, right).to_pylist() == [LNG_MAX, None, None, None]

    def test_values_below_2_53_equal_the_float64_round_trip(self):
        left = np.arange(-500, 500, dtype=np.int64) * 7_000_003
        right = np.arange(1000, dtype=np.int64) - 321
        for op, fn in (("+", np.add), ("-", np.subtract), ("*", np.multiply)):
            through_float = np.round(fn(left.astype(np.float64), right.astype(np.float64)))
            out = calc.arithmetic(op, Column(Atom.LNG, left), Column(Atom.LNG, right))
            assert out.values.tolist() == through_float.astype(np.int64).tolist()


class TestCase:
    def test_first_true_condition_wins(self):
        a = col(Atom.INT, [1, 2, 3, None])
        out = calc.case(
            calc.compare(">", a, 2), "big", calc.compare(">", a, 1), "mid", "small"
        )
        assert out.to_pylist() == ["big" if v == 3 else "mid" if v == 2 else "small"
                                   for v in (1, 2, 3, 0)]

    def test_null_branch_and_missing_else(self):
        cond = col(Atom.BIT, [True, False, None])
        assert calc.case(cond, None, 7).to_pylist() == [None, 7, 7]
        assert calc.case(cond, 7, None).to_pylist() == [7, None, None]
        assert calc.case(cond, None, None).atom is Atom.INT

    def test_scalar_condition_picks_a_whole_branch(self):
        values = col(Atom.INT, [1, None])
        assert calc.case(True, values, 0).to_pylist() == [1, None]
        assert calc.case(None, values, 0).to_pylist() == [0, 0]

    def test_branches_widen_to_their_common_atom(self):
        cond = col(Atom.BIT, [True, False])
        out = calc.case(cond, col(Atom.INT, [1, 1]), 2.5)
        assert (out.atom, out.to_pylist()) == (Atom.DBL, [1.0, 2.5])
        assert calc.case(cond, 1, 0).atom is Atom.INT
        assert calc.case(cond, 1, 2**40).atom is Atom.LNG

    def test_needs_pairs_and_an_otherwise(self):
        with pytest.raises(GDKError):
            calc.case(col(Atom.BIT, [True]), 1)


class TestExpressions:
    LIFE = "case(or(eq(sub($0,$1),3),and(eq(sub($0,$1),2),eq($1,1))),1,0)"

    def test_evaluates_a_whole_tree(self):
        total = col(Atom.LNG, [4, 3, 3, None, 2])
        alive = col(Atom.INT, [1, 1, 0, 1, 0])
        out = calc.evaluate(self.LIFE, [total, alive])
        assert (out.atom, out.to_pylist()) == (Atom.INT, [1, 1, 1, 0, 0])

    def test_a_repeated_subexpression_is_one_step(self):
        steps, leaves = calc.compile_expr(self.LIFE)
        assert leaves == 2
        assert [name for name, _ in steps].count("sub") == 1
        assert [name for name, _ in steps] == ["sub", "eq", "eq", "eq", "and", "or", "case"]

    def test_literals_keep_their_type(self):
        steps, _ = calc.compile_expr('case(eq($0,1),1.5,case(eq($0,true),"a\\"b",nil))')
        constants = [value for _, refs in steps for kind, value in refs if kind == 2]
        assert constants == [1, True, 'a"b', None, 1.5]
        assert [type(c) for c in constants[:2]] == [int, bool]  # eq($0,1) is not eq($0,true)

    def test_scalar_leaves_broadcast(self):
        out = calc.evaluate("add(mul($0,$1),$2)", [col(Atom.INT, [1, 2, None]), 10, 0.5])
        assert (out.atom, out.to_pylist()) == (Atom.DBL, [10.5, 20.5, None])

    @pytest.mark.parametrize(
        "text",
        [
            "", "$0", "3", "add($0", "add($0,)", "add($0,$1))", "add($0 $1)",
            "frobnicate($0)", "add($0)", "not($0,$1)", "case($0,1)", "add($0,$2)",
            'cast($0,"int"', "add($0,1e)",
        ],
    )
    def test_malformed_text_is_a_gdk_error(self, text):
        with pytest.raises(GDKError):
            calc.compile_expr(text)

    def test_leaf_count_must_match(self):
        with pytest.raises(GDKError):
            calc.evaluate("add($0,$1)", [col(Atom.INT, [1])])

    def test_needs_a_column(self):
        with pytest.raises(GDKError):
            calc.evaluate("add($0,$1)", [1, 2])

    def test_result_atom(self):
        assert calc.result_atom(self.LIFE, [Atom.LNG, Atom.INT]) is Atom.INT
        assert calc.result_atom("sub($0,$1)", [Atom.LNG, Atom.INT]) is Atom.LNG
        assert calc.result_atom("add($0,$1)", [Atom.INT, None]) is Atom.INT
        assert calc.result_atom("add($0,1.5)", [Atom.INT]) is Atom.DBL
        assert calc.result_atom('cast($0,"dbl")', [Atom.INT]) is Atom.DBL
        assert calc.result_atom('math($0,"floor")', [Atom.LNG]) is Atom.LNG
        assert calc.result_atom('math($0,"sqrt")', [Atom.LNG]) is Atom.DBL
        assert calc.result_atom("case($0,$1,nil)", [Atom.BIT, Atom.DBL]) is Atom.DBL
        assert calc.result_atom("case($0,nil,nil)", [Atom.BIT]) is None
        assert calc.result_atom("length($0)", [Atom.STR]) is Atom.INT
        assert calc.result_atom("isnil($0)", [None]) is Atom.BIT
        with pytest.raises(repro_errors.TypeError_):
            calc.result_atom("add($0,1)", [Atom.STR])

    def test_every_kernel_has_a_scalar_twin(self):
        column = col(Atom.INT, [7, -7, None])
        for name in ("add", "sub", "mul", "div", "mod", "eq", "lt"):
            bulk = calc.KERNELS[name][0](column, 2).to_pylist()
            assert bulk == [calc.scalar(name, v, 2) for v in (7, -7, None)], name
        assert calc.scalar("isnil", None) is True
        assert calc.scalar("and", None, False) is False
        assert calc.scalar("or", None, None) is None
        assert calc.scalar("case", None, 1, 2) == 2
        assert calc.scalar("math", None, "sqrt") is None
        assert calc.scalar("cast", 1.9, "int") == 1
        assert calc.scalar("like", "cat", "c%") is True
        assert calc.scalar("concat", "a", None) is None
