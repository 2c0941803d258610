"""String kernel unit tests."""

import pytest

from repro.errors import GDKError
from repro.gdk import strings
from repro.gdk.atoms import Atom
from repro.gdk.column import Column


def col(items):
    return Column.from_pylist(Atom.STR, items)


class TestCaseMapping:
    def test_lower(self):
        assert strings.lower(col(["AbC", None])).to_pylist() == ["abc", None]

    def test_upper(self):
        assert strings.upper(col(["AbC", None])).to_pylist() == ["ABC", None]

    def test_requires_string_column(self):
        with pytest.raises(GDKError):
            strings.lower(Column.from_pylist(Atom.INT, [1]))


class TestLengthTrim:
    def test_length(self):
        assert strings.length(col(["", "ab", None])).to_pylist() == [0, 2, None]

    def test_length_atom(self):
        assert strings.length(col(["x"])).atom is Atom.INT

    def test_trim(self):
        assert strings.trim(col(["  a b  ", "\tx\n"])).to_pylist() == ["a b", "x"]


class TestSubstring:
    def test_one_based_start(self):
        assert strings.substring(col(["hello"]), 2, 3).to_pylist() == ["ell"]

    def test_without_count(self):
        assert strings.substring(col(["hello"]), 3).to_pylist() == ["llo"]

    def test_start_beyond_end(self):
        assert strings.substring(col(["ab"]), 9, 2).to_pylist() == [""]

    def test_negative_count_rejected(self):
        with pytest.raises(GDKError):
            strings.substring(col(["ab"]), 1, -1)


class TestLike:
    @pytest.mark.parametrize(
        "value, pattern, expected",
        [
            ("hello", "hello", True),
            ("hello", "h%", True),
            ("hello", "%o", True),
            ("hello", "%ell%", True),
            ("hello", "h_llo", True),
            ("hello", "h_lo", False),
            ("hello", "", False),
            ("", "%", True),
            ("a.b", "a.b", True),
            ("axb", "a.b", False),  # dot is literal, not regex
            ("a%b", "a\\%b", True),  # escaped wildcard
            ("aXb", "a\\%b", False),
            ("a_b", "a\\_b", True),
            ("multi\nline", "multi%", True),
        ],
    )
    def test_patterns(self, value, pattern, expected):
        assert strings.like(col([value]), pattern).to_pylist() == [expected]

    def test_null_value_stays_null(self):
        assert strings.like(col([None]), "%").to_pylist() == [None]

    def test_null_pattern_all_null(self):
        assert strings.like(col(["a", "b"]), None).to_pylist() == [None, None]

    def test_scalar_like_is_the_same_kernel(self):
        from repro.gdk import calc

        assert calc.scalar("like", "abc", "a%") is True
        assert calc.scalar("like", None, "a%") is None
        assert calc.scalar("like", "abc", None) is None
