"""String kernels (MAL module ``batstr`` territory).

Bulk string operations with NULL propagation: case mapping, length,
substring, trim, and SQL LIKE matching (``%`` any sequence, ``_`` any
single character, with ``\\`` escaping).

Dictionary-encoded inputs (:class:`~repro.gdk.dictenc.DictColumn`)
take a vectorized path: the per-element Python function runs once per
*distinct* value and the result is gathered through the codes — a
2M-row column with 50 distinct values costs 50 Python calls plus one
C-speed gather instead of 2M calls.  Case/trim/substring re-encode
their output (the mapped dictionary is re-canonicalised, since e.g.
``upper`` can merge distinct values), so downstream operators keep
working on codes.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Callable

import numpy as np

from repro.errors import GDKError
from repro.gdk.atoms import Atom
from repro.gdk.column import Column
from repro.gdk.dictenc import DictColumn


def _require_str(column: Column, operation: str) -> None:
    if column.atom is not Atom.STR:
        raise GDKError(f"{operation} needs a string column, got {column.atom}")


def _map_str(column: Column, transform: Callable[[str], str]) -> Column:
    """Apply a str->str *transform* element-wise, through codes if encoded."""
    if isinstance(column, DictColumn):
        mapped = np.array([transform(s) for s in column.dictionary], dtype=object)
        # The transform can collapse distinct values (upper('a') ==
        # upper('A')), so re-canonicalise to keep the dictionary sorted
        # and duplicate-free.
        dictionary, remap = np.unique(mapped, return_inverse=True)
        codes = remap.astype(np.int32)[np.asarray(column.codes)]
        return DictColumn(Atom.STR, codes, dictionary, column.mask)
    values = np.array([transform(s) for s in column.values], dtype=object)
    return Column(Atom.STR, values, column.mask)


def lower(column: Column) -> Column:
    """Lower-case every entry."""
    _require_str(column, "lower")
    return _map_str(column, str.lower)


def upper(column: Column) -> Column:
    """Upper-case every entry."""
    _require_str(column, "upper")
    return _map_str(column, str.upper)


def length(column: Column) -> Column:
    """Character length of every entry."""
    _require_str(column, "length")
    if isinstance(column, DictColumn):
        per_value = np.array([len(s) for s in column.dictionary], dtype=np.int32)
        values = (
            per_value[np.asarray(column.codes)]
            if len(per_value)
            else np.empty(0, dtype=np.int32)
        )
        return Column(Atom.INT, values, column.mask)
    values = np.array([len(s) for s in column.values], dtype=np.int32)
    return Column(Atom.INT, values, column.mask)


def trim(column: Column) -> Column:
    """Strip leading/trailing whitespace."""
    _require_str(column, "trim")
    return _map_str(column, str.strip)


def substring(column: Column, start: int, count: int | None = None) -> Column:
    """SQL SUBSTRING: 1-based *start*, optional length."""
    _require_str(column, "substring")
    begin = max(0, start - 1)
    if count is None:
        return _map_str(column, lambda s: s[begin:])
    if count < 0:
        raise GDKError("substring length must be non-negative")
    return _map_str(column, lambda s: s[begin : begin + count])


@lru_cache(maxsize=256)
def _like_regex(pattern: str) -> re.Pattern:
    """Translate a SQL LIKE pattern into an anchored regex."""
    out: list[str] = []
    index = 0
    while index < len(pattern):
        ch = pattern[index]
        if ch == "\\" and index + 1 < len(pattern):
            out.append(re.escape(pattern[index + 1]))
            index += 2
            continue
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
        index += 1
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


def like(column: Column, pattern: str | None) -> Column:
    """SQL LIKE as a bit column (NULL input or pattern stays NULL)."""
    _require_str(column, "like")
    if pattern is None:
        return Column.nulls(Atom.BIT, len(column))
    regex = _like_regex(pattern)
    if isinstance(column, DictColumn):
        per_value = np.array(
            [bool(regex.match(s)) for s in column.dictionary], dtype=np.bool_
        )
        values = (
            per_value[np.asarray(column.codes)]
            if len(per_value)
            else np.empty(0, dtype=np.bool_)
        )
        return Column(Atom.BIT, values, column.mask)
    values = np.array(
        [bool(regex.match(s)) for s in column.values], dtype=np.bool_
    )
    return Column(Atom.BIT, values, column.mask)
