"""Sorting kernels (behind MAL's ``algebra.sortmulti``).

Sorts return the permutation (*order*) as an oid column so aligned
payload columns can be re-ordered by projection, matching MonetDB's
``algebra.sort`` returning (sorted, order, groups).

NULLs sort first on ascending order (MonetDB's NULLs-are-smallest
convention), last on descending order.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GDKError
from repro.gdk.atoms import Atom
from repro.gdk.column import Column


def sort_order(column: Column, descending: bool = False) -> np.ndarray:
    """Stable permutation that sorts *column* (NULLs first when ascending)."""
    n = len(column)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    mask = column.effective_mask()
    if column.atom is Atom.STR:
        keys = column.values.astype(object)
        null_positions = np.flatnonzero(mask)
        non_null = np.flatnonzero(~mask)
        if descending:
            # Stable descending via ascending codes: equal keys keep
            # their original order, NULLs sort last.
            _, codes = np.unique(keys[non_null], return_inverse=True)
            ordered = non_null[np.argsort(-codes.astype(np.int64), kind="stable")]
            return np.concatenate([ordered, null_positions]).astype(np.int64)
        ordered = non_null[np.argsort(keys[non_null], kind="stable")]
        return np.concatenate([null_positions, ordered]).astype(np.int64)
    values = column.values
    if descending:
        if column.atom is Atom.DBL:
            sort_keys = np.where(mask, -np.inf, values.astype(np.float64))
        else:
            sort_keys = values.astype(np.float64)
            sort_keys = np.where(mask, -np.inf, sort_keys)
        order = np.argsort(-sort_keys, kind="stable")
    else:
        if column.atom is Atom.DBL:
            sort_keys = np.where(mask, -np.inf, values.astype(np.float64))
        else:
            sort_keys = values.astype(np.float64)
            sort_keys = np.where(mask, -np.inf, sort_keys)
        order = np.argsort(sort_keys, kind="stable")
    return order.astype(np.int64)


def sort_order_multi(columns: list[Column], descending: list[bool]) -> np.ndarray:
    """Permutation sorting by several keys (first key is most significant)."""
    if len(columns) != len(descending) or not columns:
        raise GDKError("sort_order_multi needs matching non-empty key lists")
    n = len(columns[0])
    order = np.arange(n, dtype=np.int64)
    # Apply keys from least to most significant; stable sorts compose.
    for column, desc in reversed(list(zip(columns, descending))):
        if len(column) != n:
            raise GDKError("sort keys are not aligned")
        sub = sort_order(column.take(order), descending=desc)
        order = order[sub]
    return order


def is_sorted(column: Column) -> bool:
    """True when the column is ascending (NULLs first)."""
    order = sort_order(column)
    return bool(np.all(order == np.arange(len(column))))
