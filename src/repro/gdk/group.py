"""Grouping operators.

``group.group`` / ``group.subgroup`` derive, for a (sequence of)
column(s), a dense *group-id* column plus the group *extents* (one
representative oid per group) and *histogram* (rows per group) — the
kernel building blocks of SQL's GROUP BY.  NULL is a group of its own,
as in SQL grouping semantics.

The kernels are NumPy-vectorized and make no per-row Python step.
Values are first coded to small integers: an integer key whose span
``max - min`` is below its row count (dictionary codes included) is
coded by its offset ``value - min`` in linear time; any other key
(doubles, plain strings, wide integer spans) is coded through
``np.unique``.  The codes are then renumbered to group ids in order of
first appearance; only the per-*code* table is sorted, never the rows.
One ``bincount`` over the codes counts every group.  First appearances
are read from a prefix of ``16 · bound`` rows, which holds every code
of a well-mixed key; a key the prefix does not cover (sorted or
clustered, as an array's leading dimension is) is looked for in the
rest.  When every code is present and appears in code order, the codes
are already the group ids.  Group ids leave as :class:`GroupIds`, which
carry their counts, so the aggregates need neither re-read their bound
nor recount them.  The tuple-at-a-time oracles live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GDKError
from repro.gdk.atoms import Atom
from repro.gdk.column import Column
from repro.gdk.dictenc import DictColumn


@dataclass(frozen=True)
class Grouping:
    """Result of a grouping step.

    Attributes:
        groups: oid column aligned with the input; entry i is the group
            id (0-based, dense) of row i.
        extents: one representative row position per group, in order of
            first appearance.
        histogram: per-group row counts.
    """

    groups: Column
    extents: np.ndarray
    histogram: np.ndarray

    @property
    def ngroups(self) -> int:
        return len(self.extents)


class GroupIds(Column):
    """Group ids that carry their counts: ``counts[g]`` rows hold id
    ``g``, so every id lies in ``[0, len(counts))``.

    :func:`group` and :func:`subgroup` emit them with ``counts`` the
    grouping's histogram (the same array: read it, never write it), so a
    consumer handed the same group count may trust it instead of
    re-reading ``max()`` or recounting.  Ids without that proof —
    packed, projected or computed elsewhere — are plain :class:`Column`
    objects.
    """

    __slots__ = ("counts",)

    def __init__(self, values: np.ndarray, counts: np.ndarray):
        super().__init__(Atom.OID, values)
        self.counts = counts


def _value_codes(column: Column) -> tuple[np.ndarray, int]:
    """``(codes, bound)``: equal non-NULL values share a code, NULL has
    its own, and every code lies in ``[0, bound)``.

    An integer key whose non-NULL span ``max - min`` is below the row
    count is coded by offset, ``value - min``, so its counting table is
    never larger than the input; such codes need not be dense.  Any
    other key is coded densely through ``np.unique``.
    """
    if isinstance(column, DictColumn):
        # The sorted dictionary makes code order value order, so coding
        # the int32 codes yields exactly the codes of the decoded
        # strings — without materialising a single object.
        values = np.asarray(column.codes)
    else:
        values = column.values
        if column.atom is Atom.STR:
            values = values.astype(object)
    mask = column.mask
    rows = len(values)
    valid = None if mask is None else ~mask
    if values.dtype.kind == "i" and rows and (valid is None or valid.any()):
        if valid is None:
            low, high = int(values.min()), int(values.max())
        else:
            info = np.iinfo(values.dtype)
            low = int(values.min(where=valid, initial=info.max))
            high = int(values.max(where=valid, initial=info.min))
        if high - low < rows:
            # The true offsets fit int64; offsets of masked rows may wrap
            # and are overwritten by the NULL code below.
            codes = np.subtract(values, low, dtype=np.int64)
            if mask is None:
                return codes, high - low + 1
            codes[mask] = high - low + 1
            return codes, high - low + 2
    if mask is None:
        uniques, codes = np.unique(values, return_inverse=True)
        return codes.astype(np.int64, copy=False), len(uniques)
    codes = np.empty(rows, dtype=np.int64)
    ncodes = 0
    if valid.any():
        uniques, inverse = np.unique(values[valid], return_inverse=True)
        codes[valid] = inverse
        ncodes = len(uniques)
    codes[mask] = ncodes
    return codes, ncodes + 1


def _densify_first_appearance(codes: np.ndarray, bound: int) -> Grouping:
    """Renumber codes in ``[0, bound)`` to dense group ids in order of
    first appearance, as a :class:`Grouping`.

    Codes absent from the input sort last by their first position (the
    row count), so they drop off the end and need no re-coding pass.
    First positions are read from the first ``16 · bound`` rows; only a
    code present but missing there sends the rest through the same
    minimum.
    """
    n = len(codes)
    counts = np.bincount(codes, minlength=bound)
    firsts = np.full(bound, n, dtype=np.int64)
    head = min(n, 16 * bound)
    np.minimum.at(firsts, codes[:head], np.arange(head, dtype=np.int64))
    if ((firsts == n) & (counts > 0)).any():
        np.minimum.at(firsts, codes[head:], np.arange(head, n, dtype=np.int64))
    ngroups = int(np.count_nonzero(counts))
    if ngroups == bound and (firsts[1:] > firsts[:-1]).all():  # codes are the ids
        return Grouping(GroupIds(codes, counts), firsts, counts)
    appearance = np.argsort(firsts, kind="stable")  # over codes, not rows
    rank = np.empty(bound, dtype=np.int64)
    rank[appearance] = np.arange(bound, dtype=np.int64)
    order = appearance[:ngroups]
    histogram = counts[order]
    return Grouping(GroupIds(rank[codes], histogram), firsts[order], histogram)


def group(column: Column) -> Grouping:
    """Group rows by one column's values (NULLs form their own group)."""
    return _densify_first_appearance(*_value_codes(column))


def subgroup(column: Column, previous: Grouping) -> Grouping:
    """Refine an existing grouping by an extra column (group.subgroup).

    The combined key ``previous id · width + code`` is renumbered
    directly when the previous ids are :class:`GroupIds` and the bound
    ``ngroups · width`` stays within the row count; otherwise it is
    coded through ``np.unique`` first.
    """
    if len(column) != len(previous.groups):
        raise GDKError("subgroup: column not aligned with previous grouping")
    sub_codes, width = _value_codes(column)
    combined = previous.groups.values * width + sub_codes
    bound = previous.ngroups * width
    if bound > len(combined) or not isinstance(previous.groups, GroupIds):
        uniques, combined = np.unique(combined, return_inverse=True)
        bound = len(uniques)
    return _densify_first_appearance(combined.astype(np.int64, copy=False), bound)


@dataclass(frozen=True)
class GroupView:
    """A grouping seen only through (row ids, group count).

    The aggregation kernels never touch extents or histograms, so the
    ``aggr.sub*`` operators wrap their explicit group-id inputs in this
    view instead of building a :class:`Grouping` — skipping a full
    stable sort per aggregate call.  Structurally compatible with
    :class:`Grouping` everywhere only ``groups``/``ngroups`` are read
    (:func:`subgroup` included).
    """

    groups: Column
    ngroups: int


def id_bound(group_ids: Column) -> int:
    """One past the largest id: a :class:`GroupIds` group count, else read."""
    if isinstance(group_ids, GroupIds):
        return len(group_ids.counts)
    return int(group_ids.values.max()) + 1 if len(group_ids) else 0


def grouping_view(group_ids: Column, ngroups: int) -> GroupView:
    """Cheap :class:`GroupView` over group ids for *ngroups* groups.

    :class:`GroupIds` within *ngroups* are trusted as they are; any
    other ids are range-checked.
    """
    ngroups = int(ngroups)
    proven = isinstance(group_ids, GroupIds) and len(group_ids.counts) <= ngroups
    if not proven and len(group_ids) and ngroups >= 0:
        if group_ids.values.max() >= ngroups:
            raise GDKError("group id out of range")
    return GroupView(group_ids, ngroups)
