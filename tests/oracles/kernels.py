"""Tuple-at-a-time grouping, aggregation and joins: the kernels' oracles.

These are the seed implementations of ``repro.gdk.group``,
``repro.gdk.aggregate`` and ``repro.gdk.join``, kept beside the tests
that compare the vectorized kernels with them (and the E15 benchmark
that times both).  No engine code calls them.  ``explicit_grouping`` and
``group_by_columns`` build a full :class:`Grouping` from given ids or
from a compound key, as a test's scaffolding.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import GDKError
from repro.gdk.aggregate import _prepare
from repro.gdk.atoms import Atom, canon_key, is_numeric
from repro.gdk.bat import BAT
from repro.gdk.column import Column
from repro.gdk.group import Grouping, group, subgroup
from repro.gdk.join import _check_join_types


def group_by_columns(columns: list[Column]) -> Grouping:
    """Group by a compound key (chained group/subgroup, as MAL emits)."""
    if not columns:
        raise GDKError("group_by_columns needs at least one column")
    result = group(columns[0])
    for column in columns[1:]:
        result = subgroup(column, result)
    return result


def explicit_grouping(group_ids: np.ndarray, ngroups: int) -> Grouping:
    """A full :class:`Grouping` over given group ids.

    Group ids must lie in ``[0, ngroups)``; rows with id ``-1`` belong to
    no group and are dropped from the histogram (aggregate kernels skip
    them).
    """
    group_ids = np.asarray(group_ids, dtype=np.int64)
    if len(group_ids) and group_ids.max() >= ngroups:
        raise GDKError("group id out of range")
    histogram = np.bincount(group_ids[group_ids >= 0], minlength=ngroups)
    extents = np.full(ngroups, -1, dtype=np.int64)
    positions = np.flatnonzero(group_ids >= 0)
    if len(positions):
        grouped = group_ids[positions]
        order = np.argsort(grouped, kind="stable")
        sorted_ids = grouped[order]
        seg_starts = np.flatnonzero(
            np.r_[True, sorted_ids[1:] != sorted_ids[:-1]]
        )
        extents[sorted_ids[seg_starts]] = positions[order[seg_starts]]
    return Grouping(Column(Atom.OID, group_ids), extents, histogram)


def group_reference(column: Column) -> Grouping:
    """Tuple-at-a-time grouping (the seed implementation)."""
    ids = np.empty(len(column), dtype=np.int64)
    extents: list[int] = []
    counts: list[int] = []
    seen: dict = {}
    mask = column.mask
    values = column.values
    null_key = object()
    for pos in range(len(column)):
        key = null_key if (mask is not None and mask[pos]) else canon_key(values[pos])
        gid = seen.get(key)
        if gid is None:
            gid = len(extents)
            seen[key] = gid
            extents.append(pos)
            counts.append(0)
        ids[pos] = gid
        counts[gid] += 1
    return Grouping(
        Column(Atom.OID, ids),
        np.asarray(extents, dtype=np.int64),
        np.asarray(counts, dtype=np.int64),
    )


def subgroup_reference(column: Column, previous: Grouping) -> Grouping:
    """Tuple-at-a-time grouping refinement (the seed implementation)."""
    if len(column) != len(previous.groups):
        raise GDKError("subgroup: column not aligned with previous grouping")
    ids = np.empty(len(column), dtype=np.int64)
    extents: list[int] = []
    counts: list[int] = []
    seen: dict = {}
    mask = column.mask
    values = column.values
    prev_ids = previous.groups.values
    null_key = object()
    for pos in range(len(column)):
        sub = null_key if (mask is not None and mask[pos]) else canon_key(values[pos])
        key = (int(prev_ids[pos]), sub)
        gid = seen.get(key)
        if gid is None:
            gid = len(extents)
            seen[key] = gid
            extents.append(pos)
            counts.append(0)
        ids[pos] = gid
        counts[gid] += 1
    return Grouping(
        Column(Atom.OID, ids),
        np.asarray(extents, dtype=np.int64),
        np.asarray(counts, dtype=np.int64),
    )


def _grouped_extremum_reference(
    column: Column, grouping: Grouping, largest: bool
) -> Column:
    """Tuple-at-a-time min/max (the seed implementation)."""
    positions, ids, ngroups = _prepare(column, grouping)
    counts = np.bincount(ids, minlength=ngroups)
    values = column.values[positions]
    best: list[Any] = [None] * ngroups
    for gid, value in zip(ids.tolist(), values.tolist()):
        if best[gid] is None or ((value > best[gid]) == largest and value != best[gid]):
            best[gid] = value
    if column.atom is Atom.STR:
        out: np.ndarray = np.array(
            ["" if b is None else b for b in best], dtype=object
        )
    else:
        out = np.array(
            [0 if b is None else b for b in best], dtype=column.values.dtype
        )
    return Column(column.atom, out, mask=(counts == 0))


def grouped_min_reference(column: Column, grouping: Grouping) -> Column:
    return _grouped_extremum_reference(column, grouping, largest=False)


def grouped_max_reference(column: Column, grouping: Grouping) -> Column:
    return _grouped_extremum_reference(column, grouping, largest=True)


def grouped_count_distinct_reference(column: Column, grouping: Grouping) -> Column:
    """Tuple-at-a-time COUNT(DISTINCT x) (the seed implementation)."""
    positions, ids, ngroups = _prepare(column, grouping)
    seen: list[set] = [set() for _ in range(ngroups)]
    values = column.values[positions]
    for gid, value in zip(ids.tolist(), values.tolist()):
        seen[gid].add(canon_key(value))
    counts = np.array([len(s) for s in seen], dtype=np.int64)
    return Column(Atom.LNG, counts)


def grouped_median_reference(column: Column, grouping: Grouping) -> Column:
    """Tuple-at-a-time median (the seed implementation)."""
    if not is_numeric(column.atom):
        raise GDKError(f"median over non-numeric column {column.atom}")
    positions, ids, ngroups = _prepare(column, grouping)
    values = column.values[positions].astype(np.float64)
    buckets: list[list[float]] = [[] for _ in range(ngroups)]
    for gid, value in zip(ids.tolist(), values.tolist()):
        buckets[gid].append(value)
    out = np.zeros(ngroups, dtype=np.float64)
    mask = np.zeros(ngroups, dtype=np.bool_)
    for gid, bucket in enumerate(buckets):
        if bucket:
            out[gid] = float(np.median(bucket))
        else:
            mask[gid] = True
    return Column(Atom.DBL, out, mask)


def grouped_stddev_reference(column: Column, grouping: Grouping) -> Column:
    """Tuple-at-a-time sample stddev (the seed implementation)."""
    if not is_numeric(column.atom):
        raise GDKError(f"stddev over non-numeric column {column.atom}")
    positions, ids, ngroups = _prepare(column, grouping)
    values = column.values[positions].astype(np.float64)
    buckets: list[list[float]] = [[] for _ in range(ngroups)]
    for gid, value in zip(ids.tolist(), values.tolist()):
        buckets[gid].append(value)
    out = np.zeros(ngroups, dtype=np.float64)
    mask = np.zeros(ngroups, dtype=np.bool_)
    for gid, bucket in enumerate(buckets):
        if len(bucket) < 2:
            mask[gid] = True
        else:
            out[gid] = float(np.std(np.asarray(bucket), ddof=1))
    return Column(Atom.DBL, out, mask)


def _hash_index_reference(values: np.ndarray, mask: np.ndarray | None) -> dict:
    """value -> list of positions, skipping NULLs."""
    index: dict = {}
    if mask is None:
        for pos, value in enumerate(values.tolist()):
            index.setdefault(canon_key(value), []).append(pos)
    else:
        for pos, (value, is_null) in enumerate(zip(values.tolist(), mask.tolist())):
            if not is_null:
                index.setdefault(canon_key(value), []).append(pos)
    return index


def join_reference(left: BAT, right: BAT, nil_matches: bool = False) -> tuple[BAT, BAT]:
    """Tuple-at-a-time hash join (the seed implementation)."""
    _check_join_types(left, right)
    lmask = left.tail.mask
    rmask = right.tail.mask
    if nil_matches:
        index: dict = {}
        for pos, value in enumerate(left.tail.to_pylist()):
            index.setdefault(canon_key(value), []).append(pos)
        louts: list[int] = []
        routs: list[int] = []
        for rpos, value in enumerate(right.tail.to_pylist()):
            for lpos in index.get(canon_key(value), ()):
                louts.append(lpos)
                routs.append(rpos)
    else:
        index = _hash_index_reference(left.tail.values, lmask)
        louts = []
        routs = []
        rvalues = right.tail.values.tolist()
        rnull = rmask.tolist() if rmask is not None else None
        for rpos, value in enumerate(rvalues):
            if rnull is not None and rnull[rpos]:
                continue
            for lpos in index.get(canon_key(value), ()):
                louts.append(lpos)
                routs.append(rpos)
    loids = np.asarray(louts, dtype=np.int64) + left.hseqbase
    roids = np.asarray(routs, dtype=np.int64) + right.hseqbase
    order = np.lexsort((roids, loids))
    return BAT.from_oids(loids[order]), BAT.from_oids(roids[order])


def leftjoin_reference(left: BAT, right: BAT) -> tuple[BAT, BAT]:
    """Tuple-at-a-time left outer join (the seed implementation)."""
    index = _hash_index_reference(right.tail.values, right.tail.mask)
    louts: list[int] = []
    routs: list[int] = []
    lmask = left.tail.mask
    for lpos, value in enumerate(left.tail.values.tolist()):
        if lmask is not None and lmask[lpos]:
            louts.append(lpos)
            routs.append(-1)
            continue
        matches = index.get(canon_key(value))
        if matches:
            for rpos in matches:
                louts.append(lpos)
                routs.append(rpos)
        else:
            louts.append(lpos)
            routs.append(-1)
    loids = np.asarray(louts, dtype=np.int64) + left.hseqbase
    roids = np.asarray(routs, dtype=np.int64)
    roids = np.where(roids >= 0, roids + right.hseqbase, -1)
    return BAT.from_oids(loids), BAT.from_oids(roids)


def multi_column_join_reference(
    left_cols: list[Column], right_cols: list[Column]
) -> tuple[np.ndarray, np.ndarray]:
    """Tuple-at-a-time compound-key join (the seed implementation)."""
    if len(left_cols) != len(right_cols) or not left_cols:
        raise GDKError("multi_column_join needs matching non-empty key lists")
    lvalid = np.ones(len(left_cols[0]), dtype=np.bool_)
    for col in left_cols:
        lvalid &= col.validity()
    rvalid = np.ones(len(right_cols[0]), dtype=np.bool_)
    for col in right_cols:
        rvalid &= col.validity()
    index: dict = {}
    for pos in np.flatnonzero(lvalid):
        key = tuple(canon_key(col.values[pos]) for col in left_cols)
        index.setdefault(key, []).append(int(pos))
    lpos_out: list[int] = []
    rpos_out: list[int] = []
    for pos in np.flatnonzero(rvalid):
        key = tuple(canon_key(col.values[pos]) for col in right_cols)
        for lpos in index.get(key, ()):
            lpos_out.append(lpos)
            rpos_out.append(int(pos))
    return np.asarray(lpos_out, dtype=np.int64), np.asarray(rpos_out, dtype=np.int64)


def rows_membership_reference(
    left_cols: list[Column], right_cols: list[Column]
) -> np.ndarray:
    """Tuple-at-a-time membership test (the seed implementation)."""
    if len(left_cols) != len(right_cols) or not left_cols:
        raise GDKError("rows_membership needs matching non-empty column lists")
    nright = len(right_cols[0]) if right_cols else 0
    right_keys = set()
    for pos in range(nright):
        right_keys.add(
            tuple(
                None
                if col.mask is not None and col.mask[pos]
                else canon_key(col.values[pos])
                for col in right_cols
            )
        )
    nleft = len(left_cols[0])
    out = np.zeros(nleft, dtype=np.bool_)
    for pos in range(nleft):
        key = tuple(
            None
            if col.mask is not None and col.mask[pos]
            else canon_key(col.values[pos])
            for col in left_cols
        )
        out[pos] = key in right_keys
    return out
