"""Join operators of the kernel.

MonetDB joins return *two aligned oid BATs* ``(l, r)`` such that
``left[l[i]] == right[r[i]]`` for every i.  Downstream projections then
fetch whatever payload columns are needed.

The production kernels are NumPy-vectorized: equi-joins sort one side
once and probe it with ``searchsorted`` (MonetDB's merge-join strategy
for sorted BATs), so no per-row Python loop survives on the hot path.
Every kernel accepts optional *candidate lists* (oid BATs, as produced
by :mod:`repro.gdk.select`) restricting which BUNs participate —
returned oids are always absolute head oids of the original BATs.

The original tuple-at-a-time implementations are retained with a
``_reference`` suffix; they are the oracles of the property-test suite
and the baseline of the kernel benchmarks, never called by the engine.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GDKError
from repro.gdk.atoms import Atom, canon_key as _canon_key
from repro.gdk.bat import BAT
from repro.gdk.column import Column
from repro.gdk.dictenc import DictColumn
from repro.gdk.select import _candidate_positions as _select_candidate_positions


# ----------------------------------------------------------------------
# vectorization helpers
# ----------------------------------------------------------------------
def _candidate_positions(b: BAT, candidates: BAT | None) -> np.ndarray:
    """0-based positions into *b* restricted by an optional candidate list."""
    positions, _ = _select_candidate_positions(b, candidates)
    return positions


def _sort_values(values: np.ndarray) -> np.ndarray:
    """Stable sort permutation; works for numeric and object (str) tails."""
    return np.argsort(values, kind="stable")


def _span_search(
    haystack: np.ndarray, probes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-probe match span ``[lo, hi)`` in a sorted haystack.

    Large numeric probe sets are sorted first so the binary searches walk
    the haystack monotonically (cache-friendly), then the spans are
    scattered back to probe order.
    """
    if len(probes) > 2048 and probes.dtype != object:
        order = np.argsort(probes, kind="stable")
        sorted_probes = probes[order]
        lo = np.empty(len(probes), dtype=np.int64)
        hi = np.empty(len(probes), dtype=np.int64)
        lo[order] = np.searchsorted(haystack, sorted_probes, side="left")
        hi[order] = np.searchsorted(haystack, sorted_probes, side="right")
        return lo, hi
    return (
        np.searchsorted(haystack, probes, side="left"),
        np.searchsorted(haystack, probes, side="right"),
    )


def _expand_spans(
    lo: np.ndarray, hi: np.ndarray, counts: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Flatten per-probe index spans ``[lo[i], hi[i])`` into one index array.

    Returns ``(flat, counts)`` where ``flat`` concatenates the indices of
    every span and ``counts[i] == hi[i] - lo[i]``.  An explicit *counts*
    overrides the span widths (leftjoin pads every empty span to one
    slot for its ``-1`` placeholder).
    """
    if counts is None:
        counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), counts
    starts = np.repeat(lo, counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return starts + offsets, counts


def _check_join_types(left: BAT, right: BAT) -> None:
    if left.atom is not right.atom:
        if left.atom in (Atom.INT, Atom.LNG) and right.atom in (Atom.INT, Atom.LNG):
            return  # integer widths compare fine through numpy
        raise GDKError(f"join of {left.atom} and {right.atom}")


def _pair_sources(
    ltail: Column, rtail: Column
) -> tuple[np.ndarray, np.ndarray]:
    """Per-side key arrays whose comparisons agree across the pair.

    When *both* sides are dictionary-encoded the join runs on integer
    codes: either the shared codes directly, or each side's codes
    translated through the union dictionary.  The translation is
    order-preserving (both dictionaries are sorted and the union is
    their sorted merge), so sort order, equality spans and therefore
    the joined oid pairs are byte-identical to the decoded join.
    Mixed or plain pairs fall back to the value arrays (a lazy decode
    for an encoded side).
    """
    if isinstance(ltail, DictColumn) and isinstance(rtail, DictColumn):
        lcodes = np.asarray(ltail.codes)
        rcodes = np.asarray(rtail.codes)
        if ltail.dictionary is rtail.dictionary:
            return lcodes, rcodes
        joint, inverse = np.unique(
            np.concatenate([ltail.dictionary, rtail.dictionary]),
            return_inverse=True,
        )
        lut = inverse.astype(np.int64)
        nleft = len(ltail.dictionary)
        return lut[:nleft][lcodes], lut[nleft:][rcodes]
    return ltail.values, rtail.values


def _valid_split(
    b: BAT, candidates: BAT | None, source: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(valid positions, their keys, null positions) under candidates.

    *source* overrides the key array gathered from (defaults to the
    tail values; joins pass the code arrays of :func:`_pair_sources`).
    """
    positions = _candidate_positions(b, candidates)
    if source is None:
        source = b.tail.values
    mask = b.tail.mask
    if mask is None:
        return positions, source[positions], np.empty(0, dtype=np.int64)
    local_null = mask[positions]
    valid = positions[~local_null]
    return valid, source[valid], positions[local_null]


def join(
    left: BAT,
    right: BAT,
    nil_matches: bool = False,
    lcand: BAT | None = None,
    rcand: BAT | None = None,
) -> tuple[BAT, BAT]:
    """Inner equi-join on tails; returns aligned (left-oids, right-oids).

    NULL never matches NULL unless *nil_matches* is set (MonetDB's
    semantics for joins used in grouping internals).  The result is
    canonically ordered by (left oid, right oid).
    """
    _check_join_types(left, right)
    lsrc, rsrc = _pair_sources(left.tail, right.tail)
    lpos, lvals, lnull = _valid_split(left, lcand, lsrc)
    rpos, rvals, rnull = _valid_split(right, rcand, rsrc)

    # Probe from the left into the sorted right side: left rows ascend
    # and each probe's matches ascend (stable sort), so the output is
    # already in canonical (left oid, right oid) order — no final sort.
    order = _sort_values(rvals)
    rsorted = rvals[order]
    sorted_rpos = rpos[order]
    lo, hi = _span_search(rsorted, lvals)
    flat, counts = _expand_spans(lo, hi)
    louts = np.repeat(lpos, counts)
    routs = sorted_rpos[flat]

    loids = louts + left.hseqbase
    roids = routs + right.hseqbase
    if nil_matches and len(lnull) and len(rnull):
        # NULL behaves as one ordinary value: cross the null rows.
        loids = np.concatenate([loids, np.repeat(lnull, len(rnull)) + left.hseqbase])
        roids = np.concatenate([roids, np.tile(rnull, len(lnull)) + right.hseqbase])
        canon = np.lexsort((roids, loids))
        loids, roids = loids[canon], roids[canon]
    return BAT.from_oids(loids), BAT.from_oids(roids)


def leftjoin(
    left: BAT,
    right: BAT,
    lcand: BAT | None = None,
    rcand: BAT | None = None,
) -> tuple[BAT, BAT]:
    """Left outer join: unmatched left BUNs appear with right-oid ``-1``.

    The caller turns ``-1`` into NULL via
    :meth:`repro.gdk.column.Column.take_with_invalid`.  Left rows keep
    their (candidate) order; matches come in ascending right-oid order.
    """
    _check_join_types(left, right)
    lsrc, rsrc = _pair_sources(left.tail, right.tail)
    lpos = _candidate_positions(left, lcand)
    lvals = lsrc[lpos]
    rpos, rvals, _ = _valid_split(right, rcand, rsrc)

    order = _sort_values(rvals)
    rsorted = rvals[order]
    sorted_rpos = rpos[order]  # ascending positions within equal keys
    lo, hi = _span_search(rsorted, lvals)
    counts = hi - lo
    if left.tail.mask is not None:
        counts = np.where(left.tail.mask[lpos], 0, counts)

    out_counts = np.maximum(counts, 1)
    flat, _ = _expand_spans(lo, hi, out_counts)
    louts = np.repeat(lpos, out_counts)
    matched = np.repeat(counts > 0, out_counts)
    if len(sorted_rpos):
        routs = np.where(matched, sorted_rpos[np.where(matched, flat, 0)], -1)
    else:
        routs = np.full(len(flat), -1, dtype=np.int64)

    loids = louts + left.hseqbase
    roids = np.where(routs >= 0, routs + right.hseqbase, -1)
    return BAT.from_oids(loids), BAT.from_oids(roids)


def crossproduct(left_count: int, right_count: int,
                 left_base: int = 0, right_base: int = 0) -> tuple[BAT, BAT]:
    """Cartesian product of two dense heads as aligned oid BATs."""
    if left_count < 0 or right_count < 0:
        raise GDKError("negative cross product cardinality")
    loids = np.repeat(np.arange(left_count, dtype=np.int64), right_count) + left_base
    roids = np.tile(np.arange(right_count, dtype=np.int64), left_count) + right_base
    return BAT.from_oids(loids), BAT.from_oids(roids)


# ----------------------------------------------------------------------
# compound keys
# ----------------------------------------------------------------------
def _pairable(column: Column) -> np.ndarray:
    """Values array in a dtype np.unique can handle uniformly."""
    if column.atom is Atom.STR:
        return column.values.astype(object)
    return column.values


def _joint_codes(
    left_cols: list[Column], right_cols: list[Column], nulls_equal: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Dense int64 row keys shared by both sides.

    Per column, values are coded through one ``np.unique`` over the
    concatenation of both sides; per-column codes are then mixed into a
    running key that is re-densified after every column so magnitudes
    stay bounded by the total row count (no overflow for any arity).
    With *nulls_equal*, NULL gets its own code equal on both sides
    (SQL set-operation semantics); otherwise callers must pre-filter
    NULL rows.
    """
    nleft = len(left_cols[0]) if left_cols else 0
    keys: np.ndarray | None = None
    for lcol, rcol in zip(left_cols, right_cols):
        if isinstance(lcol, DictColumn) and isinstance(rcol, DictColumn):
            # Code the pair through the union dictionary instead of
            # np.unique over the concatenated object arrays; the codes
            # need not be dense, only order/equality-faithful, which
            # the sorted union guarantees.
            lkeys, rkeys = _pair_sources(lcol, rcol)
            codes = np.concatenate([lkeys, rkeys]).astype(np.int64)
            nuniques = int(codes.max()) + 1 if len(codes) else 0
        else:
            combined = np.concatenate([_pairable(lcol), _pairable(rcol)])
            uniques, codes = np.unique(combined, return_inverse=True)
            codes = codes.astype(np.int64)
            nuniques = len(uniques)
        if nulls_equal:
            null_mask = np.concatenate(
                [lcol.effective_mask(), rcol.effective_mask()]
            )
            codes[null_mask] = nuniques
        if keys is None:
            keys = codes
        else:
            keys = keys * (int(codes.max()) + 1 if len(codes) else 1) + codes
            _, keys = np.unique(keys, return_inverse=True)
            keys = keys.astype(np.int64)
    assert keys is not None
    return keys[:nleft], keys[nleft:]


def multi_column_join(
    left_cols: list[Column], right_cols: list[Column]
) -> tuple[np.ndarray, np.ndarray]:
    """Equi-join on a compound key of several aligned columns.

    Returns positions (not oids); the compound key matches when every
    component matches and none is NULL.  Output is ordered by
    (right position, left position), matching the reference kernel.
    """
    if len(left_cols) != len(right_cols) or not left_cols:
        raise GDKError("multi_column_join needs matching non-empty key lists")
    lvalid = np.ones(len(left_cols[0]), dtype=np.bool_)
    for col in left_cols:
        lvalid &= col.validity()
    rvalid = np.ones(len(right_cols[0]), dtype=np.bool_)
    for col in right_cols:
        rvalid &= col.validity()
    lkeys, rkeys = _joint_codes(left_cols, right_cols, nulls_equal=False)
    lpos = np.flatnonzero(lvalid)
    rpos = np.flatnonzero(rvalid)
    lkeys = lkeys[lpos]
    rkeys = rkeys[rpos]

    # Right probes ascend and matched left positions ascend within each
    # probe (stable sort), giving (right, left) order without a re-sort.
    order = np.argsort(lkeys, kind="stable")
    lsorted = lkeys[order]
    lo, hi = _span_search(lsorted, rkeys)
    flat, counts = _expand_spans(lo, hi)
    lpos_out = lpos[order[flat]]
    rpos_out = np.repeat(rpos, counts)
    return lpos_out, rpos_out


def rows_membership(
    left_cols: list[Column], right_cols: list[Column]
) -> np.ndarray:
    """Per-left-row membership test against the right row set.

    Used by EXCEPT/INTERSECT: rows compare as tuples and — per SQL set
    operation semantics — NULLs compare equal to NULLs.
    """
    if len(left_cols) != len(right_cols) or not left_cols:
        raise GDKError("rows_membership needs matching non-empty column lists")
    lkeys, rkeys = _joint_codes(left_cols, right_cols, nulls_equal=True)
    return np.isin(lkeys, rkeys)


# ----------------------------------------------------------------------
# reference (loop) implementations — property-test oracles only
# ----------------------------------------------------------------------
def _hash_index_reference(values: np.ndarray, mask: np.ndarray | None) -> dict:
    """value -> list of positions, skipping NULLs."""
    index: dict = {}
    if mask is None:
        for pos, value in enumerate(values.tolist()):
            index.setdefault(_canon_key(value), []).append(pos)
    else:
        for pos, (value, is_null) in enumerate(zip(values.tolist(), mask.tolist())):
            if not is_null:
                index.setdefault(_canon_key(value), []).append(pos)
    return index


def join_reference(left: BAT, right: BAT, nil_matches: bool = False) -> tuple[BAT, BAT]:
    """Tuple-at-a-time hash join (the seed implementation)."""
    _check_join_types(left, right)
    lmask = left.tail.mask
    rmask = right.tail.mask
    if nil_matches:
        index: dict = {}
        for pos, value in enumerate(left.tail.to_pylist()):
            index.setdefault(_canon_key(value), []).append(pos)
        louts: list[int] = []
        routs: list[int] = []
        for rpos, value in enumerate(right.tail.to_pylist()):
            for lpos in index.get(_canon_key(value), ()):
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
            for lpos in index.get(_canon_key(value), ()):
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
        matches = index.get(_canon_key(value))
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
        key = tuple(_canon_key(col.values[pos]) for col in left_cols)
        index.setdefault(key, []).append(int(pos))
    lpos_out: list[int] = []
    rpos_out: list[int] = []
    for pos in np.flatnonzero(rvalid):
        key = tuple(_canon_key(col.values[pos]) for col in right_cols)
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
                else _canon_key(col.values[pos])
                for col in right_cols
            )
        )
    nleft = len(left_cols[0])
    out = np.zeros(nleft, dtype=np.bool_)
    for pos in range(nleft):
        key = tuple(
            None
            if col.mask is not None and col.mask[pos]
            else _canon_key(col.values[pos])
            for col in left_cols
        )
        out[pos] = key in right_keys
    return out
