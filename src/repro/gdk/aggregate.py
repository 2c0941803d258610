"""Grouped and scalar aggregation kernels (MAL module ``aggr``).

Aggregates ignore NULL inputs — the paper relies on this for tiling:
"Holes and cells outside the array dimension ranges are ignored by the
aggregation functions" (Section 2).  A group whose every input is NULL
aggregates to NULL (COUNT is the exception and yields 0).

Rows whose group id is negative belong to no group (tiling uses this
for cells outside every tile) and are skipped entirely.

All grouped kernels are NumPy-vectorized segmented reductions: rows are
sorted by (group id, value) once and per-group results read off the
segment boundaries — no per-row Python loop.  The original loop
implementations survive with a ``_reference`` suffix as property-test
oracles and benchmark baselines.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.errors import GDKError
from repro.gdk.atoms import Atom, canon_key, is_numeric
from repro.gdk.column import Column
from repro.gdk.group import Grouping

#: aggregate name -> result atom policy: the aggregate typing table,
#: read through :func:`aggregate_atom` by the binder, these kernels, the
#: tiling kernels and the ``aggr`` MAL module.
AGGREGATES = {
    "sum": "widen",
    "prod": "widen",
    "avg": "dbl",
    "stddev": "dbl",
    "median": "dbl",
    "min": "same",
    "max": "same",
    "count": "lng",
}


def aggregate_atom(name: str, atom: Optional[Atom]) -> Optional[Atom]:
    """Result atom of aggregate *name* over an input of *atom* (``None``:
    ``COUNT(*)``, or an input only typed at run time)."""
    policy = AGGREGATES[name]
    if policy == "same":
        return atom
    if policy == "dbl" or (policy == "widen" and atom is Atom.DBL):
        return Atom.DBL
    return Atom.LNG


def _prepare(column: Column, grouping: Grouping) -> tuple[np.ndarray, np.ndarray, int]:
    """Valid (non-null, grouped) positions, their group ids, ngroups."""
    if len(column) != len(grouping.groups):
        raise GDKError("aggregate input not aligned with grouping")
    ids = grouping.groups.values
    valid = ids >= 0
    valid &= column.validity()
    positions = np.flatnonzero(valid)
    return positions, ids[positions], grouping.ngroups


def _group_value_sort(
    ids: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rows sorted by (group id, value); object (str) values supported."""
    by_value = np.argsort(values, kind="stable")
    by_group = np.argsort(ids[by_value], kind="stable")
    order = by_value[by_group]
    return ids[order], values[order]


def _segment_starts(sorted_ids: np.ndarray) -> np.ndarray:
    return np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])


def grouped_count(column: Column, grouping: Grouping) -> Column:
    """Per-group count of non-NULL entries."""
    positions, ids, ngroups = _prepare(column, grouping)
    counts = np.bincount(ids, minlength=ngroups).astype(np.int64)
    return Column(Atom.LNG, counts)


def grouped_count_star(grouping: Grouping) -> Column:
    """Per-group row count (COUNT(*)): NULLs included."""
    ids = grouping.groups.values
    counts = np.bincount(ids[ids >= 0], minlength=grouping.ngroups).astype(np.int64)
    return Column(Atom.LNG, counts)


_LNG_MIN, _LNG_MAX = -(2**63), 2**63 - 1


def _sums_stay_below(values: np.ndarray, limit: int) -> bool:
    """Whether ``rows · max|v| < limit``, so that no partial sum of the
    integer *values* reaches *limit*.  A narrow dtype's own range proves
    it without reading the values; otherwise two reductions decide."""
    rows = len(values)
    if not rows or rows << (8 * values.dtype.itemsize - 1) < limit:
        return True
    return rows * max(-int(values.min()), int(values.max())) < limit


class ExactSums(Column):
    """An ``lng`` SUM column some of whose totals do not fit ``lng``.

    Readers see those totals as NULL — the element-wise overflow rule —
    while ``exact`` keeps every total as a Python integer (``None`` for
    a group without input).  Per-fragment partial sums travel this way
    through ``mat.pack`` so that the merge adds the true totals and
    applies the rule once, to the merged one.
    """

    __slots__ = ("exact",)

    def __init__(self, values: np.ndarray, mask: np.ndarray, exact: np.ndarray):
        super().__init__(Atom.LNG, values, mask)
        self.exact = exact

    @classmethod
    def pack(cls, parts: list[Column]) -> "ExactSums":
        """Concatenate partial-sum columns, keeping every exact total."""
        exact = [
            part.exact if isinstance(part, ExactSums)
            else np.where(part.effective_mask(), None, part.values.astype(object))
            for part in parts
        ]
        return cls(
            np.concatenate([part.values for part in parts]),
            np.concatenate([part.effective_mask() for part in parts]),
            np.concatenate(exact),
        )


def _exact_totals(
    column: Column, grouping: Grouping, partials: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-group totals of an integer column, and which groups had
    no input.  Totals accumulate in int64 while that provably cannot
    wrap and in Python integers past it.  Only over packed fragment
    *partials* do the exact totals an :class:`ExactSums` carries count
    instead of its NULL mask; anywhere else (a derived table's SUM
    column, say) an overflowed total is the NULL SQL reports."""
    exact = column.exact if partials and isinstance(column, ExactSums) else None
    if exact is None:
        positions, ids, ngroups = _prepare(column, grouping)
        values = column.values[positions]
    else:
        if len(exact) != len(grouping.groups):
            raise GDKError("aggregate input not aligned with grouping")
        ids = grouping.groups.values
        present = np.fromiter((total is not None for total in exact), np.bool_, len(exact))
        positions = np.flatnonzero((ids >= 0) & present)
        ids, ngroups, values = ids[positions], grouping.ngroups, exact[positions]
    exact_int64 = values.dtype != object and _sums_stay_below(values, 2**63)
    totals = np.zeros(ngroups, dtype=np.int64 if exact_int64 else object)
    np.add.at(totals, ids, values.astype(totals.dtype, copy=False))
    return totals, np.bincount(ids, minlength=ngroups) == 0


def grouped_sum(column: Column, grouping: Grouping) -> Column:
    """Per-group sum; empty groups yield NULL.

    Integer sums are exact (:func:`_exact_totals`), and a total that
    does not fit ``lng`` is NULL — the element-wise overflow rule — in
    an :class:`ExactSums` that remembers it for a partial merge."""
    if not is_numeric(column.atom):
        raise GDKError(f"sum over non-numeric column {column.atom}")
    if column.atom is Atom.DBL:
        positions, ids, ngroups = _prepare(column, grouping)
        sums = np.bincount(ids, weights=column.values[positions], minlength=ngroups)
        return Column(Atom.DBL, sums, mask=np.bincount(ids, minlength=ngroups) == 0)
    return _lng_sums(*_exact_totals(column, grouping))


def _lng_sums(totals: np.ndarray, empty: np.ndarray) -> Column:
    """Exact per-group totals as an ``lng`` column, NULL past ``lng``."""
    if totals.dtype != object:
        return Column(Atom.LNG, totals, mask=empty)
    overflow = np.asarray((totals < _LNG_MIN) | (totals > _LNG_MAX), dtype=np.bool_)
    if not overflow.any():
        return Column(Atom.LNG, totals.astype(np.int64), mask=empty)
    exact = np.where(empty, None, totals)
    return ExactSums(np.where(overflow, 0, totals).astype(np.int64), empty | overflow, exact)


def _means(totals: np.ndarray, counts: np.ndarray) -> Column:
    """Per-group ``total / count`` of exact integer totals, correctly
    rounded whatever the totals' width; NULL where the count is 0."""
    empty = counts == 0
    divisors = np.where(empty, 1, counts)
    exact_in_double = totals.dtype != object and (
        not len(totals) or -(2**53) < totals.min() and totals.max() < 2**53
    )
    if exact_in_double:  # exact operands: the division rounds correctly
        means = totals.astype(np.float64) / divisors
    else:
        means = np.array([int(t) / int(d) for t, d in zip(totals, divisors)], dtype=np.float64)
    return Column(Atom.DBL, np.where(empty, 0.0, means), mask=empty)


def grouped_prod(column: Column, grouping: Grouping) -> Column:
    """Per-group product; empty groups yield NULL."""
    if not is_numeric(column.atom):
        raise GDKError(f"prod over non-numeric column {column.atom}")
    positions, ids, ngroups = _prepare(column, grouping)
    values = column.values[positions].astype(np.float64)
    prods = np.ones(ngroups, dtype=np.float64)
    np.multiply.at(prods, ids, values)
    counts = np.bincount(ids, minlength=ngroups)
    out_atom = aggregate_atom("prod", column.atom)
    data = prods if out_atom is Atom.DBL else np.round(prods).astype(np.int64)
    return Column(out_atom, data, mask=(counts == 0))


def grouped_avg(column: Column, grouping: Grouping) -> Column:
    """Per-group arithmetic mean as double; empty groups yield NULL.

    Over integers it is the exact total over the count, correctly
    rounded (:func:`_means`) — what merging fragment partials gives."""
    if not is_numeric(column.atom):
        raise GDKError(f"avg over non-numeric column {column.atom}")
    positions, ids, ngroups = _prepare(column, grouping)
    values = column.values[positions]
    if column.atom is not Atom.DBL and not _sums_stay_below(values, 2**53):
        totals, _ = _exact_totals(column, grouping)
        return _means(totals, np.bincount(ids, minlength=ngroups))
    # Doubles, and integers whose every partial sum a double holds exactly.
    sums = np.bincount(ids, weights=values.astype(np.float64), minlength=ngroups)
    counts = np.bincount(ids, minlength=ngroups)
    with np.errstate(invalid="ignore", divide="ignore"):
        means = sums / counts
    return Column(Atom.DBL, np.where(counts > 0, means, 0.0), mask=(counts == 0))


def _grouped_extremum(column: Column, grouping: Grouping, largest: bool) -> Column:
    """Per-group min/max as a segmented reduction (no per-row loop)."""
    positions, ids, ngroups = _prepare(column, grouping)
    counts = np.bincount(ids, minlength=ngroups)
    values = column.values[positions]
    if column.atom is Atom.STR:
        # Strings: sort by (group, value) and read the segment edges.
        values = values.astype(object)
        out: np.ndarray = np.full(ngroups, "", dtype=object)
        if len(values):
            sorted_ids, sorted_values = _group_value_sort(ids, values)
            starts = _segment_starts(sorted_ids)
            ends = np.r_[starts[1:], len(sorted_ids)] - 1
            pick = ends if largest else starts
            out[sorted_ids[starts]] = sorted_values[pick]
        return Column(column.atom, out, mask=(counts == 0))
    if column.atom is Atom.DBL:
        fill = -np.inf if largest else np.inf
        acc = np.full(ngroups, fill, dtype=np.float64)
    else:
        info = np.iinfo(column.values.dtype)
        fill = info.min if largest else info.max
        acc = np.full(ngroups, fill, dtype=column.values.dtype)
    if largest:
        np.maximum.at(acc, ids, values)
    else:
        np.minimum.at(acc, ids, values)
    acc = np.where(counts > 0, acc, 0)
    return Column(column.atom, acc.astype(column.values.dtype), mask=(counts == 0))


def grouped_min(column: Column, grouping: Grouping) -> Column:
    """Per-group minimum; empty groups yield NULL."""
    return _grouped_extremum(column, grouping, largest=False)


def grouped_max(column: Column, grouping: Grouping) -> Column:
    """Per-group maximum; empty groups yield NULL."""
    return _grouped_extremum(column, grouping, largest=True)


GROUPED_DISPATCH = {
    "sum": grouped_sum,
    "prod": grouped_prod,
    "avg": grouped_avg,
    "min": grouped_min,
    "max": grouped_max,
    "count": grouped_count,
}


def grouped(name: str, column: Column, grouping: Grouping) -> Column:
    """Dispatch a grouped aggregate by name."""
    try:
        fn = GROUPED_DISPATCH[name.lower()]
    except KeyError:
        raise GDKError(f"unknown aggregate {name!r}") from None
    return fn(column, grouping)


# ----------------------------------------------------------------------
# scalar (whole-column) aggregates
# ----------------------------------------------------------------------
def scalar_count(column: Column) -> int:
    """COUNT of non-NULL entries."""
    return len(column) - column.null_count()


def scalar_sum(column: Column) -> Any:
    """SUM over the column, exact for integers; NULL when no non-NULL
    entry exists or the total does not fit ``lng``."""
    valid = column.validity()
    if not valid.any():
        return None
    values = column.values[valid]
    if column.atom is Atom.DBL:
        return float(values.sum())
    if _sums_stay_below(values, 2**63):
        return int(values.sum(dtype=np.int64))
    total = sum(values.tolist())  # Python integers: exact at any size
    return total if _LNG_MIN <= total <= _LNG_MAX else None


def scalar_avg(column: Column) -> Any:
    """AVG over the column; NULL when no non-NULL entry exists."""
    valid = column.validity()
    if not valid.any():
        return None
    return float(column.values[valid].astype(np.float64).mean())


def scalar_min(column: Column) -> Any:
    """MIN over the column; NULL when no non-NULL entry exists."""
    valid = column.validity()
    if not valid.any():
        return None
    values = column.values[valid]
    if column.atom is Atom.STR:
        return str(values.astype(object).min())
    out = values.min()
    return float(out) if column.atom is Atom.DBL else int(out)


def scalar_max(column: Column) -> Any:
    """MAX over the column; NULL when no non-NULL entry exists."""
    valid = column.validity()
    if not valid.any():
        return None
    values = column.values[valid]
    if column.atom is Atom.STR:
        return str(values.astype(object).max())
    out = values.max()
    return float(out) if column.atom is Atom.DBL else int(out)


SCALAR_DISPATCH = {
    "count": scalar_count,
    "sum": scalar_sum,
    "avg": scalar_avg,
    "min": scalar_min,
    "max": scalar_max,
}


def scalar(name: str, column: Column) -> Any:
    """Dispatch a whole-column aggregate by name."""
    try:
        fn = SCALAR_DISPATCH[name.lower()]
    except KeyError:
        raise GDKError(f"unknown aggregate {name!r}") from None
    return fn(column)


def grouped_count_distinct(column: Column, grouping: Grouping) -> Column:
    """Per-group count of distinct non-NULL values (COUNT(DISTINCT x))."""
    positions, ids, ngroups = _prepare(column, grouping)
    values = column.values[positions]
    if column.atom is Atom.STR:
        values = values.astype(object)
    if not len(values):
        return Column(Atom.LNG, np.zeros(ngroups, dtype=np.int64))
    sorted_ids, sorted_values = _group_value_sort(ids, values)
    changed = sorted_values[1:] != sorted_values[:-1]
    if sorted_values.dtype.kind == "f":
        # NaN is one distinct value, as in np.unique / the group kernel.
        changed &= ~(np.isnan(sorted_values[1:]) & np.isnan(sorted_values[:-1]))
    fresh = np.r_[True, (sorted_ids[1:] != sorted_ids[:-1]) | changed]
    counts = np.bincount(sorted_ids[fresh], minlength=ngroups).astype(np.int64)
    return Column(Atom.LNG, counts)


def scalar_count_distinct(column: Column) -> int:
    """COUNT(DISTINCT x) over a whole column."""
    valid = column.validity()
    values = column.values[valid]
    if column.atom is Atom.STR:
        values = values.astype(object)
    return len(np.unique(values))


def grouped_stddev(column: Column, grouping: Grouping) -> Column:
    """Per-group sample standard deviation; NULL for groups with < 2 values.

    Two-pass (mean, then squared deviations) for numerical stability —
    the one-pass sum-of-squares formula cancels catastrophically for
    large means.
    """
    if not is_numeric(column.atom):
        raise GDKError(f"stddev over non-numeric column {column.atom}")
    positions, ids, ngroups = _prepare(column, grouping)
    values = column.values[positions].astype(np.float64)
    counts = np.bincount(ids, minlength=ngroups)
    sums = np.bincount(ids, weights=values, minlength=ngroups)
    safe_counts = np.where(counts > 0, counts, 1)
    means = sums / safe_counts
    deviations = values - means[ids] if len(values) else values
    squares = np.bincount(ids, weights=deviations * deviations, minlength=ngroups)
    divisors = np.where(counts > 1, counts - 1, 1)
    variance = np.clip(squares / divisors, 0.0, None)
    return Column(Atom.DBL, np.sqrt(variance), mask=(counts < 2))


def grouped_median(column: Column, grouping: Grouping) -> Column:
    """Per-group median of non-NULL values; empty groups yield NULL."""
    if not is_numeric(column.atom):
        raise GDKError(f"median over non-numeric column {column.atom}")
    positions, ids, ngroups = _prepare(column, grouping)
    values = column.values[positions].astype(np.float64)
    counts = np.bincount(ids, minlength=ngroups)
    mask = counts == 0
    out = np.zeros(ngroups, dtype=np.float64)
    if len(values):
        order = np.lexsort((values, ids))
        sorted_values = values[order]
        # Groups appear in id order once sorted, so group g starts at
        # sum(counts[:g]) and its median sits at the middle offsets.
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        lo = np.where(mask, 0, starts + (counts - 1) // 2)
        hi = np.where(mask, 0, starts + counts // 2)
        medians = (sorted_values[lo] + sorted_values[hi]) / 2.0
        # NaN poisons its group's median, as np.median does.
        has_nan = np.bincount(ids, weights=np.isnan(values), minlength=ngroups) > 0
        medians = np.where(has_nan, np.nan, medians)
        out = np.where(mask, 0.0, medians)
    return Column(Atom.DBL, out, mask)


# ----------------------------------------------------------------------
# partial-aggregate merging (mitosis/mergetable fragment rejoin)
# ----------------------------------------------------------------------
#: aggregates whose per-fragment partials can be merged into the exact
#: global result.  ``avg`` decomposes into (sum, count) partials and is
#: handled by :func:`merge_avg`; stddev/median/count-distinct are not
#: decomposable and force the optimizer to fall back to row-level
#: grouping.
MERGEABLE = {"sum", "prod", "min", "max", "count"}


def merge_partials(name: str, partials: Column, grouping: Grouping) -> Column:
    """Fold per-fragment partial aggregates into the global per-group result.

    ``partials`` holds one value per (fragment, local group); *grouping*
    maps each of those rows to its global group.  A NULL partial means
    the fragment saw only NULL inputs for that group and contributes
    nothing; a global group whose partials are all NULL aggregates to
    NULL — exactly the semantics of the row-level kernels, so merging
    reduces to running the matching grouped kernel over the partials:
    sum of sums, min of mins, max of maxes, and (for COUNT) sum of
    counts.
    """
    name = name.lower()
    if name not in MERGEABLE:
        raise GDKError(f"aggregate {name!r} has no partial merge")
    if name == "count":
        return grouped_sum(partials, grouping)
    if name == "sum" and isinstance(partials, ExactSums):
        # Partials past lng: add their exact totals, the NULL rule once.
        return _lng_sums(*_exact_totals(partials, grouping, partials=True))
    return GROUPED_DISPATCH[name](partials, grouping)


def merge_avg(sums: Column, counts: Column, grouping: Grouping) -> Column:
    """Merge (sum, count) partials into the global per-group mean.

    AVG is not directly mergeable (an average of fragment averages
    weights fragments equally), so mitosis emits per-fragment sum and
    count partials and this kernel recombines them: global mean =
    Σ partial sums / Σ partial counts, NULL where the count is zero.
    The sums are exact integers (partials past ``lng`` included), so the
    mean is the one :func:`grouped_avg` computes over the rows.
    """
    if len(sums) != len(counts) or len(sums) != len(grouping.groups):
        raise GDKError("merge_avg: misaligned partial columns")
    totals, _ = _exact_totals(sums, grouping, partials=True)
    count_totals, _ = _exact_totals(counts, grouping)
    return _means(totals, count_totals)


def first_occurrence(groups: Column, ngroups: int) -> np.ndarray:
    """First row position of each dense group id, in group-id order.

    Reconstructs the *extents* of a grouping from its row-aligned group
    ids — the fallback the mergetable optimizer uses when a consumer
    needs global extents that the fragmented grouping never built.
    """
    ids = groups.values
    out = np.full(ngroups, len(ids), dtype=np.int64)
    if len(ids):
        valid = ids >= 0
        np.minimum.at(out, ids[valid], np.flatnonzero(valid))
    if (out >= len(ids)).any():
        raise GDKError("first_occurrence: group id without a row")
    return out


def scalar_stddev(column: Column) -> Any:
    """Sample standard deviation; NULL with fewer than two values."""
    valid = column.validity()
    values = column.values[valid].astype(np.float64)
    if len(values) < 2:
        return None
    return float(np.std(values, ddof=1))


def scalar_median(column: Column) -> Any:
    """Median of non-NULL values; NULL when none exist."""
    valid = column.validity()
    values = column.values[valid].astype(np.float64)
    if not len(values):
        return None
    return float(np.median(values))


GROUPED_DISPATCH["stddev"] = grouped_stddev
GROUPED_DISPATCH["median"] = grouped_median
SCALAR_DISPATCH["stddev"] = scalar_stddev
SCALAR_DISPATCH["median"] = scalar_median


# ----------------------------------------------------------------------
# reference (loop) implementations — property-test oracles only
# ----------------------------------------------------------------------
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
