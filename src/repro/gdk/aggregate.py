"""Grouped and scalar aggregation kernels (MAL module ``aggr``).

Aggregates ignore NULL inputs — the paper relies on this for tiling:
"Holes and cells outside the array dimension ranges are ignored by the
aggregation functions" (Section 2).  A group whose every input is NULL
aggregates to NULL (COUNT is the exception and yields 0).

Rows whose group id is negative belong to no group (tiling uses this
for cells outside every tile) and are skipped entirely.

All grouped kernels are NumPy-vectorized, with no per-row Python loop.
The numeric ones scatter straight into per-group accumulators
(``np.bincount`` and ``ufunc.at``) without sorting; only string MIN/MAX,
COUNT(DISTINCT) and MEDIAN sort rows, by (group id, value).  A NULL-free
input grouped by non-negative ids is read in place, and one grouped by
:class:`~repro.gdk.group.GroupIds` takes its per-group row counts from
the ids (:func:`_row_counts`) instead of counting them again.

Integer SUM and PROD are exact; a total past ``lng`` is NULL, kept in
an :class:`ExactTotals` for the two readers that need the true value.
There is one mean rule, :func:`_means` — the exact total over the
count, correctly rounded: a grouped AVG is SUM and COUNT plus the
:func:`means` finisher, and the integer scalar and tile AVGs divide
through it too.  Fragment partials of MIN, MAX and COUNT merge through
the row kernels (MIN of MINs, SUM of COUNTs); only SUM and PROD
partials have a merge, :func:`merge_partials`, which reads the exact
totals.  The tuple-at-a-time oracles live with the tests.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.errors import GDKError, TypeError_
from repro.gdk.atoms import Atom, is_numeric
from repro.gdk.column import Column
from repro.gdk.group import GroupIds, Grouping

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
    ``COUNT(*)``, or an input only typed at run time).  An aggregate
    that does arithmetic takes no strings."""
    policy = AGGREGATES[name]
    if atom is Atom.STR and policy in ("widen", "dbl"):
        raise TypeError_(f"{name.upper()} needs a numeric argument, not str")
    if policy == "same":
        return atom
    if policy == "dbl" or (policy == "widen" and atom is Atom.DBL):
        return Atom.DBL
    return Atom.LNG


def _prepare(
    column: Column, grouping: Grouping
) -> tuple[np.ndarray | slice, np.ndarray, int]:
    """Valid (non-null, grouped) positions, their group ids, ngroups.

    When every row is valid — no NULL, and no negative id (a
    :class:`GroupIds` proves that without a pass) — the positions are
    the whole-column slice and the ids are returned as they are, so
    ``column.values[positions]`` is a view, not a gather.
    """
    if len(column) != len(grouping.groups):
        raise GDKError("aggregate input not aligned with grouping")
    groups = grouping.groups
    ids = groups.values
    if column.mask is None and (
        isinstance(groups, GroupIds) or not len(ids) or ids.min() >= 0
    ):
        return slice(None), ids, grouping.ngroups
    valid = ids >= 0
    valid &= column.validity()
    positions = np.flatnonzero(valid)
    return positions, ids[positions], grouping.ngroups


def _row_counts(column: Optional[Column], grouping: Grouping, ids: np.ndarray) -> np.ndarray:
    """Per-group counts of *ids*, the grouped rows of *column* (``None``:
    every row, as for ``COUNT(*)``).  Over a NULL-free input they are
    the counts its :class:`GroupIds` carry, read and never written;
    anything else (an :class:`ExactTotals` is never NULL-free) counts."""
    groups, ngroups = grouping.groups, grouping.ngroups
    null_free = column is None or column.mask is None
    if null_free and isinstance(groups, GroupIds) and len(groups.counts) == ngroups:
        return groups.counts
    return np.bincount(ids, minlength=ngroups)


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
    _, ids, _ = _prepare(column, grouping)
    return Column(Atom.LNG, _row_counts(column, grouping, ids).astype(np.int64))


def grouped_count_star(grouping: Grouping) -> Column:
    """Per-group row count (COUNT(*)): NULLs included."""
    ids = grouping.groups.values
    if not isinstance(grouping.groups, GroupIds):
        ids = ids[ids >= 0]
    return Column(Atom.LNG, _row_counts(None, grouping, ids).astype(np.int64))


_LNG_MIN, _LNG_MAX = -(2**63), 2**63 - 1


def _sums_stay_below(values: np.ndarray, limit: int) -> bool:
    """Whether ``rows · max|v| < limit``, so that no partial sum of the
    integer *values* reaches *limit*.  A narrow dtype's own range proves
    it without reading the values; otherwise two reductions decide."""
    rows = len(values)
    if not rows or rows << (8 * values.dtype.itemsize - 1) < limit:
        return True
    return rows * max(-int(values.min()), int(values.max())) < limit


class ExactTotals(Column):
    """An ``lng`` SUM or PROD column some of whose totals do not fit ``lng``.

    Readers see those totals as NULL — the element-wise overflow rule —
    while ``exact`` keeps every total as a Python integer (``None`` for
    a group without input).  Per-fragment partials travel this way
    through ``mat.pack`` so that the merge combines the true totals and
    applies the rule once, to the merged one.  (A product past ``lng``
    is kept as any value past ``lng`` of its sign: multiplied by another
    partial it stays past, unless that partial is 0.)
    """

    __slots__ = ("exact",)

    def __init__(self, values: np.ndarray, mask: np.ndarray, exact: np.ndarray):
        super().__init__(Atom.LNG, values, mask)
        self.exact = exact

    @classmethod
    def pack(cls, parts: list[Column]) -> "ExactTotals":
        """Concatenate partial columns, keeping every exact total."""
        exact = [
            part.exact if isinstance(part, ExactTotals)
            else np.where(part.effective_mask(), None, part.values.astype(object))
            for part in parts
        ]
        return cls(
            np.concatenate([part.values for part in parts]),
            np.concatenate([part.effective_mask() for part in parts]),
            np.concatenate(exact),
        )


def _exact_inputs(
    column: Column, grouping: Grouping, partials: bool
) -> tuple[np.ndarray, int, np.ndarray]:
    """``(group ids, ngroups, values)`` of the non-NULL grouped rows of
    an integer column.  Only over packed fragment *partials* do the
    exact totals an :class:`ExactTotals` carries count instead of its
    NULL mask; anywhere else (a derived table's SUM column, say) an
    overflowed total is the NULL SQL reports."""
    exact = column.exact if partials and isinstance(column, ExactTotals) else None
    if exact is None:
        positions, ids, ngroups = _prepare(column, grouping)
        return ids, ngroups, column.values[positions]
    if len(exact) != len(grouping.groups):
        raise GDKError("aggregate input not aligned with grouping")
    ids = grouping.groups.values
    present = np.fromiter((total is not None for total in exact), np.bool_, len(exact))
    positions = np.flatnonzero((ids >= 0) & present)
    return ids[positions], grouping.ngroups, exact[positions]


def _exact_totals(
    column: Column, grouping: Grouping, partials: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-group totals of an integer column, and which groups had
    no input.  Totals accumulate in int64 while that provably cannot
    wrap and in Python integers past it."""
    ids, ngroups, values = _exact_inputs(column, grouping, partials)
    exact_int64 = values.dtype != object and _sums_stay_below(values, 2**63)
    totals = np.zeros(ngroups, dtype=np.int64 if exact_int64 else object)
    np.add.at(totals, ids, values.astype(totals.dtype, copy=False))
    return totals, _row_counts(column, grouping, ids) == 0


def _exact_products(
    column: Column, grouping: Grouping, partials: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Per-group products of an integer column, exact wherever they fit
    ``lng``, and which groups had no input (see :func:`_products`)."""
    ids, ngroups, values = _exact_inputs(column, grouping, partials)
    return _products(values, ids, ngroups), _row_counts(column, grouping, ids) == 0


def _products(values: np.ndarray, ids: np.ndarray, ngroups: int) -> np.ndarray:
    """Per-group integer products: int64 when each provably fits, else
    an object array of Python integers exact wherever they fit ``lng``.

    A group whose factors' ``ceil(log2 |v|)`` sum to at most 62 cannot
    wrap at any step (no factor of an integer product shrinks it), so
    it multiplies in int64.  Any other group is 0 with a zero factor;
    otherwise ±1 factors only flip its sign and 64 or more factors of
    magnitude ≥ 2 put it past ``lng`` (≥ 2**64, kept as ±2**64), so at
    most 63 factors per group multiply as Python integers.
    """
    fits = np.zeros(ngroups, dtype=np.bool_)
    out = np.ones(ngroups, dtype=object)
    if values.dtype != object:
        magnitude = np.abs(values.astype(np.float64))
        mantissa, exponent = np.frexp(magnitude)
        # 2**k has exponent k+1; above 2**53 the double may have rounded.
        bits = exponent - ((mantissa == 0.5) & (magnitude < 2.0**53))
        fits = np.bincount(ids, weights=bits, minlength=ngroups) <= 62
        fast = fits[ids]
        prods = np.ones(ngroups, dtype=np.int64)
        np.multiply.at(prods, ids[fast], values[fast].astype(np.int64))
        if fits.all():
            return prods
        out[fits] = prods[fits].tolist()
        ids, values = ids[~fast], values[~fast].astype(object)
    has_zero = np.bincount(ids, weights=values == 0, minlength=ngroups) > 0
    negative = np.bincount(ids, weights=values < 0, minlength=ngroups) % 2 == 1
    big = np.abs(values) >= 2
    past = np.bincount(ids[big], minlength=ngroups) >= 64
    rest = big & ~(has_zero | past)[ids]
    for group_id, value in zip(ids[rest].tolist(), values[rest].tolist()):
        out[group_id] *= abs(value)
    out[past] = 2**64
    out[negative & ~fits] *= -1
    out[has_zero] = 0
    return out


def grouped_sum(column: Column, grouping: Grouping) -> Column:
    """Per-group sum; empty groups yield NULL.

    Integer sums are exact (:func:`_exact_totals`), and a total that
    does not fit ``lng`` is NULL — the element-wise overflow rule — in
    an :class:`ExactTotals` that remembers it for a partial merge."""
    if not is_numeric(column.atom):
        raise GDKError(f"sum over non-numeric column {column.atom}")
    if column.atom is Atom.DBL:
        positions, ids, ngroups = _prepare(column, grouping)
        sums = np.bincount(ids, weights=column.values[positions], minlength=ngroups)
        return Column(Atom.DBL, sums, mask=_row_counts(column, grouping, ids) == 0)
    return _lng_totals(*_exact_totals(column, grouping))


def _lng_totals(totals: np.ndarray, empty: np.ndarray) -> Column:
    """Exact per-group totals as an ``lng`` column, NULL past ``lng``."""
    if totals.dtype != object:
        return Column(Atom.LNG, totals, mask=empty)
    overflow = np.asarray((totals < _LNG_MIN) | (totals > _LNG_MAX), dtype=np.bool_)
    if not overflow.any():
        return Column(Atom.LNG, totals.astype(np.int64), mask=empty)
    exact = np.where(empty, None, totals)
    return ExactTotals(np.where(overflow, 0, totals).astype(np.int64), empty | overflow, exact)


def _means(totals: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Element-wise ``total / count`` of exact integer *totals* (int64 or
    Python integers, any shape), correctly rounded whatever their width;
    0.0 where the count is 0.  The one mean rule: grouped AVG
    (:func:`means`), integer scalar AVG and tile AVG all divide here."""
    empty = counts == 0
    divisors = np.where(empty, 1, counts)
    if totals.dtype != object and (
        not totals.size or -(2**53) < totals.min() and totals.max() < 2**53
    ):  # exact operands: the division rounds correctly
        quotients = totals.astype(np.float64) / divisors
    else:  # Python's int / int is correctly rounded
        pairs = zip(totals.ravel().tolist(), divisors.ravel().tolist())
        quotients = np.array([int(t) / d for t, d in pairs], dtype=np.float64)
    return np.where(empty, 0.0, quotients.reshape(totals.shape))


def means(sums: Column, counts: Column) -> Column:
    """Per-group AVG from the group's SUM and COUNT (``aggr.mean``):
    NULL where the count is 0.

    A DBL sum divides as it is.  An integer sum is exact — an
    :class:`ExactTotals` keeps the totals past ``lng`` it reports as
    NULL — so the mean is the exact total over the count (:func:`_means`).
    """
    if len(sums) != len(counts):
        raise GDKError("mean: sums and counts not aligned")
    counts = counts.values
    empty = counts == 0
    if sums.atom is Atom.DBL:
        with np.errstate(invalid="ignore", divide="ignore"):
            quotients = sums.values / counts
        return Column(Atom.DBL, np.where(empty, 0.0, quotients), mask=empty)
    totals = np.where(empty, 0, sums.exact) if isinstance(sums, ExactTotals) else sums.values
    return Column(Atom.DBL, _means(totals, counts), mask=empty)


def grouped_prod(column: Column, grouping: Grouping) -> Column:
    """Per-group product; empty groups yield NULL.

    Integer products are exact (:func:`_products`), and one that does
    not fit ``lng`` is NULL, kept for a partial merge as
    :func:`grouped_sum` keeps its totals."""
    if not is_numeric(column.atom):
        raise GDKError(f"prod over non-numeric column {column.atom}")
    if column.atom is Atom.DBL:
        positions, ids, ngroups = _prepare(column, grouping)
        prods = np.ones(ngroups, dtype=np.float64)
        np.multiply.at(prods, ids, column.values[positions])
        return Column(Atom.DBL, prods, mask=_row_counts(column, grouping, ids) == 0)
    return _lng_totals(*_exact_products(column, grouping))


def _grouped_extremum(column: Column, grouping: Grouping, largest: bool) -> Column:
    """Per-group min/max as a segmented reduction (no per-row loop)."""
    positions, ids, ngroups = _prepare(column, grouping)
    counts = _row_counts(column, grouping, ids)
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
def _valid_values(column: Column) -> np.ndarray:
    """The non-NULL values: the payload itself when nothing is NULL."""
    return column.values if column.mask is None else column.values[~column.mask]


def scalar_count(column: Column) -> int:
    """COUNT of non-NULL entries."""
    return len(column) - column.null_count()


def scalar_sum(column: Column) -> Any:
    """SUM over the column, exact for integers; NULL when no non-NULL
    entry exists or the total does not fit ``lng``."""
    values = _valid_values(column)
    if not len(values):
        return None
    if column.atom is Atom.DBL:
        return float(values.sum())
    total = _exact_sum(values)
    return total if _LNG_MIN <= total <= _LNG_MAX else None


def _exact_sum(values: np.ndarray) -> int:
    """Total of integer *values*: int64 while that cannot wrap, Python
    integers (exact at any size) past it."""
    if _sums_stay_below(values, 2**63):
        return int(values.sum(dtype=np.int64))
    return sum(values.tolist())


def scalar_prod(column: Column) -> Any:
    """PROD over the column, exact for integers; NULL when no non-NULL
    entry exists or the product does not fit ``lng``."""
    values = _valid_values(column)
    if not len(values):
        return None
    if column.atom is Atom.DBL:
        return float(np.multiply.reduce(values))
    product = _products(values, np.zeros(len(values), dtype=np.intp), 1)[0]
    return int(product) if _LNG_MIN <= product <= _LNG_MAX else None


def scalar_avg(column: Column) -> Any:
    """AVG over the column; NULL when no non-NULL entry exists.  An
    integer column's exact total divides by the one mean rule."""
    values = _valid_values(column)
    if not len(values):
        return None
    if column.atom not in (Atom.INT, Atom.LNG):
        return float(values.astype(np.float64, copy=False).mean())
    totals = np.array([_exact_sum(values)], dtype=object)
    return float(_means(totals, np.array([len(values)]))[0])


def scalar_min(column: Column) -> Any:
    """MIN over the column; NULL when no non-NULL entry exists."""
    values = _valid_values(column)
    if not len(values):
        return None
    if column.atom is Atom.STR:
        return str(values.astype(object).min())
    out = values.min()
    return float(out) if column.atom is Atom.DBL else int(out)


def scalar_max(column: Column) -> Any:
    """MAX over the column; NULL when no non-NULL entry exists."""
    values = _valid_values(column)
    if not len(values):
        return None
    if column.atom is Atom.STR:
        return str(values.astype(object).max())
    out = values.max()
    return float(out) if column.atom is Atom.DBL else int(out)


SCALAR_DISPATCH = {
    "count": scalar_count,
    "sum": scalar_sum,
    "prod": scalar_prod,
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
    values = _valid_values(column)
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
    counts = _row_counts(column, grouping, ids)
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
    counts = _row_counts(column, grouping, ids)
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
# partial-aggregate merging (mergetable fragment rejoin)
# ----------------------------------------------------------------------
def merge_partials(name: str, partials: Column, grouping: Grouping) -> Column:
    """Fold per-fragment SUM or PROD partials into the global per-group
    result (``aggr.mergesum`` / ``aggr.mergeprod``).

    ``partials`` holds one value per (fragment, local group); *grouping*
    maps each of those rows to its global group.  Partials past ``lng``
    (an :class:`ExactTotals`) combine their exact totals and apply the
    NULL rule once, to the merged total; any others merge by the row
    kernel, as MIN, MAX and COUNT partials always do.
    """
    if name not in ("sum", "prod"):
        raise GDKError(f"aggregate {name!r} has no partial merge")
    if isinstance(partials, ExactTotals):
        combine = _exact_totals if name == "sum" else _exact_products
        return _lng_totals(*combine(partials, grouping, partials=True))
    return GROUPED_DISPATCH[name](partials, grouping)


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
    values = _valid_values(column).astype(np.float64, copy=False)
    if len(values) < 2:
        return None
    return float(np.std(values, ddof=1))


def scalar_median(column: Column) -> Any:
    """Median of non-NULL values; NULL when none exist."""
    values = _valid_values(column).astype(np.float64, copy=False)
    if not len(values):
        return None
    return float(np.median(values))


GROUPED_DISPATCH["stddev"] = grouped_stddev
GROUPED_DISPATCH["median"] = grouped_median
SCALAR_DISPATCH["stddev"] = scalar_stddev
SCALAR_DISPATCH["median"] = scalar_median
