"""Structural grouping — SciQL's array tiling (paper Section 2, Figure 1(d,e)).

Value-based SQL grouping collects rows whose *values* match; structural
grouping collects array cells whose *positions* relate to an anchor
point.  ``GROUP BY matrix[x:x+2][y:y+2]`` creates, for every valid
anchor ``(x, y)``, the tile of cells at relative positions
``{0,1}×{0,1}``; an aggregate then folds every tile into one value that
is "associated with the dimensional value(s) of the anchor point".

Two semantics from the paper drive this module:

* every valid anchor produces a group — including anchors whose tile
  sticks out of the array ("cells outside the array dimension ranges
  are ignored by the aggregation functions");
* holes (NULL cells) are ignored by aggregation; a tile consisting
  entirely of holes/out-of-range cells aggregates to NULL.

The engine works on the dense cell order used for array storage
(first-declared dimension varies slowest).  A *dense* spec (per
dimension, a contiguous offset range) is separable: the window runs
along one axis at a time, each pass reading the previous pass' buffer
and accumulating in place (``ufunc(..., out=)``) into the other of two
buffers.  The kernel of an axis depends on that axis' window width
alone (``w`` cells, :data:`NARROW_WIDTH` = 6), never on the data, so
halo fragments and whole-array runs always pick the same one:

===========  ===================  ==================================  ===========
axis width   aggregate            kernel, passes over the array       allocates
===========  ===================  ==================================  ===========
``w == 1``   any, offset 0        none — the axis is skipped          nothing
``w <= 6``   sum/avg/count,       shifted slices: one copy and        one buffer
             min/max, prod        ``w-1`` ``add`` / ``minimum`` /
             (prod: any ``w``)    ``maximum`` / ``multiply`` passes
``w > 6``    sum/avg/count        prefix sum along the axis, then     two buffers
                                  ``S[i+hi] - S[i+lo-1]`` by slices   for the call
                                  (interior + two clipped borders)
``w > 6``    min/max              van Herk–Gil-Werman block extrema   one padded
                                  (two running extrema and a merge)   copy
===========  ===================  ==================================  ===========

A call allocates its result plus at most one more accumulator (plus
the padded copy of a wide extremum axis).  Extrema compute in the
cell's own dtype (INT stays int32).  Integer sums accumulate in the
narrowest of int32 / int64 that ``cells_per_tile · max|v|`` (two
reductions over the cells) proves cannot wrap — int32 only for cells
no wider than that — and are widened once at the end; past int64 the
same kernels run on Python integers and a sum that does not fit
``lng`` is NULL, the engine's element-wise overflow rule.  ``prod``
has no such proof: integer products wrap in int64.  Without NULL
cells the counts stay per-axis vectors: they multiply straight into
the ``avg`` result's buffer as its divisor, and no per-anchor
validity grid is built unless an anchor's tile lies wholly outside.

Accumulation order is fixed: axes in declaration order; a narrow axis
adds its offsets in ascending order starting from the lowest in-range
one, independent of the anchor's position, so DBL sums over narrow
windows are bit-equal between a whole-array run and its halo
fragments; a wide axis differences one running sum that starts at the
first row of the slab it is given, so a DBL sum whose *first* axis is
wide may differ by an ulp between the two (which is why the optimizer
fragments ``sum``/``avg`` for integer cells only).

*Sparse* specs (hand-built offset lists with gaps or repeats) keep the
columnar equivalent of MonetDB's implementation: one shifted
full-array pass per tile cell, ``O(|tile| · |array|)``.

NULLs travel as explicit boolean masks end to end; no kernel widens
integer payloads through NaN-tagged float64.

:func:`tile_aggregate_fragment` computes one *halo fragment* of the
result: anchors ``[start, stop)`` of the linear cell order (the same
bounds ``mat.partition`` uses), evaluated over an input slab widened by
the tile's dim-0 offset extent.  Because every in-bounds tile cell of
the fragment's anchors lies inside the slab — and slab-edge clipping
coincides with array-edge clipping for exactly those anchors — packing
the fragments reproduces the sequential result byte for byte.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro.errors import DimensionError, GDKError
from repro.gdk.aggregate import _LNG_MAX, _LNG_MIN, aggregate_atom
from repro.gdk.atoms import Atom
from repro.gdk.column import Column

#: aggregates the tiling engine supports.
TILE_AGGREGATES = ("sum", "avg", "min", "max", "count", "prod", "count_star")

#: per axis, windows of at most this many cells run one shifted-slice
#: pass per offset; wider ones amortise a prefix sum or van Herk–
#: Gil-Werman block extrema.  Measured on 256², 512² and 1024² grids of
#: every cell dtype the sums cross over at 5–6 cells and the extrema at
#: 8–10; one width serves both (a 7–10 cell extremum pays ≤ 1.4×).
NARROW_WIDTH = 6


@dataclass(frozen=True)
class TileSpec:
    """A tile pattern: per dimension, the relative *rank* offsets.

    A range ``[x-1 : x+2]`` over a step-1 dimension becomes offsets
    ``[-1, 0, 1]``.  For step-``s`` dimensions only multiples of ``s``
    remain (other offsets can never hit a valid dimension value), and
    offsets are expressed in ranks (dimension units divided by step).
    """

    offsets: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.offsets:
            raise DimensionError("tile needs at least one dimension")
        for per_dim in self.offsets:
            if not per_dim:
                raise DimensionError("tile has an empty offset list")

    @property
    def ndim(self) -> int:
        return len(self.offsets)

    @property
    def cells_per_tile(self) -> int:
        n = 1
        for per_dim in self.offsets:
            n *= len(per_dim)
        return n

    def deltas(self) -> Iterator[tuple[int, ...]]:
        """All relative cell positions (cross product of offsets)."""
        return itertools.product(*self.offsets)

    def dense_ranges(self) -> Optional[list[tuple[int, int]]]:
        """Per-dimension ``(lo, hi)`` when every dimension's offsets form
        a contiguous integer range — the precondition of the separable
        prefix-sum / sliding-extrema kernels.  ``None`` for sparse specs
        (hand-built offset lists with gaps), which keep the shifted-scan
        path."""
        out: list[tuple[int, int]] = []
        for per_dim in self.offsets:
            lo, hi = min(per_dim), max(per_dim)
            if hi - lo + 1 != len(set(per_dim)) or len(set(per_dim)) != len(per_dim):
                return None
            out.append((lo, hi))
        return out

    def halo(self, dim: int = 0) -> tuple[int, int]:
        """Offset extent ``(lo, hi)`` of one dimension — the halo a
        fragment must widen its slab by along that axis."""
        per_dim = self.offsets[dim]
        return min(per_dim), max(per_dim)

    @classmethod
    def from_ranges(
        cls, ranges: list[tuple[int, int]], steps: list[int] | None = None
    ) -> "TileSpec":
        """Build from per-dimension half-open offset ranges.

        ``ranges[i] = (lo, hi)`` covers dimension-unit offsets
        ``lo .. hi-1`` relative to the anchor, mirroring the surface
        syntax ``A[x+lo : x+hi]``.
        """
        steps = steps or [1] * len(ranges)
        if len(steps) != len(ranges):
            raise DimensionError("ranges/steps length mismatch")
        per_dim: list[tuple[int, ...]] = []
        for (lo, hi), step in zip(ranges, steps):
            if hi <= lo:
                raise DimensionError(f"empty tile range [{lo}, {hi})")
            ranks = tuple(
                delta // step for delta in range(lo, hi) if delta % step == 0
            )
            if not ranks:
                raise DimensionError(
                    f"tile range [{lo}, {hi}) hits no valid value of a step-{step} dimension"
                )
            per_dim.append(ranks)
        return cls(tuple(per_dim))


def _axis_slice(axis: int, start: int, stop: int) -> tuple:
    """Index selecting ``[start, stop)`` along *axis*, everything else whole."""
    return (slice(None),) * axis + (slice(start, stop),)


def _shift_slices(shape, deltas):
    """(src, dst) slice tuples realising a clipped shift; None if empty."""
    src: list[slice] = []
    dst: list[slice] = []
    for size, delta in zip(shape, deltas):
        if delta >= 0:
            if delta >= size:
                return None
            src.append(slice(delta, size))
            dst.append(slice(0, size - delta))
        else:
            if -delta >= size:
                return None
            src.append(slice(0, size + delta))
            dst.append(slice(-delta, size))
    return tuple(src), tuple(dst)


def _shift_masked(
    grid: np.ndarray, valid: np.ndarray, deltas: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Dtype-preserving shift: (shifted values, shifted validity).

    Cells whose source falls outside the array come back invalid; the
    payload dtype is never widened."""
    out = np.zeros_like(grid)
    ok = np.zeros(grid.shape, dtype=np.bool_)
    window = _shift_slices(grid.shape, deltas)
    if window is not None:
        src, dst = window
        out[dst] = grid[src]
        ok[dst] = valid[src]
    return out, ok


def _axis_counts(shape: tuple[int, ...], spec: TileSpec) -> list[np.ndarray]:
    """Per axis, how many of that axis' offsets land inside the array for
    each anchor rank (closed form for contiguous offset ranges, one pass
    per offset otherwise).  The tile is a cross product of per-dimension
    offset lists, so an anchor's in-bounds cell count is the product of
    its per-axis entries."""
    counts: list[np.ndarray] = []
    for size, per_dim in zip(shape, spec.offsets):
        positions = np.arange(size, dtype=np.int64)
        lo, hi = min(per_dim), max(per_dim)
        if hi - lo + 1 == len(set(per_dim)) == len(per_dim):
            clipped_hi = np.minimum(positions + hi, size - 1)
            clipped_lo = np.maximum(positions + lo, 0)
            axis_count = np.maximum(clipped_hi - clipped_lo + 1, 0)
        else:
            axis_count = np.zeros(size, dtype=np.int64)
            for delta in per_dim:
                axis_count += (positions + delta >= 0) & (positions + delta < size)
        counts.append(axis_count)
    return counts


def _outer(vectors: list[np.ndarray], dtype) -> np.ndarray:
    """Broadcast product of per-axis vectors as one grid of *dtype*."""
    grid = None
    for axis, vector in enumerate(vectors):
        view = [1] * len(vectors)
        view[axis] = len(vector)
        factor = vector.astype(dtype).reshape(view)
        grid = factor if grid is None else grid * factor
    return grid


def in_bounds_count(shape: tuple[int, ...], spec: TileSpec) -> np.ndarray:
    """Per-anchor number of tile cells inside the array bounds —
    ``O(Σ n_i)`` work plus one product, no pass per tile cell."""
    return _outer(_axis_counts(shape, spec), np.int64)


# ----------------------------------------------------------------------
# separable per-axis kernels (dense rectangular specs)
# ----------------------------------------------------------------------
def _shifted_axis(
    src: np.ndarray, lo: int, hi: int, axis: int, op: np.ufunc, ident, out: np.ndarray
) -> None:
    """``out[i] = op(src[i+lo], .., src[i+hi])`` clipped to the array:
    one shifted-slice copy, then one in-place *op* pass per further
    offset, in ascending offset order.  *ident* fills the anchors the
    first in-range offset does not reach."""
    n = src.shape[axis]
    started = False
    for delta in range(lo, hi + 1):
        a, b = max(0, -delta), min(n, n - delta)
        if a >= b:
            continue  # this offset never lands inside the array
        dst = _axis_slice(axis, a, b)
        shifted = src[_axis_slice(axis, a + delta, b + delta)]
        if started:
            op(out[dst], shifted, out=out[dst])
            continue
        out[dst] = shifted
        out[_axis_slice(axis, 0, a)] = ident
        out[_axis_slice(axis, b, n)] = ident
        started = True
    if not started:
        out[...] = ident


def _cumsum_axis(src: np.ndarray, axis: int, out: np.ndarray) -> None:
    """Running sum of *src* along *axis* into *out* (which may be *src*).

    ``S[i] = S[i-1] + src[i]`` in that order either way; off the last
    axis, and when the slabs are at least as long as the axis, the sum
    walks whole contiguous slabs instead of striding through memory
    once per line (3 ms against 70 ms along axis 0 of a 2048² grid)."""
    n = src.shape[axis]
    if axis == src.ndim - 1 or n * n > src.size:
        np.cumsum(src, axis=axis, dtype=out.dtype, out=out)
        return
    lead = (slice(None),) * axis
    out[lead + (0,)] = src[lead + (0,)]
    for i in range(1, n):
        np.add(out[lead + (i - 1,)], src[lead + (i,)], out=out[lead + (i,)])


def _window_difference(
    prefix: np.ndarray, lo: int, hi: int, axis: int, out: np.ndarray
) -> None:
    """``out[i] = S[min(i+hi, n-1)] - S[i+lo-1]`` along *axis*, with
    ``S[-1] = 0``, for the inclusive running sum ``S`` = *prefix*: the
    clipped window sum, by slices — an interior run that reads shifted
    slices of ``S`` and the clipped borders either side (all-zero where
    the window lies before the array, the grand total past its end)."""
    n = prefix.shape[axis]
    total = prefix[_axis_slice(axis, n - 1, n)]
    a, b = min(n, max(0, -hi)), min(n, max(0, n - hi))
    out[_axis_slice(axis, 0, a)] = 0
    out[_axis_slice(axis, a, b)] = prefix[_axis_slice(axis, a + hi, b + hi)]
    out[_axis_slice(axis, b, n)] = total
    c, d = min(n, max(0, 1 - lo)), min(n, max(0, n - lo + 1))
    inner, past = _axis_slice(axis, c, d), _axis_slice(axis, d, n)
    np.subtract(out[inner], prefix[_axis_slice(axis, c + lo - 1, d + lo - 1)], out=out[inner])
    np.subtract(out[past], total, out=out[past])


def _extremum_identity(dtype: np.dtype, maximum: bool):
    if dtype.kind == "f":
        return -np.inf if maximum else np.inf
    info = np.iinfo(dtype)
    return info.min if maximum else info.max


def _block_extrema(
    src: np.ndarray, lo: int, hi: int, axis: int, op: np.ufunc, ident, out: np.ndarray
) -> None:
    """Clipped sliding extrema ``out[i] = op(src[i+lo .. i+hi])`` along
    *axis* — van Herk–Gil-Werman.  *out* may be *src* itself.

    *src* is first copied, shifted by *lo* and padded with *ident* to a
    whole number of ``w``-blocks, so that window ``k`` of the padded
    index space reads ``src[k+lo .. k+hi]``.  Running extrema forward
    (``fwd``) and backward (``bwd``) within the blocks give every window
    extremum in O(n) regardless of the window size: window ``[j, j+w)``
    spans at most two blocks, so its extremum is ``op(bwd[j],
    fwd[j+w-1])``.  Each running extremum is ``w-1`` passes over one
    cell of every block at a time (whole slabs, where
    ``ufunc.accumulate`` would walk the blocks cell by cell).  ``bwd``
    is only needed for ``j < n`` and lands in *out*; ``fwd`` overwrites
    the padded copy."""
    n = src.shape[axis]
    w = hi - lo + 1
    span = n + w - 1
    shape = list(src.shape)
    shape[axis] = -(-span // w) * w
    padded = np.full(shape, ident, dtype=src.dtype)
    k0, k1 = max(0, -lo), min(span, n - lo)
    if k1 > k0:
        padded[_axis_slice(axis, k0, k1)] = src[_axis_slice(axis, k0 + lo, k1 + lo)]
    lead = (slice(None),) * axis

    def blocks(array: np.ndarray, count: int) -> np.ndarray:
        """View of the first *count* blocks: *axis* split into (block, cell)."""
        head = array[_axis_slice(axis, 0, count * w)]
        return head.reshape(array.shape[:axis] + (count, w) + array.shape[axis + 1 :])

    def cell(j: int) -> tuple:
        return lead + (slice(None), j)

    whole = n // w
    source = blocks(padded, padded.shape[axis] // w)
    if whole:
        bwd = blocks(out, whole)
        bwd[cell(w - 1)] = source[cell(w - 1)][_axis_slice(axis, 0, whole)]
        for j in range(w - 2, -1, -1):
            cells = source[cell(j)][_axis_slice(axis, 0, whole)]
            op(bwd[cell(j + 1)], cells, out=bwd[cell(j)])
    if whole * w < n:  # the block the array ends in: keep its first cells only
        first = whole * w
        running = padded[_axis_slice(axis, first + w - 1, first + w)].copy()
        for k in range(first + w - 2, first - 1, -1):
            op(running, padded[_axis_slice(axis, k, k + 1)], out=running)
            if k < n:
                out[_axis_slice(axis, k, k + 1)] = running
    for j in range(1, w):
        op(source[cell(j - 1)], source[cell(j)], out=source[cell(j)])
    op(out, padded[_axis_slice(axis, w - 1, w - 1 + n)], out=out)


def _separable(
    src: np.ndarray,
    owned: bool,
    ranges: list[tuple[int, int]],
    op: np.ufunc,
    ident,
    dtype: np.dtype,
) -> np.ndarray:
    """Fold the window ``ranges[axis]`` with *op* along each axis in turn.

    *src* is read-only unless *owned* (a private buffer of *dtype*).
    Every pass writes a buffer of *dtype* and then owns it; the buffer
    it read becomes the next pass' output, so the call allocates two
    at most.  Returns a fresh array, never *src* itself unless owned."""
    spare: Optional[np.ndarray] = None

    def take() -> np.ndarray:
        nonlocal spare
        buffer, spare = spare, None
        return np.empty(src.shape, dtype=dtype) if buffer is None else buffer

    for axis, (lo, hi) in enumerate(ranges):
        if lo == hi == 0:
            continue
        width = hi - lo + 1
        if width <= NARROW_WIDTH or op is np.multiply:
            out = take()
            _shifted_axis(src, lo, hi, axis, op, ident, out)
            if owned:
                spare = src
        elif op is np.add:
            prefix = src if owned else take()
            _cumsum_axis(src, axis, prefix)
            out = take()
            _window_difference(prefix, lo, hi, axis, out)
            spare = prefix
        else:
            out = src if owned else take()
            _block_extrema(src, lo, hi, axis, op, ident, out)
        src, owned = out, True
    return src if owned else src.astype(dtype)


# ----------------------------------------------------------------------
# the tiling engine
# ----------------------------------------------------------------------
def _numeric_grid(
    values: Column, shape: tuple[int, ...]
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """(cells in their own dtype, validity grid or ``None`` without NULLs)."""
    atom = values.atom
    if atom in (Atom.DBL, Atom.INT, Atom.LNG, Atom.OID):
        cells = values.values
    elif atom is Atom.BIT:
        cells = values.values.view(np.uint8)
    else:
        raise GDKError(f"tiling needs numeric cells, not {atom.value}")
    valid = ~values.mask.reshape(shape) if values.has_nulls else None
    return cells.reshape(shape), valid


def _validate(values: Column, shape: tuple[int, ...], spec: TileSpec, aggregate: str):
    if aggregate not in TILE_AGGREGATES:
        raise GDKError(f"unsupported tile aggregate {aggregate!r}")
    cell_count = int(np.prod(shape)) if shape else 0
    if len(values) != cell_count:
        raise DimensionError(
            f"values length {len(values)} != cell count {cell_count}"
        )
    if spec.ndim != len(shape):
        raise DimensionError("tile dimensionality differs from array")


def _no_anchors(aggregate: str, input_atom: Atom) -> Column:
    """The result over zero anchors (an empty array or fragment)."""
    # count_star is the tiling engine's own name for COUNT(*).
    return Column.empty(aggregate_atom(aggregate.removesuffix("_star"), input_atom))


def _sum_dtype(cells: np.ndarray, terms: int) -> np.dtype:
    """Narrowest accumulator in which no sum of *terms* of the *cells*
    can wrap: ``terms · max|v|`` against the dtype's range (int32 is
    offered only to cells no wider than it); Python integers past int64."""
    if cells.dtype.kind == "f":
        return cells.dtype
    peak = terms * max(-int(cells.min()), int(cells.max()))
    for candidate in (np.dtype(np.int32), np.dtype(np.int64)):
        if cells.itemsize <= candidate.itemsize and peak <= np.iinfo(candidate).max:
            return candidate
    return np.dtype(object)


def _fold_plan(cells: np.ndarray, aggregate: str, terms: int):
    """(ufunc, identity, accumulator dtype) of one aggregate."""
    if aggregate in ("sum", "avg"):
        return np.add, 0, _sum_dtype(cells, terms)
    if aggregate == "prod":
        wide = cells.dtype if cells.dtype.kind == "f" else np.dtype(np.int64)
        return np.multiply, 1, wide
    maximum = aggregate == "max"
    return (
        np.maximum if maximum else np.minimum,
        _extremum_identity(cells.dtype, maximum),
        cells.dtype,
    )


def _finalize(
    acc: np.ndarray,
    aggregate: str,
    input_atom: Atom,
    counts: Optional[np.ndarray],
    axis_counts: Optional[list[np.ndarray]] = None,
) -> Column:
    """Shared epilogue: NULL anchors (no contributing cell), atom choice.

    The per-anchor cell counts come as a grid (*counts*) or, when no
    cell is NULL, as the per-axis vectors whose product they are."""
    overflow = None
    if aggregate == "avg":
        if acc.dtype == object:
            acc = acc.astype(np.float64)
        result = (
            _outer(axis_counts, np.float64)
            if counts is None
            else counts.astype(np.float64)
        )
        with np.errstate(invalid="ignore", divide="ignore"):
            np.true_divide(acc, result, out=result)
        out_atom = Atom.DBL
    else:
        result = acc
        if acc.dtype == object:  # exact sums: one that leaves lng is NULL
            overflow = np.asarray((acc < _LNG_MIN) | (acc > _LNG_MAX), dtype=np.bool_)
            result = np.where(overflow, 0, acc).astype(np.int64)
        out_atom = aggregate_atom(aggregate, input_atom)
    # NULL anchors carry a zero payload, like every kernel's NULLs.
    empty = overflow
    if counts is not None:
        uncounted = counts == 0
        if uncounted.any():
            result[uncounted] = 0
            empty = uncounted if empty is None else empty | uncounted
    else:
        for axis, count in enumerate(axis_counts):
            outside = (slice(None),) * axis + (count == 0,)
            if outside[axis].any():
                if empty is None:
                    empty = np.zeros(result.shape, dtype=np.bool_)
                empty[outside] = True
                result[outside] = 0
    mask = None if empty is None else empty.reshape(-1)
    return Column(out_atom, result.reshape(-1), mask)


def _dense_tile_aggregate(
    cells: np.ndarray,
    valid: Optional[np.ndarray],
    ranges: list[tuple[int, int]],
    spec: TileSpec,
    aggregate: str,
    input_atom: Atom,
) -> Column:
    """Separable per-axis passes: O(|array| · ndim) for any tile size."""
    terms = spec.cells_per_tile
    if valid is None:
        counts, axis_counts = None, _axis_counts(cells.shape, spec)
    else:
        axis_counts = None
        counts = _separable(valid, False, ranges, np.add, 0, _sum_dtype(valid, terms))
    if aggregate == "count":
        if counts is None:
            counts = _outer(axis_counts, np.int64)
        return Column(Atom.LNG, counts.reshape(-1))
    op, ident, dtype = _fold_plan(cells, aggregate, terms)
    src, owned = cells, False
    if valid is not None:
        src, owned = np.full(cells.shape, ident, dtype=dtype), True
        np.copyto(src, cells, where=valid)
    acc = _separable(src, owned, ranges, op, ident, dtype)
    return _finalize(acc, aggregate, input_atom, counts, axis_counts)


def _scan_tile_aggregate(
    cells: np.ndarray,
    valid: Optional[np.ndarray],
    spec: TileSpec,
    aggregate: str,
    input_atom: Atom,
) -> Column:
    """One shifted pass per tile cell — O(|tile| · |array|), for sparse
    specs.  The vectorized sibling of :func:`brute_force_tile_aggregate`,
    with the dense kernels' accumulator rule."""
    if valid is None:
        valid = np.ones(cells.shape, dtype=np.bool_)
    counts = np.zeros(cells.shape, dtype=np.int64)
    if aggregate == "count":
        for deltas in spec.deltas():
            counts += _shift_masked(valid, valid, deltas)[1]
        return Column(Atom.LNG, counts.reshape(-1))
    op, ident, dtype = _fold_plan(cells, aggregate, spec.cells_per_tile)
    cells = cells.astype(dtype, copy=False)
    acc = np.full(cells.shape, ident, dtype=dtype)
    for deltas in spec.deltas():
        layer, ok = _shift_masked(cells, valid, deltas)
        counts += ok
        layer[~ok] = ident
        op(acc, layer, out=acc)
    return _finalize(acc, aggregate, input_atom, counts)


def tile_aggregate(
    values: Column, shape: tuple[int, ...], spec: TileSpec, aggregate: str
) -> Column:
    """Aggregate every anchor's tile; result is cell-aligned with the array.

    The returned column has one entry per cell (anchor); anchors whose
    tile contains no aggregatable cell are NULL.  ``count``/``count_star``
    return 0 instead of NULL for such anchors (anchors are always
    valid, so counts never go NULL).

    ``count_star`` is computed analytically from the shape alone; dense
    rectangular specs run the separable per-axis kernels of the module
    docstring, O(|array|) for any tile size; sparse specs fall back to
    one shifted pass per tile cell.
    """
    aggregate = aggregate.lower()
    _validate(values, shape, spec, aggregate)
    if not len(values):
        return _no_anchors(aggregate, values.atom)
    if aggregate == "count_star":
        return Column(Atom.LNG, in_bounds_count(shape, spec).reshape(-1))
    cells, valid = _numeric_grid(values, shape)
    ranges = spec.dense_ranges()
    if ranges is None:
        return _scan_tile_aggregate(cells, valid, spec, aggregate, values.atom)
    return _dense_tile_aggregate(cells, valid, ranges, spec, aggregate, values.atom)


# ----------------------------------------------------------------------
# halo fragments (fragment-parallel tiling)
# ----------------------------------------------------------------------
def _column_view(column: Column, start: int, stop: int) -> Column:
    """Zero-copy sub-column (kernels never mutate their inputs)."""
    mask = column.mask[start:stop] if column.mask is not None else None
    return Column(column.atom, column.values[start:stop], mask)


def tile_fragment_bounds(
    cells: int,
    shape: tuple[int, ...],
    spec: TileSpec,
    start: int,
    stop: int,
) -> tuple[int, int]:
    """Dim-0 slab ``[slab_lo, slab_hi)`` covering anchors ``[start, stop)``
    plus their halo.

    The slab holds whole dim-0 rows, widened by the tile's dim-0 offset
    extent and clipped to the array.  Every in-bounds tile cell of the
    fragment's anchors lies inside the slab, and slab-edge clipping
    coincides with array-edge clipping for those anchors — so the
    fragment result equals the matching slice of the whole-array result
    byte for byte.
    """
    stride0 = cells // shape[0]
    row_lo = start // stride0
    row_hi = (stop - 1) // stride0
    lo0, hi0 = spec.halo(0)
    slab_lo = max(0, row_lo + min(lo0, 0))
    slab_hi = min(shape[0], row_hi + max(hi0, 0) + 1)
    return slab_lo, slab_hi


def tile_aggregate_fragment(
    values: Column,
    shape: tuple[int, ...],
    spec: TileSpec,
    aggregate: str,
    start: int,
    stop: int,
) -> Column:
    """Tile aggregate of the anchors ``[start, stop)`` only.

    *values* is the whole cell-aligned column; the kernel reads just
    the halo slab (a zero-copy view) and returns one result entry per
    anchor in the range, identical to
    ``tile_aggregate(...)[start:stop]``.
    """
    aggregate = aggregate.lower()
    _validate(values, shape, spec, aggregate)
    cells = len(values)
    if not 0 <= start <= stop <= cells:
        raise DimensionError(f"anchor range [{start}, {stop}) outside 0..{cells}")
    if start == stop:
        return _no_anchors(aggregate, values.atom)
    slab_lo, slab_hi = tile_fragment_bounds(cells, shape, spec, start, stop)
    stride0 = cells // shape[0]
    slab = _column_view(values, slab_lo * stride0, slab_hi * stride0)
    sub_shape = (slab_hi - slab_lo,) + tuple(shape[1:])
    whole = tile_aggregate(slab, sub_shape, spec, aggregate)
    offset = start - slab_lo * stride0
    return whole.slice(offset, offset + (stop - start))


def tile_members(
    shape: tuple[int, ...], spec: TileSpec, anchor_rank: tuple[int, ...]
) -> list[int]:
    """Linear cell positions of one anchor's tile (reference/brute force).

    Used by tests and by EXPLAIN-style introspection; the production
    path never materialises groups.
    """
    if len(anchor_rank) != len(shape):
        raise DimensionError("anchor dimensionality differs from array")
    strides: list[int] = []
    acc = 1
    for size in reversed(shape):
        strides.append(acc)
        acc *= size
    strides.reverse()
    members: list[int] = []
    for deltas in spec.deltas():
        position = 0
        valid = True
        for rank, delta, size, stride in zip(anchor_rank, deltas, shape, strides):
            target = rank + delta
            if target < 0 or target >= size:
                valid = False
                break
            position += target * stride
        if valid:
            members.append(position)
    return members


def brute_force_tile_aggregate(
    values: Column, shape: tuple[int, ...], spec: TileSpec, aggregate: str
) -> list:
    """O(anchors × tile) reference implementation for property tests.

    It pins the kernels' integer rule: a ``sum`` that does not fit
    ``lng`` is NULL; ``prod`` wraps into int64 (two's complement) like
    the vectorized kernels' accumulators do.
    """
    data = values.to_pylist()
    integral = values.atom is not Atom.DBL
    out: list = []
    for anchor in itertools.product(*(range(size) for size in shape)):
        members = tile_members(shape, spec, anchor)
        cell_values = [data[m] for m in members if data[m] is not None]
        if aggregate == "count_star":
            out.append(len(members))
        elif aggregate == "count":
            out.append(len(cell_values))
        elif not cell_values:
            out.append(None)
        elif aggregate == "sum":
            total = sum(cell_values)
            fits = not integral or _LNG_MIN <= total <= _LNG_MAX
            out.append(total if fits else None)
        elif aggregate == "avg":
            out.append(sum(cell_values) / len(cell_values))
        elif aggregate == "min":
            out.append(min(cell_values))
        elif aggregate == "max":
            out.append(max(cell_values))
        elif aggregate == "prod":
            product = 1
            for value in cell_values:
                product *= value
            out.append((product + 2**63) % 2**64 - 2**63 if integral else product)
        else:
            raise GDKError(f"unsupported aggregate {aggregate!r}")
    return out
