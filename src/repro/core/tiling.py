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
(first-declared dimension varies slowest).  A tile is a *box*: per
dimension, an inclusive range ``(lo, hi)`` of rank offsets (Figure
1(d,e) gives one contiguous range per dimension).  A box is separable:
the window runs along one axis at a time, each pass reading the
previous pass' buffer and accumulating in place (``ufunc(..., out=)``)
into a new one; malloc serves it from the buffer the pass before freed
(the heap policy of :mod:`repro.gdk.storage`).  The kernel of an axis
depends on that axis' window width alone (``w = hi - lo + 1`` cells,
:data:`NARROW_WIDTH` = 6), never on the data, so halo fragments and
whole-array runs always pick the same one:

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
lattice      any                  the kernel above, evaluated only    output
``(m, r)``                        at the anchors ``r, r+m, ..``:      shrinks to
                                  stride-``m`` slices, prefix sums    ``1/m``
                                  differenced at stride ``m``, every
                                  ``m``-th block extremum
===========  ===================  ==================================  ===========

A call holds its result plus at most one more accumulator (plus the
padded copy of a wide extremum axis) at a time.  Extrema compute in
the cell's own dtype (INT stays int32).
Integer sums accumulate in the narrowest of int32 / int64 that
``cells_per_tile · max|v|`` (two reductions over the cells) proves
cannot wrap — int32 only for cells no wider than that — and are
widened once at the end; past int64 the same kernels run on Python
integers and a sum that does not fit
``lng`` is NULL, the engine's element-wise overflow rule; an ``avg``
of int64 or Python-integer totals divides by the grouped AVG's mean
rule, correctly rounded at any width.  Integer
``prod`` follows the same rule: int64 when ``max|v| ** cells_per_tile``
fits ``lng``, Python integers otherwise, and a product past ``lng`` is
NULL, as grouped and scalar ``PROD`` are.  Without NULL
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

A *lattice* (``HAVING x MOD 2 = 0`` on a dimension; see
:mod:`repro.algebra.malgen`) keeps, per axis, the anchors of rank
``r + k·m`` only.  Each axis pass writes only those anchors — an axis
pass reads the previous pass' output, so the later axes already run over
the kept rows alone — and every kept anchor is computed by the same
operations in the same order as in the whole-array run, so the lattice
result is byte-equal to the whole result read at the lattice anchors.

NULLs travel as explicit boolean masks end to end; no kernel widens
integer payloads through NaN-tagged float64.

:func:`tile_aggregate_fragment` computes one *halo fragment* of the
result: anchors ``[start, stop)`` of the linear cell order (the same
bounds ``mat.partition`` uses), evaluated over an input slab widened by
the box's dim-0 range (:attr:`TileSpec.reach`).  Because every in-bounds
tile cell of the fragment's anchors lies inside the slab — and slab-edge
clipping coincides with array-edge clipping for exactly those anchors —
packing the fragments reproduces the sequential result byte for byte.

:class:`Tile` is what a tiling op computes — the array's shape, the
box, and the anchor lattice it keeps — and the only encoder and decoder
of the ops' JSON metadata constant ``{"shape": [...], "box": [[lo, hi],
...]}`` (plus ``"lattice": [[m, r], ...]`` and ``"compact": true``).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.errors import DimensionError, GDKError, MALError
from repro.gdk.aggregate import _LNG_MAX, _LNG_MIN, _means, aggregate_atom
from repro.gdk.atoms import Atom
from repro.gdk.column import Column

#: aggregates the tiling engine supports.
TILE_AGGREGATES = ("sum", "avg", "min", "max", "count", "prod", "count_star")

#: per axis ``(m, r)``: the anchors of rank ``r + k·m``, ``k = 0, 1, ..``
#: (``(1, 0)`` keeps every anchor of the axis).
Lattice = tuple[tuple[int, int], ...]

#: per axis, windows of at most this many cells run one shifted-slice
#: pass per offset; wider ones amortise a prefix sum or van Herk–
#: Gil-Werman block extrema.  Measured on 256², 512² and 1024² grids of
#: every cell dtype the sums cross over at 5–6 cells and the extrema at
#: 8–10; one width serves both (a 7–10 cell extremum pays ≤ 1.4×).
NARROW_WIDTH = 6


@dataclass(frozen=True)
class TileSpec:
    """A tile pattern: a box, per dimension the inclusive range ``(lo,
    hi)`` of relative *rank* offsets.

    A range ``[x-1 : x+2]`` over a step-1 dimension becomes ``(-1, 1)``.
    For step-``s`` dimensions only multiples of ``s`` remain (other
    offsets can never hit a valid dimension value), and offsets are
    expressed in ranks (dimension units divided by step).
    """

    box: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.box:
            raise DimensionError("tile needs at least one dimension")
        if any(lo > hi for lo, hi in self.box):
            raise DimensionError(f"tile box {self.box} has an empty range")

    @property
    def cells_per_tile(self) -> int:
        return math.prod(hi - lo + 1 for lo, hi in self.box)

    @property
    def reach(self) -> tuple[int, int]:
        """The dim-0 rows a fragment's slab adds before and after its
        anchors' own rows: ``(-min(lo, 0), max(hi, 0))``."""
        lo, hi = self.box[0]
        return -min(lo, 0), max(hi, 0)

    @property
    def halo(self) -> int:
        """The dim-0 halo, ``max(hi, 0) - min(lo, 0)`` rows: a one-cell
        tile off the anchor's row still widens its slab by one."""
        return sum(self.reach)

    @classmethod
    def from_ranges(
        cls, ranges: list[tuple[int, int]], steps: list[int] | None = None
    ) -> "TileSpec":
        """Build from per-dimension half-open offset ranges.

        ``ranges[i] = (lo, hi)`` covers dimension-unit offsets
        ``lo .. hi-1`` relative to the anchor, mirroring the surface
        syntax ``A[x+lo : x+hi]``; its box keeps the ranks of the
        multiples of the dimension's step among them.
        """
        steps = steps or [1] * len(ranges)
        if len(steps) != len(ranges):
            raise DimensionError("ranges/steps length mismatch")
        box: list[tuple[int, int]] = []
        for (lo, hi), step in zip(ranges, steps):
            if hi <= lo:
                raise DimensionError(f"empty tile range [{lo}, {hi})")
            first, last = -(-lo // step), (hi - 1) // step
            if first > last:
                raise DimensionError(
                    f"tile range [{lo}, {hi}) hits no valid value of a step-{step} dimension"
                )
            box.append((first, last))
        return cls(tuple(box))


def _axis_slice(axis: int, start: int, stop: Optional[int], step: int = 1) -> tuple:
    """Index selecting ``[start, stop)`` along *axis* (every *step*-th
    entry), everything else whole."""
    return (slice(None),) * axis + (slice(start, stop, step),)


def lattice_shape(shape: tuple[int, ...], lattice: Lattice) -> tuple[int, ...]:
    """Per axis, how many anchors of *lattice* the array has."""
    return tuple(len(range(r, size, m)) for size, (m, r) in zip(shape, lattice))


def _lattice_ranks(first: int, stop: int, step: int, residue: int, count: int):
    """The ranks ``[a, b)`` among ``count`` lattice anchors ``residue +
    k·step`` whose position lies in ``[first, stop)``."""
    a = min(count, max(0, -((residue - first) // step)))
    b = min(count, max(a, -((residue - stop) // step)))
    return a, b


def _strided(axis: int, a: int, b: int, step: int, offset: int) -> tuple:
    """Index of the positions ``offset + k·step`` for ranks ``[a, b)``
    (``a < b``) along *axis*."""
    return _axis_slice(axis, offset + a * step, offset + (b - 1) * step + 1, step)


def _axis_counts(
    shape: tuple[int, ...], spec: TileSpec, lattice: Optional[Lattice] = None
) -> list[np.ndarray]:
    """Per axis, how many of that axis' offsets land inside the array for
    each anchor rank, at the *lattice* anchors only when given.  The
    tile is a box, so an anchor's in-bounds cell count is the product of
    its per-axis entries."""
    counts: list[np.ndarray] = []
    for axis, (size, (lo, hi)) in enumerate(zip(shape, spec.box)):
        positions = np.arange(size, dtype=np.int64)
        if lattice is not None:
            step, residue = lattice[axis]
            positions = positions[residue::step]
        clipped_hi = np.minimum(positions + hi, size - 1)
        clipped_lo = np.maximum(positions + lo, 0)
        counts.append(np.maximum(clipped_hi - clipped_lo + 1, 0))
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


def in_bounds_count(
    shape: tuple[int, ...], spec: TileSpec, lattice: Optional[Lattice] = None
) -> np.ndarray:
    """Per-anchor number of tile cells inside the array bounds —
    ``O(Σ n_i)`` work plus one product, no pass per tile cell."""
    return _outer(_axis_counts(shape, spec, lattice), np.int64)


# ----------------------------------------------------------------------
# separable per-axis kernels
# ----------------------------------------------------------------------
def _shifted_axis(
    src: np.ndarray,
    lo: int,
    hi: int,
    axis: int,
    op: np.ufunc,
    ident,
    out: np.ndarray,
    step: int = 1,
    residue: int = 0,
) -> None:
    """``out[k] = op(src[i+lo], .., src[i+hi])`` for the anchors ``i =
    residue + k·step``, clipped to the array: one shifted-slice copy,
    then one in-place *op* pass per further offset, in ascending offset
    order.  *ident* fills the anchors the first in-range offset does not
    reach."""
    n, count = src.shape[axis], out.shape[axis]
    started = False
    for delta in range(lo, hi + 1):
        a, b = _lattice_ranks(-delta, n - delta, step, residue, count)
        if a >= b:
            continue  # this offset never lands inside the array
        dst = _axis_slice(axis, a, b)
        shifted = src[_strided(axis, a, b, step, residue + delta)]
        if started:
            op(out[dst], shifted, out=out[dst])
            continue
        out[dst] = shifted
        out[_axis_slice(axis, 0, a)] = ident
        out[_axis_slice(axis, b, count)] = ident
        started = True
    if not started:
        out[...] = ident


def _cumsum_axis(src: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """Running sum of *src* along *axis* into *out* (which may be *src*).

    ``S[i] = S[i-1] + src[i]`` in that order either way; off the last
    axis, and when the slabs are at least as long as the axis, the sum
    walks whole contiguous slabs instead of striding through memory
    once per line (3 ms against 70 ms along axis 0 of a 2048² grid)."""
    n = src.shape[axis]
    if axis == src.ndim - 1 or n * n > src.size:
        return np.cumsum(src, axis=axis, dtype=out.dtype, out=out)
    lead = (slice(None),) * axis
    out[lead + (0,)] = src[lead + (0,)]
    for i in range(1, n):
        np.add(out[lead + (i - 1,)], src[lead + (i,)], out=out[lead + (i,)])
    return out


def _window_difference(
    prefix: np.ndarray,
    lo: int,
    hi: int,
    axis: int,
    out: np.ndarray,
    step: int = 1,
    residue: int = 0,
) -> None:
    """``out[k] = S[min(i+hi, n-1)] - S[i+lo-1]`` along *axis* for the
    anchors ``i = residue + k·step``, with ``S[-1] = 0``, for the
    inclusive running sum ``S`` = *prefix*: the clipped window sum, by
    slices — an interior run that reads shifted slices of ``S`` and the
    clipped borders either side (all-zero where the window lies before
    the array, the grand total past its end)."""
    n, count = prefix.shape[axis], out.shape[axis]
    total = prefix[_axis_slice(axis, n - 1, n)]
    a, b = _lattice_ranks(-hi, n - hi, step, residue, count)
    out[_axis_slice(axis, 0, a)] = 0
    if a < b:
        out[_axis_slice(axis, a, b)] = prefix[_strided(axis, a, b, step, residue + hi)]
    out[_axis_slice(axis, b, count)] = total
    c, d = _lattice_ranks(1 - lo, n + 1 - lo, step, residue, count)
    inner, past = _axis_slice(axis, c, d), _axis_slice(axis, d, count)
    if c < d:
        np.subtract(
            out[inner], prefix[_strided(axis, c, d, step, residue + lo - 1)], out=out[inner]
        )
    np.subtract(out[past], total, out=out[past])


def _extremum_identity(dtype: np.dtype, maximum: bool):
    if dtype.kind == "f":
        return -np.inf if maximum else np.inf
    info = np.iinfo(dtype)
    return info.min if maximum else info.max


def _block_extrema(
    src: np.ndarray, lo: int, hi: int, axis: int, op: np.ufunc, ident, out: np.ndarray
) -> np.ndarray:
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
    return out


def _separable(
    src: np.ndarray,
    owned: bool,
    ranges: list[tuple[int, int]],
    op: np.ufunc,
    ident,
    dtype: np.dtype,
    lattice: Optional[Lattice] = None,
) -> np.ndarray:
    """Fold the window ``ranges[axis]`` with *op* along each axis in turn,
    at the *lattice* anchors only when given.

    *src* is read-only unless *owned* (a private buffer of *dtype*).
    Every pass writes a new buffer of *dtype* (or, for a running sum or
    extremum, its own *src* once owned) and then owns it; the owned
    buffer a pass has read is freed.  Returns a fresh array, never *src*
    itself unless owned."""
    for axis, (lo, hi) in enumerate(ranges):
        step, residue = lattice[axis] if lattice is not None else (1, 0)
        if lo == hi == 0 and step == 1:
            continue
        shape = list(src.shape)
        shape[axis] = len(range(residue, shape[axis], step))
        shape = tuple(shape)
        width = hi - lo + 1
        if width <= NARROW_WIDTH or op is np.multiply:
            out = np.empty(shape, dtype)
            _shifted_axis(src, lo, hi, axis, op, ident, out, step, residue)
        elif op is np.add:  # a running sum, in place once the buffer is ours
            src = _cumsum_axis(src, axis, src if owned else np.empty(src.shape, dtype))
            out = np.empty(shape, dtype)
            _window_difference(src, lo, hi, axis, out, step, residue)
        else:  # sliding extrema, in place once the buffer is ours
            out = src = _block_extrema(
                src, lo, hi, axis, op, ident, src if owned else np.empty(src.shape, dtype)
            )
            if step > 1:  # every step-th window extremum
                out = np.empty(shape, dtype)
                out[...] = src[_axis_slice(axis, residue, None, step)]
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
    if len(spec.box) != len(shape):
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


def _prod_dtype(cells: np.ndarray, terms: int) -> np.dtype:
    """Accumulator of a product of *terms* cells: the cells' own float
    dtype, int64 where ``max|v| ** terms`` fits ``lng`` (so no partial
    product can wrap), Python integers otherwise."""
    if cells.dtype.kind == "f":
        return cells.dtype
    peak = max(-int(cells.min()), int(cells.max())) if cells.size else 0
    return np.dtype(np.int64) if peak <= 1 or peak**terms <= _LNG_MAX else np.dtype(object)


def _fold_plan(cells: np.ndarray, aggregate: str, terms: int):
    """(ufunc, identity, accumulator dtype) of one aggregate."""
    if aggregate in ("sum", "avg"):
        return np.add, 0, _sum_dtype(cells, terms)
    if aggregate == "prod":
        return np.multiply, 1, _prod_dtype(cells, terms)
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
    """The epilogue: NULL anchors (no contributing cell), atom choice.

    The per-anchor cell counts come as a grid (*counts*) or, when no
    cell is NULL, as the per-axis vectors whose product they are."""
    overflow = None
    if aggregate == "avg":
        if acc.dtype.kind == "f" or acc.dtype == np.int32:  # exact in a double
            result = (
                _outer(axis_counts, np.float64)
                if counts is None
                else counts.astype(np.float64)
            )
            with np.errstate(invalid="ignore", divide="ignore"):
                np.true_divide(acc, result, out=result)
        else:  # int64 or Python-integer totals: the one mean rule
            result = _means(acc, _outer(axis_counts, np.int64) if counts is None else counts)
        out_atom = Atom.DBL
    else:
        result = acc
        if acc.dtype == object:  # exact totals: one that leaves lng is NULL
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


def tile_aggregate(
    values: Column,
    shape: tuple[int, ...],
    spec: TileSpec,
    aggregate: str,
    lattice: Optional[Lattice] = None,
) -> Column:
    """Aggregate every anchor's tile; result is cell-aligned with the array.

    The returned column has one entry per cell (anchor); anchors whose
    tile contains no aggregatable cell are NULL.  ``count``/``count_star``
    return 0 instead of NULL for such anchors (anchors are always
    valid, so counts never go NULL).  With a *lattice* it has one entry
    per lattice anchor, in cell order: the whole result read at those
    anchors, byte for byte.

    ``count_star`` is computed analytically from the shape alone; every
    other aggregate runs the separable per-axis kernels of the module
    docstring, O(|array| · ndim) for any tile size.
    """
    aggregate = aggregate.lower()
    _validate(values, shape, spec, aggregate)
    if not len(values) or lattice is not None and not all(lattice_shape(shape, lattice)):
        return _no_anchors(aggregate, values.atom)
    if aggregate == "count_star":
        return Column(Atom.LNG, in_bounds_count(shape, spec, lattice).reshape(-1))
    cells, valid = _numeric_grid(values, shape)
    terms = spec.cells_per_tile
    if valid is None:
        counts, axis_counts = None, _axis_counts(cells.shape, spec, lattice)
    else:
        axis_counts = None
        counts = _separable(
            valid, False, spec.box, np.add, 0, _sum_dtype(valid, terms), lattice
        )
    if aggregate == "count":
        if counts is None:
            counts = _outer(axis_counts, np.int64)
        return Column(Atom.LNG, counts.reshape(-1))
    op, ident, dtype = _fold_plan(cells, aggregate, terms)
    src, owned = cells, False
    if valid is not None:
        src, owned = np.full(cells.shape, ident, dtype=dtype), True
        np.copyto(src, cells, where=valid)
    acc = _separable(src, owned, spec.box, op, ident, dtype, lattice)
    return _finalize(acc, aggregate, values.atom, counts, axis_counts)


def lattice_cells(compact: Column, shape: tuple[int, ...], lattice: Lattice) -> Column:
    """A lattice result spread over the whole array: each lattice anchor
    at its own cell, NULL (zero payload) everywhere else."""
    window = tuple(slice(r, None, m) for m, r in lattice)
    kept = lattice_shape(shape, lattice)
    values = np.zeros(shape, dtype=compact.values.dtype)
    values[window] = compact.values.reshape(kept)
    mask = np.ones(shape, dtype=np.bool_)
    mask[window] = False if compact.mask is None else compact.mask.reshape(kept)
    return Column(compact.atom, values.reshape(-1), mask.reshape(-1))


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

    The slab holds whole dim-0 rows, widened by the box's dim-0
    :attr:`~TileSpec.reach` and clipped to the array.  Every in-bounds tile cell of the
    fragment's anchors lies inside the slab, and slab-edge clipping
    coincides with array-edge clipping for those anchors — so the
    fragment result equals the matching slice of the whole-array result
    byte for byte.
    """
    stride0 = cells // shape[0]
    row_lo = start // stride0
    row_hi = (stop - 1) // stride0
    before, after = spec.reach
    return max(0, row_lo - before), min(shape[0], row_hi + after + 1)


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
    return whole.view_slice(offset, offset + (stop - start))


# ----------------------------------------------------------------------
# the tiling ops' metadata
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Tile:
    """What one ``array.tileagg``/``array.tilepart`` computes: the
    anchors of an array of *shape* fold the box *spec*; a *lattice*
    keeps only its anchors, one row each when *compact*, otherwise at
    their own cells with NULL everywhere else.

    :meth:`to_json` and :meth:`from_json` are the metadata constant's
    one encoder and one decoder.
    """

    shape: tuple[int, ...]
    spec: TileSpec
    lattice: Optional[Lattice] = None
    compact: bool = False

    def to_json(self) -> str:
        meta: dict[str, Any] = {"shape": list(self.shape), "box": [list(b) for b in self.spec.box]}
        if self.lattice is not None:
            meta["lattice"] = [list(p) for p in self.lattice]
        if self.compact:
            meta["compact"] = True
        return json.dumps(meta)

    @staticmethod
    @functools.lru_cache(maxsize=1024)
    def from_json(text: str) -> "Tile":
        """Decode a metadata constant, memoised (prepared plans run the
        same one every time); :class:`MALError` when it is malformed."""

        def malformed(why: str) -> MALError:
            return MALError(f"tile metadata {text!r}: {why}")

        def pairs(key: str) -> tuple[tuple[int, int], ...]:
            value = meta[key]
            if not isinstance(value, list) or len(value) != len(shape) or not all(
                _ints(pair, 2) for pair in value
            ):
                raise malformed(f"{key} needs one integer pair per dimension")
            return tuple(map(tuple, value))

        try:
            meta = json.loads(text)
        except (TypeError, ValueError):
            raise malformed("not JSON") from None
        if not isinstance(meta, dict) or not {"shape", "box"} <= meta.keys() <= _TILE_KEYS:
            raise malformed("needs shape and box, and nothing but lattice and compact")
        shape = meta["shape"]
        if not _ints(shape) or not shape or min(shape) < 0:
            raise malformed("shape is not a list of sizes")
        box = pairs("box")
        if any(lo > hi for lo, hi in box):
            raise malformed("a box range has lo > hi")
        lattice = pairs("lattice") if "lattice" in meta else None
        if lattice is not None and not all(0 <= r < m for m, r in lattice):
            raise malformed("a lattice pair (m, r) needs 0 <= r < m")
        compact = meta.get("compact", False)
        if compact is not False and (compact is not True or lattice is None):
            raise malformed("compact is true, and only with a lattice")
        return Tile(tuple(shape), TileSpec(box), lattice, compact)


_TILE_KEYS = {"shape", "box", "lattice", "compact"}


def _ints(value: Any, length: Optional[int] = None) -> bool:
    """Is *value* a list of integers (of *length*, when given)?"""
    return (
        isinstance(value, list)
        and all(type(v) is int for v in value)
        and length in (None, len(value))
    )
