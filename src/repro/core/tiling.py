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
(first-declared dimension varies slowest).  Three kernel families back
:func:`tile_aggregate`, picked per (tile spec, aggregate):

* **prefix-sum sliding windows** — for ``sum``/``count``/``avg`` over
  *dense* rectangular specs (per dimension, a contiguous offset range)
  the window sum along each axis is one cumulative sum plus one clipped
  difference, applied axis by axis: ``O(|array| · ndim)`` regardless of
  tile size.  Integer inputs accumulate in int64 (wrapping arithmetic
  is exact mod 2^64, so any per-tile sum representable in int64 comes
  out exact — no float64 round-trip);
* **van Herk–Gil-Werman sliding extrema** — ``min``/``max`` over dense
  specs run the classic two-accumulation-sweeps-per-axis algorithm:
  ``O(|array| · ndim)`` independent of window length;
* **vectorized shifted scans** — the columnar equivalent of MonetDB's
  implementation (one shifted full-array pass per tile cell,
  ``O(|tile| · |array|)``) survives as the fallback for sparse specs
  and for ``prod``, and as the benchmark baseline
  :func:`shifted_scan_tile_aggregate`.

NULLs travel as explicit boolean masks end to end; no kernel widens
integer payloads through NaN-tagged float64 anymore.

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
from repro.gdk.aggregate import aggregate_atom
from repro.gdk.atoms import Atom
from repro.gdk.column import Column

#: aggregates the tiling engine supports.
TILE_AGGREGATES = ("sum", "avg", "min", "max", "count", "prod", "count_star")

#: tiles at or below this many cells stay on the shifted-scan path —
#: a 2×2 scan is fewer array passes than the prefix-sum machinery.
#: sliding extrema amortise later than sliding sums (vHGW runs ~3
#: accumulation passes per axis), hence the higher extrema cutoff.
#: Dispatch depends only on (spec, aggregate), never on the data, so
#: halo fragments and whole-array runs always pick the same kernel.
SCAN_CUTOFF_SUMS = 4
SCAN_CUTOFF_EXTREMA = 9


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


def shifted(grid: np.ndarray, deltas: tuple[int, ...]) -> np.ndarray:
    """Grid where entry *a* holds ``grid[a + deltas]``; NaN outside.

    Retained for tests/introspection; the production kernels shift
    values and validity masks separately (:func:`_shift_masked`)."""
    out = np.full(grid.shape, np.nan)
    window = _shift_slices(grid.shape, deltas)
    if window is not None:
        src, dst = window
        out[dst] = grid[src]
    return out


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


def in_bounds_count(shape: tuple[int, ...], spec: TileSpec) -> np.ndarray:
    """Per-anchor number of tile cells inside the array bounds.

    The tile is a cross product of per-dimension offset lists, so the
    count factors into a product of 1-D per-axis counts — ``O(Σ n_i)``
    work instead of one shifted scan per tile cell (closed form for
    contiguous offset ranges, one pass per offset otherwise)."""
    counts: np.ndarray | None = None
    for axis, (size, per_dim) in enumerate(zip(shape, spec.offsets)):
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
        view = [1] * len(shape)
        view[axis] = size
        axis_count = axis_count.reshape(view)
        counts = axis_count if counts is None else counts * axis_count
    assert counts is not None
    return np.broadcast_to(counts, shape).copy() if counts.shape != shape else counts


# ----------------------------------------------------------------------
# separable per-axis kernels (dense rectangular specs)
# ----------------------------------------------------------------------
def _sliding_sum_axis(arr: np.ndarray, lo: int, hi: int, axis: int) -> np.ndarray:
    """Clipped sliding-window sum ``out[i] = Σ arr[i+lo .. i+hi]`` along
    *axis* via one cumulative sum — O(n), window-size-independent.

    Integer arrays stay integer: int64 wraps mod 2^64, so the windowed
    difference is exact whenever the true window sum fits in int64."""
    arr = np.moveaxis(arr, axis, -1)
    n = arr.shape[-1]
    prefix = np.zeros(arr.shape[:-1] + (n + 1,), dtype=arr.dtype)
    np.cumsum(arr, axis=-1, out=prefix[..., 1:])
    upper = np.clip(np.arange(n) + hi + 1, 0, n)
    lower = np.clip(np.arange(n) + lo, 0, n)
    out = prefix[..., upper] - prefix[..., lower]
    return np.moveaxis(out, -1, axis)


def _extremum_identity(dtype: np.dtype, maximum: bool):
    if dtype == np.float64:
        return -np.inf if maximum else np.inf
    info = np.iinfo(dtype)
    return info.min if maximum else info.max


def _sliding_extremum_axis(
    arr: np.ndarray, lo: int, hi: int, axis: int, maximum: bool
) -> np.ndarray:
    """Clipped sliding min/max along *axis* — van Herk–Gil-Werman.

    Two accumulation sweeps over blocks of the window length give every
    window extremum in O(n) regardless of the window size: partition
    the (identity-padded) axis into blocks of ``w``, take running
    extrema forward (``fwd``) and backward (``bwd``) within each block;
    the window ``[j, j+w)`` spans at most two blocks, so its extremum
    is ``op(bwd[j], fwd[j+w-1])``."""
    arr = np.moveaxis(arr, axis, -1)
    n = arr.shape[-1]
    w = hi - lo + 1
    ident = _extremum_identity(arr.dtype, maximum)
    # Window k of the padded index space reads arr[k+lo .. k+hi].
    span = n + w - 1
    blocks = -(-span // w)
    padded = np.full(arr.shape[:-1] + (blocks * w,), ident, dtype=arr.dtype)
    k0, k1 = max(0, -lo), min(span, n - lo)
    if k1 > k0:
        padded[..., k0:k1] = arr[..., k0 + lo : k1 + lo]
    if w == 1:
        out = padded[..., :n]
        return np.moveaxis(out, -1, axis)
    op = np.maximum if maximum else np.minimum
    shaped = padded.reshape(arr.shape[:-1] + (blocks, w))
    fwd = op.accumulate(shaped, axis=-1).reshape(padded.shape)
    bwd = (
        op.accumulate(shaped[..., ::-1], axis=-1)[..., ::-1].reshape(padded.shape)
    )
    out = op(bwd[..., :n], fwd[..., w - 1 : w - 1 + n])
    return np.moveaxis(out, -1, axis)


# ----------------------------------------------------------------------
# the tiling engine
# ----------------------------------------------------------------------
def _numeric_grid(
    values: Column, shape: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """(values grid in its working dtype, validity grid)."""
    atom = values.atom
    if atom is Atom.DBL:
        work = values.values
    elif atom in (Atom.INT, Atom.LNG, Atom.OID, Atom.BIT):
        work = values.values.astype(np.int64, copy=False)
    else:
        raise GDKError(f"tiling needs numeric cells, not {atom.value}")
    return work.reshape(shape), values.validity().reshape(shape)


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


def _finalize(
    acc: np.ndarray, counts: np.ndarray, aggregate: str, input_atom: Atom
) -> Column:
    """Shared epilogue: NULL anchors (no contributing cell), atom choice."""
    empty = counts == 0
    if aggregate == "avg":
        with np.errstate(invalid="ignore", divide="ignore"):
            result = acc / counts
        result = np.where(empty, 0.0, result)
        return Column(Atom.DBL, result.reshape(-1), empty.reshape(-1))
    result = np.where(empty, acc.dtype.type(0), acc)
    out_atom = aggregate_atom(aggregate, input_atom)
    flat = result.reshape(-1)
    if out_atom is Atom.DBL and flat.dtype != np.float64:
        flat = flat.astype(np.float64)
    return Column(out_atom, flat, empty.reshape(-1))


def _dense_tile_aggregate(
    grid: np.ndarray,
    valid: np.ndarray,
    has_nulls: bool,
    shape: tuple[int, ...],
    ranges: list[tuple[int, int]],
    spec: TileSpec,
    aggregate: str,
    input_atom: Atom,
) -> Column:
    """Separable per-axis passes: O(|array| · ndim), tile-size-free."""
    if has_nulls:
        counts = valid.astype(np.int64)
        for axis, (lo, hi) in enumerate(ranges):
            counts = _sliding_sum_axis(counts, lo, hi, axis)
    else:
        counts = in_bounds_count(shape, spec)
    if aggregate == "count":
        return Column(Atom.LNG, counts.reshape(-1))
    if aggregate in ("sum", "avg"):
        acc = np.where(valid, grid, grid.dtype.type(0)) if has_nulls else grid
        for axis, (lo, hi) in enumerate(ranges):
            acc = _sliding_sum_axis(acc, lo, hi, axis)
        return _finalize(acc, counts, aggregate, input_atom)
    # min / max
    maximum = aggregate == "max"
    ident = _extremum_identity(grid.dtype, maximum)
    acc = np.where(valid, grid, ident) if has_nulls else grid
    for axis, (lo, hi) in enumerate(ranges):
        acc = _sliding_extremum_axis(acc, lo, hi, axis, maximum)
    return _finalize(acc, counts, aggregate, input_atom)


def _scan_tile_aggregate(
    grid: np.ndarray,
    valid: np.ndarray,
    shape: tuple[int, ...],
    spec: TileSpec,
    aggregate: str,
    input_atom: Atom,
) -> Column:
    """One shifted pass per tile cell — O(|tile| · |array|).

    The vectorized sibling of :func:`brute_force_tile_aggregate`:
    fallback for sparse specs and ``prod``, and the baseline the E19
    benchmarks pit the prefix-sum/sliding kernels against.  Mask-based,
    so integer aggregates stay integer-exact here too."""
    if aggregate == "count_star":
        counts = np.zeros(shape, dtype=np.int64)
        ones = np.ones(shape, dtype=np.bool_)
        for deltas in spec.deltas():
            counts += _shift_masked(ones, ones, deltas)[1]
        return Column(Atom.LNG, counts.reshape(-1))
    counts = np.zeros(shape, dtype=np.int64)
    acc: np.ndarray | None = None
    maximum = aggregate == "max"
    for deltas in spec.deltas():
        layer, ok = _shift_masked(grid, valid, deltas)
        counts += ok
        if aggregate in ("sum", "avg"):
            term = np.where(ok, layer, grid.dtype.type(0))
            acc = term if acc is None else acc + term
        elif aggregate == "prod":
            term = np.where(ok, layer, grid.dtype.type(1))
            acc = term if acc is None else acc * term
        elif aggregate in ("min", "max"):
            ident = _extremum_identity(grid.dtype, maximum)
            term = np.where(ok, layer, ident)
            op = np.maximum if maximum else np.minimum
            acc = term if acc is None else op(acc, term)
    if aggregate == "count":
        return Column(Atom.LNG, counts.reshape(-1))
    assert acc is not None
    return _finalize(acc, counts, aggregate, input_atom)


def tile_aggregate(
    values: Column, shape: tuple[int, ...], spec: TileSpec, aggregate: str
) -> Column:
    """Aggregate every anchor's tile; result is cell-aligned with the array.

    The returned column has one entry per cell (anchor); anchors whose
    tile contains no aggregatable cell are NULL.  ``count``/``count_star``
    return 0 instead of NULL for such anchors (anchors are always
    valid, so counts never go NULL).

    Kernel choice: dense rectangular specs take the separable
    prefix-sum (``sum``/``count``/``avg``) or van Herk–Gil-Werman
    (``min``/``max``) path, O(|array|) regardless of tile size;
    ``count_star`` is computed analytically from the shape alone;
    sparse specs and ``prod`` fall back to the vectorized shifted scan.
    """
    aggregate = aggregate.lower()
    _validate(values, shape, spec, aggregate)
    if aggregate == "count_star":
        return Column(Atom.LNG, in_bounds_count(shape, spec).reshape(-1))
    grid, valid = _numeric_grid(values, shape)
    ranges = spec.dense_ranges()
    cutoff = (
        SCAN_CUTOFF_EXTREMA if aggregate in ("min", "max") else SCAN_CUTOFF_SUMS
    )
    if ranges is not None and aggregate != "prod" and spec.cells_per_tile > cutoff:
        return _dense_tile_aggregate(
            grid, valid, values.has_nulls, shape, ranges, spec, aggregate,
            values.atom,
        )
    return _scan_tile_aggregate(grid, valid, shape, spec, aggregate, values.atom)


def shifted_scan_tile_aggregate(
    values: Column, shape: tuple[int, ...], spec: TileSpec, aggregate: str
) -> Column:
    """The shifted-scan engine, unconditionally — one pass per tile cell.

    Kept public as the oracle's vectorized sibling and the benchmark
    baseline the tile-size-independent kernels are measured against."""
    aggregate = aggregate.lower()
    _validate(values, shape, spec, aggregate)
    if aggregate == "count_star":
        grid = np.zeros(shape, dtype=np.int64)
        valid = np.ones(shape, dtype=np.bool_)
        return _scan_tile_aggregate(grid, valid, shape, spec, aggregate, values.atom)
    grid, valid = _numeric_grid(values, shape)
    return _scan_tile_aggregate(grid, valid, shape, spec, aggregate, values.atom)


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
        # count_star is the tiling engine's own name for COUNT(*).
        return Column.empty(aggregate_atom(aggregate.removesuffix("_star"), values.atom))
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


def _wrap_int64(value: int) -> int:
    """Two's-complement wrap into int64 — the LNG accumulator semantics."""
    return (value + 2**63) % 2**64 - 2**63


def brute_force_tile_aggregate(
    values: Column, shape: tuple[int, ...], spec: TileSpec, aggregate: str
) -> list:
    """O(anchors × tile) reference implementation for property tests.

    Integer ``sum``/``prod`` results wrap into int64 exactly like the
    vectorized kernels' LNG accumulators do, so an overflowing tile
    product is still a three-way agreement, not an oracle mismatch.
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
            out.append(_wrap_int64(total) if integral else total)
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
            out.append(_wrap_int64(product) if integral else product)
        else:
            raise GDKError(f"unsupported aggregate {aggregate!r}")
    return out
