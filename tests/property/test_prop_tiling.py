"""Property tests for the tile-size-independent tiling kernels.

Three engines must agree on randomized inputs:

* :func:`brute_force_tile_aggregate` — the O(anchors × tile) Python
  oracle;
* :func:`shifted_scan_tile_aggregate` — the seed algorithm kept here as
  a NumPy baseline: one shifted full-array pass per tile cell;
* :func:`tile_aggregate` — the production dispatcher (shifted-slice
  passes for narrow axes, prefix sums by slices and van Herk–Gil-Werman
  block extrema for wide ones, analytic count_star).

The baseline enumerates a box's cells with :func:`itertools.product`
itself, so it shares no code with the kernels it checks.  The small
matrix covers aggregate × ndim (1–3) × box (negative offsets, boxes
wholly off the anchor, step>1 dimensions) × NULL density against the
brute-force oracle.  The wide matrix (shapes up to
40 per axis, windows up to 21 cells, so prefix-sum interiors, block
boundaries and windows wider than the array all occur; INT cells at
``INT_MIN``/``INT_MAX``) is checked against the baseline, which the
small matrix ties to the oracle.  One-cell tiles — what a constant cell
reference ``A[x-1][y]`` lowers to — shift inside, onto and beyond the
border.  Packing :func:`tile_aggregate_fragment` pieces must reproduce
the whole-array result byte for byte for the combinations the optimizer
actually fragments (counting/extrema always; sums over integer cells).
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gdk.aggregate import aggregate_atom
from repro.gdk.atoms import Atom
from repro.gdk.column import Column
from repro.core.tiling import (
    TILE_AGGREGATES,
    TileSpec,
    tile_aggregate,
    tile_aggregate_fragment,
)
from tests.oracles.tiling import brute_force_tile_aggregate
from tests.property.junk_heap import column_bytes, under_two_junks

INT_MIN, INT_MAX = -(2**31), 2**31 - 1


def shifted_scan_tile_aggregate(
    values: Column, shape: tuple, spec: TileSpec, aggregate: str
) -> Column:
    """The seed algorithm, O(|tile| · |array|): shift the whole array
    once per tile cell and fold the layers.  Integer cells accumulate
    in (wrapping) int64, which no case drawn here overflows in a sum;
    integer products accumulate in Python integers, and one past
    ``lng`` is NULL."""
    integral = values.atom is not Atom.DBL
    exact = integral and aggregate == "prod"
    dtype = object if exact else np.int64 if integral else np.float64
    cells = values.values.astype(dtype).reshape(shape)
    valid = values.validity().reshape(shape)
    top = np.iinfo(np.int64).max if integral else np.inf
    fold, ident = {
        "sum": (np.add, 0), "avg": (np.add, 0), "prod": (np.multiply, 1),
        "min": (np.minimum, top), "max": (np.maximum, -top - 1 if integral else -top),
    }.get(aggregate, (None, 0))
    counts = np.zeros(shape, dtype=np.int64)
    acc = np.full(shape, ident, dtype=cells.dtype)
    for deltas in itertools.product(*(range(lo, hi + 1) for lo, hi in spec.box)):
        src = tuple(slice(max(d, 0), max(min(n, n + d), 0)) for n, d in zip(shape, deltas))
        dst = tuple(slice(max(-d, 0), max(min(n, n - d), 0)) for n, d in zip(shape, deltas))
        ok = np.zeros(shape, dtype=np.bool_)
        ok[dst] = True if aggregate == "count_star" else valid[src]
        counts += ok
        if fold is not None:
            layer = np.full(shape, ident, dtype=cells.dtype)
            layer[dst] = np.where(valid[src], cells[src], ident)
            fold(acc, layer, out=acc)
    if fold is None:
        return Column(Atom.LNG, counts.reshape(-1))
    empty = counts == 0
    if aggregate == "avg":
        acc = acc / np.maximum(counts, 1)
    if exact:
        empty |= np.asarray((acc < -(2**63)) | (acc >= 2**63), dtype=np.bool_)
    acc[empty] = 0
    if exact:
        acc = acc.astype(np.int64)
    return Column(
        aggregate_atom(aggregate, values.atom), acc.reshape(-1), empty.reshape(-1)
    )


@st.composite
def tiling_case(draw, atom=Atom.INT):
    """(values column, shape, spec) with randomized holes."""
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 5)) for _ in range(ndim))
    box = []
    for _ in range(ndim):
        # a range built like the SQL surface: [x+lo : x+hi) / step
        lo = draw(st.integers(-4, 2))
        width = draw(st.integers(1, 4))
        step = draw(st.sampled_from([1, 1, 1, 2]))
        ranks = [delta // step for delta in range(lo, lo + width) if delta % step == 0]
        box.append((ranks[0], ranks[-1]) if ranks else (lo // step,) * 2)
    spec = TileSpec(tuple(box))
    cells = math.prod(shape)
    null_density = draw(st.sampled_from([0.0, 0.2, 0.9]))
    if atom is Atom.DBL:
        value = st.floats(-100, 100, allow_nan=False).map(lambda f: f / 7.0)
    else:
        value = st.integers(-30, 30)
    items = draw(
        st.lists(
            st.one_of(st.none(), value) if null_density else value,
            min_size=cells,
            max_size=cells,
        )
        if null_density != 0.9
        else st.lists(
            st.one_of(st.none(), st.none(), st.none(), value),
            min_size=cells,
            max_size=cells,
        )
    )
    return Column.from_pylist(atom, items), shape, spec


def _cells(draw, atom: Atom, count: int) -> Column:
    """*count* cells: INT values cluster at the dtype's limits (the
    extrema identities are values a cell may hold), NULLs at one of
    three densities."""
    if atom is Atom.DBL:
        value = st.floats(-100, 100, allow_nan=False).map(lambda f: f / 7.0)
    else:
        value = st.one_of(
            st.sampled_from([INT_MIN, INT_MIN + 1, -1, 0, 1, INT_MAX - 1, INT_MAX]),
            st.integers(-30, 30),
        )
    holes = draw(st.sampled_from([0, 1, 6]))
    cell = st.one_of(*[st.none()] * holes, value) if holes else value
    return Column.from_pylist(
        atom, draw(st.lists(cell, min_size=count, max_size=count))
    )


@st.composite
def wide_case(draw, atom=Atom.INT):
    """Dense windows up to 21 cells over shapes up to 40 per axis: every
    per-axis kernel, its block boundaries and clipped borders, and
    windows wider than the array."""
    ndim = draw(st.integers(1, 2))
    shape = tuple(draw(st.integers(1, 40)) for _ in range(ndim))
    ranges = []
    for _ in range(ndim):
        lo = draw(st.integers(-14, 6))
        ranges.append((lo, lo + draw(st.integers(1, 21))))
    return _cells(draw, atom, math.prod(shape)), shape, TileSpec.from_ranges(ranges)


@st.composite
def one_cell_case(draw, atom=Atom.INT):
    """One offset per dimension, inside, on and beyond the border."""
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 7)) for _ in range(ndim))
    spec = TileSpec(tuple((d, d) for d in (draw(st.integers(-n - 1, n + 1)) for n in shape)))
    return _cells(draw, atom, math.prod(shape)), shape, spec


def pack_fragments(values, shape, spec, aggregate, pieces) -> Column:
    """The fragments of *pieces* ``mat.partition`` ranges, concatenated."""
    cells = len(values)
    parts = []
    for index in range(pieces):
        start, stop = cells * index // pieces, cells * (index + 1) // pieces
        part = tile_aggregate_fragment(values, shape, spec, aggregate, start, stop)
        assert len(part) == stop - start
        parts.append(part)
    return Column(
        parts[0].atom,
        np.concatenate([p.values for p in parts]),
        np.concatenate([p.effective_mask() for p in parts]),
    )


def assert_same_bytes(got: Column, want: Column, context) -> None:
    """Same atom, NULLs and payload bytes (NULL payloads included).  DBL
    extrema compare by value: which of ``0.0`` / ``-0.0`` a window's
    minimum is depends on where its blocks start."""
    assert got.atom is want.atom, context
    assert got.effective_mask().tobytes() == want.effective_mask().tobytes(), context
    if got.atom is Atom.DBL:
        assert np.array_equal(got.values, want.values), context
    else:
        assert got.values.tobytes() == want.values.tobytes(), context


def assert_matches(column: Column, reference: list, float_ok: bool) -> None:
    produced = column.to_pylist()
    assert len(produced) == len(reference)
    for got, want in zip(produced, reference):
        if want is None:
            assert got is None
        elif float_ok and isinstance(want, float):
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
        else:
            assert got == want


class TestKernelsMatchOracle:
    @settings(max_examples=120, deadline=None)
    @given(tiling_case())
    def test_int_kernels_match_brute_force(self, case):
        values, shape, spec = case
        for aggregate in TILE_AGGREGATES:
            expected = brute_force_tile_aggregate(values, shape, spec, aggregate)
            assert_matches(
                tile_aggregate(values, shape, spec, aggregate),
                expected,
                float_ok=(aggregate == "avg"),
            )
            assert_matches(
                shifted_scan_tile_aggregate(values, shape, spec, aggregate),
                expected,
                float_ok=(aggregate == "avg"),
            )

    @settings(max_examples=60, deadline=None)
    @given(tiling_case(atom=Atom.DBL))
    def test_double_kernels_match_brute_force(self, case):
        values, shape, spec = case
        for aggregate in ("sum", "avg", "min", "max", "count"):
            expected = brute_force_tile_aggregate(values, shape, spec, aggregate)
            assert_matches(
                tile_aggregate(values, shape, spec, aggregate),
                expected,
                float_ok=True,
            )


    @settings(max_examples=80, deadline=None)
    @given(wide_case())
    def test_wide_int_kernels_match_baseline(self, case):
        values, shape, spec = case
        for aggregate in TILE_AGGREGATES:
            assert_matches(
                tile_aggregate(values, shape, spec, aggregate),
                shifted_scan_tile_aggregate(values, shape, spec, aggregate).to_pylist(),
                float_ok=(aggregate == "avg"),
            )

    @settings(max_examples=40, deadline=None)
    @given(wide_case(atom=Atom.DBL))
    def test_wide_double_kernels_match_baseline(self, case):
        values, shape, spec = case
        for aggregate in ("sum", "avg", "min", "max", "count"):
            assert_matches(
                tile_aggregate(values, shape, spec, aggregate),
                shifted_scan_tile_aggregate(values, shape, spec, aggregate).to_pylist(),
                float_ok=True,
            )

    @settings(max_examples=80, deadline=None)
    @given(one_cell_case())
    def test_one_cell_tiles_are_shifts(self, case):
        """``min`` over a one-cell tile is the cell reference ``A[x+d]``:
        the shifted cell, NULL where it is a hole or outside the array."""
        values, shape, spec = case
        cells = values.to_pylist()
        for aggregate in ("min", "max", "sum", "count"):
            assert_matches(
                tile_aggregate(values, shape, spec, aggregate),
                brute_force_tile_aggregate(values, shape, spec, aggregate),
                float_ok=False,
            )
        beyond = any(abs(d[0]) >= n for d, n in zip(spec.box, shape))
        shifted = tile_aggregate(values, shape, spec, "min").to_pylist()
        if beyond:
            assert shifted == [None] * len(cells)
        elif not any(d[0] for d in spec.box):
            assert shifted == cells


class TestJunkHeap:
    """Every kernel family, whole and in halo fragments, gives the same
    bytes whatever its freshly allocated buffers held before."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([Atom.INT, Atom.DBL]).flatmap(wide_case), st.integers(1, 4))
    def test_a_junk_filled_heap_changes_no_byte(self, case, pieces):
        values, shape, spec = case
        aggregates = TILE_AGGREGATES if values.atom is Atom.INT else ("sum", "avg", "min", "max")

        def compute():
            return [
                column_bytes(column)
                for aggregate in aggregates
                for column in (
                    tile_aggregate(values, shape, spec, aggregate),
                    pack_fragments(values, shape, spec, aggregate, pieces),
                )
            ]

        first, second = under_two_junks(compute)
        assert first == second


class TestHaloFragments:
    """Packing halo fragments reproduces the whole-array result."""

    #: the combinations mergetable fragments must be *byte*-identical.
    EXACT = ("count", "count_star", "min", "max", "sum", "prod", "avg")

    @settings(max_examples=80, deadline=None)
    @given(tiling_case(), st.integers(1, 6))
    def test_int_fragments_pack_exactly(self, case, pieces):
        values, shape, spec = case
        cells = len(values)
        for aggregate in self.EXACT:
            whole = tile_aggregate(values, shape, spec, aggregate)
            packed: list = []
            for index in range(pieces):
                start = cells * index // pieces
                stop = cells * (index + 1) // pieces
                fragment = tile_aggregate_fragment(
                    values, shape, spec, aggregate, start, stop
                )
                assert len(fragment) == stop - start
                packed.extend(fragment.to_pylist())
            assert packed == whole.to_pylist(), (aggregate, shape, spec)

    @settings(max_examples=40, deadline=None)
    @given(tiling_case(atom=Atom.DBL), st.integers(2, 4))
    def test_double_extrema_fragments_pack_exactly(self, case, pieces):
        """min/max/count are selection-exact even for float cells —
        the combinations the optimizer halo-fragments for DOUBLE."""
        values, shape, spec = case
        cells = len(values)
        for aggregate in ("min", "max", "count", "count_star"):
            whole = tile_aggregate(values, shape, spec, aggregate)
            packed: list = []
            for index in range(pieces):
                start = cells * index // pieces
                stop = cells * (index + 1) // pieces
                packed.extend(
                    tile_aggregate_fragment(
                        values, shape, spec, aggregate, start, stop
                    ).to_pylist()
                )
            assert packed == whole.to_pylist(), (aggregate, shape, spec)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(wide_case(), one_cell_case()), st.integers(2, 7))
    def test_wide_and_one_cell_int_fragments_are_byte_identical(self, case, pieces):
        values, shape, spec = case
        for aggregate in self.EXACT:
            assert_same_bytes(
                pack_fragments(values, shape, spec, aggregate, pieces),
                tile_aggregate(values, shape, spec, aggregate),
                (aggregate, shape, spec),
            )

    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(wide_case(atom=Atom.DBL), one_cell_case(atom=Atom.DBL)),
        st.integers(2, 7),
    )
    def test_wide_and_one_cell_double_fragments_are_byte_identical(self, case, pieces):
        values, shape, spec = case
        for aggregate in ("min", "max", "count", "count_star"):
            assert_same_bytes(
                pack_fragments(values, shape, spec, aggregate, pieces),
                tile_aggregate(values, shape, spec, aggregate),
                (aggregate, shape, spec),
            )
