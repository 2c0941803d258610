"""Structural grouping engine tests (the paper's core contribution)."""

import numpy as np
import pytest

from repro.errors import DimensionError, GDKError
from repro.gdk.atoms import Atom
from repro.gdk.column import Column
from repro.core.tiling import (
    TileSpec,
    in_bounds_count,
    tile_aggregate,
    tile_aggregate_fragment,
    tile_fragment_bounds,
)
from tests.oracles.tiling import brute_force_tile_aggregate, tile_members


def fig1c_values():
    """The matrix of Figure 1(c), cell order x-major."""
    grid = {
        (0, 0): 0, (0, 1): -1, (0, 2): -2, (0, 3): -3,
        (1, 0): None, (1, 1): 1, (1, 2): -1, (1, 3): -2,
        (2, 0): None, (2, 1): None, (2, 2): 4, (2, 3): -1,
        (3, 0): None, (3, 1): None, (3, 2): None, (3, 3): 9,
    }
    return Column.from_pylist(
        Atom.INT, [grid[(x, y)] for x in range(4) for y in range(4)]
    )


class TestTileSpec:
    def test_from_ranges_basic(self):
        spec = TileSpec.from_ranges([(0, 2), (0, 2)])
        assert spec.box == ((0, 1), (0, 1))
        assert spec.cells_per_tile == 4

    def test_from_ranges_centered(self):
        spec = TileSpec.from_ranges([(-1, 2)])
        assert spec.box == ((-1, 1),)

    def test_step_filters_offsets(self):
        # On a step-2 dimension only even offsets hit valid values.
        spec = TileSpec.from_ranges([(0, 4)], steps=[2])
        assert spec.box == ((0, 1),)  # rank offsets 0 and 1
        # ... and the ranks of a negative range's even offsets
        assert TileSpec.from_ranges([(-3, 4)], steps=[2]).box == ((-1, 1),)
        assert TileSpec.from_ranges([(0, 6)], steps=[2]).box == ((0, 2),)

    def test_step_without_hits_rejected(self):
        with pytest.raises(DimensionError):
            TileSpec.from_ranges([(1, 2)], steps=[2])

    def test_empty_range_rejected(self):
        with pytest.raises(DimensionError):
            TileSpec.from_ranges([(2, 2)])

    def test_empty_spec_rejected(self):
        with pytest.raises(DimensionError):
            TileSpec(())

    def test_box_range_inverted_rejected(self):
        with pytest.raises(DimensionError):
            TileSpec(((1, 0),))

    def test_cells_and_halo_of_a_box(self):
        spec = TileSpec(((-1, 2), (0, 1)))
        assert spec.cells_per_tile == 8
        assert (spec.reach, spec.halo) == ((1, 2), 3)
        # the anchor's own row counts: a one-cell tile off it widens by one
        assert TileSpec(((-3, -3), (0, 0))).halo == 3
        assert TileSpec(((2, 2),)).reach == (0, 2)


class TestFigure1Tiling:
    """Exact reproduction of Figure 1(d)/(e)."""

    def test_avg_2x2_tiles(self):
        values = fig1c_values()
        spec = TileSpec.from_ranges([(0, 2), (0, 2)])
        out = tile_aggregate(values, (4, 4), spec, "avg")
        by_anchor = {
            (x, y): out.get(x * 4 + y) for x in range(4) for y in range(4)
        }
        assert by_anchor[(1, 1)] == pytest.approx(4 / 3)  # 1, -1, 4 (one hole)
        assert by_anchor[(1, 3)] == pytest.approx(-1.5)  # -2, -1
        assert by_anchor[(3, 3)] == pytest.approx(9.0)  # corner: single cell
        assert by_anchor[(3, 1)] is None  # all holes

    def test_count_ignores_holes(self):
        values = fig1c_values()
        spec = TileSpec.from_ranges([(0, 2), (0, 2)])
        out = tile_aggregate(values, (4, 4), spec, "count")
        assert out.get(1 * 4 + 1) == 3
        assert out.get(3 * 4 + 1) == 0

    def test_count_star_counts_in_bounds_cells(self):
        values = fig1c_values()
        spec = TileSpec.from_ranges([(0, 2), (0, 2)])
        out = tile_aggregate(values, (4, 4), spec, "count_star")
        assert out.get(0) == 4  # interior anchor
        assert out.get(3 * 4 + 3) == 1  # corner anchor


class TestAggregates:
    @pytest.fixture
    def simple(self):
        return Column.from_pylist(Atom.INT, [1, 2, 3, 4])  # 2x2

    def test_sum(self, simple):
        spec = TileSpec.from_ranges([(0, 2), (0, 2)])
        out = tile_aggregate(simple, (2, 2), spec, "sum")
        assert out.to_pylist() == [10, 6, 7, 4]

    def test_min_max(self, simple):
        spec = TileSpec.from_ranges([(0, 2), (0, 2)])
        assert tile_aggregate(simple, (2, 2), spec, "min").to_pylist() == [1, 2, 3, 4]
        assert tile_aggregate(simple, (2, 2), spec, "max").to_pylist() == [4, 4, 4, 4]

    def test_prod(self, simple):
        spec = TileSpec.from_ranges([(0, 2), (0, 2)])
        assert tile_aggregate(simple, (2, 2), spec, "prod").to_pylist() == [24, 8, 12, 4]

    def test_avg_type_is_double(self, simple):
        spec = TileSpec.from_ranges([(0, 1), (0, 1)])
        out = tile_aggregate(simple, (2, 2), spec, "avg")
        assert out.atom is Atom.DBL

    def test_double_input(self):
        values = Column.from_pylist(Atom.DBL, [0.5, 1.5])
        spec = TileSpec.from_ranges([(0, 2)])
        out = tile_aggregate(values, (2,), spec, "sum")
        assert out.to_pylist() == [2.0, 1.5]

    def test_1d_array(self):
        values = Column.from_pylist(Atom.INT, [1, 2, 3, 4, 5])
        spec = TileSpec.from_ranges([(-1, 2)])
        out = tile_aggregate(values, (5,), spec, "sum")
        assert out.to_pylist() == [3, 6, 9, 12, 9]

    def test_3d_array(self):
        values = Column.from_pylist(Atom.INT, list(range(8)))
        spec = TileSpec.from_ranges([(0, 2), (0, 2), (0, 2)])
        out = tile_aggregate(values, (2, 2, 2), spec, "sum")
        assert out.get(0) == sum(range(8))
        assert out.get(7) == 7

    def test_unknown_aggregate(self, simple):
        spec = TileSpec.from_ranges([(0, 1), (0, 1)])
        with pytest.raises(GDKError):
            tile_aggregate(simple, (2, 2), spec, "median")

    def test_misaligned_values(self, simple):
        spec = TileSpec.from_ranges([(0, 1), (0, 1)])
        with pytest.raises(DimensionError):
            tile_aggregate(simple, (3, 3), spec, "sum")

    def test_rank_mismatch(self, simple):
        spec = TileSpec.from_ranges([(0, 1)])
        with pytest.raises(DimensionError):
            tile_aggregate(simple, (2, 2), spec, "sum")


class TestMembersAndBruteForce:
    def test_tile_members_interior(self):
        spec = TileSpec.from_ranges([(0, 2), (0, 2)])
        members = tile_members((4, 4), spec, (1, 1))
        assert sorted(members) == [5, 6, 9, 10]

    def test_tile_members_clipped(self):
        spec = TileSpec.from_ranges([(0, 2), (0, 2)])
        assert tile_members((4, 4), spec, (3, 3)) == [15]

    def test_brute_force_matches_engine(self):
        values = fig1c_values()
        spec = TileSpec.from_ranges([(-1, 2), (0, 2)])
        for aggregate in ("sum", "avg", "min", "max", "count", "count_star"):
            fast = tile_aggregate(values, (4, 4), spec, aggregate).to_pylist()
            slow = brute_force_tile_aggregate(values, (4, 4), spec, aggregate)
            for f, s in zip(fast, slow):
                if isinstance(s, float):
                    assert f == pytest.approx(s)
                else:
                    assert f == s

    def test_in_bounds_count(self):
        spec = TileSpec.from_ranges([(-1, 2), (-1, 2)])
        counts = in_bounds_count((3, 3), spec)
        assert counts[1, 1] == 9
        assert counts[0, 0] == 4
        assert counts[0, 1] == 6


class TestIntegerExactness:
    """Integer sums/products must not round-trip through float64.

    The seed kernel accumulated in NaN-tagged float64 and rounded back,
    silently losing exactness above 2^53; the mask-based kernels
    accumulate integer inputs in the narrowest integer that provably
    cannot wrap, in Python integers past int64, and a sum that leaves
    ``lng`` is NULL.
    """

    def test_sum_near_2_to_60(self):
        base = 2**60
        items = [base + 1, base + 3, None, base + 7]
        values = Column.from_pylist(Atom.LNG, items)
        spec = TileSpec.from_ranges([(0, 2), (0, 2)])
        out = tile_aggregate(values, (2, 2), spec, "sum")
        expected = brute_force_tile_aggregate(values, (2, 2), spec, "sum")
        assert out.to_pylist() == expected
        # the float64 path would have lost the +1/+3/+7 low bits
        assert out.get(0) == 2 * base + base + 1 + 3 + 7

    def test_bigint_sum_past_lng_is_null(self):
        """cells_per_tile · max|v| ≥ 2^63: the call recomputes in Python
        integers; a sum that leaves lng is NULL, the rest stay exact."""
        big = 2**62
        items = [big, big, 5, -big, None, 7]
        values = Column.from_pylist(Atom.LNG, items)
        spec = TileSpec.from_ranges([(0, 2)])
        out = tile_aggregate(values, (6,), spec, "sum")
        assert out.to_pylist() == [None, big + 5, 5 - big, -big, 7, 7]
        assert out.to_pylist() == brute_force_tile_aggregate(values, (6,), spec, "sum")
        # the average of the overflowing tile is still a number
        avg = tile_aggregate(values, (6,), spec, "avg").to_pylist()
        assert avg[0] == float(big)
        assert avg == pytest.approx(
            brute_force_tile_aggregate(values, (6,), spec, "avg")
        )

    def test_bigint_sum_fragments_agree_on_the_null(self):
        # the overflow proof is taken per slab; the answer must not depend on it
        big = 2**62
        items = [big, big, big, 1, 2, 3, 4, 5]
        values = Column.from_pylist(Atom.LNG, items)
        spec = TileSpec.from_ranges([(0, 3)])
        whole = tile_aggregate(values, (8,), spec, "sum")
        assert whole.to_pylist()[:4] == [None, None, big + 3, 6]
        packed = []
        for start in range(0, 8, 2):
            packed += tile_aggregate_fragment(
                values, (8,), spec, "sum", start, start + 2
            ).to_pylist()
        assert packed == whole.to_pylist()

    def test_int_sums_at_the_dtype_limits(self):
        # nine INT_MAX cells do not fit the int32 accumulator small cells get
        top = 2**31 - 1
        values = Column(Atom.INT, np.full(25, top, dtype=np.int32))
        spec = TileSpec.from_ranges([(-1, 2), (-1, 2)])
        out = tile_aggregate(values, (5, 5), spec, "sum")
        assert out.atom is Atom.LNG
        assert out.get(2 * 5 + 2) == 9 * top
        assert out.get(0) == 4 * top
        low = Column(Atom.INT, np.full(25, -(2**31), dtype=np.int32))
        assert tile_aggregate(low, (5, 5), spec, "sum").get(12) == -9 * 2**31
        assert tile_aggregate(low, (5, 5), spec, "avg").get(12) == -float(2**31)

    def test_prod_above_2_to_53(self):
        # (2^27 + 1)^2 is not representable in float64
        factor = 2**27 + 1
        values = Column.from_pylist(Atom.LNG, [factor, factor])
        spec = TileSpec.from_ranges([(0, 2)])
        out = tile_aggregate(values, (2,), spec, "prod")
        assert out.get(0) == factor * factor
        assert float(factor) * float(factor) != factor * factor

    def test_prod_past_lng_is_null(self):
        # 2**32 squared wraps to 0 in int64; the engine's rule is NULL.
        values = Column.from_pylist(Atom.LNG, [2**32, 2**32, 3, None, -(2**31)])
        spec = TileSpec.from_ranges([(0, 2)])
        out = tile_aggregate(values, (5,), spec, "prod")
        assert out.to_pylist() == [None, 3 * 2**32, 3, -(2**31), -(2**31)]
        assert out.to_pylist() == brute_force_tile_aggregate(values, (5,), spec, "prod")

    def test_min_max_preserve_integer_values(self):
        base = 2**60
        values = Column.from_pylist(Atom.LNG, [base + 1, base + 2, base + 3, None])
        spec = TileSpec.from_ranges([(-1, 2)])
        out = tile_aggregate(values, (4,), spec, "max")
        assert out.to_pylist() == [base + 2, base + 3, base + 3, base + 3]


class TestKernelDispatch:
    """Every box takes the O(|array|) kernels, whatever its place."""

    def test_window_larger_than_array(self):
        values = Column.from_pylist(Atom.INT, [1, 2, 3])
        spec = TileSpec.from_ranges([(-5, 6)])
        assert tile_aggregate(values, (3,), spec, "sum").to_pylist() == [6, 6, 6]
        assert tile_aggregate(values, (3,), spec, "max").to_pylist() == [3, 3, 3]

    def test_one_sided_windows(self):
        values = Column.from_pylist(Atom.INT, [1, 2, 3, 4, 5, 6])
        ahead = TileSpec.from_ranges([(2, 7)])  # strictly to the right
        out = tile_aggregate(values, (6,), ahead, "sum")
        assert out.to_pylist() == [3 + 4 + 5 + 6, 4 + 5 + 6, 5 + 6, 6, None, None]
        behind = TileSpec.from_ranges([(-6, 0)])  # strictly to the left
        out = tile_aggregate(values, (6,), behind, "min")
        assert out.to_pylist() == [None, 1, 1, 1, 1, 1]

    def test_string_cells_rejected(self):
        values = Column.from_pylist(Atom.STR, ["a", "b"])
        spec = TileSpec.from_ranges([(0, 2)])
        with pytest.raises(GDKError):
            tile_aggregate(values, (2,), spec, "min")


class TestAllocation:
    """A call allocates its result plus at most one more accumulator."""

    @pytest.mark.parametrize("width", [3, 17])
    @pytest.mark.parametrize("aggregate", ["sum", "min", "avg"])
    def test_peak_is_bounded_by_the_result(self, aggregate, width):
        import tracemalloc

        rng = np.random.default_rng(3)
        values = Column(Atom.INT, rng.integers(0, 256, 256 * 256).astype(np.int32))
        lo = -(width // 2)
        spec = TileSpec.from_ranges([(lo, lo + width)] * 2)
        tile_aggregate(values, (256, 256), spec, aggregate)  # warm caches
        tracemalloc.start()
        try:
            out = tile_aggregate(values, (256, 256), spec, aggregate)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * out.values.nbytes, (peak, out.values.nbytes)


class TestHaloFragments:
    def test_fragment_bounds_cover_halo(self):
        spec = TileSpec.from_ranges([(-1, 2), (-1, 2)])
        # anchors 20..40 of an 8x8 grid live in rows 2..5 (inclusive)
        assert tile_fragment_bounds(64, (8, 8), spec, 20, 40) == (1, 6)
        # clipping at the array edges
        assert tile_fragment_bounds(64, (8, 8), spec, 0, 8) == (0, 2)
        assert tile_fragment_bounds(64, (8, 8), spec, 56, 64) == (6, 8)

    def test_fragment_bounds_one_sided_halo(self):
        ahead = TileSpec.from_ranges([(2, 4), (0, 1)])
        # the slab must still include the anchors' own rows
        assert tile_fragment_bounds(64, (8, 8), ahead, 0, 8) == (0, 4)
        behind = TileSpec.from_ranges([(-3, -1), (0, 1)])
        assert tile_fragment_bounds(64, (8, 8), behind, 56, 64) == (4, 8)

    def test_fragments_pack_to_whole(self):
        values = fig1c_values()
        spec = TileSpec.from_ranges([(-1, 2), (0, 2)])
        for aggregate in ("sum", "avg", "min", "max", "count", "count_star"):
            whole = tile_aggregate(values, (4, 4), spec, aggregate)
            for pieces in (1, 2, 3, 5, 16):
                packed: list = []
                for index in range(pieces):
                    start = 16 * index // pieces
                    stop = 16 * (index + 1) // pieces
                    packed.extend(
                        tile_aggregate_fragment(
                            values, (4, 4), spec, aggregate, start, stop
                        ).to_pylist()
                    )
                assert packed == whole.to_pylist(), (aggregate, pieces)

    def test_empty_fragment(self):
        values = fig1c_values()
        spec = TileSpec.from_ranges([(0, 2), (0, 2)])
        out = tile_aggregate_fragment(values, (4, 4), spec, "sum", 7, 7)
        assert len(out) == 0
        assert out.atom is Atom.LNG

    def test_fragment_range_validated(self):
        values = fig1c_values()
        spec = TileSpec.from_ranges([(0, 2), (0, 2)])
        with pytest.raises(DimensionError):
            tile_aggregate_fragment(values, (4, 4), spec, "sum", 4, 99)
