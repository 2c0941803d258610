"""E11/E19: tiling cost versus tile size × array size.

E11 tracks the structural-grouping scaling story.  The seed engine did
one shifted scan per tile cell, so cost grew linearly in ``|tile|``;
the prefix-sum / van Herk–Gil-Werman kernels are tile-size-independent
(O(|array|)), so the tile sweep — now extended to 8/16/32 — should be
near flat.

E19 pits the tile-size-independent kernels directly against the
shifted-scan baseline (``shifted_scan_tile_aggregate`` below, the seed
algorithm: one shifted full-array pass per tile cell) on a 512×512
array with an 8×8 tile, per aggregate.  Every benchmark asserts its
result against the other engine so a regression can never hide behind
a fast wrong answer.  The baseline enumerates a box's cells with
:func:`itertools.product` itself, so it shares no code with the kernels.
"""

import itertools

import numpy as np
import pytest

import repro
from repro.gdk.atoms import Atom
from repro.gdk.column import Column
from repro.core.tiling import TileSpec, tile_aggregate
from repro.apps.rasters import ramp_image


def shifted_scan_tile_aggregate(values, shape, spec, aggregate):
    """The E19 baseline, O(|tile| · |array|): shift the whole array once
    per tile cell and fold the layers (int64 / float64 accumulators)."""
    integral = values.atom is not Atom.DBL
    cells = values.values.astype(np.int64 if integral else np.float64).reshape(shape)
    valid = values.validity().reshape(shape)
    top = np.iinfo(np.int64).max if integral else np.inf
    fold, ident = {
        "sum": (np.add, 0), "avg": (np.add, 0),
        "min": (np.minimum, top), "max": (np.maximum, -top),
    }.get(aggregate, (None, 0))
    counts = np.zeros(shape, dtype=np.int64)
    acc = np.full(shape, ident, dtype=cells.dtype)
    for deltas in itertools.product(*(range(lo, hi + 1) for lo, hi in spec.box)):
        src = tuple(slice(max(d, 0), max(min(n, n + d), 0)) for n, d in zip(shape, deltas))
        dst = tuple(slice(max(-d, 0), max(min(n, n - d), 0)) for n, d in zip(shape, deltas))
        ok = np.zeros(shape, dtype=np.bool_)
        ok[dst] = valid[src]
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
    acc[empty] = 0
    atom = Atom.DBL if aggregate == "avg" or not integral else Atom.LNG
    return Column(atom, acc.reshape(-1), empty.reshape(-1))


def build_array(conn, size):
    conn.execute(
        f"CREATE ARRAY grid (x INT DIMENSION[0:1:{size}], "
        f"y INT DIMENSION[0:1:{size}], v INT DEFAULT 1)"
    )


@pytest.mark.benchmark(group="E11-tile-size")
@pytest.mark.parametrize("tile", [2, 3, 4, 5, 8, 16, 32])
def test_tile_size_scaling(benchmark, conn, tile):
    build_array(conn, 64)
    query = (
        f"SELECT [x], [y], SUM(v) FROM grid GROUP BY grid[x:x+{tile}][y:y+{tile}]"
    )
    result = benchmark(conn.execute, query)
    grid = result.grid()
    assert grid[0, 0] == tile * tile  # interior anchor covers the full tile


@pytest.mark.benchmark(group="E11-array-size")
@pytest.mark.parametrize("size", [32, 64, 128])
def test_array_size_scaling(benchmark, conn, size):
    build_array(conn, size)
    query = "SELECT [x], [y], SUM(v) FROM grid GROUP BY grid[x:x+3][y:y+3]"
    result = benchmark(conn.execute, query)
    assert result.grid()[0, 0] == 9


@pytest.mark.benchmark(group="E11-kernel-only")
@pytest.mark.parametrize("tile", [2, 4, 8, 16, 32])
def test_raw_kernel_tile_scaling(benchmark, tile):
    """The tiling kernel alone, without SQL overhead."""
    size = 128
    values = Column.constant(Atom.INT, 1, size * size)
    spec = TileSpec.from_ranges([(0, tile), (0, tile)])
    out = benchmark(tile_aggregate, values, (size, size), spec, "sum")
    assert out.get(0) == tile * tile


# ----------------------------------------------------------------------
# E19: new kernels vs. the shifted-scan baseline
# ----------------------------------------------------------------------
E19_SIZE = 512
E19_TILE = 8


def _e19_values() -> Column:
    """512×512 deterministic ramp with a sprinkle of holes."""
    flat = ramp_image(E19_SIZE).reshape(-1)
    mask = (np.arange(flat.size) % 97) == 0
    return Column(Atom.LNG, flat, mask)


@pytest.fixture(scope="module")
def e19_values():
    return _e19_values()


@pytest.fixture(scope="module")
def e19_spec():
    return TileSpec.from_ranges([(0, E19_TILE), (0, E19_TILE)])


@pytest.mark.benchmark(group="E19-tiling")
@pytest.mark.parametrize("aggregate", ["sum", "avg", "min", "max", "count"])
def test_e19_fast_kernel(benchmark, e19_values, e19_spec, aggregate):
    shape = (E19_SIZE, E19_SIZE)
    out = benchmark(tile_aggregate, e19_values, shape, e19_spec, aggregate)
    expected = shifted_scan_tile_aggregate(e19_values, shape, e19_spec, aggregate)
    assert out.to_pylist()[: 4 * E19_SIZE] == expected.to_pylist()[: 4 * E19_SIZE]


@pytest.mark.benchmark(group="E19-tiling")
@pytest.mark.parametrize("aggregate", ["sum", "avg", "min", "max", "count"])
def test_e19_shifted_scan_baseline(benchmark, e19_values, e19_spec, aggregate):
    shape = (E19_SIZE, E19_SIZE)
    out = benchmark(
        shifted_scan_tile_aggregate, e19_values, shape, e19_spec, aggregate
    )
    assert len(out) == E19_SIZE * E19_SIZE
