"""Expected answers, computed by the benchmark's own NumPy code.

Nothing here imports ``repro``: the engine's reference functions can
move or change without touching the ruler.  Each oracle mirrors the
SciQL semantics of one statement shape — tiles are clipped at the
array border, NULL cells are skipped by aggregates, a tile without any
valid cell is NULL (NaN in a grid).
"""

from __future__ import annotations

import numpy as np


def same(actual, expected) -> bool:
    """Exact where the expected answer is integral, else ``allclose``
    (NaN == NaN): a 1e-9 relative tolerance would wave through an
    off-by-one on a 13-digit sum."""
    if isinstance(expected, dict):
        return (
            isinstance(actual, dict)
            and list(actual) == list(expected)
            and all(same(actual[name], expected[name]) for name in expected)
        )
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    if actual.shape != expected.shape:
        return False
    if expected.dtype.kind == "f":
        return bool(np.allclose(actual, expected, rtol=1e-9, atol=1e-9, equal_nan=True))
    return bool(np.array_equal(actual, expected))


def perturb(value):
    """A wrong answer derived from a right one (for the smoke test)."""
    if isinstance(value, dict):
        first = next(iter(value))
        return {**value, first: perturb(value[first])}
    wrong = np.array(value, dtype=np.float64, copy=True)
    wrong.reshape(-1)[0] = np.nan_to_num(wrong.reshape(-1)[0]) + 1
    return wrong if wrong.ndim else wrong.item()


# ----------------------------------------------------------------------
# tiling (structural grouping) on dense 2-D grids
# ----------------------------------------------------------------------
def _window_sum(grid: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Sum of ``grid[x+lo : x+hi, y+lo : y+hi]`` clipped at the border."""
    n0, n1 = grid.shape
    padded = np.zeros((n0 + 1, n1 + 1), dtype=np.float64)
    padded[1:, 1:] = np.cumsum(np.cumsum(grid, axis=0), axis=1)
    x0 = np.clip(np.arange(n0) + lo, 0, n0)
    x1 = np.clip(np.arange(n0) + hi, 0, n0)
    y0 = np.clip(np.arange(n1) + lo, 0, n1)
    y1 = np.clip(np.arange(n1) + hi, 0, n1)
    return (
        padded[np.ix_(x1, y1)]
        - padded[np.ix_(x0, y1)]
        - padded[np.ix_(x1, y0)]
        + padded[np.ix_(x0, y0)]
    )


def tile_sum(grid: np.ndarray, lo: int, hi: int) -> np.ndarray:
    return _window_sum(np.nan_to_num(grid.astype(np.float64)), lo, hi)


def tile_avg(grid: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """AVG over the tile's valid (non-NaN) cells; NaN when there is none."""
    values = grid.astype(np.float64)
    valid = ~np.isnan(values)
    total = _window_sum(np.where(valid, values, 0.0), lo, hi)
    count = _window_sum(valid.astype(np.float64), lo, hi)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(count > 0, total / count, np.nan)


def tile_min(grid: np.ndarray, lo: int, hi: int) -> np.ndarray:
    n0, n1 = grid.shape
    padded = np.full((n0 + hi - lo, n1 + hi - lo), np.inf)
    padded[-lo : -lo + n0, -lo : -lo + n1] = grid
    out = np.full(grid.shape, np.inf)
    for dx in range(hi - lo):
        for dy in range(hi - lo):
            np.minimum(out, padded[dx : dx + n0, dy : dy + n1], out=out)
    return out


def life_step(board: np.ndarray) -> np.ndarray:
    """One Conway generation; cells beyond the border count as dead."""
    neighbours = tile_sum(board, -1, 2) - board
    alive = (neighbours == 3) | ((neighbours == 2) & (board == 1))
    return alive.astype(np.int32)


def invert(image: np.ndarray) -> np.ndarray:
    return 255 - image


def edge_detect(image: np.ndarray) -> np.ndarray:
    """|v - up| + |v - left|; NaN where a neighbour is outside the array."""
    out = np.full(image.shape, np.nan)
    centre = image[1:, 1:].astype(np.int64)
    out[1:, 1:] = np.abs(centre - image[:-1, 1:]) + np.abs(centre - image[1:, :-1])
    return out


def reduce2(image: np.ndarray) -> np.ndarray:
    n0, n1 = image.shape
    return image.reshape(n0 // 2, 2, n1 // 2, 2).mean(axis=(1, 3))


def odd_anchors(grid: np.ndarray) -> np.ndarray:
    """``HAVING x MOD 2 = 1 AND y MOD 2 = 1``: every other anchor is NULL."""
    out = np.full(grid.shape, np.nan)
    out[1::2, 1::2] = grid[1::2, 1::2]
    return out


# ----------------------------------------------------------------------
# relational scans
# ----------------------------------------------------------------------
def group_aggregates(k: np.ndarray, v: np.ndarray, groups: int) -> dict[str, np.ndarray]:
    """``SELECT k, SUM, COUNT, AVG, MIN, MAX ... GROUP BY k`` ordered by k."""
    count = np.bincount(k, minlength=groups)
    # float64 holds sums of < 2**53 exactly; v < 2**25 and < 2**21 rows.
    total = np.bincount(k, weights=v, minlength=groups).astype(np.int64)
    order = np.argsort(k, kind="stable")
    starts = np.concatenate(([0], np.cumsum(count)[:-1]))
    sorted_v = v[order]
    return {
        "k": np.arange(groups, dtype=np.int64),
        "sum": total,
        "count": count,
        "avg": total / count,
        "min": np.minimum.reduceat(sorted_v, starts),
        "max": np.maximum.reduceat(sorted_v, starts),
    }


def group_sum(k: np.ndarray, v: np.ndarray, keep: np.ndarray, groups: int) -> np.ndarray:
    return np.bincount(k[keep], weights=v[keep], minlength=groups).astype(np.int64)


def by_first_column(columns: dict[str, np.ndarray]) -> list[np.ndarray]:
    """A result's columns ordered by its first column (GROUP BY order is free)."""
    arrays = list(columns.values())
    order = np.argsort(arrays[0], kind="stable")
    return [array[order] for array in arrays]


# ----------------------------------------------------------------------
# durable_commit replay
# ----------------------------------------------------------------------
def durable_replay(
    cells: np.ndarray, ops: dict[str, np.ndarray], acked: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """State after the first *acked* ops: ``(cells, log keys, log values)``."""
    n = len(ops["is_update"])
    index = np.arange(acked) % n
    is_update = ops["is_update"][index]
    value = ops["value"][index]
    out = cells.copy()
    # Later updates of one cell win, as they do in commit order.
    out[ops["cell"][index][is_update]] = value[is_update]
    inserted = np.flatnonzero(~is_update)
    return out, inserted.astype(np.int64), value[inserted]
