"""Seeded inputs for the end-to-end benchmark (NumPy only).

Every input of every workload comes from here and is a pure function
of ``--seed``: the engine only ever receives the generated arrays and
statement texts.  Sizes are module constants so the README, the
oracles and the workloads quote one number.
"""

from __future__ import annotations

import numpy as np

POINT_SIZE = 64  #: ``m`` is 64x64 INT, v = x*100 + y
LIFE_SIZE = 256
LIFE_DENSITY = 0.3
IMAGE_SIZE = 512
AGG_ROWS = 1_000_000
SELECT_ROWS = 2_000_000
REMOTE_ROWS = 1_000_000
DURABLE_CELLS = 100_000
GROUPS = 100  #: distinct ``k`` values of ``big``
SUBKEYS = 1000  #: distinct ``g`` values of ``big``
#: op inputs are pre-generated once and cycled, so drawing them costs
#: nothing inside the timed loop.
OP_INPUTS = 1 << 16


def rng(seed: int, stream: int) -> np.random.Generator:
    """One independent generator per (seed, purpose)."""
    return np.random.default_rng([int(seed), stream])


def point_matrix() -> np.ndarray:
    x, y = np.meshgrid(
        np.arange(POINT_SIZE), np.arange(POINT_SIZE), indexing="ij"
    )
    return (x * 100 + y).astype(np.int32)


def point_coords(seed: int) -> tuple[list[int], list[int]]:
    gen = rng(seed, 1)
    xs = gen.integers(0, POINT_SIZE, OP_INPUTS)
    ys = gen.integers(0, POINT_SIZE, OP_INPUTS)
    return xs.tolist(), ys.tolist()


def fig1_matrix() -> np.ndarray:
    """The paper's 4x4 ``matrix`` after Fig. 1(b)-(c); NaN = deleted cell."""
    x, y = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
    grid = np.where(x > y, x + y, np.where(x < y, x - y, 0)).astype(np.float64)
    grid[x == y] = (x * y)[x == y]
    grid[x > y] = np.nan
    return grid


def life_board(seed: int) -> np.ndarray:
    gen = rng(seed, 2)
    return (gen.random((LIFE_SIZE, LIFE_SIZE)) < LIFE_DENSITY).astype(np.int32)


def gray_image(seed: int) -> np.ndarray:
    """A seeded 8-bit image: smooth gradient plus noise, so MIN/AVG differ."""
    gen = rng(seed, 3)
    x, y = np.meshgrid(
        np.arange(IMAGE_SIZE), np.arange(IMAGE_SIZE), indexing="ij"
    )
    base = 96 + 64 * np.sin(x / 37.0) * np.cos(y / 53.0)
    noise = gen.integers(-48, 49, (IMAGE_SIZE, IMAGE_SIZE))
    return np.clip(base + noise, 0, 255).astype(np.int32)


def big_table(seed: int, rows: int, clustered: bool) -> dict[str, np.ndarray]:
    """Columns of ``big(k INT, g INT, v BIGINT)``.

    ``k`` and ``g`` are uniform.  ``v`` is uniform too, or — clustered
    — strictly increasing with the row number, which is what lets zone
    maps prune a range on ``v`` and never a predicate on ``g``.
    """
    gen = rng(seed, 4)
    k = gen.integers(0, GROUPS, rows).astype(np.int32)
    g = gen.integers(0, SUBKEYS, rows).astype(np.int32)
    if clustered:
        v = np.arange(rows, dtype=np.int64) * 7 + gen.integers(0, 7, rows)
    else:
        v = gen.integers(0, 31_000_000, rows).astype(np.int64)
    return {"k": k, "g": g, "v": v}


def durable_cells(seed: int) -> np.ndarray:
    return rng(seed, 5).random(DURABLE_CELLS)


def durable_ops(seed: int) -> dict[str, np.ndarray]:
    """The op stream of ``durable_commit``: 80% INSERT, 20% cell UPDATE."""
    gen = rng(seed, 6)
    return {
        "is_update": gen.random(OP_INPUTS) < 0.2,
        "cell": gen.integers(0, DURABLE_CELLS, OP_INPUTS),
        "value": gen.random(OP_INPUTS),
    }


#: ad hoc statement templates and their draw weights (Fig. 1 shapes).
ADHOC_TEMPLATES = (
    ("point", 0.25),
    ("slice", 0.15),
    ("update", 0.10),
    ("in", 0.10),
    ("between", 0.10),
    ("groupby", 0.10),
    ("tile4", 0.10),
    ("tile64", 0.10),
)


def adhoc_draws(seed: int) -> dict[str, np.ndarray]:
    """Template choice and literals for each ad hoc statement."""
    gen = rng(seed, 7)
    weights = np.array([w for _, w in ADHOC_TEMPLATES])
    return {
        "template": gen.choice(len(ADHOC_TEMPLATES), OP_INPUTS, p=weights),
        "a": gen.integers(0, POINT_SIZE - 8, OP_INPUTS),
        "b": gen.integers(0, POINT_SIZE - 8, OP_INPUTS),
        "w": gen.integers(1, 9, OP_INPUTS),
        "h": gen.integers(1, 9, OP_INPUTS),
    }


def adhoc_statement(draws: dict[str, np.ndarray], i: int) -> tuple[str, str, tuple]:
    """``(template, sql, literals)`` of the *i*-th ad hoc statement.

    The serial ``i`` is inlined into every text, so no two statements
    of a run share a plan-cache key.
    """
    j = i % OP_INPUTS
    name = ADHOC_TEMPLATES[int(draws["template"][j])][0]
    a, b = int(draws["a"][j]), int(draws["b"][j])
    w, h = int(draws["w"][j]), int(draws["h"][j])
    s = i
    if name == "point":
        sql = f"SELECT v + {s} FROM m WHERE x = {a} AND y = {b}"
    elif name == "slice":
        sql = (
            f"SELECT [x], [y], v + {s} FROM m WHERE x >= {a} AND x < {a + w} "
            f"AND y >= {b} AND y < {b + h}"
        )
    elif name == "update":
        sql = (
            f"UPDATE scratch SET v = CASE WHEN x > y THEN x + y + {s} "
            "WHEN x < y THEN x - y ELSE 0 END"
        )
    elif name == "in":
        sql = (
            f"SELECT x, y FROM m WHERE v IN ({a * 100 + b}, "
            f"{(a + w) * 100 + b + h}, {10_000 + s})"
        )
    elif name == "between":
        sql = (
            f"SELECT COUNT(*) + {s} FROM scratch "
            f"WHERE v BETWEEN {a - 32} AND {a + 8 * w}"
        )
    elif name == "groupby":
        sql = f"SELECT x, SUM(v) + {s} FROM m WHERE y < {b + 1} GROUP BY x"
    elif name == "tile4":
        sql = (
            f"SELECT [x], [y], AVG(v) + {s} FROM matrix "
            "GROUP BY matrix[x:x+2][y:y+2] "
            "HAVING x MOD 2 = 1 AND y MOD 2 = 1"
        )
    else:
        sql = (
            f"SELECT [x], [y], AVG(v) + {s} FROM m GROUP BY m[x:x+2][y:y+2]"
        )
    return name, sql, (a, b, w, h, s)
