"""Sequence semantics: time-series analytics over 1-D SciQL arrays.

The paper's abstract promises "a seamless symbiosis of array-, set- and
sequence-interpretations" and positions structural grouping as "a
generalisation of window-based query processing" (the SQL:2003 window
machinery "was primarily introduced to better handle time series").
This module demonstrates that sequence side: a sensor log is a 1-D
array over a ``t`` dimension, and every classic window computation is
one structural-grouping query:

* moving aggregates (centred or trailing windows);
* discrete differences via relative cell addressing (``log[t-1]``);
* downsampling via anchor filtering plus dimension scaling;
* hole interpolation — missing samples are NULL holes, and one query
  replaces each hole by its window average *while leaving real samples
  untouched* (aggregate + anchor-value in a single CASE).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import SciQLError
from repro.engine import Connection


class SensorLog:
    """A sampled signal stored as a 1-D SciQL array over time."""

    def __init__(
        self,
        connection: Connection,
        name: str,
        length: int,
        value_type: str = "DOUBLE",
        *,
        samples: Optional[np.ndarray] = None,
    ):
        """An empty signal of *length* samples of *value_type*, or, with
        *samples* (what :meth:`from_numpy` passes), the array registered
        from them in one commit."""
        self.connection = connection
        self.name = name
        self.length = length
        if samples is not None:
            connection.register_array(name, samples, dims=("t",))
        else:
            connection.execute(
                f"CREATE ARRAY {name} (t INT DIMENSION[0:1:{length}], "
                f"v {value_type})"
            )

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    @classmethod
    def from_numpy(
        cls, connection: Connection, name: str, samples: np.ndarray
    ) -> "SensorLog":
        """Store a float64 copy of a 1-D signal through
        ``register_array`` (NaN entries become holes)."""
        if samples.ndim != 1:
            raise SciQLError("SensorLog needs a 1-D signal")
        return cls(
            connection, name, len(samples), samples=np.array(samples, dtype=np.float64)
        )

    def record(self, t: int, value: float) -> None:
        """Store one sample (INSERT overwrites the cell)."""
        self.connection.execute(
            f"INSERT INTO {self.name} VALUES (?, ?)", (t, value)
        )

    def to_numpy(self) -> np.ndarray:
        """The signal as float64 with NaN holes."""
        result = self.connection.execute(f"SELECT [t], v FROM {self.name}")
        return result.grid()

    # ------------------------------------------------------------------
    # window queries (each one structural-grouping statement)
    # ------------------------------------------------------------------
    def moving(self, aggregate: str, before: int, after: int) -> np.ndarray:
        """Moving aggregate over the window ``[t-before, t+after]``."""
        if before < 0 or after < 0:
            raise SciQLError("window extents must be non-negative")
        result = self.connection.execute(
            f"SELECT [t], {aggregate.upper()}(v) FROM {self.name} "
            f"GROUP BY {self.name}[t-{before}:t+{after + 1}]"
        )
        return result.grid()

    def moving_average(self, window: int = 3) -> np.ndarray:
        """Centred moving average over an odd-sized window."""
        if window % 2 != 1:
            raise SciQLError("centred windows need an odd size")
        half = window // 2
        return self.moving("avg", half, half)

    def trailing_sum(self, window: int) -> np.ndarray:
        """Sum over the trailing window ``[t-window+1, t]``."""
        return self.moving("sum", window - 1, 0)

    def difference(self) -> np.ndarray:
        """First discrete difference ``v(t) - v(t-1)`` (cell addressing)."""
        result = self.connection.execute(
            f"SELECT [t], v - {self.name}[t-1] FROM {self.name}"
        )
        return result.grid()

    def downsample(self, factor: int, aggregate: str = "avg") -> np.ndarray:
        """Aggregate non-overlapping blocks of *factor* samples."""
        if factor <= 0:
            raise SciQLError("downsampling factor must be positive")
        result = self.connection.execute(
            f"SELECT [t / {factor}], {aggregate.upper()}(v) FROM {self.name} "
            f"GROUP BY {self.name}[t:t+{factor}] "
            f"HAVING t MOD {factor} = 0"
        )
        return result.grid()

    def anomalies(self, window: int = 5, threshold: float = 2.0) -> list[tuple[int, float]]:
        """Samples deviating from their centred window mean by > threshold.

        One query: the window AVG is the aggregate, the sample itself is
        the anchor value, HAVING filters — a set-interpretation result
        (a table of (t, v) rows) computed with array machinery.
        """
        half = window // 2
        result = self.connection.execute(
            f"SELECT t, v FROM {self.name} "
            f"GROUP BY {self.name}[t-{half}:t+{half + 1}] "
            f"HAVING v - AVG(v) > {threshold} OR AVG(v) - v > {threshold}"
        )
        return [(int(t), float(v)) for t, v in result.rows()]

    def interpolate_holes(self, window: int = 5) -> int:
        """Replace holes by their window average, in place, in one query.

        Real samples stay untouched because the CASE falls back to the
        anchor's own value; holes get the aggregate (which ignores
        holes, so it averages the surviving neighbours).
        """
        half = window // 2
        before = self.connection.execute(
            f"SELECT COUNT(*) - COUNT(v) FROM {self.name}"
        ).scalar()
        self.connection.execute(
            f"INSERT INTO {self.name} "
            f"SELECT [t], CASE WHEN v IS NULL THEN AVG(v) ELSE v END "
            f"FROM {self.name} GROUP BY {self.name}[t-{half}:t+{half + 1}]"
        )
        after = self.connection.execute(
            f"SELECT COUNT(*) - COUNT(v) FROM {self.name}"
        ).scalar()
        return int(before - after)

    def drop_below(self, threshold: float) -> int:
        """DELETE samples below a threshold (they become holes)."""
        result = self.connection.execute(
            f"DELETE FROM {self.name} WHERE v < {threshold!r}"
        )
        return result.affected


# ----------------------------------------------------------------------
# numpy reference implementations (tests/benchmarks)
# ----------------------------------------------------------------------
def reference_moving_average(signal: np.ndarray, window: int) -> np.ndarray:
    """Centred moving average with edge clipping and NaN holes ignored."""
    half = window // 2
    out = np.empty(len(signal))
    for t in range(len(signal)):
        lo = max(0, t - half)
        hi = min(len(signal), t + half + 1)
        chunk = signal[lo:hi]
        valid = chunk[~np.isnan(chunk)]
        out[t] = valid.mean() if len(valid) else np.nan
    return out


def reference_difference(signal: np.ndarray) -> np.ndarray:
    out = np.full(len(signal), np.nan)
    out[1:] = signal[1:] - signal[:-1]
    return out


def reference_downsample(
    signal: np.ndarray, factor: int
) -> np.ndarray:
    blocks = -(-len(signal) // factor)
    out = np.empty(blocks)
    for b in range(blocks):
        chunk = signal[b * factor : (b + 1) * factor]
        valid = chunk[~np.isnan(chunk)]
        out[b] = valid.mean() if len(valid) else np.nan
    return out


def synthetic_signal(
    length: int = 256,
    seed: int = 5,
    hole_fraction: float = 0.0,
    spike_positions: Sequence[int] = (),
) -> np.ndarray:
    """A noisy sine with optional dropout holes and injected spikes."""
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    signal = 10.0 + 4.0 * np.sin(2 * np.pi * t / 48) + rng.normal(0, 0.4, length)
    for position in spike_positions:
        signal[position] += 8.0
    if hole_fraction > 0:
        holes = rng.random(length) < hole_fraction
        signal[holes] = np.nan
    return signal
