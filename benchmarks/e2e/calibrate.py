"""Machine-speed probes: how the ruler copes with a noisy neighbour.

See :class:`Calibrator`.  Nothing here imports the engine.
"""

from __future__ import annotations

import time

import numpy as np

now = time.perf_counter

#: the timed loop probes the machine's speed at least this often.
CALIBRATE_EVERY_S = 0.02


def _smoothed(times: list, values: list, half_window_s: float):
    """Each probe replaced by the median of its neighbours in time."""
    times = np.asarray(times)
    values = np.asarray(values)
    low = np.searchsorted(times, times - half_window_s)
    high = np.searchsorted(times, times + half_window_s, side="right")
    return times, np.array([np.median(values[a:b]) for a, b in zip(low, high)])


class _Cell:
    __slots__ = ("index", "payload")

    def __init__(self, index, payload):
        self.index = index
        self.payload = payload


def _add(a, b):
    return a + b


def _python_probe(loops: int) -> dict:
    values = []
    for i in range(loops):
        cell = _Cell(i, (i, str(i)))
        values.append(_add(cell.index, len(cell.payload)))
    ranked = sorted(values, reverse=True)
    return {value: rank for rank, value in enumerate(ranked)}


class Calibrator:
    """Interleaved probes of how fast the machine is right now.

    The baseline box is a 2-vCPU guest whose cores drop to ~0.8x and
    ~0.67x of their quiet speed for seconds at a time, and whose memory
    bandwidth swings independently of that; steal stays at zero, so the
    guest cannot see why.  Left alone that is a 10-50% run-to-run
    spread on every timing.  So the loop times fixed work that shares
    no code with the engine, outside the timed windows, and each op's
    time is divided by the slowdown the probes around it saw:

    * a slice of ordinary Python (objects, calls, strings, a sort, a
      dict), every ``CALIBRATE_EVERY_S`` — core speed as interpreted
      code feels it.  A bare arithmetic loop tracks the engine's
      slowdown half as well: it never leaves the L1 cache;
    * a NumPy pass over 16 MiB, every ``MEMORY_EVERY_S`` — memory
      bandwidth.  Only for workloads whose data is larger than a
      core's cache (``Workload.data_bytes >= CACHE_BYTES``); for the
      others it tracks nothing and would only add its own noise.

    Times are thus reported at reference speed: the speed at which the
    probes take ``PY_REF_S`` and ``MEMORY_REF_S``.  The constants are
    arbitrary (about the quiet values of the baseline box); a
    different box shifts every time by one factor, the same on both
    sides of a comparison.
    """

    PY_LOOPS = 400
    PY_REF_S = 150e-6
    MEMORY_CELLS = 1 << 21
    MEMORY_REF_S = 3e-3
    MEMORY_EVERY_S = 0.1
    CACHE_BYTES = 1 << 20
    #: a probe is smoothed with its neighbours this far on either side.
    HALF_WINDOW_S = 0.5

    def __init__(self, data_bytes: int):
        self.memory = data_bytes >= self.CACHE_BYTES
        if self.memory:
            self.data = np.arange(self.MEMORY_CELLS, dtype=np.int64)
            # ones, not empty: every page is touched now, not in a probe.
            self.buffer = np.ones_like(self.data)
        self.py_times: list = []
        self.py_slowdowns: list = []
        self.memory_times: list = []
        self.memory_slowdowns: list = []
        self.memory_probed = float("-inf")

    def sample(self) -> float:
        """Run the probes that are due; returns the time it ended."""
        t0 = now()
        _python_probe(self.PY_LOOPS)
        t1 = now()
        self.py_times.append(t1)
        self.py_slowdowns.append((t1 - t0) / self.PY_REF_S)
        if self.memory and t1 - self.memory_probed >= self.MEMORY_EVERY_S:
            # Into a preallocated buffer: the probe must not time malloc.
            np.multiply(self.data, 3, out=self.buffer)
            np.add(self.buffer, 1, out=self.buffer)
            self.buffer.sum()
            t2 = self.memory_probed = now()
            self.memory_times.append(t2)
            self.memory_slowdowns.append((t2 - t1) / self.MEMORY_REF_S)
            return t2
        return t1

    def slowdown_at(self, when) -> np.ndarray:
        """Slowdown (1.0 = reference speed) at each time in *when*."""
        slowdown = np.interp(
            when, *_smoothed(self.py_times, self.py_slowdowns, self.HALF_WINDOW_S)
        )
        if self.memory:
            memory = np.interp(when, *_smoothed(
                self.memory_times, self.memory_slowdowns, self.HALF_WINDOW_S
            ))
            slowdown = 0.5 * (slowdown + memory)
        return slowdown
