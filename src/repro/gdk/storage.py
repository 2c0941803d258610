"""Storage thresholds and the out-of-core counters.

Every storage strategy is decided by a threshold or by the input, never
by a switch: a payload file at or above ``REPRO_MMAP_THRESHOLD_BYTES``
loads as a lazy :class:`numpy.memmap` view, a string column of at least
``REPRO_DICT_MIN_ROWS`` rows is considered for dictionary encoding
(:mod:`repro.gdk.dictenc`), and an input with zone statistics
(``REPRO_ZONE_ROWS`` rows per zone, :mod:`repro.gdk.zonemap`) is
always consulted by the value selects.

The process-global *prune* / *fault* counters behind the
``fragments_pruned`` / ``bytes_faulted`` fields of
:class:`~repro.mal.interpreter.ExecutionStats` live here too: kernels
report, the interpreter snapshots deltas around each program run.  A
single run's delta is exact only when one program executes at a time
(true for every in-suite assertion).

The engine's *heap policy* is set here too, once, at import.  A
statement's temporaries (tile sums, widened operands, expression steps)
are 256 KiB–2 MiB arrays, and glibc's dynamic thresholds hand memory of
that size back to the OS between statements, so every new one
page-faults in again.  On glibc the engine pins ``M_MMAP_THRESHOLD`` to
:data:`HEAP_MMAP_THRESHOLD` and ``M_TRIM_THRESHOLD`` to :data:`HEAP_TRIM_THRESHOLD`
instead: a freed temporary stays in the heap and malloc hands it, warm,
to the next kernel that asks for that much, while a payload above the
mmap threshold (a 16 MB scan column) still maps and unmaps.  A threshold
the host set (``MALLOC_MMAP_THRESHOLD_`` / ``MALLOC_TRIM_THRESHOLD_``,
or ``glibc.malloc.mmap_threshold`` / ``trim_threshold`` in
``GLIBC_TUNABLES``) is left as the host set it; other libcs are left
alone.
"""

from __future__ import annotations

import ctypes
import os
import threading

import numpy as np

from repro import knobs

_lock = threading.Lock()
_fragments_pruned = 0
_bytes_faulted = 0

#: glibc's ``M_MMAP_THRESHOLD``: 4× the largest paper-scenario
#: temporary (a 512² DOUBLE grid), below a 2M-row scan column.
HEAP_MMAP_THRESHOLD = 8 << 20
#: glibc's ``M_TRIM_THRESHOLD``: free heap top kept before trimming.
HEAP_TRIM_THRESHOLD = 4 * HEAP_MMAP_THRESHOLD


# ----------------------------------------------------------------------
# knob resolution
# ----------------------------------------------------------------------
def mmap_threshold_bytes() -> int:
    """Payload size at which a load memory-maps instead of reading."""
    return knobs.integer("REPRO_MMAP_THRESHOLD_BYTES", knobs.MMAP_THRESHOLD_BYTES, 0)


def should_mmap(nbytes: int) -> bool:
    """Whether a payload file of *nbytes* should load as a memmap view."""
    return nbytes >= mmap_threshold_bytes()


def dict_min_rows() -> int:
    """Minimum column length before in-memory dictionary encoding."""
    return knobs.integer("REPRO_DICT_MIN_ROWS", knobs.DICT_MIN_ROWS, 1)


def zone_rows() -> int:
    """Rows per zone of a zone map (``REPRO_ZONE_ROWS``)."""
    return knobs.integer("REPRO_ZONE_ROWS", knobs.ZONE_ROWS, 1)


# ----------------------------------------------------------------------
# fault / prune accounting
# ----------------------------------------------------------------------
def note_pruned(count: int = 1) -> None:
    """Record *count* select inputs answered from zone maps alone,
    without reading any payload."""
    global _fragments_pruned
    with _lock:
        _fragments_pruned += count


def note_faulted(nbytes: int) -> None:
    """Record *nbytes* of memory-mapped payload touched by a kernel."""
    global _bytes_faulted
    with _lock:
        _bytes_faulted += nbytes


def note_scan(array) -> None:
    """Account a scan of *array* if it is a memmap view.

    Fragments of an mmap-backed column, and the scan runs a select cuts
    from them, are basic slices and therefore still
    :class:`numpy.memmap` instances, so a scan charges only the window
    it pages in — eager (in-core) arrays charge nothing, which is what
    makes ``bytes_faulted`` a measure of I/O, not of work.
    """
    if isinstance(array, np.memmap):
        note_faulted(int(array.nbytes))


def counters() -> tuple[int, int]:
    """Snapshot ``(fragments_pruned, bytes_faulted)``."""
    with _lock:
        return _fragments_pruned, _bytes_faulted


# ----------------------------------------------------------------------
# the heap policy
# ----------------------------------------------------------------------
def _pin_heap() -> tuple[str, ...]:
    """Pin glibc's heap thresholds unless the host set them (module
    docstring); the names of those pinned."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return ()  # no mallopt: not glibc
    tunables = os.environ.get("GLIBC_TUNABLES", "")
    pinned = []
    for name, param, value in (
        ("MMAP_THRESHOLD", -3, HEAP_MMAP_THRESHOLD),
        ("TRIM_THRESHOLD", -1, HEAP_TRIM_THRESHOLD),
    ):
        if f"MALLOC_{name}_" in os.environ or f"glibc.malloc.{name.lower()}" in tunables:
            continue
        if mallopt(param, value) == 1:  # 0: not accepted (a libc's stub)
            pinned.append(name)
    return tuple(pinned)


#: the thresholds the engine pinned at import: ``MMAP_THRESHOLD`` and
#: ``TRIM_THRESHOLD`` on glibc when the host set neither.
HEAP_PINNED = _pin_heap()
