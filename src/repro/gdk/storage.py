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

The *recycler* lives here too, under the same lock.  A statement's
temporaries (tile sums, widened operands, expression steps) are
256 KiB–2 MiB arrays, and glibc hands memory of that size back to the
kernel between statements, so every fresh one page-faults in again.
:func:`recycle` takes back the buffer of a BAT, column or array that is
dying — a freed plan variable, a dead expression step, a tiling
accumulator — and :func:`empty` hands it to the next kernel that asks
for that dtype and size.  Ownership is proven, never assumed: a buffer
is taken only when it owns its memory (no memmap, no view of another
array's storage but a whole-buffer reshape), is writeable, holds no
objects, has ``RECYCLE_MIN_BYTES`` to ``RECYCLE_MAX_BYTES``, and CPython refcounts show
that each link of the dying BAT → column → array chain has no holder
but the link before it (NumPy's temporary elision tests the same).  A
catalog column, a snapshot, a result, a journal entry or a view all
hold a reference, so their buffers stay where they are.  The recycler
keeps only sizes some kernel has asked for, at most
``RECYCLE_CAP_BYTES`` of them, and evicts its least recently fed size
first.
"""

from __future__ import annotations

import math
import sys
import threading

import numpy as np

from repro import knobs
from repro.gdk.bat import BAT
from repro.gdk.column import Column

_lock = threading.Lock()
_fragments_pruned = 0
_bytes_faulted = 0

#: smaller buffers are left to the allocator, which serves them from
#: its heap without faults.
RECYCLE_MIN_BYTES = 1 << 16
#: larger buffers are left to the allocator too: held across statements
#: they fall out of the 2 MiB per-core L2, and a cold 1 MiB output costs a
#: ufunc more (0.14 against 0.06 ms) than malloc's hot reuse saves.
RECYCLE_MAX_BYTES = 1 << 19
#: the most bytes the recycler holds.
RECYCLE_CAP_BYTES = 16 << 20
_held: dict[tuple, list] = {}  # (dtype, size) -> idle buffers, least recently fed first
_wanted: set = set()  # the (dtype, size) keys empty() could not serve: the only ones held
_held_bytes = 0
_fresh = 0  # empty() calls the recycler could not serve
_recycled = 0  # empty() calls it served


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
# the recycler
# ----------------------------------------------------------------------
def _refs(item) -> int:
    return sys.getrefcount(item)


def _probe() -> int:
    local = object()
    return _refs(local)


#: what :func:`_refs` reads for an object named by a local and held by
#: one other reference — the link before it in a dying chain.
_SOLE = _probe() + 1


def empty(shape: tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialised array of *shape* and *dtype*: a recycled buffer
    of that size when the recycler holds one, else a fresh one."""
    global _held_bytes, _fresh, _recycled
    dtype, size = np.dtype(dtype), math.prod(shape)
    if RECYCLE_MIN_BYTES <= size * dtype.itemsize <= RECYCLE_MAX_BYTES:
        with _lock:
            if idle := _held.get((dtype, size)):
                buffer = idle.pop()
                if not idle:
                    del _held[dtype, size]
                _held_bytes -= buffer.nbytes
                _recycled += 1
                return buffer if buffer.shape == shape else buffer.reshape(shape)
            _fresh += 1
            if len(_wanted) >= 256:  # bounded like the buffers
                _wanted.clear()
            _wanted.add((dtype, size))
    return np.empty(shape, dtype)


def recycle(item) -> None:
    """Take back the buffer of a dying BAT, column or array if nothing
    else can reach it (module docstring).  The caller passes its one
    reference to *item*, which dies with the call.  Sizes are tested
    first: a small or absent buffer costs no refcount read."""
    global _held_bytes
    if type(item) is BAT:
        if type(item.tail) is not Column or item.tail.values.nbytes < RECYCLE_MIN_BYTES:
            return  # (a dictionary column would decode)
        if _refs(item) > _SOLE:
            return
        item = item.tail
    if type(item) is Column:
        if item.values.nbytes < RECYCLE_MIN_BYTES or _refs(item) > _SOLE:
            return
        item = item.values
    if (
        type(item) is not np.ndarray
        or item.nbytes < RECYCLE_MIN_BYTES
        or _refs(item) > _SOLE
        or not item.flags.writeable
        or item.dtype.hasobject
    ):
        return
    if (base := item.base) is not None:  # only a whole-buffer reshape of a dying owner
        if type(base) is not np.ndarray or base.base is not None or base.nbytes != item.nbytes:
            return
        if _refs(base) > _SOLE or not base.flags.writeable:
            return
        item = base
    key = item.dtype, item.size
    with _lock:
        if key not in _wanted or item.nbytes > RECYCLE_CAP_BYTES:
            return
        idle = _held.pop(key, [])
        idle.append(item)
        _held[key] = idle  # now the most recently fed size
        _held_bytes += item.nbytes
        while _held_bytes > RECYCLE_CAP_BYTES:
            oldest = next(iter(_held))
            _held_bytes -= _held[oldest].pop(0).nbytes
            if not _held[oldest]:
                del _held[oldest]


def recycler_counts() -> tuple[int, int]:
    """Snapshot ``(fresh, recycled)``: the :func:`empty` calls of a
    size the recycler takes that allocated, and those it served."""
    with _lock:
        return _fresh, _recycled
