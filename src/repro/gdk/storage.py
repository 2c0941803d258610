"""Out-of-core storage accounting and knobs.

Central switchboard of the storage engine introduced with the
mmap/zone-map/dictionary work:

* the ``REPRO_STORAGE_MMAP`` knob — ``"1"`` forces lazy
  :class:`numpy.memmap` payload loading, ``"0"`` forces eager reads,
  and the default ``"auto"`` memory-maps any payload file at or above
  ``REPRO_MMAP_THRESHOLD_BYTES`` (default 1 MiB);
* the global *fault* / *prune* counters behind the
  ``fragments_pruned`` / ``bytes_faulted`` fields of
  :class:`~repro.mal.interpreter.ExecutionStats` — kernels report
  here, the interpreter snapshots deltas around each program run;
* the cardinality/row thresholds of the dictionary encoder
  (:mod:`repro.gdk.dictenc`) and the zone-map granularity
  (:mod:`repro.gdk.zonemap`).

Counters are process-global and lock-protected: concurrent sessions
both add to them, so a single run's delta is exact only when one
program executes at a time (true for every in-suite assertion; the
profile stays a useful aggregate under concurrency).
"""

from __future__ import annotations

import threading

import numpy as np

from repro import knobs

_lock = threading.Lock()
_fragments_pruned = 0
_bytes_faulted = 0


# ----------------------------------------------------------------------
# knob resolution
# ----------------------------------------------------------------------
def storage_mmap_mode() -> str:
    """The ``REPRO_STORAGE_MMAP`` knob: ``"on"``, ``"off"`` or ``"auto"``."""
    raw = (knobs.raw("REPRO_STORAGE_MMAP") or "auto").strip().lower()
    if raw in ("1", "on", "true", "yes"):
        return "on"
    if raw in ("0", "off", "false", "no"):
        return "off"
    return "auto"


def mmap_threshold_bytes() -> int:
    """Payload size at which ``auto`` mode switches to memory-mapping."""
    return knobs.integer("REPRO_MMAP_THRESHOLD_BYTES", knobs.MMAP_THRESHOLD_BYTES, 0)


def should_mmap(nbytes: int) -> bool:
    """Whether a payload file of *nbytes* should load as a memmap view."""
    mode = storage_mmap_mode()
    if mode == "on":
        return True
    if mode == "off":
        return False
    return nbytes >= mmap_threshold_bytes()


def storage_token() -> tuple:
    """Plan-cache key component for the storage knobs.

    Included in :meth:`Connection._cache_key` so flipping the mmap knob
    (or its threshold) between sessions of one database never reuses a
    plan profiled/validated under the other storage mode.
    """
    return (storage_mmap_mode(), mmap_threshold_bytes())


def zonemaps_enabled() -> bool:
    """``REPRO_ZONEMAPS`` (default on) — runtime zone-pruning ablation.

    Plans never depend on it: the select kernels read it on every call
    and, when it is off, walk each input as one scan run instead of
    asking its zone statistics, so toggling it never invalidates a
    cached plan (results are byte-identical either way).
    """
    raw = (knobs.raw("REPRO_ZONEMAPS") or "1").strip().lower()
    return raw not in ("0", "off", "false", "no")


def dict_min_rows() -> int:
    """Minimum column length before in-memory dictionary encoding."""
    return knobs.integer("REPRO_DICT_MIN_ROWS", knobs.DICT_MIN_ROWS, 1)


def dict_enabled() -> bool:
    """``REPRO_DICT`` (default on) — dictionary-encoding ablation."""
    raw = (knobs.raw("REPRO_DICT") or "1").strip().lower()
    return raw not in ("0", "off", "false", "no")


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


def reset_counters() -> None:
    """Zero both counters (test isolation)."""
    global _fragments_pruned, _bytes_faulted
    with _lock:
        _fragments_pruned = 0
        _bytes_faulted = 0
