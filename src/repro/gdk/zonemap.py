"""Zone maps: per-zone min/max/null statistics for zone-granular scans.

A :class:`ZoneMap` summarises a column in fixed-size *zones* of
``REPRO_ZONE_ROWS`` rows (default 4096): per zone the minimum and
maximum over the usable (non-NULL, non-NaN) values, the NULL count and
the NaN count.  Pruning is a property of the data: whichever value
select of :mod:`repro.gdk.select` reads a BAT that has zone statistics
— its own, or through its partition origin its source's — asks a
``verdict_*`` method for one class per zone overlapping the BAT's row
window:

* ``MISS`` — no row of the zone can satisfy the predicate; the select
  skips it without reading its payload;
* ``ALL`` — every row satisfies it; the select emits the zone's rows as
  a dense oid range, again without reading the payload;
* ``SCAN`` — the statistics are inconclusive; the select compares the
  zone's values.

:meth:`ZoneMap.runs` merges adjacent zones of one class into row runs
of the window, so the select visits a handful of runs, not every zone.
A whole-input answer — every zone a miss, or every zone all-matching —
is the degenerate case of one run.

Zones of a *fragment* come from its source BAT: ``mat.partition``
records ``(source, start)`` on the fragment (see
:func:`repro.gdk.bat.partition`), so one zone map built — or loaded
from the farm descriptor — on the source serves every fragment and
every fragment count.  A zone only partly inside a window keeps its
class: what holds for every row of a zone holds for any subset of them.

The classes mirror the exact NULL/NaN semantics of
:mod:`repro.gdk.select`: NULL rows never match any predicate (the mask
is applied last), NaN never satisfies a comparison, and therefore NaN
rows *do* match an ``anti`` range (and ``!=``) whenever at least one
bound is present — the per-zone NaN counters exist precisely so the
anti classes stay byte-identical to a real scan.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.gdk import storage

#: zone classes of a predicate: no row can match, some may, every row does.
MISS, SCAN, ALL = 0, 1, 2


def _sentinels(dtype: np.dtype) -> tuple[Any, Any]:
    """(low, high) sentinels for empty-zone min/max slots."""
    if dtype.kind == "f":
        return -np.inf, np.inf
    info = np.iinfo(dtype)
    return info.min, info.max


class ZoneMap:
    """Per-zone statistics of one numeric (or dictionary-code) column."""

    __slots__ = ("zone_rows", "count", "mins", "maxs", "nulls", "nnan")

    def __init__(self, zone_rows, count, mins, maxs, nulls, nnan):
        self.zone_rows = int(zone_rows)
        self.count = int(count)
        self.mins = mins
        self.maxs = maxs
        self.nulls = nulls
        self.nnan = nnan

    # ------------------------------------------------------------------
    # construction / serialization
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        values: np.ndarray,
        mask: Optional[np.ndarray] = None,
        zone_rows: Optional[int] = None,
    ) -> Optional["ZoneMap"]:
        """Zone statistics for *values*; ``None`` for object payloads."""
        if values.dtype == object:
            return None
        zr = zone_rows if zone_rows else storage.zone_rows()
        n = len(values)
        nzones = (n + zr - 1) // zr
        empty = np.empty(0, dtype=np.int64)
        if n == 0:
            return cls(zr, 0, empty, empty.copy(), empty.copy(), empty.copy())
        vals = values.astype(np.int8) if values.dtype.kind == "b" else values
        starts = np.arange(nzones, dtype=np.int64) * zr
        if vals.dtype.kind == "f":
            nan = np.isnan(vals)
            usable = ~nan if mask is None else ~nan & ~mask
            nan_valid = nan if mask is None else nan & ~mask
            nnan = np.add.reduceat(nan_valid.astype(np.int64), starts)
        else:
            usable = None if mask is None else ~mask
            nnan = np.zeros(nzones, dtype=np.int64)
        if mask is None:
            nulls = np.zeros(nzones, dtype=np.int64)
        else:
            nulls = np.add.reduceat(mask.astype(np.int64), starts)
        if usable is None or bool(usable.all()):
            mins = np.minimum.reduceat(vals, starts)
            maxs = np.maximum.reduceat(vals, starts)
        else:
            lo_sent, hi_sent = _sentinels(vals.dtype)
            mins = np.minimum.reduceat(np.where(usable, vals, hi_sent), starts)
            maxs = np.maximum.reduceat(np.where(usable, vals, lo_sent), starts)
        return cls(zr, n, mins, maxs, nulls, nnan)

    def to_json(self) -> dict:
        """JSON-safe payload for the BAT descriptor (exact for int64)."""
        return {
            "zone_rows": self.zone_rows,
            "count": self.count,
            "dtype": self.mins.dtype.str,
            "mins": self.mins.tolist(),
            "maxs": self.maxs.tolist(),
            "nulls": self.nulls.tolist(),
            "nnan": self.nnan.tolist(),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "ZoneMap":
        dtype = np.dtype(payload["dtype"])
        return cls(
            payload["zone_rows"],
            payload["count"],
            np.array(payload["mins"], dtype=dtype),
            np.array(payload["maxs"], dtype=dtype),
            np.array(payload["nulls"], dtype=np.int64),
            np.array(payload["nnan"], dtype=np.int64),
        )

    # ------------------------------------------------------------------
    # per-zone classes
    # ------------------------------------------------------------------
    def _span(self, start: int, stop: int):
        """Per-zone stats of the zones overlapping ``[start, stop)``:
        min, max, NULL count, NaN count and usable (non-NULL, non-NaN)
        row count."""
        zr = self.zone_rows
        nzones = len(self.mins)
        zlo = start // zr
        zhi = max(zlo, min(nzones, (stop + zr - 1) // zr)) if stop > start else zlo
        rows = np.full(zhi - zlo, zr, dtype=np.int64)
        if zhi == nzones and zhi > zlo:
            rows[-1] = self.count - (nzones - 1) * zr
        nulls = self.nulls[zlo:zhi]
        nnan = self.nnan[zlo:zhi]
        return self.mins[zlo:zhi], self.maxs[zlo:zhi], nulls, nnan, rows - nulls - nnan

    def verdict_interval(
        self,
        start: int,
        stop: int,
        lo: Any,
        hi: Any,
        lo_inclusive: bool,
        hi_inclusive: bool,
        anti: bool,
    ) -> np.ndarray:
        """Per-zone classes of an interval predicate over [start, stop).

        Matches :func:`repro.gdk.select.rangeselect` (and through the
        ``[v, v]`` / one-sided mappings, :func:`thetaselect`) exactly,
        including the NaN-matches-anti rule.
        """
        mins, maxs, nulls, nnan, usable = self._span(start, stop)
        if anti and lo is None and hi is None:
            # keep starts all-ones and is inverted wholesale: nothing
            # (not even NaN) survives an unbounded anti range.
            return np.full(len(usable), MISS, dtype=np.int8)
        # hits: the zone's [min, max] overlaps the interval (so a match
        # is possible); contained: [min, max] lies fully inside it.
        hits = usable > 0
        contained = usable > 0
        if lo is not None:
            hits &= (maxs >= lo) if lo_inclusive else (maxs > lo)
            contained &= (mins >= lo) if lo_inclusive else (mins > lo)
        if hi is not None:
            hits &= (mins <= hi) if hi_inclusive else (mins < hi)
            contained &= (maxs <= hi) if hi_inclusive else (maxs < hi)
        if not anti:
            # NULL and NaN rows never match a normal range, so only the
            # usable-value overlap decides a miss.
            miss = ~hits
            full = contained & (nulls == 0) & (nnan == 0)
        else:
            # anti: usable rows match when outside the interval; NaN rows
            # always match (their comparisons are False before inversion).
            miss = (nnan == 0) & ((usable == 0) | contained)
            full = (nulls == 0) & ~hits
        return _classes(miss, full)

    def verdict_theta(self, start: int, stop: int, value: Any, op: str) -> np.ndarray:
        """Interval mapping of one theta comparison."""
        if op == "==":
            return self.verdict_interval(start, stop, value, value, True, True, False)
        if op == "!=":
            return self.verdict_interval(start, stop, value, value, True, True, True)
        if op == "<":
            return self.verdict_interval(start, stop, None, value, True, False, False)
        if op == "<=":
            return self.verdict_interval(start, stop, None, value, True, True, False)
        if op == ">":
            return self.verdict_interval(start, stop, value, None, False, True, False)
        return self.verdict_interval(start, stop, value, None, True, True, False)

    def verdict_null(self, start: int, stop: int, want_null: bool) -> np.ndarray:
        """Per-zone classes of ``IS [NOT] NULL`` from the NULL counters."""
        _, _, nulls, nnan, usable = self._span(start, stop)
        none_null = nulls == 0
        all_null = (usable == 0) & (nnan == 0)
        if want_null:
            return _classes(none_null, all_null)
        return _classes(all_null, none_null)

    def verdict_in(self, start: int, stop: int, values: list) -> np.ndarray:
        """Per-zone classes of membership in *values*.

        A zone misses when no candidate lies in its ``[min, max]`` and
        is all-matching when it holds one value, a candidate of its own
        kind, and no NULL or NaN.
        """
        mins, maxs, nulls, nnan, usable = self._span(start, stop)
        wanted = np.sort(np.asarray(values))
        if wanted.dtype == object:  # unorderable mix: every live zone scans
            return _classes(usable == 0, np.zeros(len(usable), dtype=np.bool_))
        # The smallest candidate >= each zone's min; a hit when it is
        # <= the zone's max (NaN candidates sort last and never hit).
        first = np.minimum(np.searchsorted(wanted, mins, side="left"), len(wanted) - 1)
        nearest = wanted[first]
        hits = (usable > 0) & (nearest >= mins) & (nearest <= maxs)
        full = hits & (mins == maxs) & (nulls == 0) & (nnan == 0)
        if wanted.dtype.kind != mins.dtype.kind:
            full[:] = False  # a cross-kind equality is left to the scan
        return _classes(~hits, full)

    def runs(self, start: int, stop: int, classes: np.ndarray):
        """Maximal runs of one class over the window ``[start, stop)``.

        *classes* is a ``verdict_*`` answer for the same window.
        Returns ``(firsts, ends, kinds)``: row bounds relative to
        *start* and the class of each run.  Adjacent zones of one class
        merge (one vector comparison, not a step per zone), so a uniform
        column is a single scan run however many zones it spans.  Rows
        of the window past the last zone are a scan run.
        """
        zr = self.zone_rows
        width = stop - start
        if len(classes):
            heads = np.flatnonzero(classes[1:] != classes[:-1])
            heads = np.concatenate(([-1], heads)) + 1
            firsts = np.maximum((start // zr + heads) * zr - start, 0)
            covered = min((start // zr + len(classes)) * zr - start, width)
            ends = np.append(firsts[1:], covered)
            kinds = classes[heads]
        else:
            firsts = ends = np.zeros(0, dtype=np.int64)
            kinds, covered = classes, 0
        if covered < width:
            firsts = np.append(firsts, covered)
            ends = np.append(ends, width)
            kinds = np.append(kinds, np.int8(SCAN))
        return firsts, ends, kinds


def _classes(miss: np.ndarray, full: np.ndarray) -> np.ndarray:
    """Class per zone: *miss* wins over *full*, neither is a scan."""
    classes = full.astype(np.int8) + np.int8(SCAN)  # ALL == SCAN + 1
    classes[miss] = MISS
    return classes


def ensure(b) -> Optional[ZoneMap]:
    """The (lazily built, cached) zone map of a ``mat.partition`` source.

    Builds over the dictionary codes for dictionary-encoded tails (the
    dictionary is sorted, so code order is value order) and over the
    raw values otherwise; plain string tails have no zones.  The cache
    lives on the BAT: appends and updates rebind a fresh BAT, so a
    cached map can never go stale.  Racing builders compute identical
    maps, so the unsynchronised cache write is benign.
    """
    cached = b._zones
    if cached is not None:
        return cached if isinstance(cached, ZoneMap) else None
    tail = b.tail
    codes = getattr(tail, "codes", None)
    source = codes if codes is not None else tail.values
    zm = None if source.dtype == object else ZoneMap.build(source, tail.mask)
    b._zones = zm if zm is not None else False
    return zm
