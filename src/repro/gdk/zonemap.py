"""Zone maps: per-zone min/max/null statistics for fragment pruning.

A :class:`ZoneMap` summarises a column in fixed-size *zones* of
``REPRO_ZONE_ROWS`` rows (default 4096): per zone the minimum and
maximum over the usable (non-NULL, non-NaN) values, the NULL count and
the NaN count.  Pruning is a property of the data: whichever value
select of :mod:`repro.gdk.select` reads a BAT that has zone statistics
— its own, or through its partition origin its source's — consults the
zones overlapping the BAT's row window and can often answer for the
whole input without touching the payload:

* ``"none"`` — no row of the fragment can satisfy the predicate; the
  selection returns the empty candidate list;
* ``"all"`` — every row satisfies it; the selection returns the full
  (candidate-restricted) oid range;
* ``None`` — the zones are inconclusive; scan normally.

Zones of a *fragment* come from its source BAT: ``mat.partition``
records ``(source, start)`` on the fragment (see
:func:`repro.gdk.bat.partition`), so one zone map built — or loaded
from the farm descriptor — on the source serves every fragment and
every fragment count.  Verdicts over a window are conservative: a zone
partially overlapping the window contributes rows outside it, which
can only weaken a verdict into ``None``, never flip one.

The verdict logic mirrors the exact NULL/NaN semantics of
:mod:`repro.gdk.select`: NULL rows never match any predicate (the mask
is applied last), NaN never satisfies a comparison, and therefore NaN
rows *do* match an ``anti`` range (and ``!=``) whenever at least one
bound is present — the per-zone NaN counters exist precisely so the
anti verdicts stay byte-identical to a real scan.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.gdk import storage


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
    # verdicts
    # ------------------------------------------------------------------
    def _span(self, start: int, stop: int):
        """Per-zone stat slices + row counts for the window [start, stop)."""
        zr = self.zone_rows
        nzones = len(self.mins)
        zlo = max(0, start) // zr
        zhi = min(nzones, (stop + zr - 1) // zr)
        if zhi <= zlo:
            return None
        rows = np.full(zhi - zlo, zr, dtype=np.int64)
        if zhi == nzones:
            rows[-1] = self.count - (nzones - 1) * zr
        return (
            self.mins[zlo:zhi],
            self.maxs[zlo:zhi],
            self.nulls[zlo:zhi],
            self.nnan[zlo:zhi],
            rows,
        )

    def verdict_interval(
        self,
        start: int,
        stop: int,
        lo: Any,
        hi: Any,
        lo_inclusive: bool,
        hi_inclusive: bool,
        anti: bool,
    ) -> Optional[str]:
        """``"none"`` / ``"all"`` / ``None`` for an interval predicate.

        Matches :func:`repro.gdk.select.rangeselect` (and through the
        ``[v, v]`` / one-sided mappings, :func:`thetaselect` and
        :func:`select_true`) exactly, including the NaN-matches-anti
        rule.
        """
        if stop <= start:
            return "none"
        span = self._span(start, stop)
        if span is None:
            return "none"
        mins, maxs, nulls, nnan, rows = span
        usable = rows - nulls - nnan
        if anti and lo is None and hi is None:
            # keep starts all-ones and is inverted wholesale: nothing
            # (not even NaN) survives an unbounded anti range.
            return "none"
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
            # usable-value overlap matters for the empty verdict.
            if not hits.any():
                return "none"
            if not nulls.sum() and not nnan.sum() and bool(contained.all()):
                return "all"
            return None
        # anti: usable rows match when outside the interval; NaN rows
        # always match (their comparisons are False before inversion).
        if not nnan.sum() and bool(np.all((usable == 0) | contained)):
            return "none"
        if not nulls.sum() and bool(np.all((usable == 0) | ~hits)):
            return "all"
        return None

    def verdict_theta(self, start: int, stop: int, value: Any, op: str) -> Optional[str]:
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
        if op == ">=":
            return self.verdict_interval(start, stop, value, None, True, True, False)
        return None

    def verdict_null(self, start: int, stop: int, want_null: bool) -> Optional[str]:
        """Verdict for ``isnilselect`` from the per-zone NULL counters."""
        if stop <= start:
            return "none"
        span = self._span(start, stop)
        if span is None:
            return "none"
        _, _, nulls, _, rows = span
        total = int(nulls.sum())
        if want_null:
            if total == 0:
                return "none"
            if bool(np.all(nulls == rows)):
                return "all"
        else:
            if bool(np.all(nulls == rows)):
                return "none"
            if total == 0:
                return "all"
        return None

    def verdict_in(self, start: int, stop: int, values: list) -> Optional[str]:
        """``"none"`` when no candidate value can occur in the window."""
        if stop <= start:
            return "none"
        span = self._span(start, stop)
        if span is None:
            return "none"
        mins, maxs, nulls, nnan, rows = span
        usable = rows - nulls - nnan
        live = usable > 0
        if not live.any():
            return "none"
        lo_live = mins[live]
        hi_live = maxs[live]
        for value in values:
            if bool(np.any((lo_live <= value) & (value <= hi_live))):
                return None
        return "none"


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
