"""Selection operators of the kernel.

All selections produce *candidate lists*: BATs with oid tails holding
the head-oids of qualifying BUNs in ascending order — exactly how
MonetDB's ``algebra.select`` family communicates sub-sets between
operators without copying payloads.

There is one select family — :func:`select_true` over a bit column and
the value selects :func:`thetaselect`, :func:`rangeselect`,
:func:`isnull_select`, :func:`in_select` — and two storage-engine
integrations live in it:

* **Zone-map pruning** — pruning is a property of the data, not of the
  operator: every value select first asks the zone statistics its
  input has (:func:`_zone_window`: the zone map a farm column was
  loaded with, or its source's when the BAT is a ``mat.partition``
  fragment) for a whole-input verdict; a BAT with neither is scanned.  Provably-empty inputs return the empty candidate list and
  provably-full ones the complete (candidate-restricted) oid range, in
  both cases without touching the payload.  Pruned inputs are counted
  in :func:`repro.gdk.storage.note_pruned`; ``REPRO_ZONEMAPS=0``
  switches the short-circuit off (results are identical either way).
  :func:`select_true` never asks: its bit column was computed for this
  one query, so statistics over it could not be reused.
* **Dictionary codes** — selections over a
  :class:`~repro.gdk.dictenc.DictColumn` translate the predicate into
  code space (the dictionary is sorted, so one ``searchsorted`` per
  bound) and compare the int32 codes; the string payload is never
  decoded.

Scans over memory-mapped payloads report the bytes they page in via
:func:`repro.gdk.storage.note_scan`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import GDKError
from repro.gdk import storage, zonemap
from repro.gdk.atoms import Atom, comparand
from repro.gdk.bat import BAT
from repro.gdk.column import Column
from repro.gdk.dictenc import DictColumn

#: comparison operators accepted by :func:`thetaselect`.
THETA_OPS = ("==", "!=", "<", "<=", ">", ">=")


def _candidate_positions(b: BAT, candidates: BAT | None) -> tuple[np.ndarray, bool]:
    """Positions (0-based into *b*) restricted by an optional candidate list.

    Also reports whether the positions are known ascending — candidate
    lists are sorted by contract, so :func:`_result` can usually skip
    re-sorting its output.
    """
    if candidates is None:
        return np.arange(len(b), dtype=np.int64), True
    if candidates.atom is not Atom.OID:
        raise GDKError("candidate list must have oid tail")
    positions = candidates.tail.values - b.hseqbase
    if len(positions) and (positions.min() < 0 or positions.max() >= len(b)):
        raise GDKError("candidate oid outside BAT head range")
    is_sorted = bool(np.all(positions[1:] >= positions[:-1]))
    return positions, is_sorted


def _result(b: BAT, positions: np.ndarray, keep: np.ndarray, is_sorted: bool = False) -> BAT:
    oids = positions[keep] + b.hseqbase
    if not is_sorted:
        oids = np.sort(oids)
    return BAT.from_oids(oids)


# ----------------------------------------------------------------------
# zone-map plumbing
# ----------------------------------------------------------------------
def _zone_window(b: BAT) -> tuple:
    """(zone map, start-row offset) serving *b*, or ``(None, 0)``.

    A fragment produced by ``mat.partition`` carries its source and
    start row, so the source's single zone map — built on first use —
    answers for any fragment count.  A whole BAT is its own window from
    row 0 when it came with statistics (a farm column); none are built
    for it here, so a computed temporary or a small in-memory table
    never pays for statistics one select could not repay.
    """
    origin = b._zone_origin
    if origin is not None:
        source, start = origin
        return zonemap.ensure(source), start
    return b._zones or None, 0


def _verdict(b: BAT, kind: str, *args):
    """Whole-input zone verdict, or ``None`` when a scan is needed."""
    if not storage.zonemaps_enabled():
        return None
    zm, base = _zone_window(b)
    if zm is None:
        return None
    method = getattr(zm, f"verdict_{kind}")
    return method(base, base + len(b), *args)


def _verdict_result(
    b: BAT, candidates: BAT | None, verdict: str | None
) -> BAT | None:
    """Materialise a ``"none"``/``"all"`` verdict without a payload scan.

    Runs *before* candidate positions are materialised: a pruned
    fragment must not pay even the ``arange`` of its own oid range.
    """
    if verdict == "none":
        storage.note_pruned()
        return BAT.empty(Atom.OID)
    if verdict == "all":
        storage.note_pruned()
        if candidates is None:
            oids = np.arange(
                b.hseqbase, b.hseqbase + len(b), dtype=np.int64
            )
            return BAT.from_oids(oids)
        positions, presorted = _candidate_positions(b, candidates)
        keep = np.ones(len(positions), dtype=np.bool_)
        return _result(b, positions, keep, presorted)
    return None


def _finish(
    b: BAT,
    positions: np.ndarray,
    presorted: bool,
    keep: np.ndarray,
) -> BAT:
    keep = np.asarray(keep, dtype=np.bool_)
    if b.tail.mask is not None:
        keep &= ~b.tail.mask[positions]
    return _result(b, positions, keep, presorted)


# ----------------------------------------------------------------------
# selection kernels
# ----------------------------------------------------------------------
def select_true(b: BAT, candidates: BAT | None = None) -> BAT:
    """Oids where a bit column is TRUE (NULL counts as not-true)."""
    if b.atom is not Atom.BIT:
        raise GDKError("select_true needs a bit BAT")
    positions, presorted = _candidate_positions(b, candidates)
    storage.note_scan(b.tail.values)
    values = b.tail.values[positions]
    return _finish(b, positions, presorted, values.astype(np.bool_))


def _theta_code_predicate(
    dictionary: np.ndarray, coerced: Any, op: str
) -> tuple[str, int] | bool:
    """Translate ``<op> value`` into code space.

    Returns ``(code_op, code)`` — with ``code_op`` one of ``==``,
    ``!=``, ``<``, ``>=`` — or ``True`` (every non-NULL row matches) /
    ``False`` (no row matches) when the value is absent and the
    comparison degenerates.
    """
    left = int(np.searchsorted(dictionary, coerced, side="left"))
    right = int(np.searchsorted(dictionary, coerced, side="right"))
    found = right > left
    if op == "==":
        return ("==", left) if found else False
    if op == "!=":
        return ("!=", left) if found else True
    if op == "<":
        return ("<", left)
    if op == "<=":
        return ("<", right)
    if op == ">":
        return (">=", right)
    return (">=", left)  # ">="


def _apply_code_predicate(codes: np.ndarray, code_op: str, code: int) -> np.ndarray:
    if code_op == "==":
        return codes == code
    if code_op == "!=":
        return codes != code
    if code_op == "<":
        return codes < code
    return codes >= code


def thetaselect(
    b: BAT,
    value: Any,
    op: str,
    candidates: BAT | None = None,
) -> BAT:
    """Oids whose tail satisfies ``tail <op> value``.

    NULL tails never qualify; a NULL *value* yields the empty candidate
    list (SQL three-valued logic collapses to false under selection).
    """
    if op not in THETA_OPS:
        raise GDKError(f"unknown theta operator {op!r}")
    if value is None:
        return BAT.empty(Atom.OID)
    coerced = comparand(value, b.atom)
    tail = b.tail
    if isinstance(tail, DictColumn):
        predicate = _theta_code_predicate(tail.dictionary, coerced, op)
        if predicate is False:
            return BAT.empty(Atom.OID)
        if predicate is True:
            positions, presorted = _candidate_positions(b, candidates)
            keep = np.ones(len(positions), dtype=np.bool_)
            return _finish(b, positions, presorted, keep)
        code_op, code = predicate
        verdict = _verdict(b, "theta", code, code_op)
        short = _verdict_result(b, candidates, verdict)
        if short is not None:
            return short
        positions, presorted = _candidate_positions(b, candidates)
        storage.note_scan(tail.codes)
        keep = _apply_code_predicate(tail.codes[positions], code_op, code)
        return _finish(b, positions, presorted, keep)
    verdict = _verdict(b, "theta", coerced, op)
    short = _verdict_result(b, candidates, verdict)
    if short is not None:
        return short
    positions, presorted = _candidate_positions(b, candidates)
    storage.note_scan(tail.values)
    values = tail.values[positions]
    if op == "==":
        keep = values == coerced
    elif op == "!=":
        keep = values != coerced
    elif op == "<":
        keep = values < coerced
    elif op == "<=":
        keep = values <= coerced
    elif op == ">":
        keep = values > coerced
    else:
        keep = values >= coerced
    return _finish(b, positions, presorted, keep)


def rangeselect(
    b: BAT,
    low: Any,
    high: Any,
    low_inclusive: bool = True,
    high_inclusive: bool = True,
    anti: bool = False,
    candidates: BAT | None = None,
) -> BAT:
    """Oids with ``low <(=) tail <(=) high``; with ``anti=True`` the
    oids where that conjunction is FALSE (never NULL tails).

    A ``None`` bound is SQL's NULL, as :func:`thetaselect`'s ``None``
    value is: its comparison is unknown, so the conjunction is never
    TRUE, and it is FALSE only where the other bound already fails.
    A one-sided range is a :func:`thetaselect`.
    """
    if low is None or high is None:
        if not anti or (low is None and high is None):
            return BAT.empty(Atom.OID)
        if low is None:
            return thetaselect(b, high, ">" if high_inclusive else ">=", candidates)
        return thetaselect(b, low, "<" if low_inclusive else "<=", candidates)
    tail = b.tail
    lo = comparand(low, b.atom)
    hi = comparand(high, b.atom)
    if isinstance(tail, DictColumn):
        # Half-open window [lo, hi) in code space.
        dictionary = tail.dictionary
        lo = int(np.searchsorted(dictionary, lo, side="left" if low_inclusive else "right"))
        hi = int(np.searchsorted(dictionary, hi, side="right" if high_inclusive else "left"))
        low_inclusive, high_inclusive = True, False
        payload = tail.codes
    else:
        payload = tail.values
    verdict = _verdict(b, "interval", lo, hi, low_inclusive, high_inclusive, anti)
    short = _verdict_result(b, candidates, verdict)
    if short is not None:
        return short
    positions, presorted = _candidate_positions(b, candidates)
    storage.note_scan(payload)
    values = payload[positions]
    keep = (values >= lo) if low_inclusive else (values > lo)
    keep &= (values <= hi) if high_inclusive else (values < hi)
    if anti:
        keep = ~keep
    return _finish(b, positions, presorted, keep)


def isnull_select(
    b: BAT,
    want_null: bool = True,
    candidates: BAT | None = None,
) -> BAT:
    """Oids whose tail is NULL (or NOT NULL with ``want_null=False``)."""
    verdict = _verdict(b, "null", want_null)
    short = _verdict_result(b, candidates, verdict)
    if short is not None:
        return short
    positions, presorted = _candidate_positions(b, candidates)
    mask = b.tail.effective_mask()[positions]
    keep = mask if want_null else ~mask
    return _result(b, positions, keep, presorted)


def in_select(
    b: BAT,
    values: list[Any],
    candidates: BAT | None = None,
) -> BAT:
    """Oids whose tail equals any of *values* (NULL members ignored)."""
    concrete = [comparand(v, b.atom) for v in values if v is not None]
    if not concrete:
        return BAT.empty(Atom.OID)
    tail = b.tail
    if isinstance(tail, DictColumn):
        dictionary = tail.dictionary
        lefts = np.searchsorted(dictionary, np.array(concrete, dtype=object), side="left")
        present = [
            int(code)
            for code, value in zip(lefts, concrete)
            if code < len(dictionary) and dictionary[code] == value
        ]
        if not present:
            return BAT.from_oids(np.empty(0, dtype=np.int64))
        verdict = _verdict(b, "in", present)
        short = _verdict_result(b, candidates, verdict)
        if short is not None:
            return short
        positions, presorted = _candidate_positions(b, candidates)
        storage.note_scan(tail.codes)
        keep = np.isin(tail.codes[positions], np.array(present, dtype=np.int32))
        return _finish(b, positions, presorted, keep)
    verdict = _verdict(b, "in", concrete)
    short = _verdict_result(b, candidates, verdict)
    if short is not None:
        return short
    positions, presorted = _candidate_positions(b, candidates)
    storage.note_scan(tail.values)
    gathered = tail.values[positions]
    if b.atom is Atom.STR:
        keep = np.isin(gathered.astype(object), np.array(concrete, dtype=object))
    else:
        keep = np.isin(gathered, np.array(concrete))
    return _finish(b, positions, presorted, keep)


def boolean_column_from_candidates(length: int, hseqbase: int, candidates: BAT) -> Column:
    """Densify a candidate list back into a bit column of *length*."""
    out = np.zeros(length, dtype=np.bool_)
    positions = candidates.tail.values - hseqbase
    if len(positions) and (positions.min() < 0 or positions.max() >= length):
        raise GDKError("candidate oid outside target range")
    out[positions] = True
    return Column(Atom.BIT, out)
