"""Selection operators of the kernel.

All selections produce *candidate lists*: BATs with oid tails holding
the head-oids of qualifying BUNs in ascending order — exactly how
MonetDB's ``algebra.select`` family communicates sub-sets between
operators without copying payloads.

There is one select family — :func:`select_true` over a bit column and
the value selects :func:`thetaselect`, :func:`rangeselect`,
:func:`isnull_select`, :func:`in_select` — and they share one walker,
:func:`_select`, with two storage-engine integrations:

* **Zone-granular scans** — pruning is a property of the data, not of
  the operator: a value select asks the zone statistics its input has
  (:func:`_zone_window`: the zone map a farm column was loaded with,
  or its source's when the BAT is a ``mat.partition`` fragment) for
  one class per zone, merged into runs of one class
  (:meth:`repro.gdk.zonemap.ZoneMap.runs`).  A *miss* run is skipped,
  an *all* run is emitted as a dense oid range, and a *scan* run
  compares its payload slice in place and keeps
  ``np.flatnonzero(keep) + start``.  An input without statistics — a
  computed temporary or an unfragmented in-memory column — is one scan
  run; it too skips the ``arange`` of its positions and the gather
  through them.  Results are byte-identical either way.  An input
  answered without reading any payload is counted by
  :func:`repro.gdk.storage.note_pruned`.
  :func:`select_true` never asks: its bit column was computed for this
  one query, so statistics over it could not be reused.  A select with
  a candidate list gathers the candidates' values and tests those; its
  zones answer only when every one of them agrees.
* **Dictionary codes** — selections over a
  :class:`~repro.gdk.dictenc.DictColumn` translate the predicate into
  code space (the dictionary is sorted, so one ``searchsorted`` per
  bound) and compare the int32 codes; the string payload is never
  decoded.

Scans over memory-mapped payloads report the bytes of each scanned run
via :func:`repro.gdk.storage.note_scan`, so ``bytes_faulted`` follows a
clustered predicate's selectivity.
"""

from __future__ import annotations

import operator
from typing import Any

import numpy as np

from repro.errors import GDKError
from repro.gdk import storage, zonemap
from repro.gdk.atoms import Atom, comparand
from repro.gdk.bat import BAT
from repro.gdk.column import Column
from repro.gdk.dictenc import DictColumn

#: comparison operators accepted by :func:`thetaselect`.
THETA_OPS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


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


def _result(b: BAT, positions: np.ndarray, keep: np.ndarray, is_sorted: bool) -> BAT:
    oids = positions[keep] + b.hseqbase
    if not is_sorted:
        oids = np.sort(oids)
    return BAT.from_oids(oids)


# ----------------------------------------------------------------------
# zone-granular walking
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


def _runs(b: BAT, kind: str | None, *args) -> tuple | None:
    """Class runs ``(firsts, ends, kinds)`` of a predicate over *b*.

    ``None`` — the whole input is one scan run — when *b* has no zone
    statistics or *kind* is ``None`` (the input was computed for this
    query).
    """
    if kind is None:
        return None
    zm, base = _zone_window(b)
    if zm is None:
        return None
    classes = getattr(zm, f"verdict_{kind}")(base, base + len(b), *args)
    return zm.runs(base, base + len(b), classes)


def _select(
    b: BAT,
    payload: np.ndarray,
    test,
    candidates: BAT | None,
    zones: tuple,
    masked: bool = True,
) -> BAT:
    """Oids of *b* whose *payload* row satisfies ``test(values) -> keep``.

    *zones* is ``(kind, *args)`` of the ``verdict_*`` that classifies
    the predicate (``(None,)`` for none).  *masked* drops NULL rows
    from the scanned runs; ``isnull_select`` tests the mask itself.

    Without a candidate list the select walks the class runs: a miss
    run is skipped, an all run is a dense oid range, and a scan run
    tests its payload slice in place — no ``arange`` of the input and
    no gather.  Each scanned run is charged to
    :func:`~repro.gdk.storage.note_scan`; an input answered by its zone
    statistics alone counts as pruned.  A candidate list keeps the
    gather, pruned only when every zone agrees.
    """
    runs = _runs(b, *zones)
    if candidates is not None:
        return _select_candidates(b, payload, test, candidates, runs, masked)
    if runs is None:
        firsts, ends, kinds = (0,), (len(b),), (zonemap.SCAN,)
    else:
        firsts, ends, kinds = (part.tolist() for part in runs)
    mask = b.tail.mask if masked else None
    base = b.hseqbase
    pieces = []
    scanned = False
    for first, end, kind in zip(firsts, ends, kinds):
        if kind == zonemap.ALL:
            pieces.append(np.arange(base + first, base + end, dtype=np.int64))
        elif kind == zonemap.SCAN:
            window = payload[first:end]
            storage.note_scan(window)
            keep = test(window)
            if mask is not None:
                keep &= ~mask[first:end]
            hits = keep.nonzero()[0]
            hits += base + first
            pieces.append(hits)
            scanned = True
    if runs is not None and not scanned:
        storage.note_pruned()
    if len(pieces) == 1:
        return BAT.from_oids(pieces[0])
    if not pieces:
        return BAT.empty(Atom.OID)
    return BAT.from_oids(np.concatenate(pieces))


def _select_candidates(
    b: BAT,
    payload: np.ndarray,
    test,
    candidates: BAT,
    runs: tuple | None,
    masked: bool,
) -> BAT:
    """:func:`_select` restricted by a candidate list (gather, then test)."""
    if runs is not None:
        kinds = runs[2]
        if not kinds.any():  # every zone a miss
            storage.note_pruned()
            return BAT.empty(Atom.OID)
        if bool((kinds == zonemap.ALL).all()):
            storage.note_pruned()
            positions, presorted = _candidate_positions(b, candidates)
            return _result(b, positions, np.ones(len(positions), dtype=np.bool_), presorted)
    positions, presorted = _candidate_positions(b, candidates)
    storage.note_scan(payload)
    keep = np.asarray(test(payload[positions]), dtype=np.bool_)
    if masked and b.tail.mask is not None:
        keep &= ~b.tail.mask[positions]
    return _result(b, positions, keep, presorted)


# ----------------------------------------------------------------------
# selection kernels
# ----------------------------------------------------------------------
def select_true(b: BAT, candidates: BAT | None = None) -> BAT:
    """Oids where a bit column is TRUE (NULL counts as not-true).

    Its bit column was computed for this one query, so it has no zone
    statistics to consult.
    """
    if b.atom is not Atom.BIT:
        raise GDKError("select_true needs a bit BAT")
    return _select(b, b.tail.values, _is_true, candidates, (None,))


def _is_true(values: np.ndarray) -> np.ndarray:
    return values.astype(np.bool_)


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
            # Every non-NULL row: the IS NOT NULL classes answer it.
            return _select(b, tail.codes, _every, candidates, ("null", False))
        op, coerced = predicate
        payload = tail.codes
    else:
        payload = tail.values
    compare = THETA_OPS[op]
    return _select(
        b, payload, lambda values: compare(values, coerced), candidates,
        ("theta", coerced, op),
    )


def _every(values: np.ndarray) -> np.ndarray:
    return np.ones(len(values), dtype=np.bool_)


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
    above = operator.ge if low_inclusive else operator.gt
    below = operator.le if high_inclusive else operator.lt

    def test(values):
        keep = above(values, lo)
        keep &= below(values, hi)
        return ~keep if anti else keep

    return _select(
        b, payload, test, candidates,
        ("interval", lo, hi, low_inclusive, high_inclusive, anti),
    )


def isnull_select(
    b: BAT,
    want_null: bool = True,
    candidates: BAT | None = None,
) -> BAT:
    """Oids whose tail is NULL (or NOT NULL with ``want_null=False``)."""
    test = _identity if want_null else np.logical_not
    return _select(
        b, b.tail.effective_mask(), test, candidates, ("null", want_null), masked=False
    )


def _identity(values: np.ndarray) -> np.ndarray:
    return values


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
        concrete = [
            int(code)
            for code, value in zip(lefts, concrete)
            if code < len(dictionary) and dictionary[code] == value
        ]
        if not concrete:
            return BAT.empty(Atom.OID)
        payload = tail.codes
        wanted = np.array(concrete, dtype=np.int32)
    elif b.atom is Atom.STR:
        payload = tail.values
        wanted = np.array(concrete, dtype=object)
    else:
        payload = tail.values
        wanted = np.array(concrete)
    return _select(
        b, payload, lambda window: np.isin(window, wanted), candidates,
        ("in", concrete),
    )


def boolean_column_from_candidates(length: int, hseqbase: int, candidates: BAT) -> Column:
    """Densify a candidate list back into a bit column of *length*."""
    out = np.zeros(length, dtype=np.bool_)
    positions = candidates.tail.values - hseqbase
    if len(positions) and (positions.min() < 0 or positions.max() >= length):
        raise GDKError("candidate oid outside target range")
    out[positions] = True
    return Column(Atom.BIT, out)
