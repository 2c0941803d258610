"""MAL module ``algebra`` — selections, projections, joins, sorting."""

from __future__ import annotations

import numpy as np

from repro.errors import MALError
from repro.gdk import join as join_kernel
from repro.gdk import select as select_kernel
from repro.gdk import sort as sort_kernel
from repro.gdk.atoms import Atom
from repro.gdk.bat import BAT
from repro.mal.modules import mal_op


# The select family.  Every member returns a candidate list, optionally
# restricted to an incoming one, and never matches a NULL tail.  The
# value selects consult the zone statistics of their input (or of the
# source it is a ``mat.partition`` fragment of) before scanning.
@mal_op("algebra", "select", sig="bat(bit), cand? -> cand")
def _select(ctx, b: BAT, candidates=None):
    """Candidate list of oids whose bit tail is TRUE."""
    return select_kernel.select_true(b, candidates)


@mal_op("algebra", "thetaselect", sig="bat, scalar, str, cand? -> cand")
def _thetaselect(ctx, b: BAT, value, op: str, candidates=None):
    return select_kernel.thetaselect(b, value, op, candidates)


@mal_op("algebra", "rangeselect", sig="bat, scalar, scalar, bool, bool, bool, cand? -> cand")
def _rangeselect(ctx, b: BAT, low, high, li, hi, anti, candidates=None):
    return select_kernel.rangeselect(b, low, high, bool(li), bool(hi), bool(anti), candidates)


@mal_op("algebra", "isnilselect", sig="bat, bool, cand? -> cand")
def _isnilselect(ctx, b: BAT, want_null, candidates=None):
    return select_kernel.isnull_select(b, bool(want_null), candidates)


@mal_op("algebra", "projection", sig="oids, bat -> bat")
def _projection(ctx, candidates: BAT, b: BAT):
    """Fetch-join: tail values of *b* at the candidate oids."""
    return b.project(candidates)


@mal_op("algebra", "projectionsafe", sig="oids, bat -> bat")
def _projectionsafe(ctx, candidates: BAT, b: BAT):
    """Like projection but oid -1 yields NULL (outer-join fetch)."""
    if candidates.atom is not Atom.OID:
        raise MALError("projection candidates must be oids")
    positions = candidates.tail.values - b.hseqbase
    positions = np.where(candidates.tail.values < 0, -1, positions)
    return BAT(b.tail.take_with_invalid(positions))


@mal_op("algebra", "join", sig="bat, bat, bool?, cand?, cand? -> oids, oids")
def _join(ctx, left: BAT, right: BAT, nil_matches=False, lcand=None, rcand=None):
    return join_kernel.join(left, right, bool(nil_matches), lcand, rcand)


@mal_op("algebra", "leftjoin", sig="bat, bat, cand?, cand? -> oids, oids")
def _leftjoin(ctx, left: BAT, right: BAT, lcand=None, rcand=None):
    return join_kernel.leftjoin(left, right, lcand, rcand)


@mal_op("algebra", "crossproduct", sig="int, int -> oids, oids")
def _crossproduct(ctx, left_count, right_count):
    return join_kernel.crossproduct(int(left_count), int(right_count))


@mal_op("algebra", "sortmulti", sig="json, bat+ -> oids")
def _sortmulti(ctx, flags_json: str, *bats: BAT):
    """Multi-key sort; flags encode descending per key. Returns order."""
    import json

    flags = json.loads(flags_json)
    columns = [b.tail for b in bats]
    order = sort_kernel.sort_order_multi(columns, [bool(f) for f in flags])
    return BAT.from_oids(order)


@mal_op("algebra", "inselect", sig="bat, json, cand? -> cand")
def _inselect(ctx, b: BAT, values_json: str, candidates=None):
    import json

    return select_kernel.in_select(b, json.loads(values_json), candidates)


@mal_op("algebra", "rowmembership", sig="int, bat+ -> bat(bit)")
def _rowmembership(ctx, count, *bats: BAT):
    """bit BAT over the first *count* BATs (left rows) marking rows that
    also appear in the remaining *count* BATs (right rows)."""
    from repro.gdk.atoms import Atom as _Atom
    from repro.gdk.column import Column as _Column
    from repro.gdk.join import rows_membership

    count = int(count)
    if len(bats) != 2 * count:
        raise MALError("algebra.rowmembership: arity mismatch")
    left = [b.tail for b in bats[:count]]
    right = [b.tail for b in bats[count:]]
    return BAT(_Column(_Atom.BIT, rows_membership(left, right)))
