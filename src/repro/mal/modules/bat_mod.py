"""MAL module ``bat`` — BAT lifecycle and structural operations."""

from __future__ import annotations

import numpy as np

from repro.errors import MALError
from repro.gdk.atoms import Atom, common_numeric, is_numeric
from repro.gdk.bat import BAT
from repro.gdk.calc import scalar_atom
from repro.gdk.column import Column
from repro.mal.modules import mal_op


@mal_op("bat", "mirror", sig="bat -> cand")
def _mirror(ctx, b: BAT):
    return b.mirror()


@mal_op("bat", "append", sig="bat, bat -> bat")
def _append(ctx, target: BAT, source: BAT):
    return target.append(source)


@mal_op("bat", "slice", sig="bat, int, int -> bat")
def _slice(ctx, b: BAT, start, stop):
    return b.slice(int(start), int(stop))


@mal_op("bat", "pack", sig="scalar* -> bat")
def _pack(ctx, *values):
    """Materialise scalars into a single-column BAT (VALUES rows)."""
    if not values:
        raise MALError("bat.pack needs at least one value")
    sample = next((v for v in values if v is not None), None)
    if sample is None:
        return BAT(Column.nulls(Atom.INT, len(values)))
    # A declared lng (COUNT, SUM, a BIGINT column's MIN) arrives as a
    # ``numpy.int64`` and keeps its width; a Python int types by magnitude.
    return BAT(Column.from_pylist(scalar_atom(sample), list(values)))


@mal_op("bat", "getcount", sig="bat -> scalar")
def _getcount(ctx, b: BAT):
    return np.int64(len(b))  # declared lng


@mal_op("bat", "project_const", sig="bat, scalar, str? -> bat")
def _project_const(ctx, b: BAT, value, atom_name: str | None = None):
    """Constant column aligned with *b* (MAL's ``algebra.project`` w/ const).

    The result keeps *b*'s head, so a fragment's constant column lines
    up with the fragment's candidate lists.  *atom_name* is the static
    atom; the value decides where there is none (an untyped bind
    parameter) and where it is wider (``0 + ?`` bound to ``2.5`` is a
    double, as it would be inside an expression).
    """
    if value is None:
        atom = Atom(atom_name) if atom_name else Atom.INT
        return BAT(Column.nulls(atom, len(b)), b.hseqbase)
    atom = scalar_atom(value)
    if atom_name and is_numeric(atom) and is_numeric(Atom(atom_name)):
        atom = common_numeric(atom, Atom(atom_name))
    elif atom_name:
        atom = Atom(atom_name)
    return BAT(Column.constant(atom, value, len(b)), b.hseqbase)


@mal_op("bat", "mergecand", sig="cand+ -> cand")
def _mergecand(ctx, *parts: BAT):
    """Ordered union of per-fragment candidate lists (mergetable rejoin)."""
    from repro.gdk.bat import merge_candidates

    if not parts or not all(isinstance(p, BAT) for p in parts):
        raise MALError("bat.mergecand expects candidate BATs")
    return merge_candidates(parts)
