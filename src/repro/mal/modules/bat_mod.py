"""MAL module ``bat`` — BAT lifecycle and structural operations."""

from __future__ import annotations

import numpy as np

from repro.errors import MALError
from repro.gdk.atoms import Atom, atom_for_python, is_numeric, widest
from repro.gdk.bat import BAT
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
    """Materialise scalars into a single-column BAT (VALUES rows).

    A leading atom (``bat.pack(:dbl, 1, "2.5")``, how a VALUES column
    names its target's type) converts every value into it by the one
    rule; without one the values type themselves.  A lone parameter
    bound to a list — ``executemany`` binds each ``?`` of a one-row
    VALUES to the column of its values — packs that list.
    """
    atom = None
    if values and isinstance(values[0], Atom):
        atom, values = values[0], values[1:]
    if len(values) == 1 and isinstance(values[0], list):
        values = values[0]
    if not values:
        raise MALError("bat.pack needs at least one value")
    if atom is None:
        atom = _common_atom([atom_for_python(v) for v in values if v is not None])
    return BAT(Column.from_pylist(atom, values))


def _common_atom(atoms: list) -> Atom:
    """Numbers widen, so each keeps its value (``VALUES (1), (2**33)``
    is lng, ``0 + ?`` bound to ``2.5`` dbl); any other mix takes the
    first atom, which converts the rest; no atom at all is int."""
    if all(map(is_numeric, atoms)):
        return widest(atoms) or Atom.INT
    return atoms[0]


@mal_op("bat", "getcount", sig="bat -> scalar")
def _getcount(ctx, b: BAT):
    return np.int64(len(b))  # declared lng


@mal_op("bat", "project_const", sig="bat, scalar, str? -> bat")
def _project_const(ctx, b: BAT, value, atom_name: str | None = None):
    """Constant column aligned with *b* (MAL's ``algebra.project`` w/ const).

    The result keeps *b*'s head, so a fragment's constant column lines
    up with the fragment's candidate lists.  *atom_name* is the static
    atom; the value's own atom (:func:`~repro.gdk.atoms.atom_for_python`)
    decides where there is none (an untyped bind parameter) and where it
    is wider (``0 + ?`` bound to ``2.5`` is a double, as it would be
    inside an expression).  ``Column.constant`` converts the value by
    the one rule, so one that the atom cannot hold is NULL.
    """
    atoms = [Atom(atom_name)] if atom_name else []
    if value is not None:
        atoms.append(atom_for_python(value))
    return BAT(Column.constant(_common_atom(atoms), value, len(b)), b.hseqbase)


@mal_op("bat", "mergecand", sig="cand+ -> cand")
def _mergecand(ctx, *parts: BAT):
    """Ordered union of per-fragment candidate lists (mergetable rejoin)."""
    from repro.gdk.bat import merge_candidates

    if not parts or not all(isinstance(p, BAT) for p in parts):
        raise MALError("bat.mergecand expects candidate BATs")
    return merge_candidates(parts)
