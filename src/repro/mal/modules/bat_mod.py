"""MAL module ``bat`` — BAT lifecycle and structural operations."""

from __future__ import annotations

from repro.errors import MALError
from repro.gdk.atoms import Atom
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
    """Materialise scalars into a single-column BAT (VALUES rows)."""
    if not values:
        raise MALError("bat.pack needs at least one value")
    sample = next((v for v in values if v is not None), None)
    if sample is None:
        return BAT(Column.nulls(Atom.INT, len(values)))
    from repro.gdk.atoms import atom_for_python

    atom = atom_for_python(sample)
    return BAT(Column.from_pylist(atom, list(values)))


@mal_op("bat", "getcount", sig="bat -> scalar")
def _getcount(ctx, b: BAT):
    return len(b)


@mal_op("bat", "project_const", sig="bat, scalar, str? -> bat")
def _project_const(ctx, b: BAT, value, atom_name: str | None = None):
    """Constant column aligned with *b* (MAL's ``algebra.project`` w/ const).

    The result keeps *b*'s head, so a fragment's constant column lines
    up with the fragment's candidate lists.  Without an explicit atom
    (untyped bind parameters) the atom is inferred from the runtime
    value.
    """
    if value is None:
        atom = Atom(atom_name) if atom_name else Atom.INT
        return BAT(Column.nulls(atom, len(b)), b.hseqbase)
    from repro.gdk.atoms import atom_for_python

    atom = Atom(atom_name) if atom_name else atom_for_python(value)
    return BAT(Column.constant(atom, value, len(b)), b.hseqbase)


@mal_op("bat", "cast", sig="bat, str -> bat")
def _cast(ctx, b: BAT, atom_name: str):
    return BAT(b.tail.cast(Atom(atom_name)), b.hseqbase)


@mal_op("bat", "mergecand", sig="cand+ -> cand")
def _mergecand(ctx, *parts: BAT):
    """Ordered union of per-fragment candidate lists (mergetable rejoin)."""
    from repro.gdk.bat import merge_candidates

    if not parts or not all(isinstance(p, BAT) for p in parts):
        raise MALError("bat.mergecand expects candidate BATs")
    return merge_candidates(parts)
