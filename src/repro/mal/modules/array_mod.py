"""MAL module ``array`` — the SciQL-specific kernel primitives.

Section 3 of the paper introduces exactly two new primitives for array
materialisation, reproduced here with their signatures:

    command array.series(start:int, step:int, stop:int, N:int, M:int)
        :bat[:oid,:int]
    pattern array.filler(cnt:lng, v:any_1) :bat[:oid,:any_1]

(the catalog materialises a new array through
:func:`~repro.gdk.cells.series_column` and :func:`filler_column`
directly; no plan emits ``array.filler``, so only ``array.series`` is
registered as an op), plus the tiling kernels the
structural GROUP BY compiles into (``array.tileagg`` and its
halo-fragment sibling ``array.tilepart``) and the coordinate → cell oid
mapping behind relative cell access such as ``A[x-1][y]``
(``array.cellindex``).

Tiling ops carry one JSON metadata constant, a
:class:`~repro.core.tiling.Tile` (its one encoder and decoder): the
array's shape, the tile's box (per dimension, an inclusive rank range
``[lo, hi]``), and for a ``tileagg`` whose HAVING keeps an anchor
lattice (``x MOD 2 = 0``) that lattice, compact when its rows are those
anchors alone (the result's dimensions are then ``array.series`` of the
lattice values, with the series' atom as a sixth argument).

A one-cell box is a constant shift of the value BAT, and that is how
malgen lowers a cell reference to the scanned array itself whose every
index is its own unrestricted dimension plus or minus a constant:
``img[x-1][y]`` is ``array.tileagg(v, "min", {"shape": .., "box":
[[-1, -1], [0, 0]]})`` — the one cell where it exists, NULL where it is
a hole or outside the array, exactly what ``algebra.projectionsafe``
answers for ``array.cellindex``'s -1 (all offsets zero is the attribute
BAT itself, and no op at all).  Being a ``tileagg`` it fragments into
halo ``tilepart`` calls in the scan's row space like any other tile;
every other shape of cell reference (computed offsets, another array,
non-numeric attributes, restricted scans) takes ``array.cellindex``
plus the gather.

``array.cellindex`` also takes one *scalar* per dimension: that is how
a predicate pinning every dimension of a scanned array (``WHERE x = ?
AND y = ?``) lowers, and it answers the zero or one oid of the cell
those values name by arithmetic, with no scan.  Each scalar is typed
as ``algebra.thetaselect`` types its value against the dimension BAT
(the same ``atoms.comparand``), so both forms select the same cell;
a NULL, non-integral, off-step or out-of-range value names none.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import GDKError, MALError
from repro.gdk.atoms import Atom, atom_for_python, comparand
from repro.gdk.bat import BAT, partition_bounds
from repro.gdk.cells import cell_position, cell_positions, series_column
from repro.gdk.column import Column
from repro.core.tiling import Tile, lattice_cells, tile_aggregate, tile_aggregate_fragment
from repro.mal.modules import cached_loads, mal_op


def filler_column(count: int, value: Any, atom: Atom | None = None) -> Column:
    """The ``array.filler`` pattern as a column.

    Creates ``count`` entries of ``value``; a ``None`` value produces
    NULLs (an array attribute without a DEFAULT starts as holes).
    """
    if count < 0:
        raise GDKError("array.filler needs a non-negative count")
    if value is None:
        return Column.nulls(atom or Atom.INT, count)
    return Column.constant(atom or atom_for_python(value), value, count)


@mal_op("array", "series", sig="scalar, scalar, scalar, int, int, str? -> bat")
def _series(ctx, start, step, stop, inner, outer, atom=None):
    return BAT(
        series_column(
            int(start), int(step), int(stop), int(inner), int(outer),
            Atom(atom) if atom else Atom.LNG,
        )
    )


@mal_op("array", "tileagg", sig="bat, str, json -> bat")
def _tileagg(ctx, values: BAT, aggregate: str, meta_json: str):
    """Aggregate every anchor's tile over a cell-aligned value BAT.

    ``meta_json`` encodes a :class:`~repro.core.tiling.Tile`; its
    lattice keeps only the anchors it names, one row each (compact) or
    at their own cells with NULL everywhere else.
    """
    if not isinstance(values, BAT):
        raise MALError("array.tileagg expects a BAT of cell values")
    tile = Tile.from_json(meta_json)
    result = tile_aggregate(values.tail, tile.shape, tile.spec, aggregate, tile.lattice)
    if tile.lattice is not None and not tile.compact:
        result = lattice_cells(result, tile.shape, tile.lattice)
    return BAT(result)


@mal_op("array", "tilepart", sig="bat, str, json, int, int -> bat")
def _tilepart(ctx, values: BAT, aggregate: str, meta_json: str, index, pieces):
    """Halo fragment *index* of *pieces* of a tile aggregate.

    Takes the *whole* cell-aligned value BAT and computes the aggregate
    for the anchors of fragment ``index`` only — the same runtime
    ``[start, stop)`` bounds ``mat.partition`` assigns, so tilepart
    results live in the fragmented source's row space and rejoin with a
    plain ``mat.pack``.  The kernel reads a zero-copy slab widened by
    the tile's dim-0 halo, making per-fragment results byte-identical
    to the matching slice of the sequential aggregate.
    """
    if not isinstance(values, BAT):
        raise MALError("array.tilepart expects a BAT of cell values")
    tile = Tile.from_json(meta_json)
    if tile.lattice is not None:
        raise MALError("array.tilepart fragments no anchor lattice")
    start, stop = partition_bounds(len(values), int(index), int(pieces))
    fragment = tile_aggregate_fragment(
        values.tail, tile.shape, tile.spec, aggregate, start, stop
    )
    return BAT(fragment, hseqbase=values.hseqbase + start)


@mal_op("array", "cellindex", sig="json, json, val+ -> oids")
def _cellindex(ctx, shape_json: str, dims_json: str, *coordinates):
    """Linear cell oids of per-dimension coordinates.

    ``dims_json`` holds ``[start, step, stop]`` per dimension so ranks
    can be derived from raw dimension values.  Coordinate BATs give one
    oid per row, -1 where the row names no cell; scalar coordinates give
    the one oid of the cell they name, or none.
    """
    shape = tuple(cached_loads(shape_json))
    dims = cached_loads(dims_json)
    if len(coordinates) != len(shape):
        raise MALError("array.cellindex: coordinate arity mismatch")
    axes = [(start, step, size) for (start, step, _), size in zip(dims, shape)]
    bats = sum(isinstance(c, BAT) for c in coordinates)
    if bats == len(coordinates):
        return BAT.from_oids(cell_positions([b.tail for b in coordinates], axes))
    if bats:
        raise MALError("array.cellindex: coordinates must be all BATs or all scalars")
    # Every integral atom types a comparand alike; INT names the usual
    # dimension type in the error a non-numeric value raises.
    position = cell_position([comparand(c, Atom.INT) for c in coordinates], axes)
    return BAT.from_oids(np.array([] if position is None else [position], dtype=np.int64))
