"""MAL module ``array`` — the SciQL-specific kernel primitives.

Section 3 of the paper introduces exactly two new primitives for array
materialisation, reproduced here with their signatures:

    command array.series(start:int, step:int, stop:int, N:int, M:int)
        :bat[:oid,:int]
    pattern array.filler(cnt:lng, v:any_1) :bat[:oid,:any_1]

(the catalog materialises a new array through :func:`series_column` and
:func:`filler_column` directly; no plan emits ``array.filler``, so only
``array.series`` is registered as an op), plus the tiling kernels the
structural GROUP BY compiles into (``array.tileagg`` and its
halo-fragment sibling ``array.tilepart``) and the coordinate → cell oid
mapping behind relative cell access such as ``A[x-1][y]``
(``array.cellindex``).

Tiling ops carry one JSON metadata constant ``{"shape": [...],
"offsets": [[...], ...]}`` — the tile spec the optimizer passes read to
compute halo extents and fragment viability.

A tile with ONE offset per dimension is a constant shift of the value
BAT, and that is how malgen lowers a cell reference to the scanned
array itself whose every index is its own unrestricted dimension plus
or minus a constant: ``img[x-1][y]`` is ``array.tileagg(v, "min",
{"shape": .., "offsets": [[-1], [0]]})`` — the one cell where it
exists, NULL where it is a hole or outside the array, exactly what
``algebra.projectionsafe`` answers for ``array.cellindex``'s -1 (all
offsets zero is the attribute BAT itself, and no op at all).  Being a
``tileagg`` it fragments into halo ``tilepart`` calls in the scan's
row space like any other tile; every other shape of cell reference
(computed offsets, another array, non-numeric attributes, restricted
scans) takes ``array.cellindex`` plus the gather.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from repro.errors import GDKError, MALError
from repro.gdk.atoms import Atom, atom_for_python, coerce_scalar
from repro.gdk.bat import BAT, partition_bounds
from repro.gdk.cells import cell_positions
from repro.gdk.column import Column
from repro.core.tiling import TileSpec, tile_aggregate, tile_aggregate_fragment
from repro.mal.modules import cached_loads, mal_op


def series_column(start: int, step: int, stop: int, inner: int, outer: int) -> Column:
    """The ``array.series`` value pattern as a column.

    Generates the dimension values ``start, start+step, ... < stop``,
    repeating each value ``inner`` (N) times consecutively, and the
    whole sequence ``outer`` (M) times (paper, Section 3).
    """
    if step <= 0:
        raise GDKError("array.series needs a positive step")
    if inner <= 0 or outer <= 0:
        raise GDKError("array.series repetition factors must be positive")
    base = np.arange(start, stop, step, dtype=np.int64)
    values = np.tile(np.repeat(base, inner), outer)
    return Column(Atom.LNG, values)


def filler_column(count: int, value: Any, atom: Atom | None = None) -> Column:
    """The ``array.filler`` pattern as a column.

    Creates ``count`` entries of ``value``; a ``None`` value produces
    NULLs (an array attribute without a DEFAULT starts as holes).
    """
    if count < 0:
        raise GDKError("array.filler needs a non-negative count")
    if value is None:
        return Column.nulls(atom or Atom.INT, count)
    resolved = atom or atom_for_python(value)
    return Column.constant(resolved, coerce_scalar(value, resolved), count)


@mal_op("array", "series", sig="scalar, scalar, scalar, int, int -> bat")
def _series(ctx, start, step, stop, inner, outer):
    return BAT(series_column(int(start), int(step), int(stop), int(inner), int(outer)))


def _tile_meta(meta_json: str) -> tuple[tuple[int, ...], TileSpec]:
    """Decode the tile metadata constant malgen puts on tiling ops."""
    meta = cached_loads(meta_json)
    shape = tuple(meta["shape"])
    spec = TileSpec(tuple(tuple(per_dim) for per_dim in meta["offsets"]))
    return shape, spec


@mal_op("array", "tileagg", sig="bat, str, json -> bat")
def _tileagg(ctx, values: BAT, aggregate: str, meta_json: str):
    """Aggregate every anchor's tile over a cell-aligned value BAT.

    ``meta_json`` holds the dimension sizes (``shape``) and the tile
    pattern's per-dimension rank offsets (``offsets``).
    """
    if not isinstance(values, BAT):
        raise MALError("array.tileagg expects a BAT of cell values")
    shape, spec = _tile_meta(meta_json)
    return BAT(tile_aggregate(values.tail, shape, spec, aggregate))


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
    shape, spec = _tile_meta(meta_json)
    start, stop = partition_bounds(len(values), int(index), int(pieces))
    fragment = tile_aggregate_fragment(
        values.tail, shape, spec, aggregate, start, stop
    )
    return BAT(fragment, hseqbase=values.hseqbase + start)


@mal_op("array", "cellindex", sig="json, json, bat+ -> oids")
def _cellindex(ctx, shape_json: str, dims_json: str, *coordinate_bats: BAT):
    """Linear cell oids for coordinate columns; -1 for out-of-domain.

    ``dims_json`` holds ``[start, step, stop]`` per dimension so ranks
    can be derived from raw dimension values.
    """
    shape = tuple(cached_loads(shape_json))
    dims = cached_loads(dims_json)
    if len(coordinate_bats) != len(shape):
        raise MALError("array.cellindex: coordinate arity mismatch")
    axes = [(start, step, size) for (start, step, _), size in zip(dims, shape)]
    return BAT.from_oids(cell_positions([b.tail for b in coordinate_bats], axes))
