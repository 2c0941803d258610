"""Anchor-at-a-time tiling: the structural grouping kernels' oracle.

A tile's members are enumerated cell by cell from the box's per-axis
offset ranges, so the oracle shares no code with the separable kernels
of :mod:`repro.core.tiling` that it checks.  No engine code calls it.
"""

from __future__ import annotations

import itertools

from repro.core.tiling import TileSpec
from repro.errors import DimensionError, GDKError
from repro.gdk.aggregate import _LNG_MAX, _LNG_MIN
from repro.gdk.atoms import Atom
from repro.gdk.column import Column


def tile_members(
    shape: tuple[int, ...], spec: TileSpec, anchor_rank: tuple[int, ...]
) -> list[int]:
    """Linear cell positions of one anchor's in-bounds tile cells."""
    if len(anchor_rank) != len(shape):
        raise DimensionError("anchor dimensionality differs from array")
    strides: list[int] = []
    acc = 1
    for size in reversed(shape):
        strides.append(acc)
        acc *= size
    strides.reverse()
    members: list[int] = []
    for deltas in itertools.product(*(range(lo, hi + 1) for lo, hi in spec.box)):
        position = 0
        valid = True
        for rank, delta, size, stride in zip(anchor_rank, deltas, shape, strides):
            target = rank + delta
            if target < 0 or target >= size:
                valid = False
                break
            position += target * stride
        if valid:
            members.append(position)
    return members


def brute_force_tile_aggregate(
    values: Column, shape: tuple[int, ...], spec: TileSpec, aggregate: str
) -> list:
    """O(anchors × tile) reference implementation.

    It pins the kernels' integer rule: a ``sum`` or ``prod`` that does
    not fit ``lng`` is NULL.
    """
    data = values.to_pylist()
    integral = values.atom is not Atom.DBL
    out: list = []
    for anchor in itertools.product(*(range(size) for size in shape)):
        members = tile_members(shape, spec, anchor)
        cell_values = [data[m] for m in members if data[m] is not None]
        if aggregate == "count_star":
            out.append(len(members))
        elif aggregate == "count":
            out.append(len(cell_values))
        elif not cell_values:
            out.append(None)
        elif aggregate == "sum":
            total = sum(cell_values)
            fits = not integral or _LNG_MIN <= total <= _LNG_MAX
            out.append(total if fits else None)
        elif aggregate == "avg":
            out.append(sum(cell_values) / len(cell_values))
        elif aggregate == "min":
            out.append(min(cell_values))
        elif aggregate == "max":
            out.append(max(cell_values))
        elif aggregate == "prod":
            product = 1
            for value in cell_values:
                product *= value
            fits = not integral or _LNG_MIN <= product <= _LNG_MAX
            out.append(product if fits else None)
        else:
            raise GDKError(f"unsupported aggregate {aggregate!r}")
    return out
