"""MAL module ``group`` — grouping for value-based GROUP BY."""

from __future__ import annotations

from repro.errors import MALError
from repro.gdk import group as group_kernel
from repro.gdk.bat import BAT
from repro.mal.modules import mal_op


@mal_op("group", "group", sig="bat -> oids, cand, bat")
def _group(ctx, b: BAT):
    """Returns (groups, extents, histogram) — MonetDB's triple."""
    grouping = group_kernel.group(b.tail)
    return (
        BAT(grouping.groups),
        BAT.from_oids(grouping.extents + b.hseqbase),
        # Zero-copy wrap: the histogram is rarely consumed, and a
        # tolist()/from_pylist round-trip per call is measurable on
        # fragmented plans (one group call per fragment).
        BAT.from_oids(grouping.histogram),
    )


@mal_op("group", "subgroup", sig="bat, oids -> oids, cand, bat")
def _subgroup(ctx, b: BAT, groups: BAT):
    """Refine existing group ids by another column."""
    if len(b) != len(groups):
        raise MALError("group.subgroup: misaligned inputs")
    previous = group_kernel.grouping_view(
        groups.tail, group_kernel.id_bound(groups.tail)
    )
    grouping = group_kernel.subgroup(b.tail, previous)
    return (
        BAT(grouping.groups),
        BAT.from_oids(grouping.extents + b.hseqbase),
        BAT.from_oids(grouping.histogram),
    )
