"""MAL module ``aggr`` — scalar and grouped aggregation."""

from __future__ import annotations

import numpy as np

from repro.errors import MALError
from repro.gdk import aggregate as aggregate_kernel
from repro.gdk import group as group_kernel
from repro.gdk.atoms import Atom
from repro.gdk.bat import BAT
from repro.mal.modules import mal_op


def _grouping(groups: BAT, ngroups) -> group_kernel.GroupView:
    # The aggregation kernels only read (ids, ngroups), so no extents
    # are built here; ids from group.group/subgroup skip the range
    # check, and their carried counts spare the kernels a recount.
    return group_kernel.grouping_view(groups.tail, ngroups)


def _register_scalar(name: str) -> None:
    @mal_op("aggr", name, sig="bat -> scalar")
    def _op(ctx, b: BAT, _name=name):
        if not isinstance(b, BAT):
            raise MALError(f"aggr.{_name} expects a BAT")
        value = aggregate_kernel.scalar(_name, b.tail)
        # A declared lng says so: a Python int types by magnitude in calc.
        lng = aggregate_kernel.aggregate_atom(_name, b.tail.atom) is Atom.LNG
        return np.int64(value) if lng and type(value) is int else value


for _name in ("sum", "prod", "avg", "min", "max", "count", "stddev", "median"):
    _register_scalar(_name)


def _register_grouped(name: str) -> None:
    @mal_op("aggr", f"sub{name}", sig="bat, oids, scalar -> bat")
    def _op(ctx, b: BAT, groups: BAT, ngroups, _name=name):
        if not isinstance(b, BAT) or not isinstance(groups, BAT):
            raise MALError(f"aggr.sub{_name} expects BATs")
        grouping = _grouping(groups, ngroups)
        return BAT(aggregate_kernel.grouped(_name, b.tail, grouping))


for _name in ("sum", "prod", "min", "max", "count", "stddev", "median"):
    _register_grouped(_name)


@mal_op("aggr", "mean", sig="bat, bat -> bat")
def _mean(ctx, sums: BAT, counts: BAT):
    """A grouped AVG's finisher: per-group SUM over COUNT."""
    if not isinstance(sums, BAT) or not isinstance(counts, BAT):
        raise MALError("aggr.mean expects BATs")
    return BAT(aggregate_kernel.means(sums.tail, counts.tail))


@mal_op("aggr", "subcountstar", sig="oids, scalar -> bat")
def _subcountstar(ctx, groups: BAT, ngroups):
    grouping = _grouping(groups, ngroups)
    return BAT(aggregate_kernel.grouped_count_star(grouping))


@mal_op("aggr", "subcountdistinct", sig="bat, oids, scalar -> bat")
def _subcountdistinct(ctx, b: BAT, groups: BAT, ngroups):
    grouping = _grouping(groups, ngroups)
    return BAT(aggregate_kernel.grouped_count_distinct(b.tail, grouping))


@mal_op("aggr", "countdistinct", sig="bat -> scalar")
def _countdistinct(ctx, b: BAT):
    return np.int64(aggregate_kernel.scalar_count_distinct(b.tail))


def _register_merge(name: str) -> None:
    @mal_op("aggr", f"merge{name}", sig="bat, oids, scalar -> bat")
    def _op(ctx, partials: BAT, groups: BAT, ngroups, _name=name):
        """Fold per-fragment partials into the global per-group result."""
        if not isinstance(partials, BAT) or not isinstance(groups, BAT):
            raise MALError(f"aggr.merge{_name} expects BATs")
        grouping = _grouping(groups, ngroups)
        return BAT(aggregate_kernel.merge_partials(_name, partials.tail, grouping))


for _name in ("sum", "prod"):
    _register_merge(_name)


@mal_op("aggr", "firstocc", sig="oids, scalar -> cand")
def _firstocc(ctx, groups: BAT, ngroups):
    """Reconstruct grouping extents from row-aligned global group ids."""
    if not isinstance(groups, BAT):
        raise MALError("aggr.firstocc expects a BAT")
    positions = aggregate_kernel.first_occurrence(groups.tail, int(ngroups))
    return BAT.from_oids(positions + groups.hseqbase)
