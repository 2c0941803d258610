"""Carried counts are only a shortcut: with them or without them, one answer.

Group ids from ``group.group`` / ``group.subgroup`` leave as
``GroupIds`` that carry their histogram, and the grouped aggregates read
it instead of counting rows again when their input has no NULL.  For
random keys (NULL keys included) grouped by one column or a chain of
subgroups, every grouped aggregate over INT, LNG, DBL and STR inputs
(with and without NULL values) must give the same atom, payload bytes
and NULL mask over the carried ids as over the same ids as a plain
``Column`` — and no result may share memory with the carried counts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gdk import aggregate, group
from repro.gdk.atoms import Atom
from repro.gdk.column import Column

AGGREGATES = {
    "sum": aggregate.grouped_sum,
    "prod": aggregate.grouped_prod,
    "avg": lambda column, grouping: aggregate.means(
        aggregate.grouped_sum(column, grouping), aggregate.grouped_count(column, grouping)
    ),
    "min": aggregate.grouped_min,
    "max": aggregate.grouped_max,
    "count": aggregate.grouped_count,
    "count_star": lambda column, grouping: aggregate.grouped_count_star(grouping),
    "stddev": aggregate.grouped_stddev,
    "median": aggregate.grouped_median,
    "count_distinct": aggregate.grouped_count_distinct,
}
NUMERIC_ONLY = {"sum", "prod", "avg", "stddev", "median"}

VALUES = {
    Atom.INT: st.integers(-50, 50),
    # Large magnitudes drive SUM and PROD past lng into ExactTotals.
    Atom.LNG: st.integers(-50, 50) | st.integers(-(2**62), 2**62),
    Atom.DBL: st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    Atom.STR: st.text(alphabet="abc", max_size=3),
}
KEYS = {
    Atom.INT: st.integers(0, 4),
    Atom.LNG: st.integers(-(2**40), 2**40),
    Atom.STR: st.sampled_from(["x", "yy", "z"]),
}


@st.composite
def groupings(draw):
    """A grouping by one to three key columns, NULL keys allowed."""
    rows = draw(st.integers(0, 60))
    grouping = None
    for _ in range(draw(st.integers(1, 3))):
        atom = draw(st.sampled_from(list(KEYS)))
        items = draw(st.lists(KEYS[atom] | st.none(), min_size=rows, max_size=rows))
        column = Column.from_pylist(atom, items)
        grouping = group.group(column) if grouping is None else group.subgroup(column, grouping)
    return grouping


def _payload(column: Column):
    if column.values.dtype == object:
        return column.values.tolist()
    return column.values.tobytes()


def _mask(column: Column):
    return None if column.mask is None else column.mask.tobytes()


class TestCarriedCounts:
    @pytest.mark.parametrize("name", list(AGGREGATES))
    @given(data=st.data(), grouping=groupings())
    @settings(max_examples=60, deadline=None)
    def test_carried_counts_give_the_recounted_bytes(self, data, grouping, name):
        ids = grouping.groups
        assert isinstance(ids, group.GroupIds) and ids.counts is grouping.histogram
        counts = ids.counts.copy()
        atoms = [Atom.INT, Atom.LNG, Atom.DBL] + ([] if name in NUMERIC_ONLY else [Atom.STR])
        atom = data.draw(st.sampled_from(atoms))
        values = VALUES[atom] | st.none() if data.draw(st.booleans()) else VALUES[atom]
        items = data.draw(st.lists(values, min_size=len(ids), max_size=len(ids)))
        column = Column.from_pylist(atom, items)

        carried = group.grouping_view(ids, grouping.ngroups)
        plain = group.grouping_view(Column(Atom.OID, ids.values.copy()), grouping.ngroups)
        got = AGGREGATES[name](column, carried)
        want = AGGREGATES[name](column, plain)

        assert type(got) is type(want) and got.atom is want.atom
        assert got.values.dtype == want.values.dtype
        assert _payload(got) == _payload(want)
        assert _mask(got) == _mask(want)
        if isinstance(want, aggregate.ExactTotals):
            assert got.exact.tolist() == want.exact.tolist()
        for part in (got.values, got.mask):
            assert part is None or not np.shares_memory(part, ids.counts)
        assert ids.counts.tobytes() == counts.tobytes()
