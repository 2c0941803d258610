"""MAL module ``mat`` — horizontal fragmentation.

The ``mergetable`` optimizer pass splits large scans into horizontal
fragments, propagates the fragment groups through the plan, and
re-merges them with ``mat.pack`` where fragments rejoin.  Three
primitives back it:

* ``mat.partition(b, i, n)`` — fragment *i* of *n* equal slices of a
  BAT, bounds computed from the *runtime* row count (cached plans stay
  correct when tables grow) and the global head range preserved;
* ``mat.pack(b1, ..., bn)`` — concatenate value fragments back into one
  BAT;
* candidate-list merging lives in ``bat.mergecand`` (ordered union).
"""

from __future__ import annotations

from repro.errors import MALError
from repro.gdk.aggregate import ExactTotals
from repro.gdk.bat import BAT, pack_bats, partition
from repro.mal.modules import mal_op


@mal_op("mat", "partition", sig="bat, int, int -> bat")
def _partition(ctx, b: BAT, index, pieces):
    if not isinstance(b, BAT):
        raise MALError("mat.partition expects a BAT")
    return partition(b, int(index), int(pieces))


@mal_op("mat", "pack", sig="bat+ -> bat")
def _pack(ctx, *parts: BAT):
    if not parts or not all(isinstance(p, BAT) for p in parts):
        raise MALError("mat.pack expects BAT fragments")
    if len(parts) > 1 and any(isinstance(p.tail, ExactTotals) for p in parts):
        # Partial sums or products past lng: the merge recombines their exact totals.
        return BAT(ExactTotals.pack([p.tail for p in parts]), parts[0].hseqbase)
    return pack_bats(parts)


@mal_op("mat", "packgroups", sig="int, any* -> oids")
def _packgroups(ctx, count, *args):
    """Concatenate per-fragment local group ids into one shifted id BAT.

    ``args`` holds *count* group-id BATs followed by *count* per-fragment
    group counts; fragment *i*'s ids are offset by the total number of
    groups in fragments ``0..i-1``.  Projecting the result through the
    merged grouping's id BAT yields row-aligned *global* group ids.
    """
    import numpy as np

    count = int(count)
    if len(args) != 2 * count or count < 1:
        raise MALError("mat.packgroups: arity mismatch")
    groups, counts = args[:count], args[count:]
    shifted = []
    offset = 0
    for g, n in zip(groups, counts):
        if not isinstance(g, BAT):
            raise MALError("mat.packgroups expects group-id BATs")
        shifted.append(g.tail.values + offset)
        offset += int(n)
    return BAT.from_oids(np.concatenate(shifted))
