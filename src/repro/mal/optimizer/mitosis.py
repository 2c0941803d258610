"""The ``mitosis`` optimizer pass: split large scans into fragments.

MonetDB's mitosis pass rewrites each large persistent-column bind into
N horizontal fragments so the dataflow scheduler can run the plan
fragment-parallel.  Our reproduction fragments the two bulk sources a
plan can have:

* ``sql.bind`` of a table/array column — fragment count sized from the
  catalog's current row count;
* ``array.series`` with constant arguments — fragment count derived
  from the series cardinality.

Each fragmented source ``X`` is followed by::

    X#0 := mat.partition(X, 0, N);
    ...
    Xm  := mat.pack(X#0, ..., X#N-1);

and later uses of ``X`` are renamed to ``Xm``.  The pack immediately
re-merges, so mitosis alone is semantics-preserving (and measurably a
no-op apart from one concatenation); the :mod:`mergetable
<repro.mal.optimizer.mergetable>` pass then pushes the packs outward,
turning the consumers per-fragment.  Partition *bounds* are computed at
runtime from the actual row count, so cached plans survive appends; the
fragment *count* is fixed at optimize time from the knobs.
"""

from __future__ import annotations

import json
import math
from typing import Optional

from repro.mal.program import Constant, Instruction, MALProgram, Var, bat_type
from repro.mal.optimizer.passes import _clone_program

#: never split a source into more fragments than this.
MAX_FRAGMENTS = 64

#: in auto mode (``fragment_rows=None``) only sources at least this
#: large are fragmented, so small/interactive plans keep their shape.
AUTO_MIN_ROWS = 32768

#: a halo-fragmented tiling source keeps at least this many dim-0 rows
#: per fragment *per halo row*, bounding the duplicated slab work.
HALO_ROWS_FACTOR = 2


def tile_extent(meta_arg) -> Optional[tuple[int, int, int]]:
    """``(cells, rows, halo)`` of a tiling op's metadata constant: the
    tiled array's cell count and dim-0 row count, and the dim-0 rows a
    halo fragment reads beyond its own anchors' — the offset extent with
    the anchor's own row included, which is what a one-cell tile such as
    ``[[-1], [0]]`` widens its slab by.  ``None`` when it does not parse."""
    if not isinstance(meta_arg, Constant) or not isinstance(meta_arg.value, str):
        return None
    try:
        meta = json.loads(meta_arg.value)
        shape = [int(s) for s in meta["shape"]]
        offsets0 = [int(o) for o in meta["offsets"][0]]
        halo = max(max(offsets0), 0) - min(min(offsets0), 0)
    except (ValueError, KeyError, IndexError, TypeError):
        return None
    return math.prod(shape), shape[0], halo


def tiling_fragment_caps(program: MALProgram) -> dict[int, int]:
    """Per-cell-count fragment caps derived from the plan's tiling ops.

    ``array.tileagg`` carries its tile-spec metadata (shape + offsets)
    as a JSON constant; a source feeding it can only run halo-parallel
    (``array.tilepart``) when each fragment's dim-0 slab is not
    dominated by the halo it duplicates.  For every tiling op this
    derives ``max(1, rows0 // (HALO_ROWS_FACTOR * (halo + 1)))`` and
    keys it by the op's cell count, so mitosis can cap exactly the
    sources that are cell-aligned with a tiled array and leave every
    other scan at full fragmentation.
    """
    caps: dict[int, int] = {}
    for instruction in program.instructions:
        if (instruction.module, instruction.function) != ("array", "tileagg"):
            continue
        extent = tile_extent(instruction.args[2]) if len(instruction.args) > 2 else None
        if extent is None or extent[0] <= 0:
            continue
        cells, rows0, halo = extent
        cap = max(1, rows0 // (HALO_ROWS_FACTOR * (halo + 1)))
        caps[cells] = min(caps.get(cells, cap), cap)
    return caps


def fragment_count(
    rows: int, fragment_rows: Optional[int], nr_threads: int
) -> int:
    """How many fragments a source of *rows* rows should split into.

    An explicit ``fragment_rows`` knob gives ``ceil(rows /
    fragment_rows)``; auto mode targets one fragment per worker thread
    for sources past :data:`AUTO_MIN_ROWS`.  Either way the count is
    capped at :data:`MAX_FRAGMENTS` and floors at 1 (no fragmentation).
    """
    if rows <= 1:
        return 1
    if fragment_rows is None:
        if nr_threads <= 1 or rows < AUTO_MIN_ROWS:
            return 1
        pieces = nr_threads
    elif not math.isfinite(fragment_rows) or fragment_rows <= 0:
        return 1
    else:
        pieces = -(-rows // int(fragment_rows))
    return max(1, min(int(pieces), MAX_FRAGMENTS, rows))


def _series_rows(instruction: Instruction) -> Optional[int]:
    """Cardinality of an ``array.series`` call with constant arguments."""
    values = []
    for arg in instruction.args:
        if not isinstance(arg, Constant) or not isinstance(arg.value, int):
            return None
        values.append(arg.value)
    if len(values) != 5:
        return None
    start, step, stop, inner, outer = values
    if step <= 0 or inner <= 0 or outer <= 0:
        return None
    base = max(0, -(-(stop - start) // step))
    return base * inner * outer


def make_mitosis(catalog, fragment_rows: Optional[int], nr_threads: int):
    """Build a mitosis pass bound to *catalog* and the fragmentation knobs."""

    def mitosis(program: MALProgram) -> MALProgram:
        out: list[Instruction] = []
        renames: dict[str, str] = {}
        halo_caps = tiling_fragment_caps(program)
        for instruction in program.instructions:
            if renames:
                new_args = [
                    Var(renames[a.name])
                    if isinstance(a, Var) and a.name in renames
                    else a
                    for a in instruction.args
                ]
                instruction = Instruction(
                    instruction.module,
                    instruction.function,
                    instruction.results,
                    new_args,
                    instruction.comment,
                )
            out.append(instruction)
            rows = None
            if (
                instruction.module == "sql"
                and instruction.function == "bind"
                and len(instruction.results) == 1
                and isinstance(instruction.args[0], Constant)
            ):
                try:
                    rows = catalog.get(instruction.args[0].value).count
                except Exception:
                    rows = None
            elif (
                instruction.module == "array"
                and instruction.function == "series"
                and len(instruction.results) == 1
            ):
                rows = _series_rows(instruction)
            if rows is None:
                continue
            pieces = fragment_count(rows, fragment_rows, nr_threads)
            if rows in halo_caps:
                # The source is cell-aligned with a tiled array: keep
                # fragments wide enough that halo tiling stays viable.
                pieces = min(pieces, halo_caps[rows])
            if pieces < 2:
                continue
            source = instruction.results[0]
            if source in program.pinned:
                continue
            mal_type = program.types.get(source, bat_type(None))
            parts: list[str] = []
            for index in range(pieces):
                part = program.fresh(mal_type, prefix="F")
                parts.append(part)
                out.append(
                    Instruction(
                        "mat", "partition",
                        [part],
                        [Var(source), Constant(index), Constant(pieces)],
                    )
                )
            merged = program.fresh(mal_type, prefix="F")
            out.append(
                Instruction(
                    "mat", "pack", [merged], [Var(p) for p in parts],
                    comment=f"mitosis {source} x{pieces}",
                )
            )
            renames[source] = merged
        clone = _clone_program(program, out)
        clone.result_columns = [
            (name, renames.get(var, var)) for name, var in program.result_columns
        ]
        clone.pinned = {renames.get(v, v) for v in program.pinned}
        return clone

    return mitosis
