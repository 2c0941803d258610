"""EXPLAIN annotations: stable plan digest + fragment-group summary.

``annotate_program`` renders the canonical ``to_text()`` listing
prefixed with comment lines that make plan-shape regressions diff
cleanly in tests: a short content digest (any rewrite changes it, so a
golden test needs to record one line, not the whole plan) and one line
per fragment group: a ``mat.partition`` source, or a tiling source split
into ``array.tilepart`` halo pieces.
"""

from __future__ import annotations

import hashlib

from repro.mal.program import Constant, MALProgram, Var


def plan_digest(program: MALProgram) -> str:
    """A short, stable content hash of the canonical plan text."""
    text = program.to_text()
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def fragment_groups(program: MALProgram) -> list[tuple[str, int]]:
    """``(source, pieces)`` per fragment group, in plan order: what
    ``mat.partition(source, index, pieces)`` or ``array.tilepart(source,
    aggregate, tile, index, pieces)`` splits."""
    seen: dict[str, int] = {}
    for instruction in program.instructions:
        op, args = (instruction.module, instruction.function), instruction.args
        if op == ("mat", "partition") and len(args) == 3:
            source, pieces = args[0], args[2]
        elif op == ("array", "tilepart") and len(args) == 5:
            source, pieces = args[0], args[4]
        else:
            continue
        if isinstance(source, Var) and isinstance(pieces, Constant):
            seen.setdefault(source.name, pieces.value)
    return list(seen.items())


def annotate_program(program: MALProgram) -> str:
    """The plan text with digest + fragment-group comments.

    The comments sit just below the ``function user.main`` header so
    the listing still opens with the function signature.
    """
    annotations = [f"# plan digest {plan_digest(program)}"]
    for source, pieces in fragment_groups(program):
        annotations.append(f"# fragment group {source} x{pieces}")
    lines = program.to_text().splitlines()
    return "\n".join(lines[:1] + annotations + lines[1:])
