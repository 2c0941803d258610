"""Liveness analysis shared by the verifier and the ``dead_code`` pass."""

from __future__ import annotations

from repro.mal.program import MALProgram


def live_instructions(program: MALProgram) -> list[bool]:
    """Backward liveness: which instructions feed a side effect or result.

    An instruction is live when it has side effects or any of its
    results is (transitively) consumed by a live instruction, a result
    column, or a pinned variable.  This is the analysis behind the
    ``dead_code`` optimizer pass; the verifier reuses it to report how
    much of a plan is dead weight.
    """
    live_vars: set[str] = set(program.pinned)
    live_vars.update(var for _, var in program.result_columns)
    keep = [False] * len(program.instructions)
    for index in range(len(program.instructions) - 1, -1, -1):
        instruction = program.instructions[index]
        needed = instruction.has_side_effects or any(
            result in live_vars for result in instruction.results
        )
        if needed:
            keep[index] = True
            live_vars.update(instruction.used_vars())
    return keep
