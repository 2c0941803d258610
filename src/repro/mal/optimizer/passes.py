"""Individual MAL optimizer passes.

Each pass is a pure function ``MALProgram -> MALProgram`` (programs are
rebuilt, never mutated) mirroring MonetDB's optimizer modules:

* ``constant_fold``   — evaluate ``calc.*`` over constant arguments at
  compile time and inline the results;
* ``common_terms``    — reuse the result of an earlier side-effect-free
  instruction with an identical signature (CSE);
* ``dead_code``       — drop instructions whose results are never used
  and which have no side effects;
* ``garbage_collect`` — insert ``language.free`` pseudo-ops after the
  last use of each variable so the interpreter releases BATs early.
"""

from __future__ import annotations

from typing import Any

from repro.mal.modules import REGISTRY, load_all
from repro.mal.program import Constant, Instruction, MALProgram, Var


def _clone_program(program: MALProgram, instructions: list[Instruction]) -> MALProgram:
    clone = MALProgram(program.name)
    clone.instructions = instructions
    clone.types = dict(program.types)
    clone._counter = program._counter
    clone.result_columns = list(program.result_columns)
    clone.result_kind = program.result_kind
    clone.pinned = set(program.pinned)
    clone.param_keys = tuple(program.param_keys)
    return clone


def constant_fold(program: MALProgram) -> MALProgram:
    """Evaluate scalar ``calc.*`` instructions whose arguments are constants.

    Folded values are substituted into later instructions as constants;
    the folded instruction disappears.
    """
    load_all()
    folded: dict[str, Constant] = {}
    out: list[Instruction] = []
    for instruction in program.instructions:
        new_args: list[Any] = []
        for arg in instruction.args:
            if isinstance(arg, Var) and arg.name in folded:
                new_args.append(folded[arg.name])
            else:
                new_args.append(arg)
        candidate = Instruction(
            instruction.module,
            instruction.function,
            instruction.results,
            new_args,
            instruction.comment,
        )
        if (
            candidate.module == "calc"
            and len(candidate.results) == 1
            and candidate.results[0] not in program.pinned
            and all(isinstance(a, Constant) for a in candidate.args)
        ):
            implementation = REGISTRY.get((candidate.module, candidate.function))
            if implementation is not None:
                try:
                    value = implementation(None, *[a.value for a in candidate.args])
                except Exception:
                    out.append(candidate)
                    continue
                # A folded NULL keeps the atom it was computed in
                # (CAST(NULL AS BIGINT)); any other value types itself.
                declared = program.types.get(candidate.results[0])
                folded[candidate.results[0]] = Constant(
                    value, declared.atom if value is None and declared else None
                )
                continue
        out.append(candidate)
    return _clone_program(program, out)


def common_terms(program: MALProgram) -> MALProgram:
    """Common subexpression elimination over side-effect-free instructions."""
    seen: dict[tuple, list[str]] = {}
    renames: dict[str, str] = {}
    out: list[Instruction] = []
    for instruction in program.instructions:
        new_args: list[Any] = []
        for arg in instruction.args:
            if isinstance(arg, Var) and arg.name in renames:
                new_args.append(Var(renames[arg.name]))
            else:
                new_args.append(arg)
        candidate = Instruction(
            instruction.module,
            instruction.function,
            instruction.results,
            new_args,
            instruction.comment,
        )
        if candidate.has_side_effects or not candidate.results:
            out.append(candidate)
            continue
        key = candidate.signature()
        prior = seen.get(key)
        if prior is not None and len(prior) == len(candidate.results):
            for mine, theirs in zip(candidate.results, prior):
                renames[mine] = theirs
            continue
        seen[key] = candidate.results
        out.append(candidate)
    clone = _clone_program(program, out)
    clone.result_columns = [
        (name, renames.get(var, var)) for name, var in program.result_columns
    ]
    clone.pinned = {renames.get(v, v) for v in program.pinned}
    return clone


def dead_code(program: MALProgram) -> MALProgram:
    """Remove side-effect-free instructions whose results are never used.

    Built on the same backward-liveness analysis the plan verifier uses
    (:func:`repro.mal.analysis.defuse.live_instructions`), so the
    eliminator and the checker can never disagree about what feeds a
    side effect or a result column.
    """
    from repro.mal.analysis.defuse import live_instructions

    keep = live_instructions(program)
    out = [ins for ins, k in zip(program.instructions, keep) if k]
    return _clone_program(program, out)


def garbage_collect(program: MALProgram) -> MALProgram:
    """Insert ``language.free`` after the last use of each variable."""
    protected = set(program.pinned)
    protected.update(var for _, var in program.result_columns)
    last_use: dict[str, int] = {}
    for index, instruction in enumerate(program.instructions):
        for used in instruction.used_vars():
            last_use[used] = index
        for result in instruction.results:
            last_use.setdefault(result, index)
    frees: dict[int, list[str]] = {}
    for variable, index in last_use.items():
        if variable in protected:
            continue
        frees.setdefault(index, []).append(variable)
    out: list[Instruction] = []
    for index, instruction in enumerate(program.instructions):
        out.append(instruction)
        if index in frees:
            out.append(
                Instruction(
                    "language",
                    "free",
                    [],
                    [Constant(name) for name in sorted(frees[index])],
                )
            )
    return _clone_program(program, out)
