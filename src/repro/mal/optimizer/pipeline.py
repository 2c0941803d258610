"""The optimizer pipeline: an ordered sequence of passes.

MonetDB applies a configurable pipeline of MAL optimizers between the
MAL generator and the interpreter; SciQL reuses that machinery
unchanged (Figure 2 marks the optimizer box grey only because array
operations flow through it).  The default pipeline here is:

    constant_fold → common_terms → dead_code → garbage_collect

and, when a connection's knobs ask for fragment-parallel execution:

    constant_fold → common_terms → mergetable → dead_code → garbage_collect
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.mal.optimizer import passes
from repro.mal.optimizer.mergetable import mergetable
from repro.mal.program import MALProgram


@dataclass(frozen=True)
class OptimizerPass:
    """A named program-to-program transformation."""

    name: str
    apply: Callable[[MALProgram], MALProgram]


CONSTANT_FOLD = OptimizerPass("constant_fold", passes.constant_fold)
COMMON_TERMS = OptimizerPass("common_terms", passes.common_terms)
DEAD_CODE = OptimizerPass("dead_code", passes.dead_code)
GARBAGE_COLLECT = OptimizerPass("garbage_collect", passes.garbage_collect)

DEFAULT_PIPELINE: tuple[OptimizerPass, ...] = (
    CONSTANT_FOLD,
    COMMON_TERMS,
    DEAD_CODE,
    GARBAGE_COLLECT,
)


def build_pipeline(
    catalog=None,
    fragment_rows: Optional[int] = None,
    nr_threads: int = 1,
    fragmented: bool = False,
) -> tuple[OptimizerPass, ...]:
    """The optimizer pipeline for one connection's execution knobs.

    Without fragmentation this is exactly :data:`DEFAULT_PIPELINE`, so
    ``nr_threads=1, fragment_rows=inf`` keeps today's plan shapes.  With
    fragmentation enabled, ``mergetable`` — bound to *catalog* for row
    counts — slots in after ``common_terms`` (CSE first means fewer
    distinct sources to fragment) and before ``dead_code`` (which then
    sweeps the packs and fragments nothing reads).
    """
    if not fragmented or catalog is None:
        return DEFAULT_PIPELINE
    return (
        CONSTANT_FOLD,
        COMMON_TERMS,
        OptimizerPass("mergetable", mergetable(catalog, fragment_rows, nr_threads)),
        DEAD_CODE,
        GARBAGE_COLLECT,
    )


def verification_enabled() -> bool:
    """Whether ``REPRO_VERIFY_PLANS`` asks for per-pass plan checking.

    Off by default in production (verification is compile-time only,
    but still costs a pass over every fresh plan); the test suite and
    CI turn it on so every plan the corpus produces is statically
    checked after every pass.
    """
    from repro import knobs

    return knobs.flag("REPRO_VERIFY_PLANS", False)


def optimize(
    program: MALProgram,
    pipeline: tuple[OptimizerPass, ...] = DEFAULT_PIPELINE,
    verify: Optional[bool] = None,
) -> MALProgram:
    """Run *program* through the pass pipeline and return the result.

    With ``verify`` true (or the ``REPRO_VERIFY_PLANS`` knob on), the
    static analyzer re-checks the program as generated and after every
    pass, raising :class:`~repro.errors.PlanVerificationError` naming
    the pass that produced the first broken plan.
    """
    if verify is None:
        verify = verification_enabled()
    if verify:
        from repro.mal.analysis import verify_program

        verify_program(program, phase="malgen")
        for optimizer_pass in pipeline:
            program = optimizer_pass.apply(program)
            verify_program(program, phase=optimizer_pass.name)
        return program
    for optimizer_pass in pipeline:
        program = optimizer_pass.apply(program)
    return program
