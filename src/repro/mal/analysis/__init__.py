"""Static analysis over MAL programs.

The package provides the plan verifier wired into the optimizer
pipeline (``REPRO_VERIFY_PLANS=1``), the op-signature registry it
checks against, the shared liveness analysis the ``dead_code`` pass is
built on, and the EXPLAIN annotation helpers (stable plan digest +
fragment-group summary).

New MAL ops declare their signature at registration time::

    @mal_op("algebra", "select", sig="bat(bit), cand? -> cand")

See :mod:`repro.mal.analysis.signatures` for the grammar and
:mod:`repro.mal.analysis.verifier` for the checks performed.
"""

from repro.mal.analysis.defuse import live_instructions
from repro.mal.analysis.explain import annotate_program, fragment_groups, plan_digest
from repro.mal.analysis.signatures import (
    OpSignature,
    check_completeness,
    signature_table,
)
from repro.mal.analysis.verifier import VerificationReport, verify_program

__all__ = [
    "OpSignature",
    "VerificationReport",
    "annotate_program",
    "check_completeness",
    "fragment_groups",
    "live_instructions",
    "plan_digest",
    "signature_table",
    "verify_program",
]
