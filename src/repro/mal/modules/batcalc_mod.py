"""MAL module ``batcalc`` — bulk element-wise computation on BATs."""

from __future__ import annotations

from repro.gdk import calc
from repro.gdk.bat import BAT
from repro.mal.modules import mal_op


@mal_op("batcalc", "expr", sig="str, val+ -> bat")
def _expr(ctx, text: str, *leaves):
    """One element-wise expression over head-aligned BATs and scalars.

    *text* is the expression (``case(eq(sub($0,$1),3),1,0)``), ``$i``
    naming ``leaves[i]``; :func:`repro.gdk.calc.evaluate` computes every
    distinct node once.  Element-wise kernels preserve the head, so the
    result keeps the first BAT leaf's ``hseqbase`` — fragment slices
    produced by ``mat.partition`` stay in the global oid space and a
    subsequent ``algebra.select`` emits globally valid candidate oids.
    """
    column = calc.evaluate(
        text, [leaf.tail if isinstance(leaf, BAT) else leaf for leaf in leaves]
    )
    head = next((leaf.hseqbase for leaf in leaves if isinstance(leaf, BAT)), 0)
    return BAT(column, head)
