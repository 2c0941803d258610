"""MAL module ``calc`` — scalar computation (constants, fold targets).

One op per entry of :data:`repro.gdk.calc.KERNELS`, each running the
kernel ``batcalc.expr`` uses over one-row columns.
"""

from __future__ import annotations

from repro.gdk import calc
from repro.mal.modules import mal_op


def _register(name: str, fewest: int, most: int | None) -> None:
    operands = ["scalar"] * fewest
    operands += ["scalar*"] if most is None else ["scalar?"] * (most - fewest)

    @mal_op("calc", name, sig=f"{', '.join(operands)} -> scalar")
    def _op(ctx, *values):
        return calc.scalar(name, *values)


for _name, (_, _, _fewest, _most, _) in calc.KERNELS.items():
    _register(_name, _fewest, _most)
