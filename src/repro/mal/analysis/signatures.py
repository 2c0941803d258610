"""The op-signature registry: grammar, parser, completeness check.

Each MAL operator declares a one-line signature at registration time
(``@mal_op(..., sig="bat, scalar, str, cand? -> cand")``).  The
grammar:

* the operand list and the result list are separated by ``->``; either
  may be empty (``language.free`` produces nothing);
* operand kinds::

      any      anything at all
      val      a BAT or a scalar (element-wise ops accept both)
      bat      any BAT
      bat(T)   a BAT whose declared tail atom is T (e.g. ``bat(bit)``)
      cand     a candidate list: oid BAT, provably sorted + unique
      oids     an oid BAT (duplicates allowed — join results)
      scalar   a scalar value (constant, Param or calc result)
      int/str/bool   a scalar of that shape
      json     a constant string that parses as JSON
      name     a constant string naming a catalog object or variable

* an operand may carry a modifier: ``?`` (optional), ``*`` (zero or
  more), ``+`` (one or more);
* result kinds are ``any``/``bat``/``bat(T)``/``cand``/``oids``/
  ``scalar`` — they both constrain the declared type of the result
  variable and seed the provenance lattice (a ``cand`` result may feed
  ``cand`` operands downstream, a plain ``oids`` result may not).

The side-effect class (``none``/``read``/``write``/``result``/``free``)
is declared here and nowhere else: the interpreter's barriers and the
engine's write routing read it through
:func:`repro.mal.program.effect_classes`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.gdk.atoms import Atom

OPERAND_KINDS = frozenset(
    {"any", "val", "bat", "cand", "oids", "scalar", "int", "str", "bool", "json", "name"}
)
RESULT_KINDS = frozenset({"any", "bat", "cand", "oids", "scalar"})
EFFECTS = frozenset({"none", "read", "write", "result", "free"})


@dataclass(frozen=True)
class Operand:
    """One operand slot: kind, optional atom constraint, multiplicity."""

    kind: str
    atom: Atom | None = None
    optional: bool = False
    variadic: bool = False
    min_count: int = 1

    def __str__(self) -> str:
        text = self.kind if self.atom is None else f"{self.kind}({self.atom.value})"
        if self.variadic:
            return text + ("*" if self.min_count == 0 else "+")
        return text + ("?" if self.optional else "")


@dataclass(frozen=True)
class OpSignature:
    """The parsed static signature of one MAL operator."""

    module: str
    function: str
    operands: tuple[Operand, ...]
    results: tuple[Operand, ...]
    effect: str

    def __str__(self) -> str:
        left = ", ".join(str(o) for o in self.operands)
        right = ", ".join(str(r) for r in self.results)
        return f"{self.module}.{self.function}: {left} -> {right}"


def _parse_token(module: str, function: str, token: str, result: bool) -> Operand:
    token = token.strip()
    optional = variadic = False
    min_count = 1
    if token.endswith("?"):
        optional, token = True, token[:-1]
    elif token.endswith("*"):
        variadic, min_count, token = True, 0, token[:-1]
    elif token.endswith("+"):
        variadic, token = True, token[:-1]
    atom = None
    if token.endswith(")") and "(" in token:
        token, _, atom_text = token[:-1].partition("(")
        try:
            atom = Atom(atom_text)
        except ValueError:
            raise ValueError(
                f"{module}.{function}: unknown atom {atom_text!r} in signature"
            ) from None
    allowed = RESULT_KINDS if result else OPERAND_KINDS
    if token not in allowed:
        raise ValueError(
            f"{module}.{function}: unknown {'result' if result else 'operand'} "
            f"kind {token!r} in signature"
        )
    if result and (optional or variadic):
        raise ValueError(f"{module}.{function}: result kinds take no modifiers")
    return Operand(token, atom, optional, variadic, min_count)


def parse_signature(module: str, function: str, sig: str, effect: str) -> OpSignature:
    """Parse one declaration into an :class:`OpSignature`."""
    if effect not in EFFECTS:
        raise ValueError(f"{module}.{function}: unknown effect class {effect!r}")
    if "->" not in sig:
        raise ValueError(f"{module}.{function}: signature {sig!r} lacks '->'")
    left, _, right = sig.partition("->")
    operands = tuple(
        _parse_token(module, function, tok, result=False)
        for tok in left.split(",")
        if tok.strip()
    )
    results = tuple(
        _parse_token(module, function, tok, result=True)
        for tok in right.split(",")
        if tok.strip()
    )
    for operand in operands[:-1]:
        if operand.variadic:
            raise ValueError(
                f"{module}.{function}: only the last operand may be variadic"
            )
    return OpSignature(module, function, operands, results, effect)


@functools.lru_cache(maxsize=1)
def signature_table() -> dict[tuple[str, str], OpSignature]:
    """Every declared signature, parsed and effect-checked."""
    from repro.mal.modules import SIGNATURE_DECLS, load_all

    load_all()
    table = {}
    for (module, function), (sig, effect) in SIGNATURE_DECLS.items():
        table[(module, function)] = parse_signature(module, function, sig, effect)
    return table


def check_completeness() -> list[str]:
    """Registered implementations lacking a signature declaration.

    Empty means every interpreted op is statically verifiable; the CI
    lint leg asserts exactly that (parse errors in declarations raise
    here as well).
    """
    from repro.mal.modules import REGISTRY, load_all

    load_all()
    table = signature_table()
    return sorted(
        f"{module}.{function}"
        for module, function in REGISTRY
        if (module, function) not in table
    )
