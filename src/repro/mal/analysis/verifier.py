"""The MAL plan verifier.

One linear scan over the program checks, per instruction:

* a signature is registered for the op and the arguments match it
  (arity, operand kinds, atom constraints, JSON constants parse), a
  ``batcalc.expr`` expression parses, names exactly its leaves and
  types to its declared result atom, and an ``aggr`` aggregate's result
  is declared the atom the aggregate typing table gives its input;
* single assignment and def-before-use, with every result variable
  carrying a declared type whose kind agrees with the signature, and
  every result column and pinned variable defined by an instruction;
* no use after ``language.free`` (the static mirror of the
  interpreter's free-after-last-reader discipline), no double free, no
  free of a pinned variable;
* candidate-list provenance: an operand declared ``cand`` only accepts
  variables produced by candidate-generating ops (select family, dense
  sequences, ``bat.mergecand``, group extents, ...), never e.g. a join
  result whose oids may repeat;
* side-effect ordering: writes and result delivery appear in a sane
  barrier order (no catalog write after the result set is emitted, at
  most one result set);
* the fragment invariants of :mod:`repro.mal.analysis.invariants`.

``verify_program`` raises :class:`~repro.errors.PlanVerificationError`
naming the phase (optimizer pass) and offending instruction, and
returns a :class:`VerificationReport` on success.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import DatabaseError, PlanVerificationError
from repro.gdk.aggregate import AGGREGATES, aggregate_atom
from repro.gdk.atoms import Atom, atom_for_python
from repro.gdk.calc import result_atom
from repro.mal.analysis.invariants import FragmentState
from repro.mal.analysis.signatures import Operand, OpSignature, signature_table
from repro.mal.program import Constant, Instruction, MALProgram, Param, Var


@dataclass
class VerificationReport:
    """Summary of one successful verification."""

    phase: str
    instructions: int
    checked_ops: int
    frees: int
    fragment_groups: list[tuple[str, int]] = field(default_factory=list)


#: var-kind lattice values tracked per variable.
_CAND = "cand"
_OIDS = "oids"
_BAT = "bat"
_SCALAR = "scalar"

#: ops whose bat-kind result inherits the provenance of their first
#: argument (a slice of a sorted/unique list stays sorted/unique).
_KIND_PRESERVING = {("mat", "partition"), ("bat", "slice")}


class _Checker:
    def __init__(self, program: MALProgram, phase: str):
        self.program = program
        self.phase = phase
        self.table = signature_table()
        self.defined: dict[str, int] = {}
        self.freed: dict[str, int] = {}
        self.var_kinds: dict[str, str | None] = {}
        self.index = 0
        self.instruction: Instruction | None = None
        self.frees = 0
        self.result_delivered = False
        self.fragments = FragmentState(self.fail)

    # ------------------------------------------------------------------
    def fail(self, message: str) -> None:
        raise PlanVerificationError(
            message,
            phase=self.phase,
            index=self.index,
            instruction=str(self.instruction) if self.instruction else "",
        )

    # ------------------------------------------------------------------
    # operand kind checking
    # ------------------------------------------------------------------
    def _kind_error(self, operand: Operand, arg) -> str | None:
        """Why *arg* cannot fill *operand* (``None`` when it can)."""
        kind = operand.kind
        if kind == "any":
            return None
        if isinstance(arg, Param):
            if kind in ("val", "scalar", "int", "str", "bool"):
                return None
            return f"a bind parameter cannot fill a {kind} operand"
        if isinstance(arg, Constant):
            value = arg.value
            if kind in ("val", "scalar"):
                return None
            if value is None and kind in ("int", "str", "bool", "name"):
                return None  # nil is a polymorphic scalar constant
            if kind == "int":
                if isinstance(value, int) and not isinstance(value, bool):
                    return None
                return f"expected an integer constant, got {value!r}"
            if kind == "bool":
                if isinstance(value, (bool, int)):
                    return None
                return f"expected a boolean constant, got {value!r}"
            if kind in ("str", "name"):
                if isinstance(value, str):
                    return None
                return f"expected a string constant, got {value!r}"
            if kind == "json":
                if not isinstance(value, str):
                    return f"expected a JSON constant, got {value!r}"
                try:
                    json.loads(value)
                except ValueError:
                    return f"constant {value!r} is not valid JSON"
                return None
            return f"a constant cannot fill a {kind} operand"
        if isinstance(arg, Var):
            mtype = self.program.types.get(arg.name)
            if mtype is None or mtype.kind == "any":
                return None
            if kind == "val":
                return None
            if kind in ("scalar", "int", "str", "bool", "name", "json"):
                if mtype.kind == "scalar":
                    return None
                return f"{arg.name!r} is a BAT where a scalar is expected"
            if mtype.kind != "bat":
                return f"{arg.name!r} is a scalar where a BAT is expected"
            if operand.atom is not None and mtype.atom not in (None, operand.atom):
                return (
                    f"{arg.name!r} has tail atom {mtype.atom.value}, "
                    f"expected {operand.atom.value}"
                )
            if kind == "bat":
                return None
            # oids / cand: the declared tail must be oid.
            if mtype.atom not in (None, Atom.OID):
                return (
                    f"{arg.name!r} has tail atom {mtype.atom.value} where an "
                    "oid list is expected"
                )
            if kind == "oids":
                return None
            if self.var_kinds.get(arg.name) != _CAND:
                return (
                    f"{arg.name!r} is not provably a sorted/unique candidate "
                    "list (produced by a non-candidate op)"
                )
            return None
        return f"unsupported argument {arg!r}"

    def _match_args(self, sig: OpSignature, args: list) -> None:
        operands = sig.operands

        def rec(i: int, j: int) -> bool:
            if i == len(operands):
                return j == len(args)
            operand = operands[i]
            if operand.variadic:
                count = 0
                while (
                    j + count < len(args)
                    and self._kind_error(operand, args[j + count]) is None
                ):
                    count += 1
                for take in range(count, operand.min_count - 1, -1):
                    if rec(i + 1, j + take):
                        return True
                return False
            if j < len(args) and self._kind_error(operand, args[j]) is None:
                if rec(i + 1, j + 1):
                    return True
            if operand.optional:
                return rec(i + 1, j)
            return False

        if rec(0, 0):
            return
        # Re-walk left-to-right without backtracking for a useful message.
        j = 0
        for position, operand in enumerate(operands):
            if j >= len(args):
                if operand.optional or (operand.variadic and operand.min_count == 0):
                    continue
                self.fail(
                    f"too few arguments for signature '{sig}' "
                    f"(missing operand {position + 1}: {operand})"
                )
            reason = self._kind_error(operand, args[j])
            if reason is not None:
                if operand.optional:
                    continue
                self.fail(
                    f"operand {position + 1} ({operand}) of '{sig}': {reason}"
                )
            j += 1
            if operand.variadic:
                while j < len(args) and self._kind_error(operand, args[j]) is None:
                    j += 1
        self.fail(f"arguments do not match signature '{sig}'")

    # ------------------------------------------------------------------
    # per-instruction checks
    # ------------------------------------------------------------------
    def _check_free(self, instruction: Instruction) -> None:
        self.frees += 1
        for arg in instruction.args:
            if not isinstance(arg, Constant) or not isinstance(arg.value, str):
                self.fail("language.free arguments must be variable-name constants")
            name = arg.value
            if name not in self.defined:
                self.fail(f"language.free of undefined variable {name!r}")
            if name in self.freed:
                self.fail(
                    f"variable {name!r} freed twice "
                    f"(first at instruction #{self.freed[name]})"
                )
            if name in self.program.pinned:
                self.fail(f"language.free of pinned variable {name!r}")
            self.freed[name] = self.index

    def _check_effects(self, sig: OpSignature) -> None:
        if sig.effect == "result":
            if (sig.module, sig.function) == ("sql", "resultSet"):
                if self.result_delivered:
                    self.fail("plan delivers two result sets")
                self.result_delivered = True
        elif sig.effect == "write" and self.result_delivered:
            self.fail(
                f"{sig.module}.{sig.function} mutates the catalog after the "
                "result set was delivered — side-effect barrier order violated"
            )

    def _check_name_counts(self, instruction: Instruction) -> None:
        """sql.append/resultSet: declared column names must match BATs."""
        key = (instruction.module, instruction.function)
        if key == ("sql", "append"):
            names_index, first_bat = 1, 2
        elif key == ("sql", "resultSet"):
            names_index, first_bat = 1, 3
        else:
            return
        if len(instruction.args) <= names_index:
            return
        names_arg = instruction.args[names_index]
        if not isinstance(names_arg, Constant) or not isinstance(
            names_arg.value, str
        ):
            return
        try:
            names = json.loads(names_arg.value)
        except ValueError:
            return  # already rejected by the json operand kind
        bats = len(instruction.args) - first_bat
        if isinstance(names, list) and len(names) != bats:
            self.fail(
                f"{instruction.module}.{instruction.function} declares "
                f"{len(names)} columns but receives {bats} BATs"
            )

    def _check_expression(self, instruction: Instruction) -> None:
        """batcalc.expr: the text against its leaves and its result type."""
        if (instruction.module, instruction.function) != ("batcalc", "expr"):
            return
        text, *leaves = instruction.args
        if not isinstance(text, Constant):
            self.fail("batcalc.expr needs its expression as a constant")
        atoms: list[Atom | None] = []
        bats = 0
        try:
            for leaf in leaves:
                if isinstance(leaf, Var):
                    mtype = self.program.types.get(leaf.name)
                    atoms.append(mtype.atom if mtype else None)
                    bats += mtype is not None and mtype.kind == "bat"
                elif isinstance(leaf, Constant) and leaf.value is not None:
                    atoms.append(atom_for_python(leaf.value))
                else:
                    atoms.append(leaf.atom)
            inferred = result_atom(text.value, atoms)
        except (DatabaseError, ValueError) as exc:  # malformed text, ill-typed node
            self.fail(f"batcalc.expr: {exc}")
        if not bats:
            self.fail("batcalc.expr has no BAT leaf to align its result with")
        declared = self.program.types.get(instruction.results[0])
        if declared and None not in (inferred, declared.atom) and inferred is not declared.atom:
            self.fail(
                f"batcalc.expr {text.value!r} yields {inferred.value}, but "
                f"{instruction.results[0]!r} is declared {declared}"
            )

    def _check_aggregate(self, instruction: Instruction) -> None:
        """aggr.<name> / aggr.sub<name>: the result type against the
        aggregate typing table."""
        name = instruction.function.removeprefix("sub")
        if instruction.module != "aggr" or name not in AGGREGATES:
            return
        value = self.program.types.get(instruction.args[0].name)
        declared = self.program.types.get(instruction.results[0])
        inferred = aggregate_atom(name, value.atom if value else None)
        if declared and None not in (inferred, declared.atom) and inferred is not declared.atom:
            self.fail(
                f"aggr.{instruction.function} over {value} yields {inferred.value}, "
                f"but {instruction.results[0]!r} is declared {declared}"
            )

    def _record_results(self, instruction: Instruction, sig: OpSignature) -> None:
        if len(instruction.results) != len(sig.results):
            self.fail(
                f"{sig.module}.{sig.function} produces {len(sig.results)} "
                f"results, instruction assigns {len(instruction.results)}"
            )
        inherit = None
        if (sig.module, sig.function) in _KIND_PRESERVING:
            first = instruction.args[0] if instruction.args else None
            if isinstance(first, Var):
                inherit = self.var_kinds.get(first.name)
        for result, declared in zip(instruction.results, sig.results):
            if result in self.defined:
                self.fail(f"variable {result!r} assigned twice")
            mtype = self.program.types.get(result)
            if mtype is None:
                self.fail(f"variable {result!r} has no declared type")
            if declared.kind in (_BAT, _CAND, _OIDS) and mtype.kind == "scalar":
                self.fail(
                    f"{sig.module}.{sig.function} produces a BAT but "
                    f"{result!r} is declared {mtype}"
                )
            if declared.kind == _SCALAR and mtype.kind == "bat":
                self.fail(
                    f"{sig.module}.{sig.function} produces a scalar but "
                    f"{result!r} is declared {mtype}"
                )
            self.defined[result] = self.index
            if declared.kind == _BAT and inherit in (_CAND, _OIDS):
                self.var_kinds[result] = inherit
            elif declared.kind == "any":
                self.var_kinds[result] = None
            else:
                self.var_kinds[result] = declared.kind

    # ------------------------------------------------------------------
    def run(self) -> VerificationReport:
        checked = 0
        for index, instruction in enumerate(self.program.instructions):
            self.index = index
            self.instruction = instruction
            key = (instruction.module, instruction.function)
            for used in instruction.used_vars():
                if used not in self.defined:
                    self.fail(f"variable {used!r} used before definition")
                if used in self.freed:
                    self.fail(
                        f"variable {used!r} used after language.free "
                        f"(freed at instruction #{self.freed[used]})"
                    )
            sig = self.table.get(key)
            if sig is None:
                self.fail(
                    f"no signature registered for {key[0]}.{key[1]} — "
                    "declare one via @mal_op(..., sig=...)"
                )
            if key == ("language", "free"):
                self._check_free(instruction)
                continue
            self._match_args(sig, instruction.args)
            self._check_effects(sig)
            self._check_name_counts(instruction)
            self._check_expression(instruction)
            self._check_aggregate(instruction)
            self._record_results(instruction, sig)
            self.fragments.observe(instruction)
            checked += 1
        self.index = len(self.program.instructions)
        self.instruction = None
        self.fragments.finish()
        for role, names in (
            ("result column", [var for _, var in self.program.result_columns]),
            ("pinned variable", sorted(self.program.pinned)),
        ):
            for name in names:
                if name not in self.defined:
                    self.fail(f"{role} {name!r} is defined by no instruction")
        return VerificationReport(
            phase=self.phase,
            instructions=len(self.program.instructions),
            checked_ops=checked,
            frees=self.frees,
            fragment_groups=sorted(self.fragments.group_pieces.items()),
        )


def verify_program(program: MALProgram, phase: str = "plan") -> VerificationReport:
    """Statically verify *program*; raise :class:`PlanVerificationError`.

    ``phase`` names the pipeline stage that produced the program
    (``"malgen"`` or an optimizer pass name) and is carried into the
    error for precise blame.
    """
    return _Checker(program, phase).run()
