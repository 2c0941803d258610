"""The MAL intermediate representation.

MAL (MonetDB Assembly Language) is "the primary textual interface to
the MonetDB kernel" and the target language of every query compiler
front-end (paper, Section 3).  A MAL program is a linear sequence of
instructions

    (r1, r2, ...) := module.function(arg1, arg2, ...);

over single-assignment variables.  We reproduce the IR faithfully
enough for the paper's pipeline: typed variables, constant arguments,
a pretty printer matching MAL surface syntax, and helpers the
optimizer passes rely on (def/use chains, side-effect classification).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.errors import MALError
from repro.gdk.atoms import Atom


@dataclass(frozen=True)
class MALType:
    """A MAL type: a scalar atom, a BAT of an atom, or ``any``."""

    kind: str  # "scalar" | "bat" | "any"
    atom: Atom | None = None

    def __str__(self) -> str:
        if self.kind == "bat":
            atom = self.atom.value if self.atom else "any"
            return f"bat[:oid,:{atom}]"
        if self.kind == "scalar" and self.atom:
            return f":{self.atom.value}"
        return ":any"


def scalar_type(atom: Atom) -> MALType:
    """MAL type of a scalar of *atom*."""
    return MALType("scalar", atom)


def bat_type(atom: Atom | None = None) -> MALType:
    """MAL type of a void-headed BAT with the given tail atom."""
    return MALType("bat", atom)


ANY = MALType("any")


@dataclass(frozen=True)
class Constant:
    """A literal argument embedded in an instruction."""

    value: Any
    atom: Atom | None = None

    def __str__(self) -> str:
        if self.value is None:
            return "nil"
        if isinstance(self.value, str):
            escaped = self.value.replace("\\", "\\\\").replace('"', '\\"')
            return f'"{escaped}"'
        if isinstance(self.value, bool):
            return "true" if self.value else "false"
        return str(self.value)  # also how a NumPy scalar (a folded lng) reads


@dataclass(frozen=True)
class Param:
    """A late-bound statement parameter embedded in an instruction.

    ``key`` names the binding: an ``int`` for positional ``?`` markers,
    a ``str`` for ``:name`` markers.  The interpreter resolves the
    operand against the execution's parameter bindings, so one compiled
    program (a prepared statement) re-executes under fresh values
    without re-entering the compiler.
    """

    key: Any  # int (positional) | str (named)
    atom: Atom | None = None

    def __str__(self) -> str:
        return f"?{self.key}" if isinstance(self.key, int) else f":{self.key}"


@dataclass(frozen=True)
class Var:
    """A reference to a MAL variable by name."""

    name: str

    def __str__(self) -> str:
        return self.name


Argument = Var | Constant | Param


@functools.lru_cache(maxsize=1)
def effect_classes() -> tuple[frozenset, frozenset]:
    """``(side-effecting ops, writing ops)`` as (module, function) pairs.

    Read off each op's one declaration, ``@mal_op(..., effect=)``, on
    first use (this module imports nothing from the op modules):
    ``write``/``result``/``free`` ops mutate the catalog or deliver the
    result and are never eliminated.  A ``write`` op's first argument is
    the (constant) object name — how the engine routes a program through
    a transaction and tracks what it wrote for conflict detection.
    """
    from repro.mal.modules import SIGNATURE_DECLS, load_all

    load_all()
    declared = {op: effect for op, (_, effect) in SIGNATURE_DECLS.items()}
    side = frozenset(op for op, e in declared.items() if e in ("write", "result", "free"))
    return side, frozenset(op for op in side if declared[op] == "write")


@dataclass
class Instruction:
    """One MAL statement: results := module.function(args)."""

    module: str
    function: str
    results: list[str]
    args: list[Argument]
    comment: str = ""

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        call = f"{self.module}.{self.function}({args});"
        if self.results:
            lhs = ", ".join(self.results)
            if len(self.results) > 1:
                lhs = f"({lhs})"
            call = f"{lhs} := {call}"
        if self.comment:
            call = f"{call}  # {self.comment}"
        return call

    @property
    def has_side_effects(self) -> bool:
        """True when the instruction must survive dead-code elimination."""
        return (self.module, self.function) in effect_classes()[0]

    def used_vars(self) -> list[str]:
        """Names of variables read by this instruction."""
        return [a.name for a in self.args if isinstance(a, Var)]

    def signature(self) -> tuple:
        """Hashable identity used by common-term elimination."""
        key_args: list[Any] = []
        for arg in self.args:
            if isinstance(arg, Var):
                key_args.append(("v", arg.name))
            elif isinstance(arg, Param):
                # Same key ⇒ same runtime value, so CSE stays sound.
                key_args.append(("p", arg.key))
            else:
                # 1, 1.0, True and numpy.int64(1) are equal, not the same.
                key_args.append(("c", arg.atom, type(arg.value), arg.value))
        return (self.module, self.function, tuple(key_args))


class MALProgram:
    """A typed, single-assignment MAL program."""

    def __init__(self, name: str = "user.main"):
        self.name = name
        self.instructions: list[Instruction] = []
        self.types: dict[str, MALType] = {}
        self._counter = itertools.count()
        #: name -> variable holding a query result column (set by malgen).
        self.result_columns: list[tuple[str, str]] = []
        #: metadata describing the result shape ("table" | "array").
        self.result_kind: str = "table"
        #: names of variables that must survive garbage collection.
        self.pinned: set[str] = set()
        #: bind-parameter keys of the source statement in occurrence
        #: order (set by the connection; drives arity checking).
        self.param_keys: tuple = ()
        #: the executable form (``repro.mal.interpreter.LinkedPlan``),
        #: resolved on the first run; :meth:`emit` drops it.
        self.linked: Any = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def fresh(self, mtype: MALType, prefix: str = "X") -> str:
        """Allocate a new variable name of the given type."""
        name = f"{prefix}_{next(self._counter)}"
        self.types[name] = mtype
        return name

    def emit(
        self,
        module: str,
        function: str,
        args: Iterable[Any],
        result_types: Iterable[MALType] = (),
        comment: str = "",
        prefix: str = "X",
    ) -> list[str]:
        """Append an instruction; auto-wrap raw Python literals as constants.

        Returns the freshly allocated result variable names.
        """
        wrapped: list[Argument] = []
        for arg in args:
            if isinstance(arg, (Var, Constant, Param)):
                wrapped.append(arg)
            elif isinstance(arg, str) and arg in self.types:
                wrapped.append(Var(arg))
            else:
                wrapped.append(Constant(arg))
        results = [self.fresh(t, prefix) for t in result_types]
        self.instructions.append(Instruction(module, function, results, wrapped, comment))
        self.linked = None
        return results

    def emit1(
        self,
        module: str,
        function: str,
        args: Iterable[Any],
        result_type: MALType,
        comment: str = "",
        prefix: str = "X",
    ) -> str:
        """Like :meth:`emit` for single-result instructions."""
        return self.emit(module, function, args, [result_type], comment, prefix)[0]

    def pin(self, name: str) -> None:
        """Protect a variable from garbage collection / dead-code removal."""
        self.pinned.add(name)

    def type_of(self, name: str) -> MALType:
        """Declared type of a variable."""
        try:
            return self.types[name]
        except KeyError:
            raise MALError(f"unknown MAL variable {name!r}") from None

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def to_text(self) -> str:
        """Render MAL surface syntax (used by EXPLAIN and tests)."""
        lines = [f"function {self.name}();"]
        for instruction in self.instructions:
            lines.append(f"    {instruction}")
        lines.append(f"end {self.name};")
        return "\n".join(lines)

    def defined_vars(self) -> set[str]:
        """All variables assigned anywhere in the program."""
        out: set[str] = set()
        for instruction in self.instructions:
            out.update(instruction.results)
        return out

    def write_targets(self) -> frozenset[str]:
        """Lowercased names of the catalog objects this program mutates.

        Empty for pure queries; the engine runs any program with a
        non-empty set inside a (possibly implicit) transaction.
        """
        targets: set[str] = set()
        write_ops = effect_classes()[1]
        for instruction in self.instructions:
            if (instruction.module, instruction.function) not in write_ops:
                continue
            first = instruction.args[0] if instruction.args else None
            if isinstance(first, Constant) and isinstance(first.value, str):
                targets.add(first.value.lower())
        return frozenset(targets)

    # ------------------------------------------------------------------
    # dataflow graph
    # ------------------------------------------------------------------
    def dependencies(self) -> list[set[int]]:
        """Def/use dependency edges: ``deps[i]`` holds the indexes of the
        instructions that must complete before instruction *i* may run.

        Three edge sources, mirroring MonetDB's dataflow admission rules:

        * data edges — the producer of every variable an instruction
          reads (``language.free`` pseudo-ops additionally read the
          variables they release);
        * consumer edges into ``language.free`` — a variable may only be
          released once every reader has finished;
        * side-effect barriers — instructions with side effects
          (:func:`effect_classes`) order against *everything* before
          them, and everything after orders against the barrier, so
          catalog mutation and result delivery keep program order.
        """
        producer: dict[str, int] = {}
        consumers: dict[str, list[int]] = {}
        deps: list[set[int]] = []
        last_barrier = -1
        for index, instruction in enumerate(self.instructions):
            edges: set[int] = set()
            is_free = (
                instruction.module == "language"
                and instruction.function == "free"
            )
            if is_free:
                for arg in instruction.args:
                    if isinstance(arg, Constant) and isinstance(arg.value, str):
                        if arg.value in producer:
                            edges.add(producer[arg.value])
                        edges.update(consumers.get(arg.value, ()))
            for used in instruction.used_vars():
                if used in producer:
                    edges.add(producer[used])
                consumers.setdefault(used, []).append(index)
            # language.free is nominally side-effecting (it must survive
            # dead-code elimination) but releasing an environment entry
            # only needs its precise producer/consumer edges — treating
            # it as a barrier would serialize the whole dataflow graph.
            if instruction.has_side_effects and not is_free:
                edges.update(range(index))
                last_barrier = index
            elif last_barrier >= 0:
                edges.add(last_barrier)
            edges.discard(index)
            deps.append(edges)
            for result in instruction.results:
                producer[result] = index
        return deps

    def validate(self) -> None:
        """Check single-assignment and def-before-use properties."""
        defined: set[str] = set()
        for instruction in self.instructions:
            for used in instruction.used_vars():
                if used not in defined:
                    raise MALError(
                        f"variable {used!r} used before definition in {instruction}"
                    )
            for result in instruction.results:
                if result in defined:
                    raise MALError(f"variable {result!r} assigned twice")
                if result not in self.types:
                    raise MALError(f"variable {result!r} has no declared type")
                defined.add(result)
