#!/usr/bin/env python3
"""Repo self-lint: engine conventions the type system can't enforce.

AST-based checks over ``src/repro`` (and this ``tools`` directory):

* ``crash-point``   — every ``crash_point("name")`` site names a point
  registered in ``repro.testing.faultpoints.REGISTERED_POINTS`` (a
  typo'd name would make the crash matrix silently skip the site);
* ``env-knob``      — ``os.environ``/``os.getenv`` reads of ``REPRO_*``
  names appear only in ``repro/knobs.py``, the central knob registry;
* ``no-pickle``     — ``pickle`` is never imported (the WAL and wire
  protocol serialize explicitly; pickle would smuggle in arbitrary
  code execution on load);
* ``bare-except``   — no ``except:`` without an exception class;
* ``fsync-rename``  — in ``gdk/persist.py``/``engine/wal.py`` every
  function that renames a file into place also fsyncs (atomic-write
  discipline), unless the rename line carries ``# lint: allow-rename``;
* ``signatures``    — every op in the MAL interpreter registry has a
  declared static signature (the plan verifier's completeness
  guarantee);
* ``expression-walker`` — under ``semantic/`` and ``algebra/`` no
  function outside :data:`WALKERS` type-switches on four or more
  expression node classes: the binder annotates every node once, so a
  second hand-enumerated walk is a second place for the same decision;
* ``serial-form``   — each at-rest / on-wire format has one owning
  module (:data:`SERIAL_OWNERS`): elsewhere, a dict literal, subscript
  or ``.get()`` spelling the schema-entry key ``has_default`` or the
  blob-spec keys ``vlen`` / ``mlen``, or a ``struct.Struct("<II")``
  record prelude, is a second hand-written copy of that format — call
  ``to_json``/``from_json``/``object_from_schema`` or ``gdk.codec``;
* ``program-memo``  — outside ``mal/program.py`` nothing stores an
  underscore attribute on a MAL program (``program._x = ...``) or
  reaches one through ``getattr`` / ``setattr`` / ``hasattr`` /
  ``delattr``: what is memoised per program (its linked plan) has one
  declared home, ``MALProgram.linked``.  A program is any expression
  whose last name contains ``program``;
* ``orphan-op``     — every registered MAL op is emitted by the MAL
  generator, an optimizer pass or the engine: its ``"module",
  "function"`` pair appears literally in a call or tuple under
  ``algebra/``, ``mal/optimizer/`` or ``engine/``, or it belongs to one
  of the computed-name families of :data:`EMITTED_FAMILIES`.  An op
  nothing emits is registered, typed and verified for no plan.

Exit status 0 when clean; 1 with ``file:line: [rule] message`` findings.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
KNOB_MODULE = SRC / "repro" / "knobs.py"
FSYNC_FILES = {
    SRC / "repro" / "gdk" / "persist.py",
    SRC / "repro" / "engine" / "wal.py",
}
ALLOW_RENAME = "# lint: allow-rename"

#: where MAL instructions are emitted from.
EMITTER_DIRS = (
    SRC / "repro" / "algebra",
    SRC / "repro" / "mal" / "optimizer",
    SRC / "repro" / "engine",
)

#: where a type switch over expression nodes counts as a walker, and the
#: walkers there are: the binder's annotate pass, malgen's expression
#: and predicate lowerings, and the literal folder of DDL/VALUES syntax.
WALKER_DIRS = (SRC / "repro" / "semantic", SRC / "repro" / "algebra")
WALKERS = {"Binder.bind", "MALGenerator._eval", "MALGenerator._conjunct", "fold_constant"}
WALKER_CLASSES = 4

#: format -> (the keys / struct layout that spell it, its owning module).
SERIAL_OWNERS = {
    "schema entry": ({"has_default"}, "repro/catalog/objects.py"),
    "blob spec": ({"vlen", "mlen"}, "repro/gdk/codec.py"),
    "record prelude": ({"<II"}, "repro/gdk/codec.py"),
}
#: the digest oracle spells the schema out on purpose: it must not
#: share code with what it checks.
SERIAL_ALLOWED = ("repro/testing/verify.py",)

#: the one module that may give a MAL program private attributes.
PROGRAM_MODULE = "repro/mal/program.py"
REFLECTION = ("getattr", "setattr", "hasattr", "delattr")

_BINARY = (  # the values of repro.semantic.binder.OP_NAMES
    "add", "sub", "mul", "div", "mod", "eq", "ne", "lt", "le", "gt", "ge",
    "and", "or", "concat",
)
_UNARY = (  # MALGenerator._unary / _is_null / _function / _cast / _case
    "not", "negate", "isnil", "cast", "abs", "math",
    "lower", "upper", "trim", "length", "substring", "like", "case",
)
_AGGREGATES = (  # repro.gdk.aggregate.AGGREGATES
    "sum", "avg", "min", "max", "count", "prod", "stddev", "median",
)

#: ops whose function name is computed where they are emitted, keyed by
#: that site.  Everything else must appear as a literal pair.
EMITTED_FAMILIES = {
    # MALGenerator._calc: an operator over scalars is calc.<name>; with a
    # BAT operand it is a node of a batcalc.expr (a literal pair there).
    "malgen._calc: calc.<name> over scalars": {
        ("calc", name) for name in _BINARY + _UNARY
    },
    # _ScalarContext emits aggr.<name>, _GroupedContext aggr.sub<name>.
    "malgen aggregate contexts: aggr.<name>, aggr.sub<name>": {
        ("aggr", prefix + name) for prefix in ("", "sub") for name in _AGGREGATES
    },
    # _Mergetable._merge_partial over mergetable.DECOMPOSABLE.
    "mergetable._merge_partial: aggr.merge<agg>": {
        ("aggr", "merge" + name) for name in ("sum", "prod", "min", "max", "count")
    },
    # No plan contains these two; hand-written MAL programs (the mal/
    # test suites, ad-hoc tooling) have no other constant-argument BAT
    # source and no other way to export a value from a run.
    "hand-written MAL only: the source and the sink": {
        ("array", "series"),
        ("sql", "setVariable"),
    },
}


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        rel = self.path.relative_to(REPO)
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


def _call_name(node: ast.Call) -> str:
    """Dotted name of a call target (best effort): ``os.environ.get``."""
    parts: list[str] = []
    target = node.func
    while isinstance(target, ast.Attribute):
        parts.append(target.attr)
        target = target.value
    if isinstance(target, ast.Name):
        parts.append(target.id)
    return ".".join(reversed(parts))


def _repro_env_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        if node.value.startswith("REPRO_"):
            return node.value
    return None


def _check_env(tree: ast.AST, path: Path, findings: list[Finding]) -> None:
    if path == KNOB_MODULE:
        return
    for node in ast.walk(tree):
        name = None
        if isinstance(node, ast.Call):
            called = _call_name(node)
            if called in ("os.environ.get", "os.getenv", "os.environ.setdefault"):
                if node.args:
                    name = _repro_env_name(node.args[0])
        elif isinstance(node, ast.Subscript):
            target = node.value
            if (
                isinstance(target, ast.Attribute)
                and target.attr == "environ"
                and isinstance(target.value, ast.Name)
                and target.value.id == "os"
                and isinstance(node.ctx, ast.Load)
            ):
                name = _repro_env_name(node.slice)
        if name is not None:
            findings.append(
                Finding(
                    path,
                    node.lineno,
                    "env-knob",
                    f"read of {name} bypasses the knob registry — use "
                    "repro.knobs.raw()",
                )
            )


def _check_crash_points(
    tree: ast.AST, path: Path, registered: frozenset, findings: list[Finding]
) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or _call_name(node) not in (
            "crash_point",
            "faultpoints.crash_point",
        ):
            continue
        if not node.args or not isinstance(node.args[0], ast.Constant):
            findings.append(
                Finding(
                    path, node.lineno, "crash-point",
                    "crash_point requires a literal point name",
                )
            )
            continue
        name = node.args[0].value
        if name not in registered:
            findings.append(
                Finding(
                    path, node.lineno, "crash-point",
                    f"crash_point({name!r}) is not in REGISTERED_POINTS — "
                    "the crash matrix would never exercise this site",
                )
            )


def _check_imports(tree: ast.AST, path: Path, findings: list[Finding]) -> None:
    for node in ast.walk(tree):
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module]
        for name in names:
            root = name.split(".")[0]
            if root in ("pickle", "cPickle", "_pickle"):
                findings.append(
                    Finding(
                        path, node.lineno, "no-pickle",
                        f"import of {root} — serialize explicitly instead",
                    )
                )


def _check_bare_except(tree: ast.AST, path: Path, findings: list[Finding]) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            findings.append(
                Finding(
                    path, node.lineno, "bare-except",
                    "bare 'except:' swallows KeyboardInterrupt/SystemExit — "
                    "name the exception class",
                )
            )


def _is_rename_call(node: ast.Call) -> bool:
    called = _call_name(node)
    if called in ("os.replace", "os.rename", "shutil.move"):
        return True
    # Path.rename(...) — the attribute name alone identifies it; plain
    # str.replace is a different attribute and never matches.
    return isinstance(node.func, ast.Attribute) and node.func.attr == "rename"


def _check_fsync_rename(
    tree: ast.AST, path: Path, lines: list[str], findings: list[Finding]
) -> None:
    if path not in FSYNC_FILES:
        return
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        renames = []
        has_fsync = False
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            called = _call_name(node)
            if called in ("os.fsync", "fsync_directory", "persist.fsync_directory"):
                has_fsync = True
            elif _is_rename_call(node):
                renames.append(node)
        if has_fsync:
            continue
        for node in renames:
            line_text = lines[node.lineno - 1] if node.lineno <= len(lines) else ""
            if ALLOW_RENAME in line_text:
                continue
            findings.append(
                Finding(
                    path, node.lineno, "fsync-rename",
                    f"{func.name} renames into place without an fsync — "
                    "stage + fsync + rename, or mark the line "
                    f"'{ALLOW_RENAME}'",
                )
            )


def _expression_classes() -> frozenset:
    """Names of the expression node classes, parsed and bound."""
    import typing

    from repro.sql import ast_nodes

    parsed = {node.__name__ for node in typing.get_args(ast_nodes.Expression)}
    return frozenset(parsed | {"Parameter", "BoundColumn", "BoundCellRef"})


def _check_expression_walkers(
    tree: ast.AST, path: Path, classes: frozenset, findings: list[Finding]
) -> None:
    if not any(root in path.parents for root in WALKER_DIRS):
        return
    functions = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    for owner in tree.body:
        if isinstance(owner, ast.ClassDef):
            functions += [
                (f"{owner.name}.{node.name}", node)
                for node in owner.body
                if isinstance(node, ast.FunctionDef)
            ]
    for name, function in functions:
        switched: set[str] = set()
        for node in ast.walk(function):
            if isinstance(node, ast.Call) and _call_name(node) == "isinstance" and len(node.args) == 2:
                tested = node.args[1]
                for target in tested.elts if isinstance(tested, ast.Tuple) else [tested]:
                    switched.add(getattr(target, "attr", getattr(target, "id", "")))
        switched &= classes
        if len(switched) >= WALKER_CLASSES and name not in WALKERS:
            findings.append(
                Finding(
                    path, function.lineno, "expression-walker",
                    f"{name} type-switches on {len(switched)} expression node classes "
                    f"({', '.join(sorted(switched))}) — read the binder's annotations "
                    "(.atom, .aggregate) or ast.children() instead of walking again",
                )
            )


def _serial_spelling(node: ast.AST) -> tuple[bool, set]:
    """``(is a struct layout, constant strings)`` *node* uses as keys / layout."""
    keys: list = []
    layout = False
    if isinstance(node, ast.Dict):
        keys = node.keys
    elif isinstance(node, ast.Subscript):
        keys = [node.slice]
    elif isinstance(node, ast.Call):
        name = _call_name(node)
        layout = name in ("struct.Struct", "Struct")
        if layout or name == "get" or name.endswith(".get"):
            keys = node.args[:1]
    return layout, {
        key.value for key in keys
        if isinstance(key, ast.Constant) and isinstance(key.value, str)
    }


def _check_serial_form(tree: ast.AST, path: Path, findings: list[Finding]) -> None:
    where = path.as_posix()
    if where.endswith(SERIAL_ALLOWED):
        return

    def visit(node: ast.AST, scope: str, seen: set) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        layout, spelled = _serial_spelling(node)
        for form, (tokens, owner) in SERIAL_OWNERS.items():
            if (
                spelled & tokens
                and layout == (form == "record prelude")
                and not where.endswith(owner)
                and (scope, form) not in seen
            ):
                seen.add((scope, form))
                findings.append(
                    Finding(
                        path, node.lineno, "serial-form",
                        f"{scope or '<module>'} spells the {form} format "
                        f"({', '.join(sorted(spelled & tokens))}) outside its owner {owner}",
                    )
                )
        for child in ast.iter_child_nodes(node):
            visit(child, scope, seen)

    visit(tree, "", set())


def _names_program(node: ast.AST) -> bool:
    """Whether *node* reads as a MAL program (``program``,
    ``entry.program``, ``optimized_program``)."""
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
    return "program" in name.lower()


def _check_program_memos(tree: ast.AST, path: Path, findings: list[Finding]) -> None:
    if path.as_posix().endswith(PROGRAM_MODULE):
        return
    for node in ast.walk(tree):
        target, attr = None, None
        if isinstance(node, ast.Call) and _call_name(node) in REFLECTION and len(node.args) >= 2:
            target, name = node.args[:2]
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                attr = name.value
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            target, attr = node.value, node.attr
        if attr and attr.startswith("_") and _names_program(target):
            findings.append(
                Finding(
                    path, node.lineno, "program-memo",
                    f"private attribute {attr!r} set or reflected on a MAL program "
                    f"outside {PROGRAM_MODULE} — declare it on MALProgram",
                )
            )


def _check_signatures(findings: list[Finding]) -> None:
    sys.path.insert(0, str(SRC))
    try:
        from repro.mal.analysis.signatures import check_completeness

        missing = check_completeness()
    except Exception as exc:  # signature decl parse errors land here
        findings.append(
            Finding(SRC / "repro", 0, "signatures", f"registry check failed: {exc}")
        )
        return
    for op in missing:
        findings.append(
            Finding(
                SRC / "repro" / "mal" / "modules" / "__init__.py", 0,
                "signatures",
                f"interpreted op {op} has no declared signature",
            )
        )


def emitted_pairs(paths: list[Path]) -> set[tuple[str, str]]:
    """Adjacent string-literal pairs in calls and tuples of *paths*.

    ``program.emit1("algebra", "projection", ...)``, ``Instruction("mat",
    "pack", ...)`` and malgen's ``("algebra", "thetaselect", args)``
    links all spell the op as two consecutive string constants.
    """
    pairs: set[tuple[str, str]] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                items = node.args
            elif isinstance(node, ast.Tuple):
                items = node.elts
            else:
                continue
            for first, second in zip(items, items[1:]):
                if (
                    isinstance(first, ast.Constant)
                    and isinstance(first.value, str)
                    and isinstance(second, ast.Constant)
                    and isinstance(second.value, str)
                ):
                    pairs.add((first.value, second.value))
    return pairs


def _check_orphan_ops(findings: list[Finding]) -> int:
    """Flag registered ops nothing emits; returns the registered op count."""
    from repro.mal.modules import REGISTRY, load_all

    load_all()
    paths = [p for root in EMITTER_DIRS for p in sorted(root.rglob("*.py"))]
    emitted = emitted_pairs(paths).union(*EMITTED_FAMILIES.values())
    for module, function in sorted(set(REGISTRY) - emitted):
        findings.append(
            Finding(
                SRC / "repro" / "mal" / "modules" / f"{module}_mod.py", 0,
                "orphan-op",
                f"{module}.{function} is registered but nothing under "
                "algebra/, mal/optimizer/ or engine/ emits it — delete the "
                "op or add its emitter",
            )
        )
    return len(REGISTRY)


def lint_paths(paths: list[Path]) -> list[Finding]:
    from repro.testing.faultpoints import REGISTERED_POINTS

    registered = frozenset(REGISTERED_POINTS)
    classes = _expression_classes()
    findings: list[Finding] = []
    for path in paths:
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            findings.append(
                Finding(path, exc.lineno or 0, "syntax", str(exc.msg))
            )
            continue
        lines = source.splitlines()
        _check_env(tree, path, findings)
        _check_crash_points(tree, path, registered, findings)
        _check_imports(tree, path, findings)
        _check_bare_except(tree, path, findings)
        _check_fsync_rename(tree, path, lines, findings)
        _check_expression_walkers(tree, path, classes, findings)
        _check_serial_form(tree, path, findings)
        _check_program_memos(tree, path, findings)
    return findings


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    roots = [SRC / "repro", REPO / "tools"]
    paths = sorted(p for root in roots for p in root.rglob("*.py"))
    findings = lint_paths(paths)
    if "--no-signatures" not in argv:
        _check_signatures(findings)
    ops = _check_orphan_ops(findings)
    for finding in findings:
        print(finding)
    if findings:
        print(f"{len(findings)} finding(s)")
        return 1
    print(
        f"lint clean: {len(paths)} files, {ops} MAL ops, each with a "
        "signature and an emitter"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
