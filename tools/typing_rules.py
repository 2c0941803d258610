#!/usr/bin/env python3
"""The README "Typing rules" tables, generated from the engine's own rules.

Rows come from what the binder itself reads: the SQL-operator and
scalar-function maps of ``repro.semantic.binder``, the typing column of
``repro.gdk.calc.KERNELS`` (through ``node_atom``) and
``repro.gdk.aggregate.aggregate_atom``.  A rule is shown by probing it:
each row lists the result atom for a fixed set of operand atoms
(``NULL`` is an untyped NULL or ``?``), so the table cannot say anything
the table in ``src/`` does not.

A second table shows the one conversion rule of ``repro.gdk.atoms`` the
same way: each cell is what ``Column.cast`` makes of a probe value of
one atom (``DataError`` where the text does not parse).

``python tools/typing_rules.py`` prints the tables, ``--write`` syncs
them between the README's ``<!-- typing-table -->`` and
``<!-- conversion-table -->`` markers and ``--check`` (CI's lint leg,
``tests/tools``) fails when one is stale.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.errors import DataError, TypeError_  # noqa: E402
from repro.gdk import calc  # noqa: E402
from repro.gdk.aggregate import AGGREGATES, aggregate_atom  # noqa: E402
from repro.gdk.atoms import Atom  # noqa: E402
from repro.gdk.column import Column  # noqa: E402
from repro.semantic.binder import OP_NAMES, SCALAR_FUNCTIONS  # noqa: E402

TABLE_BEGIN = "<!-- typing-table:begin -->"
TABLE_END = "<!-- typing-table:end -->"
CONVERSION_BEGIN = "<!-- conversion-table:begin -->"
CONVERSION_END = "<!-- conversion-table:end -->"

I, L, D, S, B, N = Atom.INT, Atom.LNG, Atom.DBL, Atom.STR, Atom.BIT, None
BINARY_PROBES = [(I, I), (I, L), (L, D), (I, N), (N, N), (S, S), (S, I)]
UNARY_PROBES = [(I,), (L,), (D,), (N,), (S,)]
#: CASE WHEN c THEN x ELSE y END: operands (c, x, y).
CASE_PROBES = [(B, I, I), (B, I, L), (B, I, D), (B, I, N), (B, N, N), (B, S, S), (B, S, I)]


#: (value, its atom): fits everywhere, out of range, an int past lng
#: (a dbl), fractional, non-finite, text that parses as one atom only,
#: text that parses as none, NULL.
CONVERSION_PROBES = [
    (2147483647, I), (8589934592, L), (2**64, D), (-2.7, D), (1e12, D), (float("inf"), D),
    (float("nan"), D), (True, B), ("42", S), ("t", S), ("yes", S), (None, I),
]
CONVERSION_TARGETS = (I, L, D, B, S)


def _name(atom) -> str:
    return "NULL" if atom is None else atom.value


def _probe(rule, probes, shown=slice(None)) -> str:
    """``operands → result`` for every probe; a constant rule is one atom."""
    outcomes = []
    for operands in probes:
        try:
            result = _name(rule(list(operands)))
        except TypeError_:
            result = "error"
        outcomes.append(f"{', '.join(map(_name, operands[shown]))} → {result}")
    results = {outcome.rsplit(" → ", 1)[1] for outcome in outcomes}
    return results.pop() if len(results) == 1 else "; ".join(outcomes)


def _kernel_rows(spellings: dict, probes) -> list[tuple[str, str, str]]:
    """One row per distinct (kernel rule, literal): SQL spellings grouped."""
    grouped: dict[tuple, list[str]] = {}
    for sql, (kernel, literal) in spellings.items():
        rule = calc.KERNELS[kernel][4]
        outcome = _probe(lambda atoms: calc.node_atom(kernel, atoms, literal), probes)
        grouped.setdefault((rule if callable(rule) else None, outcome), []).append((sql, kernel))
    rows = []
    for (_, outcome), members in grouped.items():
        sqls = " ".join(f"`{sql}`" for sql, _ in members)
        kernels = " ".join(dict.fromkeys(kernel for _, kernel in members))
        rows.append((sqls, kernels, outcome))
    return rows


def rows() -> list[tuple[str, str, str]]:
    operators = {sql: (kernel, None) for sql, kernel in OP_NAMES.items()}
    out = _kernel_rows(operators, BINARY_PROBES)
    out += _kernel_rows({"- x": ("negate", None), "NOT x": ("not", None)}, UNARY_PROBES)
    functions = {
        "x LIKE p" if name == "like" else f"{name.upper()}(x)": target
        for name, target in SCALAR_FUNCTIONS.items()
    }
    out += _kernel_rows(functions, UNARY_PROBES)
    out.append((
        "`x IS [NOT] NULL` `x [NOT] IN (..)` `x [NOT] BETWEEN a AND b`",
        "isnil eq or ge le and not",
        "bit",
    ))
    out.append((
        "`CAST(x AS type)`", "cast",
        "the type's atom: " + ", ".join(
            f"{sql} → {calc.node_atom('cast', [I], atom.value).value}"
            for sql, atom in (("INT", I), ("BIGINT", L), ("DOUBLE", D), ("VARCHAR", S), ("BOOLEAN", B))
        ),
    ))
    out.append((
        "`CASE WHEN c THEN x .. ELSE y END`, set-operation columns", "case",
        _probe(lambda atoms: calc.node_atom("case", atoms), CASE_PROBES, slice(1, None)),
    ))
    by_policy: dict[str, list[str]] = {}
    for name in AGGREGATES:
        by_policy.setdefault(
            _probe(lambda atoms: aggregate_atom(name, atoms[0]), UNARY_PROBES[:4]), []
        ).append(name)
    for outcome, names in by_policy.items():
        sqls = " ".join(f"`{name.upper()}(x)`" for name in names).replace(
            "`COUNT(x)`", "`COUNT(x)` `COUNT(*)`"
        )
        # A grouped AVG is aggr.subsum and aggr.subcount plus aggr.mean.
        ops = (f"aggr.{name} aggr.mean" if name == "avg" else f"aggr.[sub]{name}" for name in names)
        out.append((sqls, " ".join(ops), outcome))
    return out


def _shown(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return str(value).lower()
    return repr(value)


def conversion_table() -> str:
    """What the one conversion rule makes of each probe, per target atom."""
    lines = [
        "| value (atom) | " + " | ".join(f"→ {atom.value}" for atom in CONVERSION_TARGETS) + " |",
        "| --- " * (len(CONVERSION_TARGETS) + 1) + "|",
    ]
    for value, source in CONVERSION_PROBES:
        column = Column.from_pylist(source, [value])
        cells = []
        for target in CONVERSION_TARGETS:
            try:
                cells.append(_shown(column.cast(target).get(0)))
            except DataError:
                cells.append("DataError")
        lines.append(f"| `{_shown(value)}` ({source.value}) | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def markdown_table() -> str:
    lines = ["| SQL | kernel | result atom (operand atoms → result) |", "| --- | --- | --- |"]
    lines += [
        f"| {sql.replace('|', chr(92) + '|')} | {kernel} | {outcome} |"  # a literal | ends a cell
        for sql, kernel, outcome in rows()
    ]
    return "\n".join(lines)


def sync_readme(path: Path, write: bool = False) -> bool:
    """Whether the README tables match the engine's rules; *write* syncs them."""
    text = original = path.read_text(encoding="utf-8")
    for begin_marker, end_marker, table in (
        (TABLE_BEGIN, TABLE_END, markdown_table),
        (CONVERSION_BEGIN, CONVERSION_END, conversion_table),
    ):
        begin = text.index(begin_marker) + len(begin_marker)
        end = text.index(end_marker)
        text = text[:begin] + "\n" + table() + "\n" + text[end:]
    if write and text != original:
        path.write_text(text, encoding="utf-8")
    return text == original


def main(argv: list[str]) -> int:
    readme = REPO / "README.md"
    if "--write" in argv:
        sync_readme(readme, write=True)
        return 0
    if "--check" in argv:
        if sync_readme(readme):
            return 0
        print("README typing tables are stale; run: python tools/typing_rules.py --write")
        return 1
    print(markdown_table() + "\n\n" + conversion_table())
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
