"""Central registry of every ``REPRO_*`` environment knob.

Every environment variable the engine consults is declared here, once,
with its default and documentation.  Call sites fetch raw values via
:func:`raw` (which refuses unregistered names, so a typo'd knob fails
loudly instead of silently reading nothing); numeric knobs parse in one
place, :func:`integer` / :func:`number`, and booleans in :func:`flag`.
The lint rule in ``tools/lint_repro.py`` enforces that no
module outside this one touches ``os.environ`` with a ``REPRO_*`` name,
and the README knob table is generated from this registry
(``python -m repro.knobs`` prints it; ``python -m repro.knobs --write``
syncs it between the ``<!-- knob-table:begin -->`` markers).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import ProgrammingError

#: defaults of the numeric knobs: the reader passes to :func:`integer` /
#: :func:`number` the same constant the table below displays.
MMAP_THRESHOLD_BYTES = 1 << 20
ZONE_ROWS = 4096
DICT_MIN_ROWS = 4096
WAL_CHECKPOINT_RECORDS = 1024
NET_RETRIES = 2
NET_RETRY_BACKOFF_MS = 100


@dataclass(frozen=True)
class Knob:
    """One environment knob: name, displayed default, one-line doc."""

    name: str
    default: str
    description: str
    section: str


#: Every knob the engine reads, grouped by subsystem.  Keep this table
#: sorted within each section; the README table is generated from it.
KNOBS: tuple[Knob, ...] = (
    Knob(
        "REPRO_NR_THREADS",
        "auto (min(cpus, 8))",
        "Dataflow scheduler worker count; 1 runs every instruction on "
        "the calling thread, in program order.",
        "execution",
    ),
    Knob(
        "REPRO_FRAGMENT_ROWS",
        "auto (≥32768 rows split per worker)",
        "Rows per mitosis fragment; `inf`/`off`/`none` disables "
        "fragmentation, `auto` sizes from the scan.",
        "execution",
    ),
    Knob(
        "REPRO_VERIFY_PLANS",
        "0 (on in tests/CI)",
        "Re-verify every MAL plan after each optimizer pass; "
        "violations raise `PlanVerificationError` naming the pass.",
        "execution",
    ),
    Knob(
        "REPRO_STORAGE_MMAP",
        "auto",
        "mmap-backed BAT heaps: `1` forces, `0` disables, `auto` maps "
        "payloads above the size threshold.",
        "storage",
    ),
    Knob(
        "REPRO_MMAP_THRESHOLD_BYTES",
        str(MMAP_THRESHOLD_BYTES),
        "Payload size above which `auto` mmap mode maps instead of "
        "loading eagerly.",
        "storage",
    ),
    Knob(
        "REPRO_ZONEMAPS",
        "1",
        "Zone-map pruning in the value-select kernels: `0` makes every "
        "select scan its input (results are identical either way).",
        "storage",
    ),
    Knob(
        "REPRO_ZONE_ROWS",
        str(ZONE_ROWS),
        "Rows per zone for persisted min/max/null statistics.",
        "storage",
    ),
    Knob(
        "REPRO_DICT",
        "1",
        "Dictionary-encode qualifying string columns on append.",
        "storage",
    ),
    Knob(
        "REPRO_DICT_MIN_ROWS",
        str(DICT_MIN_ROWS),
        "Minimum column length before dictionary encoding is "
        "considered.",
        "storage",
    ),
    Knob(
        "REPRO_WAL_CHECKPOINT_RECORDS",
        str(WAL_CHECKPOINT_RECORDS),
        "WAL record count that triggers a checkpoint.",
        "durability",
    ),
    Knob(
        "REPRO_FAULTPOINT",
        "unset",
        "Crash the process at a registered fault point: `name` or "
        "`name:k` (k-th hit); see `repro.testing.faultpoints`.",
        "durability",
    ),
    Knob(
        "REPRO_STATEMENT_TIMEOUT_MS",
        "unset (no deadline)",
        "Default per-statement deadline in milliseconds; expiry aborts "
        "the statement with `QueryTimeoutError` at the next instruction "
        "boundary.",
        "governance",
    ),
    Knob(
        "REPRO_MEM_BUDGET_BYTES",
        "unset (no budget)",
        "Default per-query memory budget; BAT materialisations beyond "
        "it abort the statement with `ResourceError`.",
        "governance",
    ),
    Knob(
        "REPRO_NET_RETRIES",
        str(NET_RETRIES),
        "Reconnect attempts for idempotent client operations (connect, "
        "ping, stats) before `NetworkError` surfaces.",
        "network",
    ),
    Knob(
        "REPRO_NET_RETRY_BACKOFF_MS",
        str(NET_RETRY_BACKOFF_MS),
        "Base delay of the client's exponential reconnect backoff "
        "(doubles per attempt, capped at 2s).",
        "network",
    ),
)

_BY_NAME: dict[str, Knob] = {knob.name: knob for knob in KNOBS}


def registered(name: str) -> bool:
    """Whether *name* is a declared knob."""
    return name in _BY_NAME


def raw(name: str) -> str | None:
    """The raw environment value of a registered knob (or ``None``).

    Raises :class:`KeyError` for unregistered names so that adding a
    new knob without declaring it here fails on first read.
    """
    if name not in _BY_NAME:
        raise KeyError(f"unregistered REPRO knob: {name!r} (declare it in repro.knobs)")
    return os.environ.get(name)


def flag(name: str, default: bool) -> bool:
    """A boolean knob: ``1/true/on/yes`` → True, ``0/false/off/no`` → False."""
    value = raw(name)
    if value is None or value.strip() == "":
        return default
    return value.strip().lower() in ("1", "true", "on", "yes")


def number(name: str, default: float, minimum: float, parse=float):
    """A numeric knob: unset/blank → *default*, below *minimum* → clamped."""
    value = raw(name)
    if value is None or not value.strip():
        return default
    try:
        return max(minimum, parse(value))
    except ValueError:
        expected = "an integer" if parse is int else "a number"
        raise ProgrammingError(
            f"invalid {name} value {value!r}: expected {expected}"
        ) from None


def integer(name: str, default: int, minimum: int) -> int:
    """:func:`number` for a knob that counts something."""
    return number(name, default, minimum, int)


# ----------------------------------------------------------------------
# README table generation
# ----------------------------------------------------------------------
TABLE_BEGIN = "<!-- knob-table:begin -->"
TABLE_END = "<!-- knob-table:end -->"


def markdown_table() -> str:
    """The README knob table, generated from the registry."""
    lines = [
        "| Knob | Default | Subsystem | Effect |",
        "| --- | --- | --- | --- |",
    ]
    for knob in KNOBS:
        lines.append(
            f"| `{knob.name}` | {knob.default} | {knob.section} "
            f"| {knob.description} |"
        )
    return "\n".join(lines)


def sync_readme(path: str, write: bool = False) -> bool:
    """Whether the README table between the markers matches the registry.

    With ``write=True`` the table is rewritten in place.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    begin = text.index(TABLE_BEGIN) + len(TABLE_BEGIN)
    end = text.index(TABLE_END)
    current = text[begin:end].strip()
    wanted = markdown_table()
    if current == wanted:
        return True
    if write:
        updated = text[:begin] + "\n" + wanted + "\n" + text[end:]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(updated)
    return False


def _main(argv: list[str]) -> int:
    readme = os.path.join(os.path.dirname(__file__), "..", "..", "README.md")
    readme = os.path.abspath(readme)
    if "--write" in argv:
        sync_readme(readme, write=True)
        return 0
    if "--check" in argv:
        if sync_readme(readme):
            return 0
        print("README knob table is stale; run: python -m repro.knobs --write")
        return 1
    print(markdown_table())
    return 0


if __name__ == "__main__":  # pragma: no cover - thin CLI
    import sys

    raise SystemExit(_main(sys.argv[1:]))
