#!/usr/bin/env python3
"""Plans as a tracked artefact: compile a fixed corpus, record every plan.

The corpus is every statement the eight workloads of ``benchmarks/e2e``
time (read from the workload classes, never edited), compiled against
the database each workload's own ``setup()`` builds, plus the
``TABLE_QUERIES`` / ``TILING_QUERIES`` of
``tests/property/test_prop_fragments.py`` over a small fixed database.
``durable_commit`` and ``remote_fetch`` run their engine in a child
process, so their schema is staged here as their ``setup()`` stages it.
``adhoc_compile`` inlines a fresh literal into every statement: its
first statement of each template stands for the template.

Each statement compiles under three pipelines whose shape does not
depend on the host: ``default`` (one thread, no fragments), ``frag64``
(four threads, 64-row fragments) and ``auto2`` (two threads, auto
fragment rows: what auto mode splits).  One line per (statement, pipeline):
workload, pipeline, plan digest, instruction count, fragment count
(pieces summed over fragment groups), op histogram and the SQL.

    python tools/plans.py              # rewrite PLANS.txt
    python tools/plans.py --check      # exit 1 if PLANS.txt is stale
    python tools/plans.py --diff TREE  # EXPLAIN diff of every plan TREE compiles otherwise

``--diff`` compiles the corpus in a child process per tree (each with its
own ``src/``, workloads and corpus); no output and exit 0: no plan differs.
"""

from __future__ import annotations

import difflib
import json
import math
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
OUTPUT = REPO / "PLANS.txt"
SEED = 7
PIPELINES = (("default", 1, math.inf), ("frag64", 4, 64), ("auto2", 2, "auto"))
HEADER = (
    "# Generated by `python tools/plans.py`; tests/tools/test_plans.py checks it.\n"
    "# workload\tpipeline\tdigest\tinstructions\tfragments\tops\tsql\n"
)


def _use_tree(root: Path) -> None:
    """Import ``repro``, the workloads and the corpus from *root*."""
    for path in (root / "src", root / "benchmarks" / "e2e", root):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


class _Recorder(list):
    """An executor stand-in whose ``prepare`` records the statement."""

    layered = True
    prepare = list.append


def _attached(workload) -> list[str]:
    recorder = _Recorder()
    workload.attach(recorder)
    return recorder


def _adhoc_statements(workload) -> list[str]:
    import datagen

    first: dict[str, str] = {}
    n = 0
    while len(first) < len(datagen.ADHOC_TEMPLATES):
        name, sql, _ = datagen.adhoc_statement(workload.draws, n)
        first.setdefault(name, sql)
        n += 1
    return [first[name] for name, _ in datagen.ADHOC_TEMPLATES]


def _child_engine_corpus(name: str):
    """Schema and statements of a workload whose engine is a child process."""
    import repro
    import datagen
    import workloads

    conn = repro.connect()
    if name == "durable_commit":  # as DurableCommit.setup stages the farm
        conn.register_array("cells", datagen.durable_cells(SEED))
        conn.execute("CREATE TABLE log (k BIGINT, v DOUBLE)")
        statements = _attached(workloads.DurableOps(SEED, "unused"))
    else:  # as RemoteFetch.setup stages the farm
        conn.register_array("m", datagen.point_matrix())
        workloads.load_big(conn, datagen.big_table(SEED, datagen.REMOTE_ROWS, False))
        statements = _attached(workloads.RemoteFetch(SEED, None))
    return conn, statements


def _fragments_corpus():
    import repro
    from tests.property import test_prop_fragments as corpus

    conn = repro.connect()
    corpus._load_tables(
        conn,
        [(i % 5, i % 3, i - 20, i / 4) for i in range(200)],
        [(i % 7, i) for i in range(30)],
    )
    corpus._load_grid(conn, 16, list(range(256)))
    return conn, corpus.TABLE_QUERIES + corpus.TILING_QUERIES


def corpora(workdir: str):
    """``(label, connection, statements)`` per corpus, one at a time."""
    import workloads

    for name, cls in workloads.WORKLOADS.items():
        if name in ("durable_commit", "remote_fetch"):
            conn, statements = _child_engine_corpus(name)
        else:
            workload = cls(SEED, workdir)
            workload.setup()
            conn = workload.conn
            pick = _adhoc_statements if name == "adhoc_compile" else _attached
            statements = pick(workload)
        yield name, conn, statements
        conn.close()
    conn, statements = _fragments_corpus()
    yield "prop_fragments", conn, statements
    conn.close()


def plan_line(label: str, pipeline: str, program, sql: str) -> str:
    from repro.mal.analysis.explain import fragment_groups, plan_digest

    ops = Counter(f"{i.module}.{i.function}" for i in program.instructions)
    histogram = " ".join(f"{op}:{count}" for op, count in sorted(ops.items()))
    fragments = sum(pieces for _, pieces in fragment_groups(program))
    return "\t".join(
        (label, pipeline, plan_digest(program), str(len(program.instructions)),
         str(fragments), histogram, " ".join(sql.split()))
    )


def compiled(root: Path = REPO):
    """``(label, pipeline, program, sql)`` of every plan, by *root*'s engine."""
    _use_tree(root)
    with tempfile.TemporaryDirectory() as workdir:
        for label, conn, statements in corpora(workdir):
            database = conn.database
            for pipeline, nr_threads, fragment_rows in PIPELINES:
                session = database.connect(nr_threads=nr_threads, fragment_rows=fragment_rows)
                for sql in statements:
                    yield label, pipeline, session.compile(sql), sql
                session.close()


def render() -> str:
    return HEADER + "\n".join(plan_line(*plan) for plan in compiled()) + "\n"


def _unified(old: str, new: str, old_name: str, new_name: str) -> bool:
    """Print the unified diff of two texts; True when they differ."""
    sys.stdout.writelines(
        difflib.unified_diff(old.splitlines(True), new.splitlines(True), old_name, new_name)
    )
    return old != new


def _explained(root: Path) -> dict:
    """``{"label pipeline sql": EXPLAIN text}`` of *root*'s plans, from a child process."""
    command = [sys.executable, __file__, "--explain", str(root)]
    child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
    return dict(json.loads(line) for line in child.stdout.splitlines())


def main(argv: list[str]) -> int:
    if argv[:1] == ["--explain"]:
        _use_tree(Path(argv[1]))
        from repro.mal.analysis.explain import annotate_program

        for label, pipeline, program, sql in compiled(Path(argv[1])):
            key = " ".join((label, pipeline, *sql.split()))
            print(json.dumps([key, annotate_program(program)]))
        return 0
    if argv[:1] == ["--diff"]:
        theirs, ours = _explained(Path(argv[1]).resolve()), _explained(REPO)
        keys = {**theirs, **ours}
        differ = [_unified(theirs.get(k, ""), ours.get(k, ""), f"{argv[1]}: {k}", k) for k in keys]
        return int(any(differ))
    text = render()
    if "--check" not in argv:
        OUTPUT.write_text(text, encoding="utf-8")
        return 0
    recorded = OUTPUT.read_text(encoding="utf-8") if OUTPUT.exists() else ""
    return int(_unified(recorded, text, "PLANS.txt", "generated"))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
