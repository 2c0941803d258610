"""The repo self-lint (``tools/lint_repro.py``).

Each rule is exercised against synthetic violating files, and the real
tree must come back clean — the same invocation CI's lint leg runs.
"""

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "lint_repro", REPO / "tools" / "lint_repro.py"
)
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


def rules_in(tmp_path, source, name="sample.py"):
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return [finding.rule for finding in lint.lint_paths([path])]


class TestRules:
    def test_env_knob_reads_are_flagged(self, tmp_path):
        rules = rules_in(
            tmp_path,
            "import os\n"
            "a = os.environ.get('REPRO_NR_THREADS')\n"
            "b = os.getenv('REPRO_ZONE_ROWS', '1')\n"
            "c = os.environ['REPRO_DICT_MIN_ROWS']\n"
            "ok = os.environ.get('HOME')\n",
        )
        assert rules == ["env-knob"] * 3

    def test_set_knobs_must_be_registered(self, tmp_path):
        path = tmp_path / "test_sample.py"
        path.write_text(
            "import os\n"
            "def test_sample(monkeypatch, env):\n"
            "    monkeypatch.setenv('REPRO_GONE', '1')\n"
            "    monkeypatch.setenv('REPRO_ZONE_ROWS', '16')\n"
            "    os.environ['REPRO_GONE_TOO'] = '0'\n"
            "    env['REPRO_ALSO_GONE'] = '0'\n"
            "    os.environ.setdefault('REPRO_STILL_GONE', '1')\n"
            "    read = os.environ.get('REPRO_NOT_A_KNOB')\n",
            encoding="utf-8",
        )
        findings = lint.lint_knob_sets([path])
        assert [(f.line, f.rule) for f in findings] == [
            (3, "registered-knob"), (5, "registered-knob"),
            (6, "registered-knob"), (7, "registered-knob"),
        ]
        assert "REPRO_GONE is set but not registered" in findings[0].message

    def test_exported_and_workflow_knobs_must_be_registered(self, tmp_path):
        path = tmp_path / "ci.yml"
        path.write_text(
            "env:\n"
            "  REPRO_GONE: 1\n"
            "  REPRO_NR_THREADS: 4\n"
            "run: |\n"
            "  export REPRO_ZONE_ROWS=16 REPRO_OLD=1\n"
            "  echo REPRO_NOT_SET=1\n",
            encoding="utf-8",
        )
        findings = lint.lint_knob_sets([path])
        assert [(f.line, f.message.split()[0]) for f in findings] == [
            (2, "REPRO_GONE"), (5, "REPRO_OLD"),
        ]

    def test_unregistered_crash_point(self, tmp_path):
        rules = rules_in(
            tmp_path,
            "from repro.testing.faultpoints import crash_point\n"
            "crash_point('definitely-not-registered')\n",
        )
        assert rules == ["crash-point"]

    def test_registered_crash_point_is_clean(self, tmp_path):
        from repro.testing.faultpoints import REGISTERED_POINTS

        point = sorted(REGISTERED_POINTS)[0]
        rules = rules_in(
            tmp_path,
            "from repro.testing.faultpoints import crash_point\n"
            f"crash_point({point!r})\n",
        )
        assert rules == []

    def test_non_literal_crash_point(self, tmp_path):
        rules = rules_in(tmp_path, "crash_point(name)\n")
        assert rules == ["crash-point"]

    def test_pickle_import(self, tmp_path):
        assert rules_in(tmp_path, "import pickle\n") == ["no-pickle"]
        assert rules_in(tmp_path, "from pickle import loads\n") == ["no-pickle"]

    def test_bare_except(self, tmp_path):
        rules = rules_in(
            tmp_path,
            "try:\n    pass\nexcept:\n    pass\n",
        )
        assert rules == ["bare-except"]
        assert rules_in(
            tmp_path, "try:\n    pass\nexcept ValueError:\n    pass\n"
        ) == []

    def test_fsync_rename_discipline(self, tmp_path, monkeypatch):
        path = tmp_path / "persist.py"
        monkeypatch.setattr(lint, "FSYNC_FILES", {path})
        bad = (
            "import os\n"
            "def publish(a, b):\n"
            "    os.replace(a, b)\n"
        )
        path.write_text(bad, encoding="utf-8")
        assert [f.rule for f in lint.lint_paths([path])] == ["fsync-rename"]

        good = (
            "import os\n"
            "def publish(fd, a, b):\n"
            "    os.fsync(fd)\n"
            "    os.replace(a, b)\n"
        )
        path.write_text(good, encoding="utf-8")
        assert lint.lint_paths([path]) == []

        waived = (
            "import os\n"
            "def quarantine(a, b):\n"
            "    os.replace(a, b)  # lint: allow-rename\n"
        )
        path.write_text(waived, encoding="utf-8")
        assert lint.lint_paths([path]) == []

    def test_expression_walkers_outside_the_allow_list(self, tmp_path, monkeypatch):
        monkeypatch.setattr(lint, "WALKER_DIRS", (tmp_path,))
        body = (
            "(self, e):\n"
            "        if isinstance(e, ast.Literal): return 1\n"
            "        if isinstance(e, (ast.BinaryOp, ast.UnaryOp)): return self.walk(e.left)\n"
            "        if isinstance(e, BoundColumn): return e.atom\n"
        )
        assert rules_in(tmp_path, f"def atom_of{body}") == ["expression-walker"]
        assert rules_in(tmp_path, f"class Typer:\n    def bind{body}") == ["expression-walker"]
        # ... the allow-list names functions and Class.method
        assert rules_in(tmp_path, f"def fold_constant{body}") == []
        assert rules_in(tmp_path, f"class Binder:\n    def bind{body}") == []
        # ... three node classes are a helper, not a walker
        assert rules_in(tmp_path, f"def atom_of{body}".replace("BoundColumn", "SourceInfo")) == []
        # ... and only semantic/ and algebra/ are walker territory
        monkeypatch.setattr(lint, "WALKER_DIRS", (tmp_path / "elsewhere",))
        assert rules_in(tmp_path, f"def atom_of{body}") == []

    def test_serial_forms_have_one_owner(self, tmp_path):
        copies = (
            "import struct\n"
            "_FRAME = struct.Struct('<II')\n"
            "_U32 = struct.Struct('<I')\n"
            "def column_entry(c):\n"
            "    return {'name': c.name, 'atom': c.atom.value, 'default': c.default,\n"
            "            'has_default': c.has_default}\n"
            "def column_defs(entries):\n"
            "    return [(d['name'], d.get('has_default', False)) for d in entries]\n"
            "class Reader:\n"
            "    def column(self, spec):\n"
            "        spec['mlen'] = 0\n"
            "        return self.data[: spec['vlen']]\n"
        )

        def forms_in(relative):
            path = tmp_path / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(copies, encoding="utf-8")
            findings = lint.lint_paths([path])
            assert {f.rule for f in findings} <= {"serial-form"}
            return [(f.line, f.message.split(" spells the ")[1].split(" format")[0]) for f in findings]

        # one finding per function and format, however often it is spelled
        assert forms_in("copies.py") == [
            (2, "record prelude"), (5, "schema entry"), (8, "schema entry"), (11, "blob spec"),
        ]
        # the owners and the digest oracle are where the spelling lives
        assert forms_in("repro/catalog/objects.py") == [(2, "record prelude"), (11, "blob spec")]
        assert forms_in("repro/gdk/codec.py") == [(5, "schema entry"), (8, "schema entry")]
        assert forms_in("repro/testing/verify.py") == []
        # the tiling ops' metadata: its keys written, read or tested for
        tiles = (
            "import json\n"
            "def encode(shape, box):\n"
            "    return json.dumps({'shape': shape, 'box': box})\n"
            "def halo_caps(meta):\n"
            "    return None if 'lattice' in meta else meta['box'][0]\n"
            "def compact(meta):\n"
            "    return meta.get('compact', False)\n"
        )
        assert rules_in(tmp_path, tiles) == ["serial-form"] * 3
        owner = tmp_path / "repro" / "core" / "tiling.py"
        owner.parent.mkdir(parents=True)
        owner.write_text(tiles, encoding="utf-8")
        assert lint.lint_paths([owner]) == []
        # other keys, other layouts and attribute access are nobody's format
        assert rules_in(
            tmp_path,
            "import struct\nU = struct.Struct('<I')\n"
            "d = {'name': 1, 'default': 2}\nx = c.has_default\ny = d['n']\n",
        ) == []

    def test_program_memos_have_one_home(self, tmp_path):
        memos = (
            "flag = getattr(program, '_dataflow_worthwhile', None)\n"
            "program._dataflow_deps = deps\n"
            "setattr(entry.program, '_plan', plan)\n"
            "if hasattr(optimized_program, '_seen'):\n"
            "    del compiled.program._seen\n"
        )
        assert rules_in(tmp_path, memos) == ["program-memo"] * 5
        # ... the declared attribute, other objects and plain reads are fine
        assert rules_in(
            tmp_path,
            "plan = program.linked\nprogram.linked = None\n"
            "x = getattr(node, '_cache', None)\nself._program = p\n"
            "clone._counter = program._counter\n",
        ) == []
        # ... and MALProgram's own module declares what it keeps
        path = tmp_path / "repro" / "mal" / "program.py"
        path.parent.mkdir(parents=True)
        path.write_text(memos, encoding="utf-8")
        assert lint.lint_paths([path]) == []

    def test_coerce_scalar_is_imported_by_its_owners_only(self, tmp_path):
        imports = (
            "from repro.gdk.atoms import Atom, coerce_scalar\n"
            "from .atoms import coerce_scalar as convert\n"
            "from repro.gdk.atoms import comparand, coerce_items\n"
        )
        assert rules_in(tmp_path, imports) == ["one-coercion"] * 2
        for owner in ("atoms.py", "column.py"):
            path = tmp_path / "repro" / "gdk" / owner
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(imports, encoding="utf-8")
            assert lint.lint_paths([path]) == []

    def test_rows_are_written_through_the_sql_ops_only(self, tmp_path):
        writes = (
            "table.append_rows(columns)\n"
            "array.replace_values('v', oids, values)\n"
            "obj.delete_rows(oids)\nobj.delete_cells(oids)\n"
            "getattr(obj, record['op'])(**record['args'])\n"  # WAL replay
            "conn.executemany(sql, rows)\n"
        )
        assert rules_in(tmp_path, writes) == ["one-write-path"] * 4
        for owner in ("mal/modules/sql_mod.py", "catalog/objects.py"):
            path = tmp_path / "repro" / owner
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(writes, encoding="utf-8")
            assert lint.lint_paths([path]) == []

    def test_syntax_errors_are_reported_not_raised(self, tmp_path):
        assert rules_in(tmp_path, "def broken(:\n") == ["syntax"]

    def test_emitted_pairs_reads_calls_and_tuples(self, tmp_path):
        path = tmp_path / "emitter.py"
        path.write_text(
            "program.emit1('algebra', 'projection', [a, b], t)\n"
            "out.append(Instruction(\n    'mat', 'pack', [r], args))\n"
            "chain.append(('algebra', 'thetaselect', [x, 1, '==']))\n"
            "name = 'select'\n"
            "program.emit1('algebra', name, [x], t)\n",
            encoding="utf-8",
        )
        assert lint.emitted_pairs([path]) == {
            ("algebra", "projection"),
            ("mat", "pack"),
            ("algebra", "thetaselect"),
        }

    def test_op_without_an_emitter_is_flagged(self, monkeypatch):
        from repro.mal.modules import REGISTRY, load_all

        load_all()
        monkeypatch.setitem(REGISTRY, ("algebra", "nobody_emits_me"), lambda ctx: None)
        findings = []
        lint._check_orphan_ops(findings)
        assert [f.rule for f in findings] == ["orphan-op"]
        assert "algebra.nobody_emits_me" in findings[0].message


class TestRealTree:
    def test_repo_is_lint_clean(self):
        roots = [REPO / "src" / "repro", REPO / "tools"]
        paths = sorted(p for root in roots for p in root.rglob("*.py"))
        findings = lint.lint_paths(paths)
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_tests_benchmarks_examples_and_ci_set_only_registered_knobs(self):
        paths = lint.knob_setter_paths()
        assert REPO / ".github" / "workflows" / "ci.yml" in paths
        findings = lint.lint_knob_sets(paths)
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_readme_typing_table_is_generated_from_the_typing_tables(self):
        spec = importlib.util.spec_from_file_location(
            "typing_rules", REPO / "tools" / "typing_rules.py"
        )
        typing_rules = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(typing_rules)
        assert typing_rules.sync_readme(REPO / "README.md"), (
            "README typing table is stale; run: python tools/typing_rules.py --write"
        )
        table = typing_rules.markdown_table()
        assert "int, lng → lng" in table and "str, int → error" in table

    def test_signature_registry_is_complete(self):
        findings = []
        lint._check_signatures(findings)
        assert findings == []

    def test_every_registered_op_has_an_emitter(self):
        findings = []
        ops = lint._check_orphan_ops(findings)
        assert findings == [], "\n".join(str(f) for f in findings)
        assert ops <= 125
