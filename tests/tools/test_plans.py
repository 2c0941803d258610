"""The tracked plan record (``PLANS.txt``) is what ``tools/plans.py`` makes now.

A change that alters any plan of the corpus shows up here; the fix is
to rerun ``python tools/plans.py`` and commit the reviewed diff.
"""

import difflib
import importlib.util
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location("plans", REPO / "tools" / "plans.py")
plans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(plans)


def test_plans_txt_is_current():
    recorded = (REPO / "PLANS.txt").read_text(encoding="utf-8")
    generated = plans.render()
    diff = "".join(
        difflib.unified_diff(
            recorded.splitlines(True), generated.splitlines(True), "PLANS.txt", "generated"
        )
    )
    assert not diff, "PLANS.txt is stale; rerun `python tools/plans.py`:\n" + diff


def test_diff_against_the_same_tree_prints_nothing():
    """``--diff`` compiles each tree in a child process; one tree against
    itself differs nowhere."""
    run = subprocess.run(
        [sys.executable, str(REPO / "tools" / "plans.py"), "--diff", str(REPO)],
        capture_output=True, text=True,
    )
    assert (run.returncode, run.stdout) == (0, ""), run.stderr[-2000:]


def test_a_changed_plan_prints_its_explain_diff(capsys):
    assert plans._unified("a\nb\n", "a\nc\n", "TREE: q", "q")
    assert capsys.readouterr().out.splitlines()[:2] == ["--- TREE: q", "+++ q"]
    assert not plans._unified("a\n", "a\n", "TREE: q", "q")
    assert capsys.readouterr().out == ""
