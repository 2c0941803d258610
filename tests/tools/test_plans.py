"""The tracked plan record (``PLANS.txt``) is what ``tools/plans.py`` makes now.

A change that alters any plan of the corpus shows up here; the fix is
to rerun ``python tools/plans.py`` and commit the reviewed diff.
"""

import difflib
import importlib.util
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
