"""``durable`` without a path must warn, not silently stay volatile."""

from __future__ import annotations

import warnings

import pytest

import repro
from repro.engine.database import resolve_durable


class TestDurabilityWarning:
    def test_pathless_connect_warns(self):
        with pytest.warns(repro.DurabilityWarning, match="without a database path"):
            conn = repro.connect(durable=True)
        # The session still works — just without durability.
        assert conn.execute("SELECT 1").scalar() == 1
        assert conn.database.durable is False
        conn.close()

    def test_pathless_database_warns(self):
        with pytest.warns(repro.DurabilityWarning):
            db = repro.Database(durable=True)
        assert db.durable is False
        db.close()

    def test_no_warning_without_durable(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            repro.connect().close()
            repro.Database().close()

    def test_no_warning_with_path(self, tmp_path):
        seed = repro.connect()
        seed.execute("CREATE TABLE t (v INT)")
        seed.save(tmp_path / "farm")
        seed.close()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            conn = repro.connect(tmp_path / "farm", durable=True)
            conn.close()

    def test_resolver_drops_pathless_durability(self):
        with pytest.warns(repro.DurabilityWarning):
            assert resolve_durable(True, None) is False
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_durable(False, None) is False
            assert resolve_durable(True, "some/path") is True

    @pytest.mark.parametrize("durable", ["wal", "off", "none", "", None, 1])
    def test_durable_is_a_bool(self, durable, tmp_path):
        with pytest.raises(repro.ProgrammingError, match="expected True or False"):
            repro.Database(path=tmp_path / "farm", durable=durable)
        with pytest.raises(repro.ProgrammingError, match="expected True or False"):
            repro.connect(durable=durable)

    def test_full_mode_is_gone_and_says_what_replaces_it(self, tmp_path):
        hint = r"Database\.save\(\) / Database\.checkpoint\(\)"
        with pytest.raises(repro.ProgrammingError, match=hint):
            repro.Database(path=tmp_path / "farm", durable="full")
        with pytest.raises(repro.ProgrammingError, match=hint):
            repro.connect(durable="full")
