"""The central ``REPRO_*`` knob registry."""

from pathlib import Path

import pytest

from repro import knobs
from repro.engine import database
from repro.errors import ProgrammingError
from repro.gdk import storage
from repro.net import client

README = Path(__file__).resolve().parents[2] / "README.md"


class TestRegistry:
    def test_names_are_unique_and_namespaced(self):
        names = [knob.name for knob in knobs.KNOBS]
        assert len(names) == len(set(names))
        assert all(name.startswith("REPRO_") for name in names)

    def test_every_knob_is_documented(self):
        for knob in knobs.KNOBS:
            assert knob.description.strip()
            assert knob.section in (
                "execution", "storage", "durability", "network", "governance"
            )

    def test_raw_rejects_unregistered_names(self):
        with pytest.raises(KeyError, match="unregistered REPRO knob"):
            knobs.raw("REPRO_NOT_A_KNOB")
        assert not knobs.registered("REPRO_NOT_A_KNOB")

    def test_raw_reads_the_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_ZONE_ROWS", raising=False)
        assert knobs.raw("REPRO_ZONE_ROWS") is None
        monkeypatch.setenv("REPRO_ZONE_ROWS", "128")
        assert knobs.raw("REPRO_ZONE_ROWS") == "128"

    @pytest.mark.parametrize(
        "value,expected",
        [
            ("1", True), ("true", True), ("ON", True), ("yes", True),
            ("0", False), ("false", False), ("off", False), ("", None),
        ],
    )
    def test_flag_parsing(self, monkeypatch, value, expected):
        monkeypatch.setenv("REPRO_VERIFY_PLANS", value)
        if expected is None:  # blank falls back to the default
            assert knobs.flag("REPRO_VERIFY_PLANS", True) is True
            assert knobs.flag("REPRO_VERIFY_PLANS", False) is False
        else:
            assert knobs.flag("REPRO_VERIFY_PLANS", not expected) is expected


#: every numeric knob: (reader, value when unset, a value below the
#: minimum, what that clamps to, a good value, what it reads as).
NUMERIC_KNOBS = {
    "REPRO_MMAP_THRESHOLD_BYTES": (storage.mmap_threshold_bytes, 1 << 20, "-5", 0, "64", 64),
    "REPRO_ZONE_ROWS": (storage.zone_rows, 4096, "0", 1, "128", 128),
    "REPRO_DICT_MIN_ROWS": (storage.dict_min_rows, 4096, "-1", 1, "8", 8),
    "REPRO_WAL_CHECKPOINT_RECORDS": (database._checkpoint_records, 1024, "0", 1, "2", 2),
    "REPRO_STATEMENT_TIMEOUT_MS": (database.default_statement_timeout, None, "-1", None, "250", 0.25),
    "REPRO_MEM_BUDGET_BYTES": (database.default_mem_budget, None, "-1", None, "4096", 4096),
    "REPRO_NET_RETRIES": (client._net_retries, 2, "-3", 0, "5", 5),
    "REPRO_NET_RETRY_BACKOFF_MS": (client._net_backoff_s, 0.1, "-1", 0.0, "1.5", 0.0015),
    "REPRO_NR_THREADS": (lambda: database.resolve_nr_threads(None), None, "0", 1, "3", 3),
    "REPRO_FRAGMENT_ROWS": (lambda: database.resolve_fragment_rows(None), None, None, None, "7", 7),
}


class TestNumericKnobs:
    def test_the_table_covers_every_numeric_knob(self):
        flags_and_names = {"REPRO_VERIFY_PLANS", "REPRO_FAULTPOINT"}
        assert set(NUMERIC_KNOBS) == {k.name for k in knobs.KNOBS} - flags_and_names

    @pytest.mark.parametrize("name", sorted(NUMERIC_KNOBS))
    def test_one_parser(self, monkeypatch, name):
        reader, unset, low, clamped, good, parsed = NUMERIC_KNOBS[name]
        for garbage in ("4k", "one", "0x10"):
            monkeypatch.setenv(name, garbage)
            with pytest.raises(ProgrammingError, match=f"invalid {name} value '{garbage}'"):
                reader()
        monkeypatch.setenv(name, good)
        assert reader() == parsed
        if low is not None:
            monkeypatch.setenv(name, low)
            assert reader() == clamped
        if name not in ("REPRO_NR_THREADS", "REPRO_FRAGMENT_ROWS"):  # auto-sized
            for blank in ("", "  "):
                monkeypatch.setenv(name, blank)
                assert reader() == unset
            monkeypatch.delenv(name)
            assert reader() == unset

    def test_displayed_defaults_are_the_constants_the_readers_use(self, monkeypatch):
        shown = {knob.name: knob.default for knob in knobs.KNOBS}
        for name, (reader, unset, *_) in NUMERIC_KNOBS.items():
            if isinstance(unset, (int, float)):
                monkeypatch.delenv(name, raising=False)
                scale = 1000 if name.endswith("_MS") else 1
                assert float(shown[name]) == reader() * scale


class TestReadmeTable:
    def test_table_lists_every_knob(self):
        table = knobs.markdown_table()
        for knob in knobs.KNOBS:
            assert f"`{knob.name}`" in table

    def test_readme_is_in_sync(self):
        assert knobs.sync_readme(str(README)), (
            "README knob table is stale; run: python -m repro.knobs --write"
        )
