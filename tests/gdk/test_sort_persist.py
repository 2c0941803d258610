"""Sorting kernel and BAT persistence tests."""

import numpy as np
import pytest

from repro.errors import GDKError, PersistenceError
from repro.gdk import persist, sort
from repro.gdk.atoms import Atom
from repro.gdk.bat import BAT
from repro.gdk.column import Column


class TestSort:
    def test_ascending_numbers(self):
        column = Column.from_pylist(Atom.INT, [3, 1, 2])
        order = sort.sort_order(column)
        assert column.take(order).to_pylist() == [1, 2, 3]

    def test_nulls_first_ascending(self):
        column = Column.from_pylist(Atom.INT, [3, None, 1])
        order = sort.sort_order(column)
        assert column.take(order).to_pylist() == [None, 1, 3]

    def test_descending(self):
        column = Column.from_pylist(Atom.INT, [3, None, 1])
        order = sort.sort_order(column, descending=True)
        assert column.take(order).to_pylist() == [3, 1, None]

    def test_stable(self):
        column = Column.from_pylist(Atom.INT, [1, 1, 1])
        order = sort.sort_order(column)
        assert order.tolist() == [0, 1, 2]

    def test_strings(self):
        column = Column.from_pylist(Atom.STR, ["pear", None, "apple"])
        order = sort.sort_order(column)
        assert column.take(order).to_pylist() == [None, "apple", "pear"]

    def test_strings_descending(self):
        column = Column.from_pylist(Atom.STR, ["pear", None, "apple"])
        order = sort.sort_order(column, descending=True)
        assert column.take(order).to_pylist() == ["pear", "apple", None]

    def test_doubles(self):
        column = Column.from_pylist(Atom.DBL, [2.5, -1.0, 0.0])
        order = sort.sort_order(column)
        assert column.take(order).to_pylist() == [-1.0, 0.0, 2.5]

    def test_empty(self):
        assert sort.sort_order(Column.empty(Atom.INT)).tolist() == []

    def test_multi_key(self):
        city = Column.from_pylist(Atom.STR, ["b", "a", "b", "a"])
        temp = Column.from_pylist(Atom.INT, [2, 9, 1, 3])
        order = sort.sort_order_multi([city, temp], [False, False])
        assert city.take(order).to_pylist() == ["a", "a", "b", "b"]
        assert temp.take(order).to_pylist() == [3, 9, 1, 2]

    def test_multi_key_mixed_direction(self):
        city = Column.from_pylist(Atom.STR, ["b", "a", "b", "a"])
        temp = Column.from_pylist(Atom.INT, [2, 9, 1, 3])
        order = sort.sort_order_multi([city, temp], [False, True])
        assert temp.take(order).to_pylist() == [9, 3, 2, 1]

    def test_multi_key_arity(self):
        with pytest.raises(GDKError):
            sort.sort_order_multi([Column.empty(Atom.INT)], [])

    def test_is_sorted(self):
        assert sort.is_sorted(Column.from_pylist(Atom.INT, [None, 1, 2]))
        assert not sort.is_sorted(Column.from_pylist(Atom.INT, [2, 1]))


class TestPersistence:
    def test_roundtrip_numeric(self, tmp_path):
        bat = BAT.from_pylist(Atom.INT, [1, None, 3], hseqbase=5)
        persist.save_bat(bat, tmp_path, "numbers")
        loaded = persist.load_bat(tmp_path, "numbers")
        assert loaded == bat

    def test_roundtrip_strings(self, tmp_path):
        bat = BAT.from_pylist(Atom.STR, ["a", None, "c"])
        persist.save_bat(bat, tmp_path, "words")
        assert persist.load_bat(tmp_path, "words") == bat

    def test_roundtrip_doubles_and_bits(self, tmp_path):
        for name, atom, items in (
            ("d", Atom.DBL, [1.5, None]),
            ("b", Atom.BIT, [True, False, None]),
        ):
            bat = BAT.from_pylist(atom, items)
            persist.save_bat(bat, tmp_path, name)
            assert persist.load_bat(tmp_path, name) == bat

    def test_list_bats(self, tmp_path):
        persist.save_bat(BAT.from_pylist(Atom.INT, [1]), tmp_path, "one")
        persist.save_bat(BAT.from_pylist(Atom.INT, [2]), tmp_path, "two")
        assert persist.list_bats(tmp_path) == ["one", "two"]

    def test_list_missing_directory(self, tmp_path):
        assert persist.list_bats(tmp_path / "nowhere") == []

    def test_delete(self, tmp_path):
        persist.save_bat(BAT.from_pylist(Atom.INT, [1]), tmp_path, "gone")
        persist.delete_bat(tmp_path, "gone")
        assert persist.list_bats(tmp_path) == []
        persist.delete_bat(tmp_path, "gone")  # idempotent

    def test_load_missing(self, tmp_path):
        with pytest.raises(PersistenceError):
            persist.load_bat(tmp_path, "nothing")


class TestPersistenceErrorPaths:
    """Structural damage raises PersistenceError naming the BAT;
    checksum damage quarantines the file and raises CorruptionError."""

    def _save(self, tmp_path, items=(1, None, 3), atom=Atom.INT, name="b"):
        bat = BAT.from_pylist(atom, list(items))
        persist.save_bat(bat, tmp_path, name)
        return bat

    def test_corrupt_descriptor_json(self, tmp_path):
        self._save(tmp_path)
        (tmp_path / "b.bat.json").write_text("{not json")
        with pytest.raises(PersistenceError, match="cannot load BAT b"):
            persist.load_bat(tmp_path, "b")

    def test_missing_values_file(self, tmp_path):
        from repro.errors import CorruptionError

        self._save(tmp_path)
        (tmp_path / "b.values.npy").unlink()
        with pytest.raises(CorruptionError, match="cannot load BAT b"):
            persist.load_bat(tmp_path, "b")
        # Structural damage quarantines the descriptor, never surfaces
        # as a bare FileNotFoundError.
        assert (tmp_path / "b.bat.json.corrupt").exists()
        assert not (tmp_path / "b.bat.json").exists()

    def test_missing_mask_file(self, tmp_path):
        from repro.errors import CorruptionError

        self._save(tmp_path)
        (tmp_path / "b.mask.npy").unlink()
        with pytest.raises(CorruptionError, match="cannot load BAT b"):
            persist.load_bat(tmp_path, "b")
        assert (tmp_path / "b.bat.json.corrupt").exists()

    def test_missing_dictionary_file(self, tmp_path):
        from repro.errors import CorruptionError

        self._save(tmp_path, items=("x", "y", "x"), atom=Atom.STR, name="s")
        (tmp_path / "s.dict.json").unlink()
        with pytest.raises(CorruptionError, match="cannot load BAT s"):
            persist.load_bat(tmp_path, "s")
        assert (tmp_path / "s.bat.json.corrupt").exists()

    def test_count_mismatch(self, tmp_path):
        import json

        self._save(tmp_path)
        descriptor_path = tmp_path / "b.bat.json"
        descriptor = json.loads(descriptor_path.read_text())
        descriptor["count"] = 99
        descriptor_path.write_text(json.dumps(descriptor))
        with pytest.raises(PersistenceError, match="count mismatch"):
            persist.load_bat(tmp_path, "b")

    def test_checksum_mismatch_quarantines(self, tmp_path, monkeypatch):
        from repro.errors import CorruptionError

        # CRC verification is deferred for mmap-backed payloads by
        # design; pin the eager path so the mismatch is seen at load.
        monkeypatch.setenv("REPRO_STORAGE_MMAP", "0")
        self._save(tmp_path)
        values = tmp_path / "b.values.npy"
        data = bytearray(values.read_bytes())
        data[-1] ^= 0xFF
        values.write_bytes(bytes(data))
        with pytest.raises(CorruptionError, match="quarantined"):
            persist.load_bat(tmp_path, "b")
        assert not values.exists()
        assert (tmp_path / "b.values.npy.corrupt").exists()
        # The retried load fails fast on the now-missing file.
        with pytest.raises(PersistenceError):
            persist.load_bat(tmp_path, "b")

    def test_string_bat_dictionary_payload_roundtrip(self, tmp_path):
        import json

        from repro.gdk.dictenc import DictColumn

        bat = self._save(
            tmp_path, items=("x", None, "longer-string", ""), atom=Atom.STR,
            name="words",
        )
        # Strings persist as int32 codes plus a sorted dictionary.
        assert (tmp_path / "words.codes.npy").exists()
        assert (tmp_path / "words.dict.json").exists()
        assert not (tmp_path / "words.values.npy").exists()
        descriptor = json.loads((tmp_path / "words.bat.json").read_text())
        assert descriptor["encoding"] == {"kind": "dict", "dict": "words.dict.json"}
        assert "words.dict.json" in descriptor["checksums"]
        loaded = persist.load_bat(tmp_path, "words")
        assert isinstance(loaded.tail, DictColumn)
        assert loaded == bat
        assert persist.list_bats(tmp_path) == ["words"]

    def test_retired_json_string_payload_is_an_unknown_encoding(self, tmp_path):
        import json
        import zlib

        payload = json.dumps({"strings": ["x", "", "longer-string"]}).encode()
        (tmp_path / "old.values.json").write_bytes(payload)
        descriptor = {
            "atom": "str", "hseqbase": 0, "count": 3,
            "values": "old.values.json", "mask": None,
            "checksums": {"old.values.json": zlib.crc32(payload)},
        }
        (tmp_path / "old.bat.json").write_text(json.dumps(descriptor))
        with pytest.raises(PersistenceError, match="cannot load BAT old"):
            persist.load_bat(tmp_path, "old")

    def test_descriptor_carries_zone_map(self, tmp_path):
        import json

        self._save(tmp_path, items=range(300), atom=Atom.INT, name="z")
        descriptor = json.loads((tmp_path / "z.bat.json").read_text())
        zones = descriptor["zones"]
        assert zones["count"] == 300
        assert zones["mins"][0] == 0
        assert zones["maxs"][-1] == 299
        assert all(n == 0 for n in zones["nulls"])
        loaded = persist.load_bat(tmp_path, "z")
        assert loaded._zones is not None
        assert loaded._zones.count == 300

    def test_rle_payload_roundtrips_byte_identical(self, tmp_path):
        values = np.repeat(np.array([7, -1, 7], dtype=np.int32), 40)
        bat = BAT(Column(Atom.INT, values))
        persist.save_bat(bat, tmp_path, "runs")
        assert (tmp_path / "runs.rle.npz").exists()
        assert not (tmp_path / "runs.values.npy").exists()
        loaded = persist.load_bat(tmp_path, "runs")
        assert loaded.tail.values.tobytes() == values.tobytes()

    def test_rle_preserves_negative_zero_and_nan(self, tmp_path):
        # Bitwise run comparison: -0.0 must not merge into a 0.0 run.
        values = np.concatenate([
            np.repeat(np.float64(0.0), 40),
            np.repeat(np.float64(-0.0), 40),
            np.repeat(np.float64(2.5), 40),
        ])
        bat = BAT(Column(Atom.DBL, values))
        persist.save_bat(bat, tmp_path, "f")
        assert (tmp_path / "f.rle.npz").exists()
        loaded = persist.load_bat(tmp_path, "f")
        assert loaded.tail.values.tobytes() == values.tobytes()

    def test_list_bats_ignores_payloads_without_descriptor(self, tmp_path):
        self._save(tmp_path, name="whole")
        # A crash between payload staging and the descriptor write
        # leaves payload files with no descriptor: invisible, not fatal.
        (tmp_path / "half.values.npy").write_bytes(b"orphan")
        assert persist.list_bats(tmp_path) == ["whole"]
        with pytest.raises(PersistenceError):
            persist.load_bat(tmp_path, "half")

    def test_atomic_write_leaves_no_tmp_files(self, tmp_path):
        self._save(tmp_path)
        leftovers = list(tmp_path.glob("*.tmp"))
        assert leftovers == []
