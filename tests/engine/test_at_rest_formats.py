"""At-rest formats: what an older commit wrote must keep opening.

``GOLDEN_MANIFEST`` / ``GOLDEN_WAL`` are the ``catalog.json`` and the
``<farm>.wal`` the commit *before* the shared serial forms (8204ec4)
produced for the statements below; ``GOLDEN_DIGEST`` is the catalog it
recovered from them.  The ``.npy`` payload files are not part of the
fixture — their format has a single owner (``gdk/persist.py``) that
this suite does not pin — so the farm is written by the code under test
and only its manifest and log are swapped for the literals.

The second half feeds checksum-valid but malformed at-rest input to
``repro.connect(path)``: it must come back as a ``PersistenceError``
that names the record or the object, never as a stray ``KeyError``.
"""

from __future__ import annotations

import base64
import json

import pytest

import repro
from repro.engine import wal as wal_mod
from repro.errors import PersistenceError
from repro.gdk import codec
from repro.testing.verify import catalog_digest

SEED = [
    "CREATE TABLE obs (a INT, s VARCHAR(8) DEFAULT 'n/a', f DOUBLE)",
    "INSERT INTO obs VALUES (1, 'één', 0.5), (2, NULL, NULL), (3, 'c', -0.0)",
    "CREATE ARRAY grid (x INT DIMENSION[0:1:3], y INT DIMENSION[0:2:6], v INT DEFAULT 7, w DOUBLE)",
    "CREATE TABLE doomed (k BIGINT)",
]
#: one autocommit WAL record each ...
LOGGED = [
    "INSERT INTO obs (a, f) VALUES (4, 2.25)",
    "UPDATE obs SET s = 'upd' WHERE a = 2",
    "DELETE FROM obs WHERE a = 1",
    "UPDATE grid SET w = x * 1.5 WHERE y >= 2",
    "DELETE FROM grid WHERE x = 1 AND y = 0",
    "ALTER ARRAY grid ALTER DIMENSION x SET RANGE [0:1:4]",
    "CREATE TABLE t2 (k BIGINT, b BOOLEAN DEFAULT true, note VARCHAR(16))",
]
#: ... and one transaction: a create snapshot, a drop and a mutation.
LOGGED_TXN = [
    "INSERT INTO t2 VALUES (9000000000, false, 'wide'), (NULL, NULL, NULL)",
    "CREATE ARRAY a2 (i BIGINT DIMENSION[2:2:8], q DOUBLE DEFAULT 0.25)",
    "DROP TABLE doomed",
    "DELETE FROM t2 WHERE k IS NULL",
]

GOLDEN_MANIFEST = """{
 "format": 2,
 "version": 4,
 "schema_version": 3,
 "objects": [
  {
   "name": "doomed",
   "kind": "table",
   "columns": [
    {
     "name": "k",
     "atom": "lng",
     "default": null,
     "has_default": false
    }
   ]
  },
  {
   "name": "grid",
   "kind": "array",
   "dimensions": [
    {
     "name": "x",
     "atom": "int",
     "start": 0,
     "step": 1,
     "stop": 3
    },
    {
     "name": "y",
     "atom": "int",
     "start": 0,
     "step": 2,
     "stop": 6
    }
   ],
   "attributes": [
    {
     "name": "v",
     "atom": "int",
     "default": 7,
     "has_default": true
    },
    {
     "name": "w",
     "atom": "dbl",
     "default": null,
     "has_default": false
    }
   ]
  },
  {
   "name": "obs",
   "kind": "table",
   "columns": [
    {
     "name": "a",
     "atom": "int",
     "default": null,
     "has_default": false
    },
    {
     "name": "s",
     "atom": "str",
     "default": "n/a",
     "has_default": true
    },
    {
     "name": "f",
     "atom": "dbl",
     "default": null,
     "has_default": false
    }
   ]
  }
 ]
}"""

GOLDEN_WAL = """
U0NJUUxXQUxwAQAAK+7mwmABAAB7InZlcnNpb24iOiA1LCAic2NoZW1hX3ZlcnNpb24iOiAzLCAi
Y2hhbmdlcyI6IFt7Im9wIjogIm11dGF0ZSIsICJuYW1lIjogIm9icyIsICJvcHMiOiBbeyJtZXRo
b2QiOiAiYXBwZW5kX3Jvd3MiLCAicGF5bG9hZCI6IHsiY29sdW1ucyI6IHsiYSI6IHsiX19jb2xf
XyI6IDB9LCAiZiI6IHsiX19jb2xfXyI6IDF9fX19XX1dLCAiYmxvYnMiOiBbeyJ0IjogImNvbCIs
ICJhdG9tIjogImludCIsICJkdHlwZSI6ICJpbnQzMiIsICJuIjogMSwgInZsZW4iOiA0LCAibWxl
biI6IDB9LCB7InQiOiAiY29sIiwgImF0b20iOiAiZGJsIiwgImR0eXBlIjogImZsb2F0NjQiLCAi
biI6IDEsICJ2bGVuIjogOCwgIm1sZW4iOiAwfV19BAAAAAAAAAAAAAJAOwEAAEWiVJYoAQAAeyJ2
ZXJzaW9uIjogNiwgInNjaGVtYV92ZXJzaW9uIjogMywgImNoYW5nZXMiOiBbeyJvcCI6ICJtdXRh
dGUiLCAibmFtZSI6ICJvYnMiLCAib3BzIjogW3sibWV0aG9kIjogInJlcGxhY2VfdmFsdWVzIiwg
InBheWxvYWQiOiB7ImNvbHVtbiI6ICJzIiwgIm9pZHMiOiB7Il9fYXJyX18iOiAwfSwgInZhbHVl
cyI6IHsiX19jb2xfXyI6IDF9fX1dfV0sICJibG9icyI6IFt7InQiOiAiYXJyIiwgImR0eXBlIjog
ImludDY0IiwgInZsZW4iOiA4fSwgeyJ0IjogInN0ciIsICJuIjogMSwgInZsZW4iOiA3LCAibWxl
biI6IDB9XX0BAAAAAAAAAFsidXBkIl3cAAAAIC6EgdAAAAB7InZlcnNpb24iOiA3LCAic2NoZW1h
X3ZlcnNpb24iOiAzLCAiY2hhbmdlcyI6IFt7Im9wIjogIm11dGF0ZSIsICJuYW1lIjogIm9icyIs
ICJvcHMiOiBbeyJtZXRob2QiOiAiZGVsZXRlX3Jvd3MiLCAicGF5bG9hZCI6IHsib2lkcyI6IHsi
X19hcnJfXyI6IDB9fX1dfV0sICJibG9icyI6IFt7InQiOiAiYXJyIiwgImR0eXBlIjogImludDY0
IiwgInZsZW4iOiA4fV19AAAAAAAAAACyAQAAn52pJk4BAAB7InZlcnNpb24iOiA4LCAic2NoZW1h
X3ZlcnNpb24iOiAzLCAiY2hhbmdlcyI6IFt7Im9wIjogIm11dGF0ZSIsICJuYW1lIjogImdyaWQi
LCAib3BzIjogW3sibWV0aG9kIjogInJlcGxhY2VfdmFsdWVzIiwgInBheWxvYWQiOiB7ImNvbHVt
biI6ICJ3IiwgIm9pZHMiOiB7Il9fYXJyX18iOiAwfSwgInZhbHVlcyI6IHsiX19jb2xfXyI6IDF9
fX1dfV0sICJibG9icyI6IFt7InQiOiAiYXJyIiwgImR0eXBlIjogImludDY0IiwgInZsZW4iOiA0
OH0sIHsidCI6ICJjb2wiLCAiYXRvbSI6ICJkYmwiLCAiZHR5cGUiOiAiZmxvYXQ2NCIsICJuIjog
NiwgInZsZW4iOiA0OCwgIm1sZW4iOiAwfV19AQAAAAAAAAACAAAAAAAAAAQAAAAAAAAABQAAAAAA
AAAHAAAAAAAAAAgAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAPg/AAAAAAAA+D8AAAAAAAAI
QAAAAAAAAAhA3gAAAP24QTvSAAAAeyJ2ZXJzaW9uIjogOSwgInNjaGVtYV92ZXJzaW9uIjogMywg
ImNoYW5nZXMiOiBbeyJvcCI6ICJtdXRhdGUiLCAibmFtZSI6ICJncmlkIiwgIm9wcyI6IFt7Im1l
dGhvZCI6ICJkZWxldGVfY2VsbHMiLCAicGF5bG9hZCI6IHsib2lkcyI6IHsiX19hcnJfXyI6IDB9
fX1dfV0sICJibG9icyI6IFt7InQiOiAiYXJyIiwgImR0eXBlIjogImludDY0IiwgInZsZW4iOiA4
fV19AwAAAAAAAADNAAAA5NPsFckAAAB7InZlcnNpb24iOiAxMCwgInNjaGVtYV92ZXJzaW9uIjog
NCwgImNoYW5nZXMiOiBbeyJvcCI6ICJtdXRhdGUiLCAibmFtZSI6ICJncmlkIiwgIm9wcyI6IFt7
Im1ldGhvZCI6ICJhbHRlcl9kaW1lbnNpb24iLCAicGF5bG9hZCI6IHsiZGltZW5zaW9uIjogIngi
LCAic3RhcnQiOiAwLCAic3RlcCI6IDEsICJzdG9wIjogNH19XX1dLCAiYmxvYnMiOiBbXX2DAgAA
W/ij430CAAB7InZlcnNpb24iOiAxMSwgInNjaGVtYV92ZXJzaW9uIjogNSwgImNoYW5nZXMiOiBb
eyJvcCI6ICJjcmVhdGUiLCAibmFtZSI6ICJ0MiIsICJraW5kIjogInRhYmxlIiwgImNvbHVtbnMi
OiBbeyJuYW1lIjogImsiLCAiYXRvbSI6ICJsbmciLCAiZGVmYXVsdCI6IG51bGwsICJoYXNfZGVm
YXVsdCI6IGZhbHNlfSwgeyJuYW1lIjogImIiLCAiYXRvbSI6ICJiaXQiLCAiZGVmYXVsdCI6IHRy
dWUsICJoYXNfZGVmYXVsdCI6IHRydWV9LCB7Im5hbWUiOiAibm90ZSIsICJhdG9tIjogInN0ciIs
ICJkZWZhdWx0IjogbnVsbCwgImhhc19kZWZhdWx0IjogZmFsc2V9XSwgImJhdHMiOiB7ImsiOiB7
Il9fYmF0X18iOiAwLCAiaHNlcSI6IDB9LCAiYiI6IHsiX19iYXRfXyI6IDEsICJoc2VxIjogMH0s
ICJub3RlIjogeyJfX2JhdF9fIjogMiwgImhzZXEiOiAwfX19XSwgImJsb2JzIjogW3sidCI6ICJj
b2wiLCAiYXRvbSI6ICJsbmciLCAiZHR5cGUiOiAiaW50NjQiLCAibiI6IDAsICJ2bGVuIjogMCwg
Im1sZW4iOiAwfSwgeyJ0IjogImNvbCIsICJhdG9tIjogImJpdCIsICJkdHlwZSI6ICJib29sIiwg
Im4iOiAwLCAidmxlbiI6IDAsICJtbGVuIjogMH0sIHsidCI6ICJzdHIiLCAibiI6IDAsICJ2bGVu
IjogMiwgIm1sZW4iOiAwfV19W11NBAAAdYriSe0DAAB7InZlcnNpb24iOiAxMiwgInNjaGVtYV92
ZXJzaW9uIjogNywgImNoYW5nZXMiOiBbeyJvcCI6ICJjcmVhdGUiLCAibmFtZSI6ICJhMiIsICJr
aW5kIjogImFycmF5IiwgImRpbWVuc2lvbnMiOiBbeyJuYW1lIjogImkiLCAiYXRvbSI6ICJsbmci
LCAic3RhcnQiOiAyLCAic3RlcCI6IDIsICJzdG9wIjogOH1dLCAiYXR0cmlidXRlcyI6IFt7Im5h
bWUiOiAicSIsICJhdG9tIjogImRibCIsICJkZWZhdWx0IjogMC4yNSwgImhhc19kZWZhdWx0Ijog
dHJ1ZX1dLCAiYmF0cyI6IHsiaSI6IHsiX19iYXRfXyI6IDAsICJoc2VxIjogMH0sICJxIjogeyJf
X2JhdF9fIjogMSwgImhzZXEiOiAwfX19LCB7Im9wIjogImRyb3AiLCAibmFtZSI6ICJkb29tZWQi
fSwgeyJvcCI6ICJtdXRhdGUiLCAibmFtZSI6ICJ0MiIsICJvcHMiOiBbeyJtZXRob2QiOiAiYXBw
ZW5kX3Jvd3MiLCAicGF5bG9hZCI6IHsiY29sdW1ucyI6IHsiayI6IHsiX19jb2xfXyI6IDJ9LCAi
YiI6IHsiX19jb2xfXyI6IDN9LCAibm90ZSI6IHsiX19jb2xfXyI6IDR9fX19LCB7Im1ldGhvZCI6
ICJkZWxldGVfcm93cyIsICJwYXlsb2FkIjogeyJvaWRzIjogeyJfX2Fycl9fIjogNX19fV19XSwg
ImJsb2JzIjogW3sidCI6ICJjb2wiLCAiYXRvbSI6ICJsbmciLCAiZHR5cGUiOiAiaW50NjQiLCAi
biI6IDMsICJ2bGVuIjogMjQsICJtbGVuIjogMH0sIHsidCI6ICJjb2wiLCAiYXRvbSI6ICJkYmwi
LCAiZHR5cGUiOiAiZmxvYXQ2NCIsICJuIjogMywgInZsZW4iOiAyNCwgIm1sZW4iOiAwfSwgeyJ0
IjogImNvbCIsICJhdG9tIjogImxuZyIsICJkdHlwZSI6ICJpbnQ2NCIsICJuIjogMiwgInZsZW4i
OiAxNiwgIm1sZW4iOiAyfSwgeyJ0IjogImNvbCIsICJhdG9tIjogImJpdCIsICJkdHlwZSI6ICJi
b29sIiwgIm4iOiAyLCAidmxlbiI6IDIsICJtbGVuIjogMn0sIHsidCI6ICJzdHIiLCAibiI6IDIs
ICJ2bGVuIjogMTIsICJtbGVuIjogMn0sIHsidCI6ICJhcnIiLCAiZHR5cGUiOiAiaW50NjQiLCAi
dmxlbiI6IDh9XX0CAAAAAAAAAAQAAAAAAAAABgAAAAAAAAAAAAAAAADQPwAAAAAAANA/AAAAAAAA
0D8AGnEYAgAAAAAAAAAAAAAAAAEAAAABWyJ3aWRlIiwgIiJdAAEBAAAAAAAAAA==
"""

GOLDEN_DIGEST = "2af030830bbf938bb94f0b94d5a9e0ee930eee9375a56d5f096c2348ec5a54ee"


@pytest.fixture(autouse=True)
def _keep_commits_in_the_log(monkeypatch):
    monkeypatch.setenv("REPRO_WAL_CHECKPOINT_RECORDS", "1000000")


def _seed_farm(tmp_path):
    farm = tmp_path / "db"
    conn = repro.connect(nr_threads=1)
    for statement in SEED:
        conn.execute(statement)
    conn.save(farm)
    conn.close()
    return farm


class TestGoldenFarmAndLog:
    def test_parent_written_manifest_and_wal_recover_to_the_parent_digest(self, tmp_path):
        farm = _seed_farm(tmp_path)
        (farm / "catalog.json").write_text(GOLDEN_MANIFEST)
        wal_mod.wal_path_for(farm).write_bytes(base64.b64decode(GOLDEN_WAL))
        conn = repro.connect(farm, nr_threads=1)
        assert catalog_digest(conn.database.catalog) == GOLDEN_DIGEST
        assert conn.execute("SELECT s FROM obs ORDER BY a").rows() == [
            ("upd",), ("c",), ("n/a",),
        ]
        conn.close()

    def test_this_commit_writes_the_same_bytes(self, tmp_path):
        farm = _seed_farm(tmp_path)
        assert (farm / "catalog.json").read_text() == GOLDEN_MANIFEST
        conn = repro.connect(farm, durable=True, nr_threads=1)
        for statement in LOGGED:
            conn.execute(statement)
        conn.begin()
        for statement in LOGGED_TXN:
            conn.execute(statement)
        conn.commit()
        conn.close()
        assert wal_mod.wal_path_for(farm).read_bytes() == base64.b64decode(GOLDEN_WAL)


class TestMalformedAtRestInput:
    """Checksum-valid garbage: typed errors, with a name to go looking for."""

    def _append_record(self, farm, header: dict, blob: bytes = b"") -> None:
        path = wal_mod.wal_path_for(farm)
        if not path.exists():
            path.write_bytes(base64.b64decode(GOLDEN_WAL)[:8])  # the magic
        with open(path, "ab") as handle:
            handle.write(codec.pack_record(header, [blob]))

    @pytest.mark.parametrize(
        "spec,blob",
        [
            ({"t": "col", "atom": "int", "dtype": "int32", "n": 2}, b"\0" * 8),
            ({"t": "col", "atom": "int", "dtype": "int32", "n": 2, "vlen": 8}, b"\0" * 6),
            ({"t": "col", "atom": "int", "dtype": "int32", "n": 3, "vlen": 6}, b"\0" * 6),
            ({"t": "arr", "dtype": "no-such-dtype", "vlen": 8}, b"\0" * 8),
        ],
    )
    def test_bad_blob_spec_names_the_record_version(self, tmp_path, spec, blob):
        farm = _seed_farm(tmp_path)
        change = {
            "op": "mutate",
            "name": "obs",
            "ops": [{"method": "delete_rows", "payload": {"oids": {"__arr__": 0}}}],
        }
        header = {"version": 99, "schema_version": 3, "changes": [change], "blobs": [spec]}
        self._append_record(farm, header, blob)
        with pytest.raises(PersistenceError, match="record v99"):
            repro.connect(farm)

    @pytest.mark.parametrize(
        "change",
        [
            {"op": "mutate", "name": "obs", "ops": [{"method": "append_rows", "payload": {}}]},
            {"op": "mutate", "name": "obs", "ops": [{"payload": {}}]},
            {"op": "create", "name": "t9", "kind": "table", "columns": [{"name": "a"}], "bats": {}},
            {"op": "create", "name": "t9", "kind": "table", "columns": [{"name": "a", "atom": "int"}]},
            {"name": "obs"},
        ],
    )
    def test_malformed_change_is_a_persistence_error(self, tmp_path, change):
        farm = _seed_farm(tmp_path)
        self._append_record(
            farm, {"version": 99, "schema_version": 3, "changes": [change], "blobs": []}
        )
        with pytest.raises(PersistenceError, match="t9|v99"):
            repro.connect(farm)

    @pytest.mark.parametrize("missing", ["atom", "name"])
    def test_manifest_entry_missing_a_key_names_the_object(self, tmp_path, missing):
        farm = _seed_farm(tmp_path)
        manifest = json.loads((farm / "catalog.json").read_text())
        grid = next(e for e in manifest["objects"] if e["name"] == "grid")
        del grid["attributes"][0][missing]
        (farm / "catalog.json").write_text(json.dumps(manifest))
        with pytest.raises(PersistenceError, match="'grid'"):
            repro.connect(farm)

    def test_manifest_without_objects(self, tmp_path):
        farm = _seed_farm(tmp_path)
        (farm / "catalog.json").write_text('{"format": 2}')
        with pytest.raises(PersistenceError, match="lists no objects"):
            repro.connect(farm)
