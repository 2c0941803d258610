"""One round-trip suite for the one codec (``repro.gdk.codec``).

The wire batch and the WAL record are two callers of the same column
codec and the same record framing, so every column must come back
byte-identical from both, described by the same blob spec; and a
schema object must mean the same thing whether it was read from a farm
manifest, a WAL snapshot or the JSON constants of a DDL plan.
"""

from __future__ import annotations

import json
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.catalog import Catalog, ColumnDef, DimensionDef
from repro.engine import wal
from repro.errors import PersistenceError, ProtocolError
from repro.gdk import codec
from repro.gdk.atoms import Atom
from repro.gdk.column import Column
from repro.gdk.dictenc import DictColumn
from repro.net import protocol
from repro.testing.verify import catalog_digest

from tests.property.test_prop_protocol import assert_columns_equal, columns


def _fail(message: str) -> Exception:
    return AssertionError(message)


def through_wire(column: Column) -> tuple[Column, dict]:
    _, header, blob, _ = protocol.decode_frame(protocol.encode_batch([column]))
    return protocol.decode_batch(header, blob)[0], header["columns"][0]


def through_wal(column: Column) -> tuple[Column, dict]:
    change = {
        "op": "mutate",
        "name": "t",
        "ops": [{"method": "append_rows", "payload": {"columns": {"c": column}}}],
    }
    payload, _ = codec.unpack_record(wal.encode_record(1, 0, [change]), 0, _fail)
    _, header, _ = codec.split_payload(payload, _fail)
    decoded = wal.decode_record(payload)["changes"][0]
    return decoded["ops"][0]["payload"]["columns"]["c"], header["blobs"][0]


TRANSPORTS = {"wire": through_wire, "wal": through_wal}


def assert_byte_identical(ours: Column, theirs: Column) -> None:
    assert_columns_equal(ours, theirs)
    if theirs.atom is not Atom.STR:
        assert ours.values.tobytes() == np.ascontiguousarray(theirs.values).tobytes()
    assert type(ours) is Column and ours.values.flags.writeable


@pytest.mark.parametrize("transport", sorted(TRANSPORTS))
class TestColumnRoundTrip:
    @given(column=columns())
    @settings(deadline=None)
    def test_every_generated_column(self, transport, column):
        decoded, spec = TRANSPORTS[transport](column)
        assert_byte_identical(decoded, column)
        assert [spec] == codec.encode_blobs([column])[0]

    def test_dictionary_encoded_column(self, transport):
        column = DictColumn(
            Atom.STR,
            np.array([1, 0, 1, 2], dtype=np.int32),
            np.array(["", "één", "z"], dtype=object),
            np.array([False, True, False, False]),
        )
        decoded, spec = TRANSPORTS[transport](column)
        assert_byte_identical(decoded, Column(Atom.STR, column.values, column.mask))
        assert spec["t"] == "str" and spec["n"] == 4 and spec["mlen"] == 4

    def test_memmap_backed_slice(self, transport, tmp_path):
        backing = np.memmap(tmp_path / "v.bin", dtype=np.float64, mode="w+", shape=64)
        backing[:] = np.linspace(-1.0, 1.0, 64)
        backing.flush()
        window = np.memmap(tmp_path / "v.bin", dtype=np.float64, mode="r")[16:48]
        decoded, spec = TRANSPORTS[transport](Column(Atom.DBL, window))
        assert_byte_identical(decoded, Column(Atom.DBL, np.array(window)))
        assert spec == {
            "t": "col", "atom": "dbl", "dtype": "float64", "n": 32, "vlen": 256, "mlen": 0,
        }


class TestOneDecoder:
    """The checks the wire decoder had now guard the log as well."""

    SPEC = {"t": "col", "atom": "int", "dtype": "int32", "n": 2, "vlen": 8, "mlen": 0}

    @pytest.mark.parametrize(
        "edit,blob",
        [
            ({"vlen": None}, b"\0" * 8),
            ({"vlen": 4}, b"\0" * 4),
            ({"dtype": "int64"}, b"\0" * 8),
            ({"atom": "???"}, b"\0" * 8),
            ({"t": "col", "atom": "str"}, b"\0" * 8),
            ({"t": "blob"}, b"\0" * 8),
            ({"mlen": 1}, b"\0" * 9),
            ({"n": -2, "vlen": -8}, b""),
            ({}, b"\0" * 9),
            ({}, b"\0" * 7),
        ],
    )
    @pytest.mark.parametrize("error", [ProtocolError, PersistenceError])
    def test_malformed_specs_raise_the_callers_error(self, edit, blob, error):
        spec = {k: v for k, v in {**self.SPEC, **edit}.items() if v is not None}
        with pytest.raises(error):
            codec.decode_blobs([spec], blob, error)

    def test_bare_ndarrays_round_trip(self):
        oids = np.array([3, 1, 2], dtype=np.int64)
        specs, chunks = codec.encode_blobs([oids])
        assert specs == [{"t": "arr", "dtype": "int64", "vlen": 24}]
        (decoded,) = codec.decode_blobs(specs, b"".join(chunks), _fail)
        assert decoded.dtype == np.int64 and list(decoded) == [3, 1, 2]

    def test_a_wire_batch_carries_columns_only(self):
        specs, chunks = codec.encode_blobs([np.arange(2)])
        with pytest.raises(ProtocolError, match="columns only"):
            protocol.decode_columns(specs, b"".join(chunks))

    @given(
        header=st.dictionaries(st.text(max_size=6), st.integers(), max_size=3),
        arrays=st.lists(
            st.tuples(
                st.sampled_from(["int32", "int64", "float64", "bool"]),
                st.integers(0, 24),  # zero-length included
                st.integers(1, 3),  # a step > 1 makes the array non-contiguous
            ),
            max_size=4,
        ),
        raw=st.lists(st.binary(max_size=16), max_size=2),
        tag=st.sampled_from([b"", b"\x84"]),
    )
    @settings(deadline=None)
    def test_record_chunks_join_to_the_packed_record(self, header, arrays, raw, tag):
        chunks = [
            np.arange(n * step, dtype=np.int64).astype(dtype)[::step]
            for dtype, n, step in arrays
        ] + raw
        joined = b"".join(codec.record_chunks(header, chunks, tag))
        assert joined == codec.pack_record(header, chunks, tag)
        # The reference layout, built by copying every chunk's bytes.
        header_bytes = json.dumps(header).encode("ascii")
        payload = b"".join(
            [tag, len(header_bytes).to_bytes(4, "little"), header_bytes]
            + [np.ascontiguousarray(c).tobytes() if isinstance(c, np.ndarray) else c for c in chunks]
        )
        assert joined == codec.PRELUDE.pack(len(payload), zlib.crc32(payload)) + payload

    def test_record_framing_is_shared(self):
        frame = protocol.encode_frame(protocol.Msg.OK, {"k": "é"}, [b"xy"])
        record = codec.pack_record({"k": "é"}, [b"xy"])
        # Same prelude + header + blob layout; the wire adds its type byte.
        assert frame[codec.PRELUDE.size + 1 :] == record[codec.PRELUDE.size :]
        assert codec.split_payload(record[codec.PRELUDE.size :], _fail) == (
            b"", {"k": "é"}, b"xy",
        )


# ----------------------------------------------------------------------
# schema objects: manifest <-> WAL snapshot <-> DDL plan constants
# ----------------------------------------------------------------------
DDL = [
    "CREATE TABLE obs (a INT, s VARCHAR(8) DEFAULT 'n/a', f DOUBLE DEFAULT 0.5, "
    "ok BOOLEAN DEFAULT true, big BIGINT)",
    "CREATE ARRAY grid (x INT DIMENSION[0:1:3], y BIGINT DIMENSION[-2:2:6], "
    "v INT DEFAULT 7, w DOUBLE)",
]


class TestSchemaRoundTrip:
    @pytest.fixture()
    def catalog(self):
        conn = repro.connect(nr_threads=1)
        for statement in DDL:  # route 1: sql.createTable / sql.createArray constants
            conn.execute(statement)
        yield conn.database.catalog
        conn.close()

    def test_defs_round_trip_through_their_json(self, catalog):
        for obj in catalog:
            for cdef in getattr(obj, "columns", None) or obj.attributes:
                assert ColumnDef.from_json(json.loads(json.dumps(cdef.to_json()))) == cdef
            for ddef in getattr(obj, "dimensions", ()):
                assert DimensionDef.from_json(json.loads(json.dumps(ddef.to_json()))) == ddef

    def test_manifest_and_wal_snapshot_agree_with_the_ddl_plan(self, catalog, tmp_path):
        expected = catalog_digest(catalog)

        catalog.save(tmp_path / "farm")
        assert catalog_digest(Catalog.load(tmp_path / "farm")) == expected

        changes = [
            {"op": "create", "name": name, **catalog.get(name).schema_json(),
             "bats": dict(catalog.get(name).bats)}
            for name in catalog.names()
        ]
        payload, _ = codec.unpack_record(wal.encode_record(1, 2, changes), 0, _fail)
        replayed = Catalog()
        wal.apply_record(replayed, wal.decode_record(payload))
        assert catalog_digest(replayed) == expected

    def test_manifest_entry_and_wal_snapshot_share_their_keys(self, catalog, tmp_path):
        catalog.save(tmp_path / "farm")
        manifest = json.loads((tmp_path / "farm" / "catalog.json").read_text())
        for entry in manifest["objects"]:
            assert entry == {"name": entry["name"], **catalog.get(entry["name"]).schema_json()}
