"""Wire-protocol round-trips over randomized payloads (hypothesis).

Every frame type must survive encode → decode unchanged; every
columnar batch — any atom mix, NULL masks, empty results — must
reassemble into byte-identical columns; and any corrupted or
truncated byte stream must be *rejected* (``ProtocolError``), never
misinterpreted.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import errors
from repro.errors import ProgrammingError, ProtocolError
from repro.gdk.atoms import NUMPY_DTYPE, Atom
from repro.gdk.column import Column
from repro.net import protocol
from repro.net.protocol import Msg

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
_TEXT = st.text(max_size=12)

#: JSON-representable header values (NaN excluded: JSON round-trips it
#: as a token but equality fails; the codec ships floats in blobs).
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**31), 2**31 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    _TEXT,
)

_HEADERS = st.dictionaries(
    _TEXT,
    st.one_of(_JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=4)),
    max_size=6,
)


@st.composite
def columns(draw, max_rows: int = 40) -> Column:
    atom = draw(st.sampled_from(list(Atom)))
    n = draw(st.integers(0, max_rows))
    if atom is Atom.STR:
        values = np.empty(n, dtype=object)
        for i, item in enumerate(
            draw(st.lists(_TEXT, min_size=n, max_size=n))
        ):
            values[i] = item
    elif atom is Atom.BIT:
        values = np.array(
            draw(st.lists(st.booleans(), min_size=n, max_size=n)),
            dtype=np.bool_,
        )
    elif atom is Atom.INT:
        values = np.array(
            draw(
                st.lists(
                    st.integers(-(2**31), 2**31 - 1), min_size=n, max_size=n
                )
            ),
            dtype=np.int32,
        )
    elif atom is Atom.DBL:
        values = np.array(
            draw(
                st.lists(
                    st.floats(allow_nan=True, allow_infinity=True, width=64),
                    min_size=n,
                    max_size=n,
                )
            ),
            dtype=np.float64,
        )
    else:  # OID / LNG share the int64 representation
        values = np.array(
            draw(
                st.lists(
                    st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n
                )
            ),
            dtype=np.int64,
        )
    mask = None
    if draw(st.booleans()):
        mask = np.array(
            draw(st.lists(st.booleans(), min_size=n, max_size=n)),
            dtype=np.bool_,
        )
    return Column(atom, values, mask)


def assert_columns_equal(ours: Column, theirs: Column) -> None:
    assert ours.atom is theirs.atom
    assert ours.values.dtype == theirs.values.dtype
    if ours.atom is Atom.STR:
        assert list(ours.values) == list(theirs.values)
    else:
        np.testing.assert_array_equal(ours.values, theirs.values)
    if theirs.mask is None:
        assert ours.mask is None
    else:
        np.testing.assert_array_equal(ours.effective_mask(), theirs.mask)


# ----------------------------------------------------------------------
# frame round-trips
# ----------------------------------------------------------------------
class TestFrameRoundTrip:
    @given(
        msg=st.sampled_from(list(Msg)),
        header=_HEADERS,
        blobs=st.lists(st.binary(max_size=64), max_size=4),
    )
    @settings(deadline=None)
    def test_every_frame_type_round_trips(self, msg, header, blobs):
        frame = protocol.encode_frame(msg, header, blobs)
        got_msg, got_header, got_blob, consumed = protocol.decode_frame(frame)
        assert got_msg is msg
        assert got_header == json.loads(json.dumps(header))
        assert got_blob == b"".join(blobs)
        assert consumed == len(frame)

    @given(
        msg=st.sampled_from(list(Msg)),
        header=_HEADERS,
        blob=st.binary(max_size=64),
        trailer=st.binary(min_size=1, max_size=16),
    )
    @settings(deadline=None)
    def test_consumed_ignores_trailing_stream(self, msg, header, blob, trailer):
        frame = protocol.encode_frame(msg, header, [blob])
        got_msg, _, got_blob, consumed = protocol.decode_frame(frame + trailer)
        assert got_msg is msg
        assert got_blob == blob
        assert consumed == len(frame)

    @given(
        frames=st.lists(
            st.tuples(
                st.sampled_from(list(Msg)),
                _HEADERS,
                st.lists(st.binary(max_size=64), max_size=3),
                # sometimes larger than the reader's buffer, so it grows
                st.integers(0, 3 * protocol.FrameReader.READ_AHEAD),
            ),
            min_size=1,
            max_size=5,
        ),
        data=st.data(),
    )
    @settings(deadline=None, max_examples=60)
    def test_frame_reader_matches_decode_frame(self, frames, data):
        """However the transport splits a stream of frames, the reader
        hands out what :func:`decode_frame` finds, frame by frame."""
        stream = b"".join(
            protocol.encode_frame(msg, header, [*blobs, bytes(pad)])
            for msg, header, blobs, pad in frames
        )
        offset = 0

        def recv_into(view: memoryview) -> int:
            nonlocal offset
            size = min(len(view), data.draw(st.integers(1, 1 << 17)), len(stream) - offset)
            view[:size] = stream[offset : offset + size]
            offset += size
            return size

        reader = protocol.FrameReader(recv_into)
        expected_at = 0
        for _ in frames:
            msg, header, blob, consumed = protocol.decode_frame(stream[expected_at:])
            expected_at += consumed
            got = reader.read()
            assert got[:2] == (msg, header)
            assert bytes(got[2]) == blob
        with pytest.raises(ProtocolError, match="ended mid-frame"):
            reader.read()


class TestRejection:
    @given(
        msg=st.sampled_from(list(Msg)),
        header=_HEADERS,
        blob=st.binary(max_size=32),
        data=st.data(),
    )
    @settings(deadline=None)
    def test_any_single_byte_corruption_is_rejected(
        self, msg, header, blob, data
    ):
        frame = bytearray(protocol.encode_frame(msg, header, [blob]))
        index = data.draw(st.integers(0, len(frame) - 1))
        flip = data.draw(st.integers(1, 255))
        frame[index] ^= flip
        with pytest.raises(ProtocolError):
            protocol.decode_frame(bytes(frame))

    @given(msg=st.sampled_from(list(Msg)), header=_HEADERS, data=st.data())
    @settings(deadline=None)
    def test_any_truncation_is_rejected(self, msg, header, data):
        frame = protocol.encode_frame(msg, header)
        cut = data.draw(st.integers(0, len(frame) - 1))
        with pytest.raises(ProtocolError):
            protocol.decode_frame(frame[:cut])

    def test_unknown_message_type_rejected(self):
        import zlib

        # A correctly checksummed frame whose type byte means nothing.
        payload = bytearray(
            protocol.encode_frame(Msg.OK, {})[protocol.FRAME_PRELUDE.size :]
        )
        payload[0] = 0x7F
        frame = (
            protocol.FRAME_PRELUDE.pack(len(payload), zlib.crc32(bytes(payload)))
            + bytes(payload)
        )
        with pytest.raises(ProtocolError, match="unknown message type"):
            protocol.decode_frame(frame)

    def test_oversized_frame_rejected(self):
        prelude = protocol.FRAME_PRELUDE.pack(
            protocol.MAX_FRAME_BYTES + 1, 0
        )
        with pytest.raises(ProtocolError, match="exceeds"):
            protocol.decode_frame(prelude)

    def test_header_must_be_object(self):
        import zlib

        payload = bytes([int(Msg.OK)]) + b"\x02\x00\x00\x00[]"
        frame = (
            protocol.FRAME_PRELUDE.pack(len(payload), zlib.crc32(payload))
            + payload
        )
        with pytest.raises(ProtocolError, match="JSON object"):
            protocol.decode_frame(frame)


# ----------------------------------------------------------------------
# columnar batches
# ----------------------------------------------------------------------
class TestBatchRoundTrip:
    @given(cols=st.lists(columns(), max_size=4))
    @settings(deadline=None)
    def test_batches_round_trip(self, cols):
        frame = protocol.encode_batch(cols)
        msg, header, blob, _ = protocol.decode_frame(frame)
        assert msg is Msg.RESULT_BATCH
        decoded = protocol.decode_batch(header, blob)
        assert len(decoded) == len(cols)
        for ours, theirs in zip(decoded, cols):
            assert_columns_equal(ours, theirs)

    @given(atom=st.sampled_from(list(Atom)))
    @settings(deadline=None)
    def test_empty_typed_batch_round_trips(self, atom):
        frame = protocol.encode_batch([Column.empty(atom)])
        _, header, blob, _ = protocol.decode_frame(frame)
        (decoded,) = protocol.decode_batch(header, blob)
        assert decoded.atom is atom
        assert len(decoded) == 0
        assert decoded.values.dtype == NUMPY_DTYPE[atom]

    @given(cols=st.lists(columns(), min_size=1, max_size=3), data=st.data())
    @settings(deadline=None)
    def test_blob_truncation_rejected(self, cols, data):
        specs, chunks = protocol.encode_columns(cols)
        blob = b"".join(chunks)
        if not blob:
            return
        cut = data.draw(st.integers(0, len(blob) - 1))
        with pytest.raises(ProtocolError):
            protocol.decode_columns(specs, blob[:cut])

    @given(cols=st.lists(columns(), min_size=1, max_size=3))
    @settings(deadline=None)
    def test_trailing_blob_bytes_rejected(self, cols):
        specs, chunks = protocol.encode_columns(cols)
        with pytest.raises(ProtocolError, match="trailing"):
            protocol.decode_columns(specs, b"".join(chunks) + b"\x00")

    def test_dtype_mismatch_rejected(self):
        specs, chunks = protocol.encode_columns(
            [Column(Atom.INT, np.array([1, 2], dtype=np.int32))]
        )
        specs[0]["dtype"] = "int64"
        with pytest.raises(ProtocolError, match="dtype"):
            protocol.decode_columns(specs, b"".join(chunks))

    def test_mask_length_mismatch_rejected(self):
        column = Column(
            Atom.INT,
            np.array([1, 2], dtype=np.int32),
            np.array([True, False]),
        )
        specs, chunks = protocol.encode_columns([column])
        specs[0]["n"] = 1
        specs[0]["vlen"] = 4
        with pytest.raises(ProtocolError):
            protocol.decode_columns(specs, b"".join(chunks))


# ----------------------------------------------------------------------
# parameters and error transport
# ----------------------------------------------------------------------
_PARAM_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**63), 2**63 - 1),
    st.floats(allow_nan=False, allow_infinity=True),
    _TEXT,
)


class TestParams:
    @given(
        params=st.one_of(
            st.none(),
            st.lists(_PARAM_SCALARS, max_size=5),
            st.dictionaries(st.text(min_size=1, max_size=8), _PARAM_SCALARS, max_size=5),
        )
    )
    @settings(deadline=None)
    def test_params_round_trip_through_json(self, params):
        wire = json.loads(json.dumps(protocol.jsonable_params(params)))
        decoded = protocol.decoded_params(wire)
        if params is None:
            assert decoded is None
        elif isinstance(params, dict):
            assert decoded == params
        else:
            assert decoded == tuple(params)

    def test_numpy_scalars_unwrap(self):
        decoded = protocol.decoded_params(
            protocol.jsonable_params((np.int32(7), np.float64(0.5)))
        )
        assert decoded == (7, 0.5)
        assert all(isinstance(v, (int, float)) for v in decoded)

    def test_rejects_unsendable_values(self):
        with pytest.raises(ProgrammingError):
            protocol.jsonable_params((object(),))
        with pytest.raises(ProgrammingError):
            protocol.jsonable_params("bare string is not a sequence of params")


class TestErrorTransport:
    @pytest.mark.parametrize("name", sorted(protocol.ERROR_CLASSES))
    def test_registered_classes_round_trip(self, name):
        cls = protocol.ERROR_CLASSES[name]
        if issubclass(cls, (errors.LexerError, errors.ParseError)):
            exc = cls("bad token", 3, 14)
        else:
            exc = cls("something went wrong")
        header = json.loads(json.dumps(protocol.error_header(exc)))
        with pytest.raises(type(exc)) as caught:
            protocol.raise_remote_error(header)
        assert str(caught.value) == str(exc)
        if isinstance(exc, (errors.LexerError, errors.ParseError)):
            assert caught.value.line == 3
            assert caught.value.column == 14

    def test_unknown_class_falls_back(self):
        header = {
            "error_class": "FancyFutureError",
            "fallback": "IntegrityError",
            "message": "m",
        }
        with pytest.raises(errors.IntegrityError):
            protocol.raise_remote_error(header)

    def test_unknown_fallback_becomes_operational(self):
        with pytest.raises(errors.OperationalError):
            protocol.raise_remote_error({"error_class": "??", "message": "m"})
