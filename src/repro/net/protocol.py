"""The wire protocol: checksummed frames and columnar result batches.

One conversation is a sequence of *frames*: records of
:mod:`repro.gdk.codec` (README, "Formats") tagged with a one-byte
message type, so torn or corrupted byte streams are detected, never
interpreted.  The JSON header carries the message structure; result
columns travel in the blob section in the kernel's own bytes and
reassemble into :class:`~repro.gdk.column.Column` objects
byte-identical to the server-side originals.  A result set streams as::

    RESULT_HEADER  {kind, names, meta, row_count, affected, batch_rows}
    RESULT_BATCH   {columns: [spec...]} + column/mask blobs   (repeated)
    RESULT_DONE    {batches}

Errors travel as ``ERROR`` frames naming a PEP 249 exception class;
:func:`raise_remote_error` re-raises the closest local class, so
``except repro.OperationalError`` works identically against a remote
or an in-process session.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Iterable, Sequence

from repro import errors
from repro.engine.cursor import scalar_parameter
from repro.errors import ProgrammingError, ProtocolError
from repro.gdk import codec
from repro.gdk.column import Column

#: bumped on every incompatible wire change; both sides must match.
#: 3: column specs are the codec's shared blob specs (a ``t`` key).
PROTOCOL_VERSION = 3

#: magic token the client presents in its HELLO frame.
CLIENT_MAGIC = "REPRO"

#: default rows per streamed result batch (``ReproServer(batch_rows=...)``).
DEFAULT_BATCH_ROWS = 65536

#: upper bound on one frame; anything larger is a corrupt stream.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: ``[u32 payload length][u32 crc32(payload)]``.
FRAME_PRELUDE = codec.PRELUDE


class Msg(enum.IntEnum):
    """Message types.  Client requests < 0x80 <= server responses."""

    HELLO = 0x01
    EXECUTE = 0x02
    PREPARE = 0x03
    EXECUTE_PREPARED = 0x04
    EXECUTEMANY = 0x05
    BEGIN = 0x06
    COMMIT = 0x07
    ROLLBACK = 0x08
    CANCEL = 0x09
    STATS = 0x0A
    CLOSE_STATEMENT = 0x0B
    GOODBYE = 0x0C
    PING = 0x0D

    WELCOME = 0x81
    OK = 0x82
    RESULT_HEADER = 0x83
    RESULT_BATCH = 0x84
    RESULT_DONE = 0x85
    PREPARED = 0x86
    ERROR = 0x87
    STATS_DATA = 0x88
    PONG = 0x89


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def frame_chunks(msg: Msg, header: dict, blobs: Sequence = ()) -> list:
    """One frame as buffers to write back to back (blobs not copied)."""
    return codec.record_chunks(header, blobs, bytes([int(msg)]))


def encode_frame(msg: Msg, header: dict, blobs: Sequence[bytes] = ()) -> bytes:
    """One complete frame: prelude + typed payload + blob section."""
    return codec.pack_record(header, blobs, bytes([int(msg)]))


def decode_payload(payload: bytes) -> tuple[Msg, dict, bytes]:
    """Split a verified payload into (message type, header, blob bytes)."""
    tag, header, blob = codec.split_payload(payload, ProtocolError, tag_size=1)
    try:
        return Msg(tag[0]), header, blob
    except ValueError:
        raise ProtocolError(f"unknown message type 0x{tag[0]:02x}") from None


def decode_frame(data: bytes) -> tuple[Msg, dict, bytes, int]:
    """Decode the first frame in *data*; returns (..., bytes consumed)."""
    payload, end = codec.unpack_record(data, 0, ProtocolError, MAX_FRAME_BYTES)
    return (*decode_payload(payload), end)


class FrameReader:
    """Frames parsed out of one receive buffer the reader owns.

    ``recv_into(view) -> int`` fills the front of a writable byte view
    from the transport (0 means the stream ended).  A read asks for the
    rest of the frame at hand plus up to ``READ_AHEAD`` bytes, so the
    frames of a small reply arrive in one call.  Each payload is
    checked against its CRC where it lies and returned as a view of the
    buffer: its blob section is valid until the next :meth:`read`.
    """

    READ_AHEAD = 1 << 16

    def __init__(self, recv_into: Callable[[memoryview], int]):
        self._recv_into = recv_into
        self._buffer = bytearray(self.READ_AHEAD)
        self._start = self._end = 0  # the unparsed bytes

    def _fill(self, n: int) -> None:
        """Hold at least *n* unparsed bytes, contiguous from ``_start``."""
        if self._start + n > len(self._buffer):
            # Only read-ahead (at most READ_AHEAD bytes) moves to the front.
            pending = self._buffer[self._start : self._end]
            if n > len(self._buffer):
                self._buffer = bytearray(max(n, 2 * len(self._buffer)))
            self._buffer[: len(pending)] = pending
            self._start, self._end = 0, len(pending)
        view = memoryview(self._buffer)
        while self._end - self._start < n:
            stop = min(len(view), max(self._start + n, self._end + self.READ_AHEAD))
            got = self._recv_into(view[self._end : stop])
            if not got:
                raise ProtocolError("stream ended mid-frame")
            self._end += got

    def read(self) -> tuple[Msg, dict, memoryview]:
        """The next frame's ``(message type, header, blob section)``."""
        if self._start == self._end:
            self._start = self._end = 0
        self._fill(FRAME_PRELUDE.size)
        length, crc = codec.unpack_prelude(
            self._buffer, self._start, ProtocolError, MAX_FRAME_BYTES
        )
        self._fill(FRAME_PRELUDE.size + length)
        start = self._start + FRAME_PRELUDE.size
        self._start = start + length
        payload = memoryview(self._buffer)[start : self._start]
        return decode_payload(codec.verified(length, crc, payload, ProtocolError))


# ----------------------------------------------------------------------
# columnar batch codec
# ----------------------------------------------------------------------
def encode_columns(columns: Iterable[Column]) -> tuple[list[dict], list]:
    """Column specs + blob chunks, in the kernel's own representation."""
    return codec.encode_blobs(columns)


def decode_columns(specs: list[dict], blob: bytes) -> list[Column]:
    """Rebuild the columns an :func:`encode_columns` peer sent."""
    columns = codec.decode_blobs(specs, blob, ProtocolError)
    if not all(isinstance(column, Column) for column in columns):
        raise ProtocolError("a result batch carries columns only")
    return columns


def batch_chunks(columns: Sequence[Column]) -> list:
    """One RESULT_BATCH frame as buffers, the columns' bytes by reference."""
    specs, chunks = encode_columns(columns)
    return frame_chunks(Msg.RESULT_BATCH, {"columns": specs}, chunks)


def encode_batch(columns: Sequence[Column]) -> bytes:
    """One RESULT_BATCH frame carrying a slice of every result column."""
    return b"".join(batch_chunks(columns))


def decode_batch(header: dict, blob: bytes) -> list[Column]:
    specs = header.get("columns")
    if not isinstance(specs, list):
        raise ProtocolError("RESULT_BATCH frame without column specs")
    return decode_columns(specs, blob)


# ----------------------------------------------------------------------
# parameters
# ----------------------------------------------------------------------
def jsonable_params(params: Any) -> Any:
    """Bind parameters as a wire-safe structure (NumPy scalars unwrapped).

    Accepts the same shapes the engine does — ``None``, a sequence for
    ``?`` placeholders, a mapping for ``:name`` — and the scalar values
    :func:`~repro.engine.cursor.scalar_parameter` admits, all of which
    JSON carries exactly (int, float incl. NaN, str, bool, None).
    """
    if params is None:
        return None
    if isinstance(params, dict):
        return {
            str(key): scalar_parameter(value) for key, value in params.items()
        }
    if isinstance(params, (list, tuple)):
        return [scalar_parameter(value) for value in params]
    raise ProgrammingError(
        "parameters must be a sequence (?), a mapping (:name) or None"
    )


def decoded_params(params: Any) -> Any:
    """Wire parameters back into what ``bind_parameters`` expects."""
    if isinstance(params, list):
        return tuple(params)
    return params


# ----------------------------------------------------------------------
# error transport
# ----------------------------------------------------------------------
#: exception classes a server may name in an ERROR frame.  Anything
#: outside this registry maps to its ``fallback`` PEP 249 class.
_ERROR_CLASS_NAMES = (
    "SciQLError",
    "Warning",
    "InterfaceError",
    "DatabaseError",
    "DataError",
    "OperationalError",
    "IntegrityError",
    "InternalError",
    "ProgrammingError",
    "NotSupportedError",
    "LexerError",
    "ParseError",
    "SemanticError",
    "CatalogError",
    "TypeError_",
    "MALError",
    "GDKError",
    "DimensionError",
    "CoercionError",
    "PersistenceError",
    "CorruptionError",
    "NetworkError",
    "ProtocolError",
    "QueryGovernanceError",
    "QueryCancelledError",
    "QueryTimeoutError",
    "ResourceError",
)

ERROR_CLASSES: dict[str, type] = {
    name: getattr(errors, name) for name in _ERROR_CLASS_NAMES
}

#: PEP 249 fallbacks by hierarchy, for pipeline classes the client
#: build might not know (forward compatibility across versions).
_FALLBACKS = (
    "ProgrammingError",
    "DataError",
    "IntegrityError",
    "InternalError",
    "NotSupportedError",
    "OperationalError",
    "InterfaceError",
    "DatabaseError",
)


def error_header(exc: BaseException) -> dict:
    """The ERROR frame header describing *exc* for the peer."""
    name = type(exc).__name__
    fallback = "OperationalError"
    for candidate in _FALLBACKS:
        if isinstance(exc, getattr(errors, candidate)):
            fallback = candidate
            break
    header = {"error_class": name, "fallback": fallback, "message": str(exc)}
    if isinstance(exc, (errors.LexerError, errors.ParseError)):
        header["line"] = exc.line
        header["column"] = exc.column
    return header


def raise_remote_error(header: dict) -> None:
    """Re-raise the server-side failure an ERROR frame describes."""
    name = header.get("error_class", "")
    cls = ERROR_CLASSES.get(name)
    if cls is None:
        cls = ERROR_CLASSES.get(
            header.get("fallback", ""), errors.OperationalError
        )
    message = header.get("message", "unknown server error")
    if issubclass(cls, (errors.LexerError, errors.ParseError)):
        # Their constructors append "(line, column)" to the message,
        # which the server-side str() already carries — rebuild the
        # instance without re-suffixing, location attributes intact.
        exc = cls.__new__(cls)
        Exception.__init__(exc, message)
        exc.line = int(header.get("line", 0))
        exc.column = int(header.get("column", 0))
        raise exc
    raise cls(message)
