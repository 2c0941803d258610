"""The wire protocol: checksummed frames and columnar result batches.

One conversation is a sequence of *frames*.  Framing mirrors the
write-ahead log (`engine/wal.py`) deliberately — the same
``[u32 length][u32 crc32(payload)][payload]`` prelude, so torn or
corrupted byte streams are detected, never interpreted::

    frame   = [u32 payload length][u32 crc32(payload)][payload]
    payload = [u8 message type][u32 header length][header JSON][blobs]

The JSON header carries the message structure; bulk data (result
columns, NULL masks) travels in the raw *blob* section after it,
described by ``header["columns"]`` specs.  A result set streams as::

    RESULT_HEADER  {kind, names, meta, row_count, affected, batch_rows}
    RESULT_BATCH   {columns: [spec...]} + column/mask blobs   (repeated)
    RESULT_DONE    {batches}

Columns are encoded exactly as the kernel stores them — numeric tails
as machine dtype bytes, strings as a JSON array, the NULL mask as raw
bool bytes — so a decoded batch reassembles into
:class:`~repro.gdk.column.Column` objects byte-identical to the
server-side originals (the property suite round-trips every frame
type over randomized payloads).

Errors travel as ``ERROR`` frames naming a PEP 249 exception class;
:func:`raise_remote_error` re-raises the closest local class, so
``except repro.OperationalError`` works identically against a remote
or an in-process session.
"""

from __future__ import annotations

import enum
import json
import struct
import zlib
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np

from repro import errors
from repro.engine.cursor import scalar_parameter
from repro.errors import ProgrammingError, ProtocolError
from repro.gdk.atoms import NUMPY_DTYPE, Atom
from repro.gdk.column import Column

#: bumped on every incompatible wire change; both sides must match.
PROTOCOL_VERSION = 2

#: magic token the client presents in its HELLO frame.
CLIENT_MAGIC = "REPRO"

#: default rows per streamed result batch (``ReproServer(batch_rows=...)``).
DEFAULT_BATCH_ROWS = 65536

#: upper bound on one frame; anything larger is a corrupt stream.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: ``[u32 payload length][u32 crc32(payload)]``.
FRAME_PRELUDE = struct.Struct("<II")
_U32 = struct.Struct("<I")


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
def encode_frame(
    msg: Msg, header: dict, blobs: Sequence[bytes] = ()
) -> bytes:
    """One complete frame: prelude + typed payload + blob section."""
    header_bytes = json.dumps(header, ensure_ascii=False).encode("utf-8")
    payload = b"".join(
        [bytes([int(msg)]), _U32.pack(len(header_bytes)), header_bytes, *blobs]
    )
    return FRAME_PRELUDE.pack(len(payload), zlib.crc32(payload)) + payload


def decode_payload(payload: bytes) -> tuple[Msg, dict, bytes]:
    """Split a verified payload into (message type, header, blob bytes)."""
    if len(payload) < 5:
        raise ProtocolError(f"frame payload truncated ({len(payload)} bytes)")
    try:
        msg = Msg(payload[0])
    except ValueError:
        raise ProtocolError(
            f"unknown message type 0x{payload[0]:02x}"
        ) from None
    (header_length,) = _U32.unpack_from(payload, 1)
    if 5 + header_length > len(payload):
        raise ProtocolError("frame header exceeds payload")
    try:
        header = json.loads(payload[5 : 5 + header_length].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed frame header: {exc}") from None
    if not isinstance(header, dict):
        raise ProtocolError("frame header must be a JSON object")
    return msg, header, payload[5 + header_length :]


def check_payload(length: int, crc: int, payload: bytes) -> None:
    """Validate one prelude against the payload it announced."""
    if len(payload) != length:
        raise ProtocolError(
            f"frame truncated: announced {length} bytes, got {len(payload)}"
        )
    if zlib.crc32(payload) != crc:
        raise ProtocolError("frame checksum mismatch (corrupted stream)")


def check_frame_length(length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte bound"
        )


def decode_frame(data: bytes) -> tuple[Msg, dict, bytes, int]:
    """Decode the first frame in *data*; returns (..., bytes consumed).

    Used by the property suite and any buffer-at-a-time consumer; the
    streaming endpoints read the prelude and payload separately via
    :func:`check_payload`.
    """
    if len(data) < FRAME_PRELUDE.size:
        raise ProtocolError(
            f"frame prelude truncated ({len(data)} of {FRAME_PRELUDE.size} bytes)"
        )
    length, crc = FRAME_PRELUDE.unpack_from(data)
    check_frame_length(length)
    end = FRAME_PRELUDE.size + length
    payload = data[FRAME_PRELUDE.size : end]
    check_payload(length, crc, payload)
    return (*decode_payload(payload), end)


def read_frame(read_exactly: Callable[[int], bytes]) -> tuple[Msg, dict, bytes]:
    """Read one frame through a blocking ``read_exactly(n)`` callable."""
    prelude = read_exactly(FRAME_PRELUDE.size)
    length, crc = FRAME_PRELUDE.unpack(prelude)
    check_frame_length(length)
    payload = read_exactly(length)
    check_payload(length, crc, payload)
    return decode_payload(payload)


# ----------------------------------------------------------------------
# columnar batch codec
# ----------------------------------------------------------------------
def encode_columns(columns: Iterable[Column]) -> tuple[list[dict], list[bytes]]:
    """Column specs + blob chunks, in the kernel's own representation."""
    specs: list[dict] = []
    chunks: list[bytes] = []
    for column in columns:
        if column.atom is Atom.STR:
            data = json.dumps(
                [str(v) for v in column.values], ensure_ascii=False
            ).encode("utf-8")
            spec = {"atom": "str", "n": len(column), "vlen": len(data)}
        else:
            data = np.ascontiguousarray(column.values).tobytes()
            spec = {
                "atom": column.atom.value,
                "dtype": str(column.values.dtype),
                "n": len(column),
                "vlen": len(data),
            }
        chunks.append(data)
        if column.mask is not None:
            mask_bytes = np.ascontiguousarray(column.mask).tobytes()
            spec["mlen"] = len(mask_bytes)
            chunks.append(mask_bytes)
        else:
            spec["mlen"] = 0
        specs.append(spec)
    return specs, chunks


def decode_columns(specs: list[dict], blob: bytes) -> list[Column]:
    """Rebuild the columns an :func:`encode_columns` peer sent."""
    columns: list[Column] = []
    offset = 0
    for spec in specs:
        try:
            atom = Atom(spec["atom"])
            count = int(spec["n"])
            vlen = int(spec["vlen"])
            mlen = int(spec["mlen"])
        except (KeyError, ValueError, TypeError) as exc:
            raise ProtocolError(f"malformed column spec {spec!r}: {exc}") from None
        if count < 0 or vlen < 0 or mlen < 0 or offset + vlen + mlen > len(blob):
            raise ProtocolError(f"column spec {spec!r} exceeds the blob section")
        data = blob[offset : offset + vlen]
        offset += vlen
        if atom is Atom.STR:
            try:
                items = json.loads(data.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ProtocolError(f"malformed string column: {exc}") from None
            if not isinstance(items, list) or len(items) != count:
                raise ProtocolError("string column length mismatch")
            values = np.empty(count, dtype=object)
            for i, item in enumerate(items):
                values[i] = str(item)
        else:
            dtype = NUMPY_DTYPE[atom]
            if str(dtype) != spec.get("dtype"):
                raise ProtocolError(
                    f"column dtype {spec.get('dtype')!r} does not match "
                    f"atom {atom.value!r}"
                )
            if vlen != count * dtype.itemsize:
                raise ProtocolError("numeric column byte-length mismatch")
            values = np.frombuffer(data, dtype=dtype).copy()
        mask: Optional[np.ndarray] = None
        if mlen:
            if mlen != count:
                raise ProtocolError("NULL mask byte-length mismatch")
            mask = np.frombuffer(
                blob[offset : offset + mlen], dtype=np.bool_
            ).copy()
            offset += mlen
        columns.append(Column(atom, values, mask))
    if offset != len(blob):
        raise ProtocolError(
            f"{len(blob) - offset} trailing bytes after the last column"
        )
    return columns


def encode_batch(columns: Sequence[Column]) -> bytes:
    """One RESULT_BATCH frame carrying a slice of every result column."""
    specs, chunks = encode_columns(columns)
    return encode_frame(Msg.RESULT_BATCH, {"columns": specs}, chunks)


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
