"""The one serial form of framed records and of column bytes.

The write-ahead log (``engine/wal.py``) and the wire protocol
(``net/protocol.py``) are both callers; README "Formats" tabulates the
layout.

* A **record** is ``[u32 length][u32 crc32(payload)][payload]`` with
  ``payload = [tag][u32 header length][header JSON][blob section]``
  (the WAL's tag is empty, the wire's a one-byte message type).
* A **blob** is a :class:`Column` or ndarray as machine bytes in the
  blob section, described by a *spec* in the header: ``{"t": "col",
  "atom", "dtype", "n", "vlen", "mlen"}`` for numeric columns, ``{"t":
  "str", "n", "vlen", "mlen"}`` for string columns (a JSON array) and
  ``{"t": "arr", "dtype", "vlen"}`` for ndarrays; ``vlen``/``mlen`` are
  the byte lengths of the value and NULL-mask chunks, back to back in
  spec order.

Decoders raise what their caller passes as ``error`` — called with a
message, it returns the exception — so a torn log tail, a corrupt frame
and a malformed spec surface as the typed error of the layer that read
them, never as a ``KeyError``.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Callable, Iterable

import numpy as np

from repro.gdk.atoms import NUMPY_DTYPE, Atom
from repro.gdk.column import Column

#: ``[u32 payload length][u32 crc32(payload)]``.
PRELUDE = struct.Struct("<II")
_U32 = struct.Struct("<I")

Error = Callable[[str], Exception]


# ----------------------------------------------------------------------
# records
# ----------------------------------------------------------------------
def record_chunks(header: dict, chunks: Iterable = (), tag: bytes = b"") -> list:
    """One record as buffers: ``[prelude, tag + JSON header, *chunks]``.

    The blob chunks stay the caller's own memory, as byte views (an
    ndarray is made contiguous first, which copies only a strided one);
    the CRC runs over them one at a time, so writing the list back to
    back puts exactly :func:`pack_record`'s bytes on the wire.
    """
    header_bytes = json.dumps(header).encode("ascii")
    head = b"".join((tag, _U32.pack(len(header_bytes)), header_bytes))
    views = [memoryview(np.ascontiguousarray(c) if isinstance(c, np.ndarray) else c).cast("B")
             for c in chunks]
    crc, length = zlib.crc32(head), len(head)
    for view in views:
        crc = zlib.crc32(view, crc)
        length += len(view)
    return [PRELUDE.pack(length, crc), head, *views]


def pack_record(header: dict, chunks: Iterable = (), tag: bytes = b"") -> bytes:
    """One complete record: prelude + tag + JSON header + blob chunks."""
    return b"".join(record_chunks(header, chunks, tag))


def unpack_prelude(data: bytes, offset: int, error: Error, max_bytes=None) -> tuple[int, int]:
    """``(payload length, crc)`` of the prelude at *offset* of *data*."""
    if offset + PRELUDE.size > len(data):
        raise error(f"record prelude truncated ({len(data) - offset} of {PRELUDE.size} bytes)")
    length, crc = PRELUDE.unpack_from(data, offset)
    if max_bytes is not None and length > max_bytes:
        raise error(f"record of {length} bytes exceeds the {max_bytes}-byte bound")
    return length, crc


def verified(length: int, crc: int, payload: bytes, error: Error) -> bytes:
    """*payload* (bytes or a byte view), once it matches the prelude that
    announced it."""
    if len(payload) != length:
        raise error(f"record truncated: announced {length} bytes, got {len(payload)}")
    if zlib.crc32(payload) != crc:
        raise error("record checksum mismatch")
    return payload


def unpack_record(data: bytes, offset: int, error: Error, max_bytes=None) -> tuple[bytes, int]:
    """The verified payload of the record at *offset*, and where it ends."""
    length, crc = unpack_prelude(data, offset, error, max_bytes)
    start = offset + PRELUDE.size
    return verified(length, crc, data[start : start + length], error), start + length


def split_payload(payload: bytes, error: Error, tag_size: int = 0) -> tuple[bytes, dict, bytes]:
    """A verified payload as ``(tag, header, blob section)``; slices of a
    byte view stay views."""
    body = tag_size + _U32.size
    if len(payload) < body:
        raise error(f"record payload truncated ({len(payload)} bytes)")
    (header_length,) = _U32.unpack_from(payload, tag_size)
    if body + header_length > len(payload):
        raise error("record header exceeds payload")
    try:
        header = json.loads(str(payload[body : body + header_length], "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"malformed record header: {exc}") from None
    if not isinstance(header, dict):
        raise error("record header must be a JSON object")
    return payload[:tag_size], header, payload[body + header_length :]


# ----------------------------------------------------------------------
# blobs
# ----------------------------------------------------------------------
def encode_blobs(values: Iterable[Column | np.ndarray]) -> tuple[list[dict], list]:
    """Specs + blob-section chunks of columns and ndarrays, in order.

    Numeric chunks are the kernel's own (contiguous) buffers, not
    copies; a column's payload is never written in place, so a record
    may hold them until it is written.
    """
    specs: list[dict] = []
    chunks: list = []
    for value in values:
        spec, parts = _encode_blob(value)
        specs.append(spec)
        chunks.extend(parts)
    return specs, chunks


def _encode_blob(value: Column | np.ndarray) -> tuple[dict, list]:
    if isinstance(value, np.ndarray):
        values = np.ascontiguousarray(value)
        return {"t": "arr", "dtype": str(values.dtype), "vlen": values.nbytes}, [values]
    if value.atom is Atom.STR:
        data = json.dumps(value.values.tolist(), ensure_ascii=False).encode("utf-8")
        spec = {"t": "str", "n": len(value), "vlen": len(data)}
    else:
        data = np.ascontiguousarray(value.values)
        spec = {"t": "col", "atom": value.atom.value, "dtype": str(data.dtype)}
        spec.update(n=len(value), vlen=data.nbytes)
    if value.mask is None:
        return {**spec, "mlen": 0}, [data]
    mask = np.ascontiguousarray(value.mask)
    return {**spec, "mlen": mask.nbytes}, [data, mask]


def _string_values(data: bytes, count: int, error: Error) -> np.ndarray:
    try:
        items = json.loads(str(data, "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"malformed string column: {exc}") from None
    if not isinstance(items, list) or len(items) != count:
        raise error("string column length mismatch")
    if not all(isinstance(item, str) for item in items):
        items = [str(item) for item in items]
    values = np.empty(count, dtype=object)
    values[:] = items
    return values


def decode_blobs(specs: list, blob: bytes, error: Error) -> list:
    """The columns / ndarrays a list of :func:`encode_blobs` specs describes.

    Checks every length against the blob section before touching it
    and rejects bytes left over after the last spec.
    """
    if not isinstance(specs, list):
        raise error("blob specs must be a list")
    values: list = []
    offset = 0
    for spec in specs:
        try:
            kind = spec["t"]
            vlen = int(spec["vlen"])
            mlen = int(spec.get("mlen", 0))
            if kind == "arr":
                atom, dtype = None, np.dtype(spec["dtype"])
                count = vlen // max(dtype.itemsize, 1)
            elif kind == "str" or (kind == "col" and spec["atom"] != "str"):
                atom = Atom.STR if kind == "str" else Atom(spec["atom"])
                dtype, count = NUMPY_DTYPE[atom], int(spec["n"])
            else:
                raise ValueError(f"unknown blob kind {kind!r}")
        except (KeyError, ValueError, TypeError) as exc:
            raise error(f"malformed blob spec {spec!r}: {exc}") from None
        if min(count, vlen, mlen) < 0 or offset + vlen + mlen > len(blob):
            raise error(f"blob spec {spec!r} exceeds the blob section")
        if kind == "str":
            data = _string_values(blob[offset : offset + vlen], count, error)
        else:
            if kind == "col" and str(dtype) != spec.get("dtype"):
                raise error(f"column dtype {spec.get('dtype')!r} is not atom {atom.value!r}'s")
            if dtype.hasobject or vlen != count * dtype.itemsize:
                raise error(f"blob spec {spec!r}: byte length does not fit its dtype")
            data = np.frombuffer(blob, dtype, count, offset).copy()
        offset += vlen
        if atom is None:
            values.append(data)
            continue
        mask = None
        if mlen:
            if mlen != count:
                raise error("NULL mask byte-length mismatch")
            mask = np.frombuffer(blob, np.bool_, mlen, offset).copy()
            offset += mlen
        values.append(Column(atom, data, mask))
    if offset != len(blob):
        raise error(f"{len(blob) - offset} trailing bytes after the last blob")
    return values
