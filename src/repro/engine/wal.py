"""The write-ahead log: O(delta) durable commits.

MonetDB's SQL layer persists committed deltas through a write-ahead
log and folds them into the BAT farm at checkpoints.  This module is
the WAL half:

* :func:`extract_changes` turns a committed transaction into *logical*
  change records — object creations/drops (full snapshots) and
  per-object mutation journals (the ``(method, payload)`` inputs
  :class:`~repro.catalog.objects._DeltaJournal` collected, not the
  resulting BATs);
* :class:`WriteAheadLog` appends one record per commit and fsyncs it
  *before* the commit is acknowledged;
* :func:`load_records` reads a WAL back, truncating a torn final
  record (a crash mid-append) with a :class:`RecoveryWarning`;
* :func:`apply_record` replays one record through the normal catalog
  mutation code, so recovery is byte-identical (the crash matrix holds
  it to :func:`repro.testing.verify.catalog_digest`).

Record framing and column bytes are :mod:`repro.gdk.codec`'s (README,
"Formats"); the JSON header holds the change structure with
``{"__col__": i}``-style references into the record's blob list.
"""

from __future__ import annotations

import os
import warnings
from pathlib import Path

import numpy as np

from repro.errors import PersistenceError, RecoveryWarning
from repro.catalog import Catalog
from repro.catalog.objects import object_from_schema
from repro.gdk import codec
from repro.gdk.bat import BAT
from repro.gdk.column import Column
from repro.testing.faultpoints import crash_point

#: identifies a WAL file; written once at creation/reset.
_MAGIC = b"SCIQLWAL"


def wal_path_for(directory: Path) -> Path:
    """The WAL file that belongs to farm *directory* (a sibling file).

    The WAL lives *next to* the farm, not inside it: checkpoints swap
    the farm directory wholesale via ``publish_farm`` and must never
    take the log with them.
    """
    directory = Path(directory)
    return directory.with_name(directory.name + ".wal")


# ----------------------------------------------------------------------
# value codec: catalog payloads <-> JSON header + blob list
# ----------------------------------------------------------------------
#: header reference key -> what the referenced blob must decode to.
_REFS = {"__col__": Column, "__bat__": Column, "__arr__": np.ndarray}


def _encode_value(value, blobs: list):
    """JSON form of *value*; columns and ndarrays move to *blobs*."""
    if isinstance(value, BAT):
        blobs.append(value.tail)
        return {"__bat__": len(blobs) - 1, "hseq": value.hseqbase}
    if isinstance(value, (Column, np.ndarray)):
        blobs.append(value)
        return {"__col__" if isinstance(value, Column) else "__arr__": len(blobs) - 1}
    if isinstance(value, dict):
        return {key: _encode_value(item, blobs) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_value(item, blobs) for item in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def _decode_value(value, blobs: list):
    if isinstance(value, dict):
        for key, kind in _REFS.items():
            ref = value.get(key)
            if isinstance(ref, int):
                blob = blobs[ref]
                if not isinstance(blob, kind):
                    raise TypeError(f"{key} {ref} refers to a {type(blob).__name__}")
                return BAT(blob, value.get("hseq", 0)) if key == "__bat__" else blob
        return {key: _decode_value(item, blobs) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode_value(item, blobs) for item in value]
    return value


# ----------------------------------------------------------------------
# change extraction (commit time)
# ----------------------------------------------------------------------
def _snapshot_change(op: str, name: str, obj) -> dict:
    """A full-state change record: schema definition plus every BAT."""
    return {"op": op, "name": name, **obj.schema_json(), "bats": dict(obj.bats)}


def extract_changes(txn) -> list[dict]:
    """The logical deltas of a committed transaction, one dict per object.

    Objects whose mutation journal provably covers every BAT rebinding
    (it was armed by the fork's ``clone()`` of exactly the base-version
    object, and no code rebound ``obj.bats`` behind the journal's back)
    yield O(delta) ``mutate`` records holding the journaled method
    inputs.  Created objects — and any object mutated outside the
    journaled methods, e.g. via the ``connection.catalog`` escape
    hatch — fall back to a full snapshot record.
    """
    base = txn.base.catalog
    changes: list[dict] = []
    for name in sorted(txn.writes):
        before = base.entry(name)
        after = txn.catalog.entry(name)
        if after is None:
            if before is not None:
                changes.append({"op": "drop", "name": name})
            continue
        if after is before:
            continue  # tracked but never actually changed
        if before is None:
            changes.append(_snapshot_change("create", name, after))
            continue
        if (
            after.journal is not None
            and after._journal_base is before
            and after.journal_faithful()
        ):
            if not after.journal:
                continue  # armed clone, no mutations: nothing to log
            ops = [{"method": method, "payload": payload} for method, payload in after.journal]
            changes.append({"op": "mutate", "name": name, "ops": ops})
        else:
            changes.append(_snapshot_change("replace", name, after))
    return changes


# ----------------------------------------------------------------------
# record encode/decode
# ----------------------------------------------------------------------
def encode_record(version: int, schema_version: int, changes: list[dict]) -> bytes:
    """One framed commit record, ready to append to the log."""
    blobs: list = []
    header = {
        "version": version,
        "schema_version": schema_version,
        "changes": _encode_value(changes, blobs),
    }
    header["blobs"], chunks = codec.encode_blobs(blobs)
    return codec.pack_record(header, chunks)


def decode_record(payload: bytes) -> dict:
    """The in-memory form of one record: version counters + changes.

    Anything wrong inside a checksum-valid payload is a
    :class:`PersistenceError` naming the record's commit version.
    """
    _, header, blob = codec.split_payload(payload, PersistenceError)
    version = header.get("version")

    def malformed(message: str) -> PersistenceError:
        return PersistenceError(f"WAL record v{version} is malformed: {message}")

    try:
        blobs = codec.decode_blobs(header["blobs"], blob, malformed)
        return {
            "version": int(version),
            "schema_version": int(header["schema_version"]),
            "changes": _decode_value(header["changes"], blobs),
        }
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise malformed(repr(exc)) from None


class _Torn(Exception):
    """A record the framing rejects: the signature of a crash mid-append."""


def load_records(path: Path, repair: bool = True) -> list[dict]:
    """All complete records of a WAL file, oldest first.

    A torn tail — fewer bytes than the frame announces, or a checksum
    mismatch, both the signature of a crash mid-append — is truncated
    away (when *repair* is set) with a :class:`RecoveryWarning`: the
    torn record was never acknowledged to any client, so dropping it
    loses nothing a caller was promised.
    """
    path = Path(path)
    data = path.read_bytes()
    if not data.startswith(_MAGIC):
        raise PersistenceError(f"{path} is not a write-ahead log")
    records = []
    valid_end = len(_MAGIC)
    torn = None
    while valid_end < len(data):
        try:
            payload, end = codec.unpack_record(data, valid_end, _Torn)
        except _Torn as exc:
            torn = str(exc)
            break
        records.append(decode_record(payload))
        valid_end = end
    if torn is not None:
        warnings.warn(
            f"write-ahead log {path} ends in a torn record ({torn}, "
            f"{len(data) - valid_end} trailing bytes after "
            f"{len(records)} complete records): an in-flight commit "
            "was interrupted before it was acknowledged; the torn "
            "tail is discarded",
            RecoveryWarning,
            stacklevel=2,
        )
        if repair:
            with open(path, "r+b") as handle:
                handle.truncate(valid_end)
                handle.flush()
                os.fsync(handle.fileno())
    return records


# ----------------------------------------------------------------------
# replay (recovery time)
# ----------------------------------------------------------------------
#: the journaled catalog methods; a journal payload lists a method's
#: arguments by position (see ``_DeltaJournal._journal_op`` call sites).
_JOURNALED = frozenset(
    {"append_rows", "replace_values", "delete_rows", "delete_cells", "clear", "alter_dimension"}
)


def _replay_mutations(obj, ops: list[dict]) -> None:
    """Re-run journaled mutations through the normal catalog methods."""
    for entry in ops:
        if entry["method"] not in _JOURNALED:
            raise PersistenceError(f"WAL replay: unknown mutation {entry['method']!r}")
        getattr(obj, entry["method"])(*entry["payload"].values())


def apply_record(catalog: Catalog, record: dict) -> None:
    """Apply one decoded commit record to *catalog* in place."""
    try:
        for change in record["changes"]:
            _apply_change(catalog, change)
    except (KeyError, TypeError, AttributeError) as exc:
        raise PersistenceError(
            f"WAL replay: record v{record.get('version')} is malformed: {exc!r}"
        ) from None


def _apply_change(catalog: Catalog, change: dict) -> None:
    op = change["op"]
    name = change["name"]
    if op == "drop":
        catalog.set_entry(name, None)
    elif op in ("create", "replace"):
        catalog.set_entry(name, object_from_schema(change, change["bats"].__getitem__))
    elif op == "mutate":
        obj = catalog.entry(name)
        if obj is None:
            raise PersistenceError(f"WAL replay: mutation of unknown object {name!r}")
        _replay_mutations(obj, change["ops"])
    else:
        raise PersistenceError(f"WAL replay: unknown change op {op!r}")


# ----------------------------------------------------------------------
# the log itself
# ----------------------------------------------------------------------
class WriteAheadLog:
    """Append-only commit log with fsync'd, checksummed records.

    ``append_commit`` is called inside the engine's writer lock before
    a commit is acknowledged; once it returns, the record is on stable
    storage and recovery will replay it.  ``reset`` (after a
    checkpoint folded the log into the farm) atomically replaces the
    file with an empty one.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self._file = None
        self.record_count = 0

    def open(self) -> None:
        """Open for appending, creating an empty log when missing."""
        if not self.path.exists():
            self._write_empty()
        self._file = open(self.path, "ab")

    def _write_empty(self) -> None:
        staged = self.path.with_name(self.path.name + ".tmp")
        with open(staged, "wb") as handle:
            handle.write(_MAGIC)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(staged, self.path)

    @property
    def size(self) -> int:
        """Current log size in bytes."""
        if self._file is not None:
            return self._file.tell()
        return self.path.stat().st_size if self.path.exists() else 0

    def append_commit(
        self, version: int, schema_version: int, changes: list[dict]
    ) -> None:
        """Durably append one commit record (returns only after fsync)."""
        if self._file is None:
            self.open()
        crash_point("wal.before_append")
        self._file.write(encode_record(version, schema_version, changes))
        self._file.flush()
        crash_point("wal.record_written")
        os.fsync(self._file.fileno())
        crash_point("wal.synced")
        self.record_count += 1

    def reset(self) -> None:
        """Truncate the log to empty (atomically) and keep appending."""
        self.close()
        self._write_empty()
        self.record_count = 0
        self.open()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
