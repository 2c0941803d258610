"""BAT persistence — the "farm" directory.

MonetDB stores each BAT as memory-mapped files inside a *farm*
directory.  We reproduce the idea with one payload file per column
(plus one for the null mask when present) and a JSON descriptor per
BAT.  The catalog layer composes these into whole-database snapshots
(see :mod:`repro.catalog`); :func:`publish_farm` swaps a freshly
written snapshot in atomically, which is what checkpointing of the
engine's :class:`~repro.engine.database.Database` builds on.

Storage formats (chosen per column at :func:`save_bat` time, recorded
in the descriptor's ``encoding`` entry):

* **plain** — ``<name>.values.npy``, the raw numpy payload;
* **dict** — string tails always persist as ``<name>.codes.npy``
  (int32 codes) plus ``<name>.dict.json`` (the sorted dictionary);
  they load back as :class:`~repro.gdk.dictenc.DictColumn`, so
  selections/joins/grouping run on codes straight off disk;
* **rle** — numeric tails whose (bitwise) run structure compresses
  well persist as ``<name>.rle.npz`` (run values + run lengths),
  decoded eagerly on load.

The descriptor also carries the column's zone map
(:mod:`repro.gdk.zonemap`), computed at save time — publish/checkpoint
is exactly when fragment statistics are refreshed, and loading them
costs no payload I/O.

Lazy loading: ``.npy`` payloads at or above the mmap threshold (see
:func:`repro.gdk.storage.should_mmap`) open as read-only
:class:`numpy.memmap` views instead of eager reads, so a farm open
touches only descriptors and a scan only pages in the fragments it
visits.  CRC verification for memory-mapped payloads is deferred: the
bytes are re-checksummed when the next checkpoint republishes them,
and any eager load still verifies up front.  Masks and dictionaries
are always read (and verified) eagerly — they are small and kernels
touch them wholesale anyway.

Crash-safety contract (tested by the fault-point matrix in
``tests/engine/test_recovery.py``):

* every farm file is written via :func:`atomic_write_bytes` — staged to
  a ``.tmp`` sibling, fsync'd, renamed over the target, directory
  fsync'd — so a crash never leaves a torn descriptor or payload under
  the real name;
* :func:`save_bat` records a CRC32 per payload/mask/dictionary file in
  the descriptor and :func:`load_bat` verifies it, quarantining
  damaged files (``<file>.corrupt``) and raising
  :class:`~repro.errors.CorruptionError` instead of loading garbage; a
  descriptor naming a payload, dictionary or mask file that does not
  exist quarantines the *descriptor* and raises
  :class:`CorruptionError` too — structural damage never surfaces as a
  bare ``FileNotFoundError`` mid-load;
* :func:`publish_farm` never deletes a leftover ``<name>.retired``
  before confirming the main directory exists, and
  :func:`recover_farm` adopts a stranded ``.retired`` copy when a
  crash between the swap's two renames left it as the only farm.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import warnings
import zlib
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro.errors import CorruptionError, PersistenceError, RecoveryWarning
from repro.gdk import dictenc, storage
from repro.gdk.atoms import Atom
from repro.gdk.bat import BAT
from repro.gdk.column import Column
from repro.gdk.dictenc import DictColumn
from repro.gdk.zonemap import ZoneMap
from repro.testing.faultpoints import crash_point

_DESCRIPTOR_SUFFIX = ".bat.json"

#: RLE is worth it when the payload has at least this many rows ...
_RLE_MIN_ROWS = 64
#: ... and at most ``rows // _RLE_MAX_RUN_DIVISOR`` runs.
_RLE_MAX_RUN_DIVISOR = 4


# ----------------------------------------------------------------------
# atomic file primitives
# ----------------------------------------------------------------------
def fsync_directory(directory: Path) -> None:
    """Flush a directory's entry table (persists renames within it)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without dir fsync
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write *data* under *path* so a crash leaves old-or-new, never torn.

    The bytes are staged to a ``.tmp`` sibling, fsync'd, renamed over
    the target (atomic on POSIX), and the parent directory is fsync'd
    so the rename itself survives a power cut.
    """
    path = Path(path)
    staged = path.with_name(path.name + ".tmp")
    with open(staged, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    crash_point("persist.file_staged")
    os.replace(staged, path)
    fsync_directory(path.parent)


def _read_checked(directory: Path, filename: str, checksums: Optional[dict]) -> bytes:
    """Read one farm file, verifying its recorded CRC32 when present.

    A mismatch quarantines the file (renames it to ``<file>.corrupt``)
    and raises :class:`CorruptionError` naming the damaged file and the
    recovery options — silently loading garbage is never an option.
    """
    path = directory / filename
    data = path.read_bytes()
    expected = (checksums or {}).get(filename)
    if expected is not None and zlib.crc32(data) != expected:
        quarantined = path.with_name(path.name + ".corrupt")
        path.rename(quarantined)  # lint: allow-rename (quarantine, not durability)
        raise CorruptionError(
            f"checksum mismatch in {path}: the file is damaged and has "
            f"been quarantined as {quarantined.name}. Recovery options: "
            "restore the farm from a backup, re-run a checkpoint from a "
            "healthy replica, or drop the containing object and reload "
            "its data; replaying the write-ahead log (Database.open) "
            "repairs the farm only when a checkpoint predates the damage."
        )
    return data


# ----------------------------------------------------------------------
# farm-level swap and crash recovery
# ----------------------------------------------------------------------
def recover_farm(directory: Path) -> Optional[str]:
    """Repair the aftermath of a crash around :func:`publish_farm`.

    * main directory missing but ``<name>.retired`` present — the crash
      hit between the swap's two renames; the retired copy is the only
      farm, so it is adopted (renamed back) with a
      :class:`RecoveryWarning`;
    * leftover ``.staging`` — an unfinished write, removed;
    * leftover ``.retired`` next to an existing main directory — a
      completed swap that crashed before cleanup, removed.

    Returns a short description of the action taken, or ``None``.
    """
    directory = Path(directory)
    staging = directory.with_name(directory.name + ".staging")
    retired = directory.with_name(directory.name + ".retired")
    action = None
    if not directory.exists() and retired.exists():
        retired.rename(directory)
        fsync_directory(directory.parent)
        action = "adopted-retired-farm"
        warnings.warn(
            f"farm directory {directory} was missing; adopted the "
            f"stranded {retired.name} copy left by an interrupted "
            "publish (state of the last completed checkpoint)",
            RecoveryWarning,
            stacklevel=2,
        )
    if staging.exists():
        shutil.rmtree(staging)
    if retired.exists() and directory.exists():
        shutil.rmtree(retired)
    return action


def publish_farm(directory: Path, write: Callable[[Path], None]) -> None:
    """Atomically replace *directory* with a farm produced by *write*.

    ``write(staging_dir)`` fills a staging sibling; only after it
    returns successfully is the staging directory swapped in (old farm
    renamed aside, staging renamed into place, old farm removed).  A
    failure while writing leaves the previous farm untouched; a crash
    between the two renames leaves the old farm recoverable under
    ``<name>.retired``, which :func:`recover_farm` (and the next
    publish) adopts — leftovers are only deleted once the main
    directory is confirmed to exist.
    """
    directory = Path(directory)
    staging = directory.with_name(directory.name + ".staging")
    retired = directory.with_name(directory.name + ".retired")
    if not directory.exists() and retired.exists():
        # A previous publish crashed mid-swap: the retired copy is the
        # only farm there is.  Adopt it before clearing anything.
        retired.rename(directory)
    if staging.exists():
        shutil.rmtree(staging)
    if retired.exists():
        # The main directory exists, so the retired copy is a dead
        # pre-swap snapshot from a crash after the swap completed.
        shutil.rmtree(retired)
    staging.mkdir(parents=True)
    try:
        write(staging)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    crash_point("publish.staged")
    if directory.exists():
        directory.rename(retired)
    crash_point("publish.retired")
    staging.rename(directory)
    crash_point("publish.swapped")
    fsync_directory(directory.parent)
    shutil.rmtree(retired, ignore_errors=True)


# ----------------------------------------------------------------------
# single-BAT save/load
# ----------------------------------------------------------------------
def _npy_bytes(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array, allow_pickle=False)
    return buffer.getvalue()


def _rle_runs(values: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """(run values, run lengths) when run-length encoding pays off.

    Run boundaries compare *bit patterns*, not values: float payloads
    are compared through an integer view so ``-0.0`` never merges with
    ``0.0`` and NaNs never merge across payload bits — decoding via
    ``np.repeat`` must reproduce the exact original bytes.
    """
    n = len(values)
    if n < _RLE_MIN_ROWS:
        return None
    comparable = values
    if values.dtype.kind == "f":
        comparable = np.ascontiguousarray(values).view(np.int64)
    changes = np.flatnonzero(comparable[1:] != comparable[:-1])
    nruns = len(changes) + 1
    if nruns > n // _RLE_MAX_RUN_DIVISOR:
        return None
    starts = np.concatenate([[0], changes + 1])
    lengths = np.diff(np.concatenate([starts, [n]]))
    return values[starts], lengths.astype(np.int64)


def save_bat(bat: BAT, directory: Path, name: str) -> None:
    """Write one BAT under *directory* (payload + mask + descriptor).

    Every file lands atomically and the descriptor carries a CRC32 per
    payload file, so :func:`load_bat` can prove integrity.  The
    descriptor — including the zone map and the encoding record — is
    written last: a crash mid-save leaves at worst payload files
    without a descriptor, which :func:`list_bats` ignores.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    tail = bat.tail
    checksums: dict[str, int] = {}
    encoding = None
    if bat.atom is Atom.STR:
        if isinstance(tail, DictColumn):
            dictionary = tail.dictionary
            codes = np.asarray(tail.codes)
        else:
            dictionary, codes = dictenc.encode_values(tail.values)
        dict_file = f"{name}.dict.json"
        dict_data = json.dumps({"strings": dictionary.tolist()}).encode()
        checksums[dict_file] = zlib.crc32(dict_data)
        atomic_write_bytes(directory / dict_file, dict_data)
        crash_point("persist.dict_staged")
        values_file = f"{name}.codes.npy"
        values_data = _npy_bytes(codes)
        encoding = {"kind": "dict", "dict": dict_file}
        zone_source = codes
    else:
        values = tail.values
        runs = _rle_runs(values)
        if runs is not None:
            run_values, run_lengths = runs
            buffer = io.BytesIO()
            np.savez(buffer, values=run_values, lengths=run_lengths)
            values_file = f"{name}.rle.npz"
            values_data = buffer.getvalue()
            encoding = {"kind": "rle"}
        else:
            values_file = f"{name}.values.npy"
            values_data = _npy_bytes(values)
        zone_source = values
    checksums[values_file] = zlib.crc32(values_data)
    atomic_write_bytes(directory / values_file, values_data)
    mask_file = None
    if tail.mask is not None:
        mask_file = f"{name}.mask.npy"
        mask_data = _npy_bytes(tail.mask)
        checksums[mask_file] = zlib.crc32(mask_data)
        atomic_write_bytes(directory / mask_file, mask_data)
    zones = ZoneMap.build(zone_source, tail.mask)
    crash_point("persist.zones_computed")
    descriptor = {
        "atom": bat.atom.value,
        "hseqbase": bat.hseqbase,
        "count": len(bat),
        "values": values_file,
        "mask": mask_file,
        "checksums": checksums,
    }
    if encoding is not None:
        descriptor["encoding"] = encoding
    if zones is not None:
        descriptor["zones"] = zones.to_json()
    atomic_write_bytes(
        directory / f"{name}{_DESCRIPTOR_SUFFIX}",
        json.dumps(descriptor, indent=1).encode(),
    )


def _quarantine_descriptor(
    descriptor_path: Path, name: str, reason: str
) -> CorruptionError:
    """Quarantine a structurally-broken descriptor; build the error."""
    quarantined = descriptor_path.with_name(descriptor_path.name + ".corrupt")
    descriptor_path.rename(quarantined)  # lint: allow-rename (quarantine, not durability)
    return CorruptionError(
        f"cannot load BAT {name}: {reason}; the descriptor has been "
        f"quarantined as {quarantined.name}. Recovery options: restore "
        "the farm from a backup, re-run a checkpoint from a healthy "
        "replica, or drop the containing object and reload its data."
    )


def _load_array(directory: Path, filename: str, checksums: Optional[dict]) -> np.ndarray:
    """One ``.npy`` payload: eager + CRC-verified, or a lazy memmap view.

    The memmap path defers CRC verification (re-checked when the next
    checkpoint republishes the file); kernels touching the view report
    faulted bytes via :func:`repro.gdk.storage.note_scan`.
    """
    path = directory / filename
    if storage.should_mmap(path.stat().st_size):
        return np.load(path, mmap_mode="r", allow_pickle=False)
    data = _read_checked(directory, filename, checksums)
    return np.load(io.BytesIO(data), allow_pickle=False)


def load_bat(directory: Path, name: str) -> BAT:
    """Read a BAT previously written by :func:`save_bat`.

    Payload, mask and dictionary files are checksum-verified against
    the descriptor (descriptors from older farms without checksums
    still load; memory-mapped payloads defer verification as described
    in the module docstring).  Corrupt files are quarantined and raise
    :class:`CorruptionError`, as does a descriptor listing files that
    are missing on disk; other structural damage (unparseable
    descriptor, count mismatches) raises :class:`PersistenceError`
    naming the BAT.
    """
    directory = Path(directory)
    descriptor_path = directory / f"{name}{_DESCRIPTOR_SUFFIX}"
    if not descriptor_path.exists():
        raise PersistenceError(f"no BAT descriptor {descriptor_path}")
    try:
        descriptor = json.loads(descriptor_path.read_text())
        atom = Atom(descriptor["atom"])
        checksums = descriptor.get("checksums")
        values_name = descriptor["values"]
        encoding = descriptor.get("encoding") or {}
        kind = encoding.get("kind")

        listed = [values_name]
        if kind == "dict":
            listed.append(encoding["dict"])
        if descriptor.get("mask"):
            listed.append(descriptor["mask"])
        for filename in listed:
            if not (directory / filename).exists():
                raise _quarantine_descriptor(
                    descriptor_path,
                    name,
                    f"descriptor lists {filename}, which is missing on disk",
                )

        mask = None
        if descriptor.get("mask"):
            mask_data = _read_checked(directory, descriptor["mask"], checksums)
            mask = np.load(io.BytesIO(mask_data), allow_pickle=False)

        if kind == "dict":
            dict_data = _read_checked(directory, encoding["dict"], checksums)
            dictionary = np.array(
                json.loads(dict_data.decode())["strings"], dtype=object
            )
            codes = _load_array(directory, values_name, checksums)
            column: Column = DictColumn(Atom.STR, codes, dictionary, mask)
        elif kind == "rle":
            values_data = _read_checked(directory, values_name, checksums)
            with np.load(io.BytesIO(values_data), allow_pickle=False) as npz:
                values = np.repeat(npz["values"], npz["lengths"])
            column = Column(atom, values, mask)
        else:
            values = _load_array(directory, values_name, checksums)
            column = Column(atom, values, mask)
        if len(column) != descriptor["count"]:
            raise PersistenceError(f"BAT {name}: count mismatch on load")
        bat = BAT(column, descriptor["hseqbase"])
        if descriptor.get("zones"):
            bat._zones = ZoneMap.from_json(descriptor["zones"])
        return bat
    except CorruptionError:
        raise
    except (OSError, ValueError, KeyError) as exc:
        raise PersistenceError(f"cannot load BAT {name}: {exc}") from exc


def list_bats(directory: Path) -> list[str]:
    """Names of all BATs stored under *directory*."""
    directory = Path(directory)
    if not directory.exists():
        return []
    names = []
    for path in sorted(directory.glob(f"*{_DESCRIPTOR_SUFFIX}")):
        names.append(path.name[: -len(_DESCRIPTOR_SUFFIX)])
    return names


def delete_bat(directory: Path, name: str) -> None:
    """Remove a BAT's files; missing files are ignored."""
    directory = Path(directory)
    for suffix in (f"{name}{_DESCRIPTOR_SUFFIX}", f"{name}.values.npy",
                   f"{name}.mask.npy", f"{name}.codes.npy",
                   f"{name}.dict.json", f"{name}.rle.npz"):
        path = directory / suffix
        if path.exists():
            path.unlink()
