"""The SQL/SciQL catalog: named tables and arrays plus persistence.

MonetDB's SQL catalog was "modified for SciQL support" (Figure 2): the
same namespace holds both kinds of objects, so a query can join a table
with an array (the AreasOfInterest demo does exactly that).

Since the engine grew concurrent sessions, a catalog doubles as one
*version* of the database state: committed catalogs are immutable by
convention, transactions work on a :meth:`Catalog.fork` (object-level
copy-on-write sharing the storage BATs), and commit publishes a new
version assembled with :meth:`Catalog.clone` + :meth:`Catalog.set_entry`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator, Optional

from repro.errors import CatalogError, PersistenceError
from repro.gdk.persist import (
    atomic_write_bytes,
    load_bat,
    publish_farm,
    recover_farm,
    save_bat,
)
from repro.catalog.objects import (
    Array,
    ColumnDef,
    DimensionDef,
    Table,
    object_from_schema,
)

SchemaObject = Table | Array

_CATALOG_FILE = "catalog.json"

#: manifest layout revision; bumped with the checksum/version fields.
_FARM_FORMAT = 2


def read_manifest(directory: Path) -> dict:
    """Parse a farm's ``catalog.json``; raises :class:`PersistenceError`."""
    manifest_path = Path(directory) / _CATALOG_FILE
    if not manifest_path.exists():
        raise PersistenceError(f"no catalog manifest in {directory}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as exc:
        raise PersistenceError(
            f"corrupt catalog manifest {manifest_path}: {exc}"
        ) from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("objects"), list):
        raise PersistenceError(f"catalog manifest {manifest_path} lists no objects")
    return manifest


def farm_versions(directory: Path) -> tuple[int, int]:
    """(commit version, schema version) recorded in a farm's manifest.

    Farms written before the versioned manifest report ``(0, 0)``.
    """
    manifest = read_manifest(directory)
    return int(manifest.get("version", 0)), int(manifest.get("schema_version", 0))


class Catalog:
    """A flat namespace of tables and arrays (schema ``sys``)."""

    def __init__(self) -> None:
        self._objects: dict[str, SchemaObject] = {}

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name.lower() in self._objects

    def __iter__(self) -> Iterator[SchemaObject]:
        return iter(self._objects.values())

    def names(self) -> list[str]:
        """All object names, sorted."""
        return sorted(self._objects)

    def get(self, name: str) -> SchemaObject:
        """Look up a table or array by (case-insensitive) name."""
        try:
            return self._objects[name.lower()]
        except KeyError:
            raise CatalogError(f"no such table or array: {name!r}") from None

    def get_table(self, name: str) -> Table:
        """Look up, requiring a table."""
        obj = self.get(name)
        if not isinstance(obj, Table):
            raise CatalogError(f"{name!r} is an array, not a table")
        return obj

    def get_array(self, name: str) -> Array:
        """Look up, requiring an array."""
        obj = self.get(name)
        if not isinstance(obj, Array):
            raise CatalogError(f"{name!r} is a table, not an array")
        return obj

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def create_table(self, name: str, columns: list[ColumnDef]) -> Table:
        """CREATE TABLE."""
        key = name.lower()
        if key in self._objects:
            raise CatalogError(f"name already in use: {name!r}")
        table = Table(key, columns)
        self._objects[key] = table
        return table

    def create_array(
        self,
        name: str,
        dimensions: list[DimensionDef],
        attributes: list[ColumnDef],
    ) -> Array:
        """CREATE ARRAY — materialises all cells immediately (Section 3)."""
        key = name.lower()
        if key in self._objects:
            raise CatalogError(f"name already in use: {name!r}")
        array = Array(key, dimensions, attributes)
        self._objects[key] = array
        return array

    def drop(self, name: str, if_exists: bool = False) -> None:
        """DROP TABLE / DROP ARRAY."""
        key = name.lower()
        if key not in self._objects:
            if if_exists:
                return
            raise CatalogError(f"no such table or array: {name!r}")
        del self._objects[key]

    # ------------------------------------------------------------------
    # versioning (copy-on-write snapshots)
    # ------------------------------------------------------------------
    def clone(self) -> "Catalog":
        """Shallow copy: a new namespace sharing the object descriptors.

        Used when assembling a merged committed version — the objects
        themselves are shared, only the name→object map is private.
        """
        other = Catalog()
        other._objects = dict(self._objects)
        return other

    def fork(self) -> "Catalog":
        """Copy-on-write fork for a transaction.

        Every table/array is structurally cloned (sharing its immutable
        BATs), so all catalog mutation a transaction performs — DDL,
        appends, point updates, re-materialisation — stays private to
        the fork until commit publishes it.
        """
        other = Catalog()
        other._objects = {
            name: obj.clone() for name, obj in self._objects.items()
        }
        return other

    def entry(self, name: str) -> Optional[SchemaObject]:
        """The object stored under (lowercased) *name*, or None."""
        return self._objects.get(name.lower())

    def set_entry(self, name: str, obj: Optional[SchemaObject]) -> None:
        """Install (or, with ``None``, remove) an object during a merge."""
        key = name.lower()
        if obj is None:
            self._objects.pop(key, None)
        else:
            self._objects[key] = obj

    # ------------------------------------------------------------------
    # persistence (the database "farm")
    # ------------------------------------------------------------------
    def save(
        self, directory: Path, version: int = 0, schema_version: int = 0
    ) -> None:
        """Publish the whole database under *directory* atomically.

        The farm is written to a staging sibling and swapped in, so a
        crash mid-save never leaves a half-written farm behind and a
        concurrent :meth:`load` sees either the old or the new version.
        *version*/*schema_version* are the engine's commit counters at
        the time of the snapshot; recovery replays only write-ahead-log
        records younger than the farm's recorded version.
        """

        def write(staging: Path) -> None:
            objects = sorted(self._objects.items())
            for name, obj in objects:
                for column, bat in obj.bats.items():
                    save_bat(bat, staging / name, column)
            manifest = {
                "format": _FARM_FORMAT,
                "version": version,
                "schema_version": schema_version,
                "objects": [{"name": name, **obj.schema_json()} for name, obj in objects],
            }
            atomic_write_bytes(
                staging / _CATALOG_FILE, json.dumps(manifest, indent=1).encode()
            )

        publish_farm(Path(directory), write)

    @classmethod
    def load(cls, directory: Path) -> "Catalog":
        """Read a database previously written by :meth:`save`.

        Adopts a stranded ``<name>.retired`` farm first (a crash
        between the two renames of a publish can leave the retired
        copy as the only farm on disk), so a bare :meth:`load` is as
        crash-tolerant as the engine's recovery path.
        """
        directory = Path(directory)
        recover_farm(directory)
        manifest = read_manifest(directory)
        catalog = cls()
        for entry in manifest["objects"]:
            obj = object_from_schema(
                entry, lambda column: load_bat(directory / entry["name"], column)
            )
            catalog._objects[obj.name] = obj
        return catalog
