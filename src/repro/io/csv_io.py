"""CSV exchange — the ``COPY INTO`` facility.

Section 1 of the paper notes that library interaction with databases
"is often confined to a simplified data import/export facility"; this
module provides that facility so external tools (R, spreadsheets,
LINPACK-style pipelines) can exchange data with the engine:

* :func:`export_csv` — any query result (or whole table/array) to CSV;
* :func:`import_csv` — bulk-load a CSV into an existing table, or
  create the table first with inferred column types;
* :func:`import_array_csv` — load ``(coordinates..., values...)`` rows
  into an existing array through the coercion path (cells listed in
  the file are overwritten; others keep their current value).

NULLs are represented by empty fields; quoting follows RFC 4180 via the
standard library's csv module.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Any

from repro.errors import DataError, SciQLError
from repro.gdk.atoms import Atom
from repro.gdk.column import Column
from repro.engine import Connection


def _format_value(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def export_csv(
    connection: Connection,
    source: str,
    path: str | Path,
    header: bool = True,
    delimiter: str = ",",
) -> int:
    """Write a query result (or a whole table/array) to a CSV file.

    *source* is either an object name or a full SELECT statement.
    Returns the number of data rows written.
    """
    if not source.lstrip().upper().startswith(("SELECT", "EXPLAIN")):
        source = f"SELECT * FROM {source}"
    result = connection.execute(source)
    if not result.is_query:
        raise SciQLError("export_csv needs a query result")
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        if header:
            writer.writerow(result.names)
        for row in result.rows():
            writer.writerow([_format_value(v) for v in row])
    return result.row_count


def _typed(atom: Atom, fields: list[str]) -> Column:
    """One CSV column as *atom*: an empty field is NULL, every other
    converts by the engine's one rule (text that does not parse raises
    :class:`~repro.errors.DataError`)."""
    return Column.from_pylist(atom, [field or None for field in fields])


_INFERRED = ((Atom.INT, "INT"), (Atom.LNG, "BIGINT"), (Atom.DBL, "DOUBLE"), (Atom.BIT, "BOOLEAN"))


def _infer_column_type(samples: list[str]) -> str:
    """The first of INT, BIGINT, DOUBLE and BOOLEAN that holds every
    non-empty sample by the one rule, else VARCHAR(255)."""
    non_empty = [s for s in samples if s != ""]
    for atom, name in _INFERRED if non_empty else ():
        try:
            if Column.from_pylist(atom, non_empty).mask is None:  # none is NULL
                return name
        except DataError:
            pass
    return "VARCHAR(255)"


def import_csv(
    connection: Connection,
    table: str,
    path: str | Path,
    header: bool = True,
    delimiter: str = ",",
    create: bool = False,
    batch_rows: int = 10_000,
) -> int:
    """Bulk-load a CSV file into a table.

    With ``create=True`` the table is created first: column names come
    from the header (or ``col_0..``), types are inferred from the data.
    Loading bypasses per-row SQL statements: rows are appended through
    the bulk path in batches.  Returns the number of rows loaded.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        rows = list(reader)
    if not rows:
        return 0
    if header:
        names = [n.strip().lower() for n in rows[0]]
        data = rows[1:]
    else:
        names = [f"col_{i}" for i in range(len(rows[0]))]
        data = rows

    if create:
        if table.lower() in connection.catalog:
            raise SciQLError(f"table {table!r} already exists")
        specs = []
        for index, name in enumerate(names):
            samples = [row[index] for row in data[:200] if index < len(row)]
            specs.append(f"{name} {_infer_column_type(samples)}")
        connection.execute(f"CREATE TABLE {table} ({', '.join(specs)})")

    # Stage the whole load as one transaction: concurrent readers see
    # either no rows or all of them, never a half-loaded table.
    loaded = 0
    with connection.staging() as txn:
        target = connection.catalog.get_table(table)
        txn.note_write(table)
        atoms = [target.column_def(name).atom for name in names]
        for start in range(0, len(data), batch_rows):
            batch = data[start : start + batch_rows]
            columns: dict[str, Column] = {}
            for index, (name, atom) in enumerate(zip(names, atoms)):
                items = [row[index] if index < len(row) else "" for row in batch]
                columns[name] = _typed(atom, items)
            loaded += target.append_rows(columns)
    return loaded


def import_array_csv(
    connection: Connection,
    array: str,
    path: str | Path,
    header: bool = True,
    delimiter: str = ",",
) -> int:
    """Load ``(coordinates..., attributes...)`` rows into an array.

    Columns must follow the array's declaration order (dimensions
    first).  Cells named in the file are overwritten (SciQL INSERT
    semantics); all other cells are untouched.  Returns the number of
    cells written.
    """
    target = connection.catalog.get_array(array)
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        rows = list(reader)
    if header:
        rows = rows[1:]
    if not rows:
        return 0
    ndims = len(target.dimensions)
    expected = ndims + len(target.attributes)
    if any(len(row) != expected for row in rows):
        raise SciQLError(
            f"array CSV needs {expected} columns "
            f"({ndims} coordinates + {len(target.attributes)} attributes)"
        )
    coordinates = [_typed(Atom.LNG, [row[i] for row in rows]) for i in range(ndims)]
    with connection.staging() as txn:
        # Resolve the target and its cell oids inside the staged fork:
        # oids depend on the array shape, and a concurrent ALTER
        # committed between lookup and write would silently scatter
        # values into the wrong cells otherwise.
        target = connection.catalog.get_array(array)
        txn.note_write(array)
        oids = target.cell_oids(coordinates)
        valid = oids >= 0
        written = int(valid.sum())
        for offset, attribute in enumerate(target.attributes):
            items = [row[ndims + offset] for row, ok in zip(rows, valid.tolist()) if ok]
            target.replace_values(attribute.name, oids[valid], _typed(attribute.atom, items))
    return written
