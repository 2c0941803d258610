"""CSV exchange — the ``COPY INTO`` facility.

Section 1 of the paper notes that library interaction with databases
"is often confined to a simplified data import/export facility"; this
module provides that facility so external tools (R, spreadsheets,
LINPACK-style pipelines) can exchange data with the engine:

* :func:`export_csv` — any query result (or whole table/array) to CSV;
* :func:`import_csv` — load a CSV into an existing table, or create
  the table first with inferred column types;
* :func:`import_array_csv` — load ``(coordinates..., values...)`` rows
  into an existing array (cells listed in the file are overwritten;
  others keep their current value).

Both loaders are one ``executemany`` of a parameterised INSERT, so a
load is one plan run in one transaction.  NULLs are represented by
empty fields; a record whose field count differs from the header's is
a :class:`~repro.errors.DataError`; quoting follows RFC 4180 via the
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


_INFERRED = ((Atom.INT, "INT"), (Atom.LNG, "BIGINT"), (Atom.DBL, "DOUBLE"), (Atom.BIT, "BOOLEAN"))


def _infer_column_type(samples: list) -> str:
    """The first of INT, BIGINT, DOUBLE and BOOLEAN that holds every
    non-empty sample by the one rule, else VARCHAR(255)."""
    non_empty = [s for s in samples if s]
    for atom, name in _INFERRED if non_empty else ():
        try:
            if Column.from_pylist(atom, non_empty).mask is None:  # none is NULL
                return name
        except DataError:
            pass
    return "VARCHAR(255)"


def _records(path: str | Path, delimiter: str, width: int | None = None) -> list[list]:
    """Every CSV record as a parameter row, an empty field as NULL.

    A record whose field count is not *width* (by default the first
    record's) is a :class:`DataError` naming its 1-based line.
    """
    records = []
    with Path(path).open(newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        for fields in reader:
            width = len(fields) if width is None else width
            if len(fields) != width:
                raise DataError(
                    f"CSV line {reader.line_num} has {len(fields)} fields, expected {width}"
                )
            records.append([field or None for field in fields])
    return records


def import_csv(
    connection: Connection,
    table: str,
    path: str | Path,
    header: bool = True,
    delimiter: str = ",",
    create: bool = False,
) -> int:
    """Load a CSV file into a table.

    With ``create=True`` the table is created first: column names come
    from the header (or ``col_0..``), types are inferred from the data.
    The rows load through one ``executemany`` of ``INSERT INTO table
    (<header columns>) VALUES (?, ...)``: one transaction, governed
    like any statement.  Returns the number of rows loaded.
    """
    data = _records(path, delimiter)
    if not data:
        return 0
    if header:
        names = [(name or "").strip().lower() for name in data.pop(0)]
    else:
        names = [f"col_{i}" for i in range(len(data[0]))]

    if create:
        if table.lower() in connection.catalog:
            raise SciQLError(f"table {table!r} already exists")
        specs = []
        for index, name in enumerate(names):
            samples = [row[index] for row in data[:200]]
            specs.append(f"{name} {_infer_column_type(samples)}")
        connection.execute(f"CREATE TABLE {table} ({', '.join(specs)})")
    target = connection.catalog.get_table(table)
    for name in names:  # the header names columns, so it may become SQL
        target.column_def(name)
    return connection.executemany(
        f"INSERT INTO {table} ({', '.join(names)}) VALUES ({', '.join('?' * len(names))})",
        data,
    ).affected


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
    semantics); all other cells are untouched.  The rows load through
    one ``executemany`` of ``INSERT INTO array VALUES (?, ...)``.
    Returns the number of cells written.
    """
    target = connection.catalog.get_array(array)
    expected = len(target.dimensions) + len(target.attributes)
    data = _records(path, delimiter, expected)
    if header and data:
        data.pop(0)
    return connection.executemany(
        f"INSERT INTO {array} VALUES ({', '.join('?' * expected)})", data
    ).affected
