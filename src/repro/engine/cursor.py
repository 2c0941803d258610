"""The DB-API 2.0 layer, written once for every kind of session.

An in-process :class:`~repro.engine.connection.Connection` and a
``repro://`` :class:`~repro.net.client.RemoteConnection` differ only in
transport; everything PEP 249 prescribes lives here:

* :class:`Session` — the exception attributes, ``closed``, ``cursor()``
  and context-manager lifecycle both connection classes inherit;
* :class:`Cursor` — ``description`` / ``rowcount`` / ``fetchone`` /
  ``fetchmany`` / ``fetchall`` / iteration over a *result stream*: a
  header (kind, names, meta, row count, affected rows) followed by
  columnar batches.  The in-process cursor installs the engine's
  :class:`~repro.engine.result.Result` as a single batch; the remote
  cursor overrides :meth:`Cursor._pull` to read batches off the socket;
* :class:`Statement` — the ``sql`` / ``parameters`` / ``close()`` shell
  of a prepared statement;
* :func:`scalar_parameter` — the one rule for what a bind value may be.

Beyond PEP 249, :meth:`Cursor.fetchnumpy` delivers the remaining rows
as columnar NumPy arrays without materialising Python tuples.
"""

from __future__ import annotations

import sys
from typing import Any, Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from repro import errors
from repro.errors import DataError, InterfaceError, ProgrammingError
from repro.engine.result import Result
from repro.gdk.atoms import INTEGER_RANGE, Atom
from repro.gdk.column import Column

Params = Union[Sequence[Any], Mapping[str, Any], None]

_SCALARS = frozenset((type(None), bool, int, float, str))
_LNG_LOWEST, _LNG_HIGHEST = INTEGER_RANGE[Atom.LNG]


def scalar_parameter(value: Any) -> Any:
    """One bind value as the engine (and the wire) carries it.

    ``None``, ``bool``, ``int``, ``float`` and ``str`` pass through,
    NumPy scalars unwrap to their Python value; anything else is a
    :class:`ProgrammingError` — in process and over ``repro://`` alike.
    An int outside ``lng`` is a :class:`DataError`: no integer atom
    holds it, and the double a literal of it types as is not the value.
    """
    if type(value) not in _SCALARS:
        if isinstance(value, np.generic):
            value = value.item()
        if not isinstance(value, (bool, int, float, str)):
            raise ProgrammingError(
                f"cannot bind a parameter of type {type(value).__name__!r} "
                "(int, float, str, bool or None)"
            )
    if isinstance(value, int) and not _LNG_LOWEST <= value <= _LNG_HIGHEST:
        raise DataError(f"cannot bind {value}: outside the range of lng")
    return value


def scalar_column(values: list) -> list:
    """:func:`scalar_parameter` of every value in *values*.

    A column of plain scalars, its ints inside ``lng``, is returned as
    it is: the check runs in C loops instead of a call per value.
    """
    kinds = set(map(type, values))
    if kinds <= _SCALARS:
        if int not in kinds:
            return values
        ints = values if kinds == {int} else [v for v in values if type(v) is int]
        if _LNG_LOWEST <= min(ints) and max(ints) <= _LNG_HIGHEST:
            return values
    return [scalar_parameter(value) for value in values]


def _concat_columns(batches: list[list[Column]]) -> list[Column]:
    """Concatenate per-batch column slices into whole result columns."""
    if len(batches) <= 1:
        return batches[0] if batches else []
    out: list[Column] = []
    for index, first in enumerate(batches[0]):
        parts = [batch[index] for batch in batches]
        values = np.concatenate([part.values for part in parts])
        if any(part.mask is not None for part in parts):
            mask = np.concatenate([part.effective_mask() for part in parts])
        else:
            mask = None
        out.append(Column(first.atom, values, mask))
    return out


class _Closable:
    """The closed-check and ``with`` protocol every DB-API object shares."""

    _closed = False
    _what = "object"

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError(f"{self._what} is closed")

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class Cursor(_Closable):
    """A DB-API 2.0 cursor consuming one result stream at a time.

    Two differences between transports remain, on purpose:
    :meth:`execute` returns the engine :class:`Result` in process and
    the cursor itself over ``repro://`` (a Result there would force the
    whole stream into memory); everything else — including
    :attr:`result` after a partial fetch — behaves the same.
    """

    _what = "cursor"

    def __init__(self, connection):
        self.connection = connection
        #: default number of rows fetchmany() returns.
        self.arraysize = 1
        self._begin(None)

    def _begin(self, header: Optional[Result], row_count: int = -1) -> None:
        """Start consuming a stream (``None``: no statement yet).

        *header* carries kind / names / meta / affected (its columns do
        not matter); *row_count* is the length the stream announced.
        """
        self._header = header
        self._row_count = row_count
        #: column batches pulled off the stream but not yet consumed.
        self._batches: list[list[Column]] = []
        #: rows of the first buffered batch already handed out ...
        self._offset = 0
        #: ... and that batch as Python tuples, built on first use.
        self._rows: Optional[list[tuple]] = None
        #: the unconsumed remainder as one Result, while that is known.
        self._result: Optional[Result] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the cursor; further operations raise InterfaceError."""
        self._closed = True
        self._begin(None)

    def _check_open(self) -> None:
        super()._check_open()
        self.connection._check_open()

    @property
    def closed(self) -> bool:
        return self._closed or self.connection.closed

    # ------------------------------------------------------------------
    # execution (the in-process transport: one Result, one batch)
    # ------------------------------------------------------------------
    def execute(self, sql: str, params: Params = None):
        """Execute one statement, optionally binding parameters.

        Returns the engine :class:`Result` (a DB-API extension; the
        cursor itself is primed for ``fetch*`` either way).
        """
        self._check_open()
        return self._install(self.connection.execute(sql, params))

    def executemany(self, sql: str, seq_of_params: Iterable[Params]):
        """Execute the statement once per parameter set.

        A one-row parameterised ``INSERT ... VALUES`` runs its plan once,
        with each ``?`` bound to the column of its values, instead of
        once per row.  ``rowcount`` totals the affected rows.
        """
        self._check_open()
        return self._install(self.connection.executemany(sql, seq_of_params))

    def _install(self, result: Result) -> Result:
        self._begin(result, result.row_count)
        if result.is_query:
            self._batches = [result.columns]
        self._result = result
        return result

    def _pull(self) -> Optional[list[Column]]:
        """The next column batch of the stream, or None at its end."""
        return None

    # ------------------------------------------------------------------
    # PEP 249 attributes
    # ------------------------------------------------------------------
    @property
    def description(self) -> Optional[list[tuple]]:
        """PEP 249 column descriptions: 7-tuples, one per result column.

        ``(name, type_code, display_size, internal_size, precision,
        scale, null_ok)`` — the type code is the atom name (``"int"``,
        ``"dbl"``, ...) or None when the column is untyped (bare NULL).
        None for DDL/DML statements and before the first execute.
        """
        self._check_open()
        header = self._header
        if header is None or not header.is_query:
            return None
        atoms = list(header.meta.get("atoms") or [])
        atoms += [None] * (len(header.names) - len(atoms))
        return [
            (name, atom, None, None, None, None, True)
            for name, atom in zip(header.names, atoms)
        ]

    @property
    def rowcount(self) -> int:
        """Rows in the result set (queries) or affected rows (DML)."""
        self._check_open()
        header = self._header
        if header is None:
            return -1
        return self._row_count if header.is_query else header.affected

    def setinputsizes(self, sizes) -> None:
        """PEP 249 no-op (sizes are never predeclared here)."""
        self._check_open()

    def setoutputsize(self, size, column=None) -> None:
        """PEP 249 no-op (results arrive as whole columns already)."""
        self._check_open()

    # ------------------------------------------------------------------
    # the stream buffer
    # ------------------------------------------------------------------
    def _require_result(self) -> None:
        self._check_open()
        if self._header is None or not self._header.is_query:
            raise ProgrammingError(
                "no result set to fetch from; execute a query first"
            )

    def _buffer_remaining(self) -> None:
        """Pull every outstanding batch into the client-side buffer."""
        self._batches.extend(iter(self._pull, None))

    def _take(self, size: int) -> list[tuple]:
        """Up to *size* next rows as tuples, pulling batches on demand.

        The last exhausted batch stays buffered until a successor
        arrives, so an empty remainder still knows its column types.
        """
        self._require_result()
        out: list[tuple] = []
        batches = self._batches
        while len(out) < size:
            if batches and batches[0] and self._offset < len(batches[0][0]):
                if self._rows is None:
                    lists = [column.to_pylist() for column in batches[0]]
                    self._rows = list(zip(*lists))
                rows = self._rows[self._offset : self._offset + size - len(out)]
                self._offset += len(rows)
                self._result = None
                out.extend(rows)
                continue
            if len(batches) < 2:
                batch = self._pull()
                if batch is None:
                    break
                batches.append(batch)
                if len(batches) == 1:
                    continue
            batches.pop(0)
            self._offset = 0
            self._rows = None
        return out

    def _materialise(self) -> Result:
        """The unconsumed remainder of the stream as one Result.

        Drains the stream and concatenates the batches once; the rows
        stay fetchable (as the single buffered batch).
        """
        if self._result is None:
            self._buffer_remaining()
            batches = self._batches
            if batches and self._offset:
                batches[0] = [
                    column.slice(self._offset, len(column))
                    for column in batches[0]
                ]
                self._offset = 0
                self._rows = None
            columns = _concat_columns(batches)
            self._batches = [columns] if columns else []
            header = self._header
            self._result = Result(
                header.kind, header.names, columns, header.meta, header.affected
            )
        return self._result

    # ------------------------------------------------------------------
    # fetching
    # ------------------------------------------------------------------
    @property
    def result(self) -> Optional[Result]:
        """The rows not fetched yet as a Result (DB-API extension).

        Right after ``execute`` that is the whole result — in process
        the very object ``execute`` returned; after a partial fetch it
        is the remainder.  Reading it drains a remote stream into
        memory but consumes nothing.  None before the first execute.
        """
        self._check_open()
        return None if self._header is None else self._materialise()

    def fetchone(self) -> Optional[tuple]:
        """The next row as a tuple, or None when exhausted."""
        rows = self._take(1)
        return rows[0] if rows else None

    def fetchmany(self, size: Optional[int] = None) -> list[tuple]:
        """The next *size* rows (default: :attr:`arraysize`)."""
        return self._take(self.arraysize if size is None else size)

    def fetchall(self) -> list[tuple]:
        """All remaining rows."""
        return self._take(sys.maxsize)

    def fetchnumpy(self) -> dict[str, np.ndarray]:
        """All remaining rows as columnar ndarrays (name -> array).

        Numeric columns with NULLs widen to float64 with NaN holes;
        string/bool columns with NULLs come back as object arrays with
        ``None`` entries.  Skips the Python-tuple detour entirely, and
        yields the same bytes whichever transport delivered the rows.
        """
        self._require_result()
        remainder = self._materialise()
        arrays = remainder.to_numpy()
        self._batches = [[column.slice(0, 0) for column in remainder.columns]]
        self._result = None
        return arrays

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.fetchone, None)


class Session(_Closable):
    """What every PEP 249 connection shares, whatever its transport."""

    # PEP 249: exceptions available as Connection attributes.
    Warning = errors.Warning
    Error = errors.Error
    InterfaceError = errors.InterfaceError
    DatabaseError = errors.DatabaseError
    DataError = errors.DataError
    OperationalError = errors.OperationalError
    IntegrityError = errors.IntegrityError
    InternalError = errors.InternalError
    ProgrammingError = errors.ProgrammingError
    NotSupportedError = errors.NotSupportedError

    _what = "connection"
    _cursor_class = Cursor

    def cursor(self) -> Cursor:
        """A new DB-API cursor over this session."""
        self._check_open()
        return self._cursor_class(self)


class Statement(_Closable):
    """The transport-independent shell of a prepared statement."""

    _what = "prepared statement"

    def __init__(self, connection, sql: str, parameters: tuple):
        self.connection = connection
        self.sql = sql
        #: bind-parameter keys in occurrence order.
        self.parameters = parameters

    def close(self) -> None:
        """Release the statement; executing it again raises InterfaceError."""
        self._closed = True
