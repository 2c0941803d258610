"""The client driver: PEP 249 sessions over a ``repro://`` socket.

``repro.connect("repro://host:port")`` returns a
:class:`RemoteConnection`.  Its DB-API surface *is* the in-process
one: the connection lifecycle, the cursor's fetch state machine and
the prepared-statement shell are the shared classes of
:mod:`repro.engine.cursor`, and bind parameters pass the same
:func:`~repro.engine.cursor.scalar_parameter` rule.  What this module
adds is transport only — framing requests, pulling columnar batches
off the socket, draining a displaced stream, reconnecting — so results
are byte-identical: batches arrive in the kernel's own columnar
encoding and reassemble into the same :class:`Column`/:class:`Result`
objects.

Result sets **stream**: :meth:`RemoteCursor.execute` returns after
the result header, and ``fetch*`` pulls columnar batches off the
socket on demand — a 100M-row scan holds one batch client-side, and
the un-read tail exerts TCP backpressure on the server.
``RemoteConnection.execute`` (the convenience path) drains the stream
into a regular :class:`Result` instead, which is what the in-process
``Connection.execute`` returns.

Idempotent conversations (handshake, ``ping``, ``stats``) reconnect
with backoff when the socket is lost; a reconnect is a *new* server
session, so every live :class:`RemotePreparedStatement` re-prepares
itself from its SQL text on next use.  Neither happens inside an open
transaction — its server state died with the old socket.

Errors map onto the PEP 249 hierarchy: server-side failures re-raise
as their local class (``ProgrammingError``, ``OperationalError``
first-committer-wins conflicts, ...), transport failures raise
:class:`~repro.errors.NetworkError` (an ``OperationalError``), and
framing violations raise :class:`~repro.errors.ProtocolError` (an
``InterfaceError``).  A :class:`ConnectionPool` amortises connection
setup for many short-lived sessions.
"""

from __future__ import annotations

import queue as queue_mod
import socket
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterable, Iterator, Optional
from urllib.parse import parse_qsl, urlsplit

from repro import errors, knobs
from repro.engine.cursor import Cursor, Session, Statement
from repro.engine.result import Result
from repro.errors import (
    InterfaceError,
    NetworkError,
    ProgrammingError,
    ProtocolError,
)
from repro.gdk.column import Column
from repro.net import protocol
from repro.net.protocol import Msg

#: options a repro:// URL may carry in its query string.
_URL_INT_OPTIONS = ("batch_rows", "pool_size", "statement_timeout_ms")

#: the exponential reconnect backoff never sleeps longer than this.
_BACKOFF_CAP_S = 2.0


def _net_retries() -> int:
    """Reconnect attempts for idempotent operations (``REPRO_NET_RETRIES``)."""
    return knobs.integer("REPRO_NET_RETRIES", knobs.NET_RETRIES, 0)


def _net_backoff_s() -> float:
    """Base backoff in seconds (``REPRO_NET_RETRY_BACKOFF_MS``)."""
    return knobs.number("REPRO_NET_RETRY_BACKOFF_MS", knobs.NET_RETRY_BACKOFF_MS, 0.0) / 1e3


def parse_url(url: str) -> tuple[str, int, dict]:
    """Split ``repro://host:port[?batch_rows=N]`` into (host, port, options)."""
    parts = urlsplit(url)
    if parts.scheme != "repro":
        raise ProgrammingError(f"not a repro:// URL: {url!r}")
    if not parts.hostname:
        raise ProgrammingError(f"repro:// URL without a host: {url!r}")
    from repro.net.server import DEFAULT_PORT

    options: dict[str, Any] = {}
    if parts.username:
        options["user"] = parts.username
    if parts.password:
        options["password"] = parts.password
    for key, value in parse_qsl(parts.query):
        if key in _URL_INT_OPTIONS:
            try:
                options[key] = int(value)
            except ValueError:
                raise ProgrammingError(
                    f"invalid {key} value {value!r} in {url!r}"
                ) from None
        else:
            raise ProgrammingError(f"unknown URL option {key!r} in {url!r}")
    return parts.hostname, parts.port or DEFAULT_PORT, options


def connect_url(url: str, **kwargs) -> "RemoteConnection":
    """Open a :class:`RemoteConnection` from a ``repro://`` URL."""
    host, port, options = parse_url(url)
    options.pop("pool_size", None)
    options.update(kwargs)
    return RemoteConnection(host, port, **options)


class RemoteConnection(Session):
    """One server session over TCP, with the PEP 249 surface."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        user: Optional[str] = None,
        password: Optional[str] = None,
        batch_rows: Optional[int] = None,
        timeout: Optional[float] = None,
        statement_timeout_ms: Optional[int] = None,
    ):
        self.host = host
        self.port = port
        #: serialises whole request/response conversations (PEP 249
        #: threadsafety 2: threads may share the connection).
        self._lock = threading.RLock()
        #: guards raw socket writes so CANCEL can be sent mid-stream.
        self._write_lock = threading.Lock()
        self._active_cursor: Optional[RemoteCursor] = None
        self._sock: Optional[socket.socket] = None
        self._timeout = timeout
        self._hello = {
            "magic": protocol.CLIENT_MAGIC,
            "protocol": protocol.PROTOCOL_VERSION,
            "user": user,
            "password": password,
            "batch_rows": batch_rows,
            "statement_timeout_ms": statement_timeout_ms,
        }
        self._in_transaction = False
        #: server sessions opened so far; a prepared statement id is
        #: only valid in the generation that issued it.
        self._generation = 0
        try:
            # _establish opens its own fresh socket per attempt; no
            # reconnect step needed between retries.
            self._idempotent(self._establish, reconnect=False)
        except BaseException:
            self._closed = True
            raise

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _establish(self) -> None:
        """Open the socket and run the HELLO/WELCOME handshake."""
        try:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self._timeout
            )
            self._sock.settimeout(self._timeout)
        except OSError as exc:
            raise NetworkError(
                f"cannot connect to repro://{self.host}:{self.port}: {exc}"
            ) from None
        self._reader = protocol.FrameReader(self._recv_into)
        try:
            self._send(Msg.HELLO, self._hello)
            _, header, _ = self._expect(Msg.WELCOME)
        except BaseException:
            self._sock.close()
            raise
        self.server_version = header.get("server_version")
        self.batch_rows = header.get("batch_rows")
        self._generation += 1

    def _reconnect(self) -> None:
        """Replace a dead socket with a fresh session (idle state only)."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._active_cursor = None
        self._establish()

    def _idempotent(self, fn, *, reconnect: bool = True):
        """Run *fn*, reconnecting with exponential backoff on transport loss.

        Only idempotent conversations (the handshake itself, ping,
        stats) route through here; statements never silently re-run,
        and an open transaction disables retry entirely — its server
        state died with the old socket.
        """
        retries = _net_retries()
        delay = _net_backoff_s()
        for attempt in range(retries + 1):
            try:
                if attempt and reconnect:
                    self._reconnect()
                return fn()
            except NetworkError:
                if attempt == retries or self._in_transaction or self._closed:
                    raise
                if delay > 0:
                    time.sleep(delay)
                delay = min(delay * 2.0, _BACKOFF_CAP_S)

    def _recv_into(self, view: memoryview) -> int:
        """The frame reader's transport: one ``recv_into``, errors typed."""
        try:
            got = self._sock.recv_into(view)
        except socket.timeout:
            raise NetworkError(
                f"timed out reading from repro://{self.host}:{self.port}"
            ) from None
        except OSError as exc:
            raise NetworkError(f"connection lost: {exc}") from None
        if not got:
            raise NetworkError("connection closed by the server mid-frame")
        return got

    def _send(self, msg: Msg, header: dict, blobs=()) -> None:
        frame = protocol.encode_frame(msg, header, blobs)
        with self._write_lock:
            try:
                self._sock.sendall(frame)
            except OSError as exc:
                raise NetworkError(f"connection lost: {exc}") from None

    def _expect(self, *expected: Msg) -> tuple[Msg, dict, bytes]:
        """Read one frame; raise mapped errors, enforce the expected type.
        The blob is a view of the receive buffer, valid until the next read."""
        msg, header, blob = self._reader.read()
        if msg is Msg.ERROR:
            protocol.raise_remote_error(header)
        if expected and msg not in expected:
            raise ProtocolError(
                f"expected {'/'.join(e.name for e in expected)}, "
                f"got {msg.name}"
            )
        return msg, header, blob

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Send GOODBYE (best effort) and close the socket."""
        if self._closed:
            return
        self._closed = True
        try:
            self._send(Msg.GOODBYE, {})
        except (NetworkError, InterfaceError):
            pass
        finally:
            self._sock.close()

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------
    def _drain_active(self) -> None:
        """Materialise any still-streaming cursor before a new request.

        The wire carries one result stream at a time; starting a new
        statement first buffers the remaining batches of the active
        one client-side (like MonetDB's driver does), so interleaved
        cursor use stays correct — sequential streams stay O(batch).
        """
        cursor = self._active_cursor
        if cursor is not None:
            cursor._buffer_remaining()
            self._active_cursor = None

    def _request(
        self, msg: Msg, header: dict, *expected: Msg
    ) -> tuple[Msg, dict, bytes]:
        """One request/reply conversation (reply type in *expected*)."""
        with self._lock:
            self._check_open()
            self._drain_active()
            self._send(msg, header)
            return self._expect(*expected)

    def cancel(self) -> None:
        """Ask the server to abandon the in-flight statement.

        Safe to call from another thread while a statement streams
        *or* while it is still executing: the server both marks the
        stream and cancels the running statement through its
        cooperative token, so the statement fails with
        ``QueryCancelledError`` (an ``OperationalError``) at the next
        instruction boundary.  Best-effort: a statement that already
        completed is unaffected.
        """
        self._check_open()
        self._send(Msg.CANCEL, {})

    def ping(self) -> bool:
        """One PING/PONG round-trip; False when the server is gone.

        Never raises for transport failure — the pool's health-check
        idiom.  A failed ping closes the connection, so callers can
        discard it without a second probe.
        """
        if self._closed:
            return False
        with self._lock:
            try:
                self._request(Msg.PING, {}, Msg.PONG)
                return True
            except errors.Error:
                self.close()
                return False

    # ------------------------------------------------------------------
    # PEP 249 connection surface
    # ------------------------------------------------------------------
    def execute(self, sql: str, params: Any = None) -> Result:
        """Execute one statement; returns a fully materialised Result.

        For scans too large to hold, use a cursor — its ``fetch*``
        methods consume the stream incrementally.
        """
        return self.cursor().execute(sql, params).result

    def executemany(self, sql: str, seq_of_params: Iterable[Any]) -> Result:
        """Bulk execution; a one-row parameterised INSERT runs its plan
        once server-side, each ``?`` bound to a column of values.  The
        Result totals affected rows."""
        return self.cursor().executemany(sql, seq_of_params).result

    def prepare(self, sql: str) -> "RemotePreparedStatement":
        """Compile once server-side; re-execute under fresh bindings."""
        return RemotePreparedStatement(self, sql)

    def begin(self) -> None:
        """Open an explicit transaction (snapshot isolation)."""
        self._txn_command(Msg.BEGIN)

    def commit(self) -> None:
        """Publish the open transaction; first committer wins."""
        self._txn_command(Msg.COMMIT)

    def rollback(self) -> None:
        """Discard the open transaction."""
        self._txn_command(Msg.ROLLBACK)

    def _txn_command(self, msg: Msg) -> None:
        with self._lock:
            _, header, _ = self._request(msg, {}, Msg.OK)
            self._in_transaction = bool(header.get("in_transaction"))

    @property
    def in_transaction(self) -> bool:
        """True after ``begin()`` until commit/rollback (as last acked)."""
        return self._in_transaction

    def stats(self) -> dict:
        """Server + engine observability counters, one snapshot.

        Idempotent, so a dropped socket reconnects with backoff
        (``REPRO_NET_RETRIES`` / ``REPRO_NET_RETRY_BACKOFF_MS``)
        before the ``NetworkError`` surfaces.
        """
        return self._idempotent(
            lambda: self._request(Msg.STATS, {}, Msg.STATS_DATA)[1]
        )


class RemoteCursor(Cursor):
    """The shared cursor fed by columnar batches off the socket."""

    def close(self) -> None:
        connection = self.connection
        if connection._active_cursor is self and not connection.closed:
            with connection._lock:
                connection._drain_active()
        super().close()

    def execute(self, sql: str, params: Any = None) -> "RemoteCursor":
        """Execute one statement; fetch methods stream the result.

        Returns the cursor itself — unlike the in-process cursor,
        which returns its (always fully materialised) Result.
        Returning a Result here would force the whole stream into
        memory up front; use :attr:`result` or
        ``connection.execute(...)`` when that is what you want.
        """
        return self._start_request(
            Msg.EXECUTE,
            {"sql": sql, "params": protocol.jsonable_params(params)},
        )

    def executemany(
        self, sql: str, seq_of_params: Iterable[Any]
    ) -> "RemoteCursor":
        return self._start_request(
            Msg.EXECUTEMANY,
            {"sql": sql, "params_seq": _params_seq(seq_of_params)},
        )

    def _start_request(self, msg: Msg, header: dict) -> "RemoteCursor":
        """Send one statement request and install the reply's header."""
        self._check_open()
        connection = self.connection
        with connection._lock:
            reply, reply_header, _ = connection._request(
                msg, header, Msg.OK, Msg.RESULT_HEADER
            )
            affected = reply_header.get("affected", 0)
            if reply is Msg.OK:
                self._begin(Result(affected=affected))
                connection._in_transaction = bool(
                    reply_header.get("in_transaction")
                )
            else:
                self._begin(
                    Result(
                        reply_header.get("kind", "table"),
                        reply_header.get("names"),
                        None,
                        reply_header.get("meta"),
                        affected,
                    ),
                    reply_header.get("row_count", -1),
                )
                connection._active_cursor = self
        return self

    def _pull(self) -> Optional[list[Column]]:
        """Read one more RESULT_BATCH off the wire; None at RESULT_DONE."""
        connection = self.connection
        with connection._lock:
            if connection._active_cursor is not self:
                # The stream ended, or another statement displaced us
                # and _drain_active buffered everything that was left.
                return None
            try:
                msg, header, blob = connection._expect(
                    Msg.RESULT_BATCH, Msg.RESULT_DONE
                )
            except BaseException:
                # Mid-stream failure (cancel, network, server error):
                # the stream is over either way.
                connection._active_cursor = None
                raise
            if msg is Msg.RESULT_DONE:
                connection._active_cursor = None
                return None
            return protocol.decode_batch(header, blob)


RemoteConnection._cursor_class = RemoteCursor


def _params_seq(seq_of_params: Iterable[Any]) -> list:
    return [protocol.jsonable_params(params) for params in seq_of_params]


class RemotePreparedStatement(Statement):
    """A server-side compiled statement, addressed by id."""

    def __init__(self, connection: RemoteConnection, sql: str):
        super().__init__(connection, sql, ())
        self._prepare()

    def _prepare(self) -> None:
        connection = self.connection
        with connection._lock:
            _, header, _ = connection._request(
                Msg.PREPARE, {"sql": self.sql}, Msg.PREPARED
            )
            self.statement_id = header["statement_id"]
            self.parameters = tuple(header.get("parameters", ()))
            self._generation = connection._generation

    def _run(self, msg: Msg, **fields) -> Result:
        """One request naming this statement (materialised Result).

        Statement ids die with the server session that issued them, so
        after the connection's own reconnect the statement re-prepares
        from its SQL first — the remote twin of the in-process
        re-prepare on a schema change.
        """
        self._check_open()
        connection = self.connection
        with connection._lock:
            if self._generation != connection._generation:
                self._prepare()
            header = {"statement_id": self.statement_id, **fields}
            return connection.cursor()._start_request(msg, header).result

    def execute(self, params: Any = None) -> Result:
        """Run the compiled plan under *params* (materialised Result)."""
        return self._run(
            Msg.EXECUTE_PREPARED, params=protocol.jsonable_params(params)
        )

    def executemany(self, seq_of_params: Iterable[Any]) -> Result:
        return self._run(Msg.EXECUTEMANY, params_seq=_params_seq(seq_of_params))

    def close(self) -> None:
        """Release the server-side plan handle."""
        connection = self.connection
        if (
            not self._closed
            and not connection.closed
            and self._generation == connection._generation
        ):
            connection._request(
                Msg.CLOSE_STATEMENT, {"statement_id": self.statement_id}, Msg.OK
            )
        super().close()


class ConnectionPool:
    """A small client-side pool of :class:`RemoteConnection` objects.

    ``with pool.acquire() as conn: ...`` hands out an idle connection
    (creating one while under *size*) and returns it on exit; broken
    connections are discarded, not recycled.  Every recycled
    connection is **pinged on acquire** — a dead socket (server
    restart, chaos proxy, idle-kill firewall) is evicted and replaced
    instead of surfacing as a mid-statement ``NetworkError``.  With
    *idle_timeout* set, a background reaper closes connections that
    sat unused longer than that many seconds, so a burst does not pin
    server admission slots forever.  Intended for many short-lived
    logical sessions over few TCP connections — connection churn is
    the one cost the server cannot amortise.
    """

    def __init__(
        self,
        url: str,
        size: int = 4,
        *,
        idle_timeout: Optional[float] = None,
        ping_on_acquire: bool = True,
        **kwargs,
    ):
        if size < 1:
            raise ProgrammingError(f"pool size must be >= 1, got {size}")
        if idle_timeout is not None and idle_timeout <= 0:
            raise ProgrammingError(
                f"idle_timeout must be positive, got {idle_timeout}"
            )
        self.url = url
        self.size = size
        self.idle_timeout = idle_timeout
        self.ping_on_acquire = ping_on_acquire
        self._kwargs = kwargs
        #: idle entries are (connection, check-in monotonic time).
        self._idle: queue_mod.Queue = queue_mod.Queue()
        self._lock = threading.Lock()
        self._created = 0
        self._closed = False
        self._reap_stop = threading.Event()
        if idle_timeout is not None:
            self._reaper = threading.Thread(
                target=self._reap_loop, name="repro-pool-reaper", daemon=True
            )
            self._reaper.start()

    def _connect(self) -> RemoteConnection:
        return connect_url(self.url, **self._kwargs)

    def _discard(self, conn: RemoteConnection) -> None:
        with self._lock:
            self._created -= 1
        conn.close()

    def _usable(self, conn: RemoteConnection, checked_in: float) -> bool:
        """Health-check one idle connection before handing it out."""
        if conn.closed:
            return False
        if (
            self.idle_timeout is not None
            and time.monotonic() - checked_in > self.idle_timeout
        ):
            return False
        # ping() closes the connection itself on failure, so a False
        # here leaves nothing half-alive behind.
        return not self.ping_on_acquire or conn.ping()

    def _checkout(self, timeout: Optional[float]) -> RemoteConnection:
        if self._closed:
            raise InterfaceError("connection pool is closed")
        while True:
            try:
                conn, checked_in = self._idle.get_nowait()
            except queue_mod.Empty:
                break
            if self._usable(conn, checked_in):
                return conn
            self._discard(conn)
        with self._lock:
            if self._created < self.size:
                self._created += 1
                try:
                    return self._connect()
                except BaseException:
                    self._created -= 1
                    raise
        try:
            conn, checked_in = self._idle.get(timeout=timeout)
        except queue_mod.Empty:
            raise NetworkError(
                f"no pooled connection became free within {timeout}s"
            ) from None
        if not self._usable(conn, checked_in):
            self._discard(conn)
            return self._checkout(timeout)
        return conn

    def _checkin(self, conn: RemoteConnection) -> None:
        if self._closed or conn.closed:
            self._discard(conn)
            return
        self._idle.put((conn, time.monotonic()))

    # ------------------------------------------------------------------
    # idle reaper
    # ------------------------------------------------------------------
    def _reap_loop(self) -> None:
        interval = max(0.05, min(self.idle_timeout / 2.0, 1.0))
        while not self._reap_stop.wait(interval):
            self.reap_idle()

    def reap_idle(self) -> int:
        """Close idle connections past *idle_timeout*; returns the count.

        The reaper thread calls this periodically; tests may call it
        directly for determinism.
        """
        if self.idle_timeout is None:
            return 0
        now = time.monotonic()
        keep: list[tuple[RemoteConnection, float]] = []
        reaped = 0
        while True:
            try:
                conn, checked_in = self._idle.get_nowait()
            except queue_mod.Empty:
                break
            if conn.closed or now - checked_in > self.idle_timeout:
                self._discard(conn)
                reaped += 1
            else:
                keep.append((conn, checked_in))
        for entry in keep:
            self._idle.put(entry)
        return reaped

    @contextmanager
    def acquire(self, timeout: Optional[float] = 30.0) -> Iterator[RemoteConnection]:
        """A context manager leasing one connection from the pool."""
        conn = self._checkout(timeout)
        try:
            yield conn
        finally:
            self._checkin(conn)

    def close(self) -> None:
        """Close every idle connection; leased ones close on check-in."""
        self._closed = True
        self._reap_stop.set()
        while True:
            try:
                conn, _ = self._idle.get_nowait()
            except queue_mod.Empty:
                break
            conn.close()

    def __enter__(self) -> "ConnectionPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
