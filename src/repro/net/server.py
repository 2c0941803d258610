"""The asyncio socket server: many clients, one shared ``Database``.

The accept loop hands every TCP client its own
``Database.connect()`` session, so the engine's snapshot isolation,
first-committer-wins conflicts and the cross-session plan cache apply
to remote clients exactly as they do in process.  Three rules keep the
event loop responsive under heavy traffic:

* **Never block the loop on a query.**  Statements run on a thread
  pool via ``run_in_executor``; inside, the engine schedules dataflow
  onto its own shared worker pool as usual.  The one exception is an
  ``EXECUTE_PREPARED`` whose statement writes nothing, whose linked
  plan is not ``pooled``, which has no join, and every BAT of which
  binds fewer than ``interpreter.PARALLEL_MIN_ROWS`` rows in the
  session's current snapshot: it runs on the loop, because below that
  size a thread hand-off costs more than the work (the interpreter's
  own per-step rule).  ``ServerStats.inline_statements`` counts them.
* **Stream, don't materialise.**  Query results leave as columnar
  ``RESULT_BATCH`` frames of at most ``batch_rows`` rows, written from
  zero-copy column views (raw dtype bytes + NULL masks); a result of
  one batch leaves in one write with its header and done frames.
  A write waits for ``writer.drain()`` only while the transport holds
  more than its high-water mark — a stalled reader suspends its own
  stream at O(batch) buffered bytes instead of pinning the whole
  result set (``drain_timeout`` eventually disconnects it).
* **Bound admission.**  At most ``max_sessions`` concurrent clients
  (excess connects are refused with an ``OperationalError`` frame),
  and per connection a bounded in-flight queue of ``max_pending``
  pipelined requests — when it fills, the server simply stops reading
  that socket and TCP pushes back.

``CANCEL`` frames bypass the queue: the connection's reader task sets
a flag the streaming loop checks between batches *and* cancels the
session's running statement through its cooperative token, so even a
scan that never yields a batch dies at the next instruction boundary.
A client that disconnects mid-statement (or mid-stream) has its
running statement cancelled, its session rolled back and closed —
no leaked forks, no leaked admission slots.

Run standalone with ``python -m repro.net.server --port 50123
[--path FARM --durable]``, embed via :class:`ReproServer`, or use
:class:`ServerThread` to host one on a background thread (tests,
benchmarks, examples).
"""

from __future__ import annotations

import argparse
import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from repro.engine.database import Database
from repro.engine.result import Result
from repro.errors import (
    NetworkError,
    OperationalError,
    ProgrammingError,
    ProtocolError,
    SciQLError,
)
from repro.gdk import codec
from repro.mal import interpreter
from repro.net import protocol
from repro.net.protocol import Msg
from repro.testing.faultpoints import crash_point

DEFAULT_HOST = "127.0.0.1"
#: default TCP port (an homage to MonetDB's 50000).
DEFAULT_PORT = 50123
#: default cap on concurrently admitted client connections.
DEFAULT_MAX_SESSIONS = 64
#: default cap on pipelined (queued) requests per connection.
DEFAULT_MAX_PENDING = 8
#: seconds a client may take to send its HELLO frame.
HANDSHAKE_TIMEOUT = 10.0
#: default seconds a stalled reader may block one batch write.
DEFAULT_DRAIN_TIMEOUT = 300.0
#: seconds teardown waits for a transport/handler before forcing it.
CLOSE_GRACE = 5.0
#: frame buffers shorter than this are joined into one write: copying
#: them costs less than another ``send()``.
_JOIN_BELOW = 1 << 14
#: MAL operations that make a prepared read a join (never run inline).
_JOIN_OPS = {("algebra", "join"), ("algebra", "leftjoin"), ("algebra", "crossproduct")}


class ServerStats:
    """Counters the STATS message reports (mutated on the event loop)."""

    __slots__ = (
        "connections_accepted",
        "connections_rejected",
        "connections_active",
        "disconnects",
        "statements",
        "inline_statements",
        "batches_streamed",
        "bytes_streamed",
        "peak_batch_bytes",
        "cancelled",
        "errors",
        "stalled_disconnects",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class _ClientState:
    """Everything one admitted connection owns."""

    __slots__ = (
        "reader",
        "writer",
        "session",
        "batch_rows",
        "cancel_event",
        "statements",
        "next_statement_id",
    )

    def __init__(self, reader, writer, session, batch_rows: int):
        self.reader = reader
        self.writer = writer
        self.session = session
        self.batch_rows = batch_rows
        self.cancel_event = asyncio.Event()
        self.statements: dict[int, object] = {}
        self.next_statement_id = 1


class ReproServer:
    """An asyncio TCP front door over one shared :class:`Database`."""

    def __init__(
        self,
        database: Optional[Database] = None,
        host: str = DEFAULT_HOST,
        port: int = 0,
        *,
        max_sessions: Optional[int] = None,
        batch_rows: Optional[int] = None,
        max_pending: Optional[int] = None,
        auth=None,
        drain_timeout: Optional[float] = DEFAULT_DRAIN_TIMEOUT,
    ):
        if database is None:
            database = Database()
            self._owns_database = True
        else:
            self._owns_database = False
        self.database = database
        self.host = host
        self.port = port
        self.max_sessions = (
            DEFAULT_MAX_SESSIONS if max_sessions is None else max(1, int(max_sessions))
        )
        self.batch_rows = (
            protocol.DEFAULT_BATCH_ROWS if batch_rows is None else max(1, int(batch_rows))
        )
        self.max_pending = (
            DEFAULT_MAX_PENDING if max_pending is None else max(1, int(max_pending))
        )
        #: optional ``auth(user, password) -> bool`` hook; None admits all.
        self.auth = auth
        self.drain_timeout = drain_timeout
        self.stats = ServerStats()
        #: blocking statement calls run here, NOT on the event loop; the
        #: engine's own dataflow pool parallelises inside each call.
        self._executor = ThreadPoolExecutor(
            max_workers=min(self.max_sessions, 32),
            thread_name_prefix="repro-net",
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._active = 0
        #: live ``_handle_client`` tasks, so :meth:`aclose` can cancel
        #: stragglers instead of abandoning them mid-teardown.
        self._client_tasks: set = set()
        #: admitted connection states, so :meth:`shutdown` can cancel
        #: their running statements cooperatively.
        self._states: set = set()
        #: requests currently being dispatched (drain watches this).
        self._inflight = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) once :meth:`start` ran."""
        if self._server is None:
            raise NetworkError("server is not started")
        return self._server.sockets[0].getsockname()[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"repro://{host}:{port}"

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        return self.address

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        """Immediate teardown: :meth:`shutdown` without the grace period."""
        await self.shutdown(drain_timeout=None)

    async def shutdown(self, drain_timeout: Optional[float] = 5.0) -> None:
        """Graceful teardown: stop accepting, drain, then disconnect.

        New connections are refused immediately; requests already in
        flight get *drain_timeout* seconds to finish.  Whatever still
        runs past the deadline is cancelled cooperatively through its
        session's token, then the remaining clients are disconnected
        and the executor (and an owned database) close.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if drain_timeout:
            loop = asyncio.get_running_loop()
            deadline = loop.time() + drain_timeout
            while self._inflight and loop.time() < deadline:
                await asyncio.sleep(0.02)
        for state in list(self._states):
            state.session.cancel_running("server shutting down")
        for task in list(self._client_tasks):
            task.cancel()
        if self._client_tasks:
            # A handler absorbing the first cancel can still wedge on
            # its transport teardown (wait_closed never resolving for
            # an already-dead peer); bound the wait and cancel again
            # so shutdown terminates no matter what clients do.
            _, pending = await asyncio.wait(
                list(self._client_tasks), timeout=CLOSE_GRACE
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        self._executor.shutdown(wait=False)
        if self._owns_database:
            self.database.close()

    # ------------------------------------------------------------------
    # per-connection protocol
    # ------------------------------------------------------------------
    async def _send(self, state_or_writer, chunks: list) -> None:
        """Write the buffers of one or more frames, back to back.

        Short buffers are joined into one write, long ones (column
        bytes) are written by reference.  Only a transport above its
        high-water mark is drained.
        """
        writer = (
            state_or_writer.writer
            if isinstance(state_or_writer, _ClientState)
            else state_or_writer
        )
        transport = writer.transport
        if transport.is_closing():
            raise ConnectionResetError("connection lost")
        short: list = []
        for chunk in chunks:
            if len(chunk) < _JOIN_BELOW:
                short.append(chunk)
                continue
            if short:
                writer.write(b"".join(short))
                short = []
            writer.write(chunk)
        if short:
            writer.write(b"".join(short))
        if transport.get_write_buffer_size() <= transport.get_write_buffer_limits()[1]:
            return
        if self.drain_timeout is None:
            await writer.drain()
            return
        try:
            await asyncio.wait_for(writer.drain(), self.drain_timeout)
        except asyncio.TimeoutError:
            self.stats.stalled_disconnects += 1
            raise NetworkError(
                f"client stalled for {self.drain_timeout}s; disconnecting"
            ) from None

    def _error_chunks(self, exc: BaseException) -> list:
        self.stats.errors += 1
        return protocol.frame_chunks(Msg.ERROR, protocol.error_header(exc))

    async def _send_error(self, state_or_writer, exc: BaseException) -> None:
        await self._send(state_or_writer, self._error_chunks(exc))

    async def _handle_client(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._client_tasks.add(task)
            task.add_done_callback(self._client_tasks.discard)
        self.stats.connections_accepted += 1
        if self._active >= self.max_sessions:
            self.stats.connections_rejected += 1
            try:
                await self._send_error(
                    writer,
                    OperationalError(
                        f"server refused the connection: max_sessions "
                        f"({self.max_sessions}) already admitted"
                    ),
                )
            except (ConnectionError, NetworkError):
                pass
            writer.close()
            return
        self._active += 1
        self.stats.connections_active = self._active
        session = self.database.connect()
        state = _ClientState(reader, writer, session, self.batch_rows)
        self._states.add(state)
        try:
            if await self._handshake(state):
                await self._serve_session(state)
        except (
            ConnectionError,
            OSError,
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
            NetworkError,
        ):
            self.stats.disconnects += 1
        except asyncio.CancelledError:
            # Server shutdown cancelled this handler; absorb it (the
            # task ends here anyway) so the reclaim below still runs
            # and asyncio's stream callback never sees the cancel.
            self.stats.disconnects += 1
        except ProtocolError as exc:
            try:
                await self._send_error(state, exc)
            except (ConnectionError, NetworkError):
                pass
        finally:
            # Reclaim everything the client held: cancel whatever is
            # still running, roll back any open transaction fork,
            # close the session, release the slot.
            crash_point("net.disconnect_reclaim")
            self._states.discard(state)
            session.cancel_running("client disconnected")
            try:
                if not session.closed:
                    session.rollback()
            except SciQLError:
                pass
            session.close()
            state.statements.clear()
            self._active -= 1
            self.stats.connections_active = self._active
            # close() is enough: it tears the transport down on the
            # loop without blocking this handler.  Awaiting
            # wait_closed here can wedge forever on a peer that
            # vanished mid-teardown, pinning the shutdown gather —
            # and everything the client held is already released.
            writer.close()

    async def _read_frame(self, reader) -> tuple[Msg, dict, bytes]:
        # protocol.FrameReader.read over asyncio's own stream buffer.
        prelude = await reader.readexactly(codec.PRELUDE.size)
        length, crc = codec.unpack_prelude(prelude, 0, ProtocolError, protocol.MAX_FRAME_BYTES)
        payload = codec.verified(length, crc, await reader.readexactly(length), ProtocolError)
        return protocol.decode_payload(payload)

    async def _handshake(self, state: _ClientState) -> bool:
        msg, header, _ = await asyncio.wait_for(
            self._read_frame(state.reader), HANDSHAKE_TIMEOUT
        )
        if msg is not Msg.HELLO or header.get("magic") != protocol.CLIENT_MAGIC:
            raise ProtocolError("expected a HELLO frame to open the session")
        if header.get("protocol") != protocol.PROTOCOL_VERSION:
            await self._send_error(
                state,
                ProtocolError(
                    f"protocol version mismatch: client speaks "
                    f"{header.get('protocol')!r}, server speaks "
                    f"{protocol.PROTOCOL_VERSION}"
                ),
            )
            return False
        if self.auth is not None and not self.auth(
            header.get("user"), header.get("password")
        ):
            await self._send_error(
                state,
                OperationalError(
                    f"authentication failed for user {header.get('user')!r}"
                ),
            )
            return False
        requested = header.get("batch_rows")
        if isinstance(requested, int) and requested > 0:
            state.batch_rows = requested
        timeout_ms = header.get("statement_timeout_ms")
        if isinstance(timeout_ms, (int, float)) and timeout_ms > 0:
            # The session's default deadline travels with the
            # handshake; every statement on this connection inherits
            # it unless the server environment set a tighter one.
            state.session.statement_timeout = float(timeout_ms) / 1000.0
        import repro

        await self._send(
            state,
            protocol.frame_chunks(
                Msg.WELCOME,
                {
                    "server_version": repro.__version__,
                    "protocol": protocol.PROTOCOL_VERSION,
                    "batch_rows": state.batch_rows,
                },
            ),
        )
        return True

    async def _serve_session(self, state: _ClientState) -> None:
        """Bounded-pipeline request loop: one reader, one worker.

        The reader task moves frames into a bounded queue (so an
        over-pipelining client blocks on TCP, not on server memory)
        and handles CANCEL immediately, out of band.  The worker
        executes requests strictly in order.
        """
        queue: asyncio.Queue = asyncio.Queue(self.max_pending)

        async def pump() -> None:
            try:
                while True:
                    frame = await self._read_frame(state.reader)
                    if frame[0] is Msg.CANCEL:
                        # Flag the between-batch check AND cancel the
                        # running statement through its cooperative
                        # token, so a statement that never yields a
                        # batch is still killable mid-execution.
                        state.cancel_event.set()
                        if state.session.cancel_running(
                            "cancelled by client CANCEL"
                        ):
                            self.stats.cancelled += 1
                        continue
                    await queue.put(frame)
                    if frame[0] is Msg.GOODBYE:
                        return
            except (
                ConnectionError,
                OSError,
                asyncio.IncompleteReadError,
                ProtocolError,
            ) as exc:
                # The socket died under a running statement: abort it
                # now instead of computing for a client that is gone.
                state.session.cancel_running("client disconnected")
                await queue.put(exc)

        pump_task = asyncio.create_task(pump())
        try:
            while True:
                item = await queue.get()
                if isinstance(item, ProtocolError):
                    raise item
                if isinstance(item, Exception):
                    raise NetworkError(str(item))
                msg, header, blob = item
                if msg is Msg.GOODBYE:
                    return
                await self._dispatch(state, msg, header)
        finally:
            pump_task.cancel()

    async def _dispatch(self, state: _ClientState, msg: Msg, header: dict) -> None:
        state.cancel_event.clear()
        self._inflight += 1
        try:
            handler = self._HANDLERS.get(msg)
            if handler is None:
                raise ProtocolError(
                    f"unexpected {msg.name} frame from a client"
                )
            await handler(self, state, header)
        except (ConnectionError, NetworkError):
            raise
        except ProtocolError as exc:
            await self._send_error(state, exc)
        except SciQLError as exc:
            await self._send_error(state, exc)
        except Exception as exc:  # noqa: BLE001 - surfaced to the client
            await self._send_error(state, exc)
        finally:
            self._inflight -= 1

    async def _call(self, fn, *args):
        """Run one blocking engine call off the event loop."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, lambda: fn(*args))

    # ------------------------------------------------------------------
    # request handlers
    # ------------------------------------------------------------------
    async def _on_execute(self, state: _ClientState, header: dict) -> None:
        sql = header.get("sql")
        if not isinstance(sql, str):
            raise ProtocolError("EXECUTE frame without SQL text")
        params = protocol.decoded_params(header.get("params"))
        self.stats.statements += 1
        result = await self._call(state.session.execute, sql, params)
        await self._send_result(state, result)

    async def _on_prepare(self, state: _ClientState, header: dict) -> None:
        sql = header.get("sql")
        if not isinstance(sql, str):
            raise ProtocolError("PREPARE frame without SQL text")
        statement = await self._call(state.session.prepare, sql)
        statement_id = state.next_statement_id
        state.next_statement_id += 1
        state.statements[statement_id] = statement
        await self._send(
            state,
            protocol.frame_chunks(
                Msg.PREPARED,
                {
                    "statement_id": statement_id,
                    "parameters": list(statement.parameters),
                },
            ),
        )

    def _statement(self, state: _ClientState, header: dict):
        statement = state.statements.get(header.get("statement_id"))
        if statement is None:
            raise ProgrammingError(
                f"unknown prepared statement id {header.get('statement_id')!r}"
            )
        return statement

    async def _on_execute_prepared(
        self, state: _ClientState, header: dict
    ) -> None:
        statement = self._statement(state, header)
        params = protocol.decoded_params(header.get("params"))
        self.stats.statements += 1
        if _runs_inline(state.session, statement):
            self.stats.inline_statements += 1
            result = statement.execute(params)
        else:
            result = await self._call(statement.execute, params)
        await self._send_result(state, result)

    async def _on_executemany(self, state: _ClientState, header: dict) -> None:
        seq = header.get("params_seq")
        if not isinstance(seq, list):
            raise ProtocolError("EXECUTEMANY frame without a parameter list")
        seq = [protocol.decoded_params(params) for params in seq]
        self.stats.statements += 1
        if "statement_id" in header:
            statement = self._statement(state, header)
            result = await self._call(statement.executemany, seq)
        else:
            sql = header.get("sql")
            if not isinstance(sql, str):
                raise ProtocolError("EXECUTEMANY frame without SQL text")
            result = await self._call(state.session.executemany, sql, seq)
        await self._send_result(state, result)

    async def _on_begin(self, state: _ClientState, header: dict) -> None:
        await self._call(state.session.begin)
        await self._send_ok(state)

    async def _on_commit(self, state: _ClientState, header: dict) -> None:
        await self._call(state.session.commit)
        await self._send_ok(state)

    async def _on_rollback(self, state: _ClientState, header: dict) -> None:
        await self._call(state.session.rollback)
        await self._send_ok(state)

    async def _on_close_statement(
        self, state: _ClientState, header: dict
    ) -> None:
        state.statements.pop(header.get("statement_id"), None)
        await self._send_ok(state)

    async def _on_ping(self, state: _ClientState, header: dict) -> None:
        # In-band on purpose: the reply must never interleave with a
        # result stream, so PING rides the ordered request queue.
        await self._send(state, protocol.frame_chunks(Msg.PONG, {}))

    async def _on_stats(self, state: _ClientState, header: dict) -> None:
        stats = dict(self.database.stats())
        stats.update(self.stats.snapshot())
        stats["batch_rows"] = self.batch_rows
        stats["max_sessions"] = self.max_sessions
        await self._send(state, protocol.frame_chunks(Msg.STATS_DATA, stats))

    _HANDLERS = {
        Msg.EXECUTE: _on_execute,
        Msg.PREPARE: _on_prepare,
        Msg.EXECUTE_PREPARED: _on_execute_prepared,
        Msg.EXECUTEMANY: _on_executemany,
        Msg.BEGIN: _on_begin,
        Msg.COMMIT: _on_commit,
        Msg.ROLLBACK: _on_rollback,
        Msg.CLOSE_STATEMENT: _on_close_statement,
        Msg.STATS: _on_stats,
        Msg.PING: _on_ping,
    }

    # ------------------------------------------------------------------
    # result streaming
    # ------------------------------------------------------------------
    async def _send_ok(self, state: _ClientState, affected: int = 0) -> None:
        await self._send(
            state,
            protocol.frame_chunks(
                Msg.OK,
                {
                    "affected": affected,
                    "in_transaction": state.session.in_transaction,
                },
            ),
        )

    async def _send_result(self, state: _ClientState, result: Result) -> None:
        """Stream one result: header, bounded columnar batches, done.

        Each batch frame holds zero-copy views of O(batch_rows) rows of
        every column and is written before the next one is built, so
        the per-connection transfer buffer holds at most one batch
        beyond the high-water mark.  Frames queue into one write up to
        a batch boundary: a one-batch result leaves in one write.
        Cancellation is honoured between batches.
        """
        if not result.is_query:
            await self._send_ok(state, result.affected)
            return
        chunks = protocol.frame_chunks(
            Msg.RESULT_HEADER,
            {
                "kind": result.kind,
                "names": result.names,
                "meta": result.meta,
                "row_count": result.row_count,
                "affected": result.affected,
                "batch_rows": state.batch_rows,
            },
        )
        columns, step = result.columns, state.batch_rows
        # An empty result still sends one zero-row batch, so the client
        # learns the column types; a result without columns sends none.
        starts = range(0, max(result.row_count, 1), step) if columns else ()
        batches = 0
        for start in starts:
            if batches:
                await self._send(state, chunks)
                chunks = []
                await asyncio.sleep(0)  # let CANCEL and other clients in
            if state.cancel_event.is_set():
                state.cancel_event.clear()
                self.stats.cancelled += 1
                chunks += self._error_chunks(
                    OperationalError("statement cancelled by the client mid-stream")
                )
                await self._send(state, chunks)
                return
            frame = protocol.batch_chunks(
                [column.view_slice(start, start + step) for column in columns]
            )
            size = sum(map(len, frame))
            batches += 1
            self.stats.batches_streamed += 1
            self.stats.bytes_streamed += size
            self.stats.peak_batch_bytes = max(self.stats.peak_batch_bytes, size)
            chunks += frame
        chunks += protocol.frame_chunks(Msg.RESULT_DONE, {"batches": batches})
        await self._send(state, chunks)


def _runs_inline(session, statement) -> bool:
    """Whether a prepared statement may run on the event loop (rule 1 of
    the module docstring): a read with an unpooled, join-free plan whose
    every ``sql.bind`` has fewer than ``PARALLEL_MIN_ROWS`` rows in the
    session's current snapshot, compiled against that snapshot's schema."""
    entry = statement._compiled
    if entry.is_write or entry.is_ddl or entry.schema_token != session._schema_token():
        return False
    plan = interpreter.link(entry.program)
    if plan.pooled:
        return False
    catalog = session.catalog
    for step in plan.steps:
        op = step.instruction
        if (op.module, op.function) in _JOIN_OPS:
            return False
        if (op.module, op.function) == ("sql", "bind"):
            name, column = (arg.value for arg in op.args)
            try:
                rows = len(catalog.get(name).bind(column))
            except SciQLError:
                return False
            if rows >= interpreter.PARALLEL_MIN_ROWS:
                return False
    return True


# ----------------------------------------------------------------------
# hosting helpers
# ----------------------------------------------------------------------
class ServerThread:
    """Host a :class:`ReproServer` on a background event-loop thread.

    ``with ServerThread(database) as server: repro.connect(server.url)``
    is the test/benchmark/example idiom; production deployments use
    :func:`serve` (or ``python -m repro.net.server``) on a foreground
    loop instead.
    """

    def __init__(self, database: Optional[Database] = None, **kwargs):
        self.server = ReproServer(database, **kwargs)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="repro-net-server", daemon=True
        )

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    def start(self) -> "ServerThread":
        self._thread.start()
        asyncio.run_coroutine_threadsafe(
            self.server.start(), self._loop
        ).result(timeout=30)
        return self

    @property
    def address(self) -> tuple[str, int]:
        return self.server.address

    @property
    def url(self) -> str:
        return self.server.url

    def stop(self, drain_timeout: Optional[float] = None) -> None:
        """Tear the server down; *drain_timeout* > 0 drains gracefully."""
        if not self._thread.is_alive():
            return
        asyncio.run_coroutine_threadsafe(
            self.server.shutdown(drain_timeout), self._loop
        ).result(timeout=60)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
        self._loop.close()

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve(
    database: Optional[Database] = None,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    **kwargs,
) -> None:
    """Run a server on the current thread until interrupted."""

    async def _main() -> None:
        server = ReproServer(database, host, port, **kwargs)
        bound_host, bound_port = await server.start()
        print(f"repro server listening on repro://{bound_host}:{bound_port}")
        try:
            await server.serve_forever()
        finally:
            await server.aclose()

    asyncio.run(_main())


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Serve a repro database over TCP."
    )
    parser.add_argument("--host", default=DEFAULT_HOST)
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument(
        "--path", default=None, help="farm directory to open (default: in-memory)"
    )
    parser.add_argument(
        "--durable",
        action="store_true",
        help="keep commits durable via the write-ahead log (needs --path)",
    )
    parser.add_argument("--max-sessions", type=int, default=None)
    parser.add_argument("--batch-rows", type=int, default=None)
    args = parser.parse_args(argv)
    if args.path is not None:
        database = Database.open(args.path, durable=args.durable)
    else:
        database = Database()
    try:
        serve(
            database,
            args.host,
            args.port,
            max_sessions=args.max_sessions,
            batch_rows=args.batch_rows,
        )
    except KeyboardInterrupt:
        pass
    finally:
        database.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
