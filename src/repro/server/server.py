"""The asyncio front door: bounded admission queues over the service stack.

:class:`RepositoryServer` listens on a TCP socket, decodes request
frames (:mod:`repro.server.protocol`) and admits each request into one
of ``num_shards + 1`` **bounded** :class:`asyncio.Queue`\\ s: single-key
operations (``GET``, ``PROVE``) go to the queue of the shard that owns
the key, everything cross-shard or control-plane goes to the last
("control") queue.  A full queue rejects the request *immediately* with
a ``BUSY`` frame — the server never buffers without limit, so a slow
storage backend translates into visible backpressure at the clients
instead of unbounded memory growth (the invariant
``tests/server/test_backpressure.py`` hammers).

Each queue is drained by one worker coroutine that runs the blocking
handler on a small dispatch thread pool (sized to the queue count, so
every queue can make progress even when another queue's handler blocks
on slow storage).  Cross-shard handlers fan out through the shared
:class:`~repro.service.executor.ServiceExecutor` — a *separate* pool, so
a handler waiting on its shard tasks can never deadlock against them.

Failure handling draws the line at the frame boundary: an operation
error (unknown key, unknown branch, a shard task failing) is answered
with an ``ERROR`` frame and the connection remains usable, while a
*protocol* error (malformed frame) is answered with a best-effort
``ERROR`` frame and then the connection is closed, because a byte
stream that failed to parse has no trustworthy frame boundary to resume
from.  Graceful shutdown stops accepting, drains every queue, then
closes connections — in-flight requests are answered, never dropped.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.errors import (
    InvalidParameterError,
    KeyNotFoundError,
    ProtocolError,
    ReproError,
    SyncHeadMovedError,
    SyncIntegrityError,
)
from repro.core.version import UnknownBranchError
from repro.hashing.digest import Digest
from repro.server import protocol
from repro.server.metrics import ServerMetrics
from repro.server.protocol import (
    CommitInfo,
    Op,
    Request,
    Response,
    Status,
    WireBranchHead,
    WireProof,
)
from repro.service.executor import ServiceExecutor, ShardExecutionError
from repro.service.service import ServiceCommit, VersionedKVService

#: Bytes read from a socket per loop iteration.
_READ_CHUNK = 64 * 1024

#: Default capacity of each admission queue.
DEFAULT_QUEUE_CAPACITY = 64


def _error_code_for(exc: BaseException) -> str:
    """The wire error code for an exception (see docs/SERVER.md table)."""
    if isinstance(exc, KeyNotFoundError):
        return "key_not_found"
    if isinstance(exc, UnknownBranchError):
        return "unknown_branch"
    if isinstance(exc, InvalidParameterError):
        return "invalid_parameter"
    if isinstance(exc, ShardExecutionError):
        return "shard_execution"
    if isinstance(exc, ProtocolError):
        return "protocol"
    if isinstance(exc, SyncIntegrityError):
        return "sync_integrity"
    if isinstance(exc, SyncHeadMovedError):
        return "sync_head_moved"
    if isinstance(exc, ReproError):
        return "repro_error"
    return "internal"


def _commit_info(commit: ServiceCommit) -> CommitInfo:
    """Convert a :class:`ServiceCommit` to its wire form."""
    return CommitInfo(
        version=commit.version,
        digest=commit.digest.raw,
        branch=commit.branch,
        parents=tuple(commit.parents),
        timestamp=commit.timestamp,
        message=commit.message,
        roots=tuple(None if root is None else root.raw for root in commit.roots),
    )


class _Connection:
    """One accepted client connection (reader task + serialized writes)."""

    def __init__(self, server: "RepositoryServer",
                 reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.server = server
        self.reader = reader
        self.writer = writer
        self.decoder = protocol.FrameDecoder(server.max_frame_bytes)
        self._write_lock = asyncio.Lock()
        self.closing = False
        #: Requests admitted for this connection but not yet answered.
        self.inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()

    def note_admitted(self) -> None:
        """One request for this connection entered an admission queue."""
        self.inflight += 1
        self._idle.clear()

    def note_done(self) -> None:
        """One admitted request was answered (or abandoned)."""
        self.inflight -= 1
        if self.inflight <= 0:
            self._idle.set()

    async def wait_idle(self, timeout: float = 30.0) -> None:
        """Wait until every admitted request has been answered."""
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
        except asyncio.TimeoutError:
            pass

    async def send(self, response: Response) -> None:
        """Encode and write one response frame (safe from many tasks)."""
        frame = protocol.encode_frame(protocol.encode_response(response),
                                      self.server.max_frame_bytes)
        async with self._write_lock:
            if self.closing:
                return
            try:
                self.writer.write(frame)
                await self.writer.drain()
            except (ConnectionError, OSError, RuntimeError):
                # The client went away mid-response; the read loop will
                # observe EOF and retire the connection.
                self.closing = True

    async def close(self) -> None:
        """Close the transport (idempotent)."""
        async with self._write_lock:
            if self.closing:
                return
            self.closing = True
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, RuntimeError):
            pass


class RepositoryServer:
    """Serves a repository (or raw service) over the wire protocol.

    Parameters
    ----------
    repository:
        A :class:`repro.api.Repository` or a bare
        :class:`~repro.service.VersionedKVService` to serve.
    host / port:
        Listen address; port 0 picks a free port (read :attr:`address`
        after :meth:`start`).
    executor:
        A :class:`ServiceExecutor` to share; by default the server
        creates (and then owns) one over the service.
    queue_capacity:
        Bound of each admission queue; a full queue answers ``BUSY``.
    max_frame_bytes:
        Frame size limit enforced on both directions.
    """

    def __init__(self, repository, *, host: str = "127.0.0.1", port: int = 0,
                 executor: Optional[ServiceExecutor] = None,
                 queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
                 max_frame_bytes: int = protocol.MAX_FRAME_BYTES):
        if queue_capacity <= 0:
            raise InvalidParameterError("queue_capacity must be positive")
        if isinstance(repository, VersionedKVService):
            from repro.api.repository import Repository
            repository = Repository.from_service(repository, owns_service=False)
        self.repository = repository
        self.service: VersionedKVService = repository.service
        self.host = host
        self.port = port
        self.max_frame_bytes = max_frame_bytes
        self.queue_capacity = queue_capacity
        self._owns_executor = executor is None
        self.executor = executor or ServiceExecutor(self.service)
        #: One queue per shard for single-key ops + one control queue.
        self.num_queues = self.service.num_shards + 1
        self.metrics = ServerMetrics(self.num_queues)
        self._queues: List[asyncio.Queue] = []
        self._workers: List[asyncio.Task] = []
        self._connections: Set[_Connection] = set()
        self._reader_tasks: Set[asyncio.Task] = set()
        self._dispatch: Optional[ThreadPoolExecutor] = None
        self._listener: Optional[asyncio.base_events.Server] = None
        self._stopped: Optional[asyncio.Event] = None
        self._draining = False

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        return (self.host, self.port)

    async def start(self) -> Tuple[str, int]:
        """Bind the listener and start the queue workers."""
        if self._listener is not None:
            raise RuntimeError("server already started")
        self._stopped = asyncio.Event()
        self._queues = [asyncio.Queue(maxsize=self.queue_capacity)
                        for _ in range(self.num_queues)]
        self._dispatch = ThreadPoolExecutor(
            max_workers=self.num_queues, thread_name_prefix="repro-serve")
        self._workers = [asyncio.ensure_future(self._worker(index))
                         for index in range(self.num_queues)]
        self._listener = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.host, self.port = self._listener.sockets[0].getsockname()[:2]
        return self.address

    async def serve_forever(self) -> None:
        """Block until :meth:`shutdown` completes (starts if needed)."""
        if self._listener is None:
            await self.start()
        await self._stopped.wait()

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish queued work, close.

        In-flight and already-admitted requests are executed and
        answered; only then are connections closed.  Idempotent.
        """
        if self._listener is None or self._draining:
            return
        self._draining = True
        self._listener.close()
        await self._listener.wait_closed()
        # Everything admitted before the listener closed gets answered.
        for queue in self._queues:
            await queue.join()
        for worker in self._workers:
            worker.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        for task in list(self._reader_tasks):
            task.cancel()
        await asyncio.gather(*self._reader_tasks, return_exceptions=True)
        for connection in list(self._connections):
            await connection.close()
        self._connections.clear()
        if self._dispatch is not None:
            self._dispatch.shutdown(wait=True)
        if self._owns_executor:
            self.executor.close()
        self._stopped.set()

    # -- connection handling -----------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        connection = _Connection(self, reader, writer)
        self._connections.add(connection)
        self.metrics.record_connection_opened()
        task = asyncio.current_task()
        if task is not None:
            self._reader_tasks.add(task)
        try:
            await self._read_loop(connection)
        except asyncio.CancelledError:
            pass
        finally:
            if task is not None:
                self._reader_tasks.discard(task)
            await connection.close()
            self._connections.discard(connection)
            self.metrics.record_connection_closed()

    async def _read_loop(self, connection: _Connection) -> None:
        while not connection.closing:
            try:
                chunk = await connection.reader.read(_READ_CHUNK)
            except (ConnectionError, OSError):
                return
            if not chunk:
                return  # client closed; partial frames are simply dropped
            try:
                frames = connection.decoder.feed(chunk)
            except ProtocolError as exc:
                # The stream itself is unframeable — but frames that
                # completed before the corruption are valid pipelined
                # requests: admit them, let their answers go out, then
                # report the error and hang up.
                self.metrics.record_protocol_error()
                salvaged_ok = True
                for body in connection.decoder.take_completed():
                    if not await self._admit(connection, body):
                        salvaged_ok = False
                        break
                await connection.wait_idle()
                if salvaged_ok:
                    await connection.send(Response(
                        status=Status.ERROR, op=Op.PING, request_id=0,
                        error_code="protocol", error_message=str(exc)))
                return
            for body in frames:
                if not await self._admit(connection, body):
                    # Earlier frames from this chunk may still be in
                    # flight; answer them before the close.
                    await connection.wait_idle()
                    return

    async def _admit(self, connection: _Connection, body: bytes) -> bool:
        """Decode one frame and enqueue it; False closes the connection."""
        try:
            request = protocol.decode_request(body)
        except ProtocolError as exc:
            # The frame boundary held but the body is garbage: answer,
            # then close — the codec gives no way to trust what follows.
            self.metrics.record_protocol_error()
            await connection.send(Response(
                status=Status.ERROR, op=Op.PING,
                request_id=protocol.peek_request_id(body),
                error_code="protocol", error_message=str(exc)))
            return False
        queue_index = self._route(request)
        queue = self._queues[queue_index]
        if queue.full() or self._draining:
            self.metrics.record_rejected(queue_index)
            await connection.send(Response(
                status=Status.BUSY, op=request.op,
                request_id=request.request_id,
                error_code="busy",
                error_message=f"admission queue {queue_index} is full"))
            return True
        self.metrics.record_admitted(queue_index)
        connection.note_admitted()
        queue.put_nowait((connection, request))
        return True

    def _route(self, request: Request) -> int:
        """Queue index for a request: owning shard, or the control queue."""
        if request.op in (Op.GET, Op.PROVE) and request.key is not None:
            return self.service.shard_of(request.key)
        return self.num_queues - 1

    # -- queue workers -------------------------------------------------------

    async def _worker(self, queue_index: int) -> None:
        queue = self._queues[queue_index]
        loop = asyncio.get_event_loop()
        while True:
            connection, request = await queue.get()
            started = time.perf_counter()
            try:
                try:
                    response = await loop.run_in_executor(
                        self._dispatch, self._execute, request)
                # repro-lint: disable=L5-exception-policy — any operation error must become an error frame; the connection and the queue's only worker survive (docs/SERVER.md error table)
                except Exception as exc:  # operation failed, connection lives
                    response = Response(
                        status=Status.ERROR, op=request.op,
                        request_id=request.request_id,
                        error_code=_error_code_for(exc),
                        error_message=str(exc))
                await self._answer(connection, response)
            finally:
                self.metrics.record_completed(
                    queue_index, request.op.name.lower(),
                    time.perf_counter() - started)
                connection.note_done()
                queue.task_done()

    async def _answer(self, connection: _Connection,
                      response: Response) -> None:
        """Send a response without ever killing the worker that calls it.

        ``encode_response`` raises :class:`ProtocolError` when a result
        body (a large ``SCAN``/``DIFF``/``GET_MANY``) exceeds
        ``max_frame_bytes``; the client must still get an answer and the
        queue's only worker must survive, so an encode failure degrades
        to a small ``response_too_large`` error frame and any other send
        failure is counted instead of propagating.
        """
        try:
            await connection.send(response)
            return
        except asyncio.CancelledError:
            raise
        except ProtocolError as exc:
            self.metrics.record_send_error()
            fallback = Response(
                status=Status.ERROR, op=response.op,
                request_id=response.request_id,
                error_code="response_too_large",
                error_message=str(exc))
        # repro-lint: disable=L5-exception-policy — a send failure must never kill the queue's only worker (PR 6 review fix); it is counted in ServerMetrics.send_errors instead
        except Exception:
            self.metrics.record_send_error()
            return
        try:
            await connection.send(fallback)
        except asyncio.CancelledError:
            raise
        # repro-lint: disable=L5-exception-policy — best-effort fallback frame on an already-failing connection; the error was already counted and the worker must survive
        except Exception:
            pass

    # -- request execution (dispatch-pool threads) ----------------------------

    def _execute(self, request: Request) -> Response:
        """Run one decoded request against the service stack."""
        response = Response(status=Status.OK, op=request.op,
                            request_id=request.request_id)
        HANDLERS[request.op](self, request, response)
        return response

    # One handler per op, named ``_op_<op name>``; each fills in the
    # response attributes its schema row (protocol.SCHEMA) sends back.

    def _op_ping(self, request: Request, response: Response) -> None:
        pass

    def _op_get(self, request: Request, response: Response) -> None:
        response.value = self.service.get(
            request.key, default=None, version=request.version)

    def _op_get_many(self, request: Request, response: Response) -> None:
        response.values = self.executor.get_many(
            request.keys, version=request.version)

    def _op_put_many(self, request: Request, response: Response) -> None:
        self.executor.put_many(request.items)
        response.ack_count = len(request.items)

    def _op_remove_many(self, request: Request, response: Response) -> None:
        self.executor.remove_many(request.keys)
        response.ack_count = len(request.keys)

    def _op_scan(self, request: Request, response: Response) -> None:
        start, stop, prefix = request.start, request.stop, request.prefix
        selected = response.items = []
        for key, value in self.executor.scan(version=request.version):
            if start is not None and key < start:
                continue
            if stop is not None and key >= stop:
                break
            if prefix is not None:
                if not key.startswith(prefix):
                    if key > prefix:
                        break
                    continue
            if request.limit and len(selected) >= request.limit:
                response.truncated = True
                break
            selected.append((key, value))

    def _op_diff(self, request: Request, response: Response) -> None:
        left = (request.version if request.version is not None
                else self.service.snapshot())
        entries = self.executor.diff(left, request.right_version).entries
        response.diff_entries = [(e.key, e.left, e.right) for e in entries]

    def _op_commit(self, request: Request, response: Response) -> None:
        response.commit = _commit_info(self.executor.commit(request.message))

    def _op_snapshot(self, request: Request, response: Response) -> None:
        response.commit = _commit_info(self._commit_at(request.version))

    def _op_branches(self, request: Request, response: Response) -> None:
        response.branches = self.repository.branches()

    def _op_branch_create(self, request: Request, response: Response) -> None:
        self.repository.create_branch(request.branch, request.from_branch)
        self._op_branch_head(request, response)

    def _op_branch_head(self, request: Request, response: Response) -> None:
        response.commit = _commit_info(self.service.branch_head(request.branch))

    def _op_prove(self, request: Request, response: Response) -> None:
        # The proof answer plus the shard root anchoring it.
        snapshot = self.service.snapshot(self._commit_at(request.version))
        shard_id = self.service.shard_of(request.key)
        shard_snap = snapshot.shards[shard_id]
        proof = shard_snap.prove(request.key)
        root = shard_snap.root_digest
        response.proof = WireProof(
            key=proof.key,
            value=proof.value,
            index_name=proof.index_name,
            shard_id=shard_id,
            root=None if root is None else root.raw,
            steps=[(step.level, step.node_bytes) for step in proof.steps],
        )

    def _op_fetch_heads(self, request: Request, response: Response) -> None:
        response.num_shards = self.service.router.num_shards
        response.heads = []
        for branch in self.service.branches():
            head = self.service.branch_head(branch)
            response.heads.append(WireBranchHead(
                branch=branch,
                digest=head.digest.raw,
                roots=tuple(None if root is None else root.raw
                            for root in head.roots),
                ancestry=tuple(
                    digest.raw for digest
                    in self.service.ancestry_digests(branch)),
            ))

    def _op_fetch_nodes(self, request: Request, response: Response) -> None:
        digests = [Digest(raw) for raw in request.digests]
        response.mode_flag = request.missing_only
        if request.missing_only:
            response.digests = [
                digest.raw for digest in self.service.shard_missing_digests(
                    request.shard_id, digests)]
        else:
            response.items = [
                (digest.raw, data) for digest, data
                in self.service.shard_fetch_nodes(request.shard_id, digests)]
            self.metrics.record_sync_sent(
                len(response.items),
                sum(len(data) for _, data in response.items))

    def _op_push_nodes(self, request: Request, response: Response) -> None:
        response.mode_flag = request.publish
        if request.publish:
            roots = [None if raw is None else Digest(raw)
                     for raw in request.roots]
            expected = (None if request.expected is None
                        else Digest(request.expected))
            response.commit = _commit_info(self.service.publish_roots(
                request.branch, roots, message=request.message,
                expected_digest=expected))
        else:
            pairs = [(Digest(raw), data) for raw, data in request.items]
            response.ack_count = self.service.shard_import_nodes(
                request.shard_id, pairs)
            self.metrics.record_sync_received(
                len(pairs), sum(len(data) for _, data in pairs))

    def _op_subscribe(self, request: Request, response: Response) -> None:
        branch = request.branch or self.service.default_branch
        if (not self.service.has_branch(branch)
                and branch != self.service.default_branch):
            raise UnknownBranchError(branch)
        response.cursor_version = request.version
        response.cursor_offset = 0

    def _op_poll_feed(self, request: Request, response: Response) -> None:
        from repro.query.feed import FeedCursor, poll_feed
        branch = request.branch or self.service.default_branch
        events, cursor, up_to_date = poll_feed(
            self.service, branch,
            FeedCursor(request.version, request.feed_offset),
            limit=request.limit or None,
            filter=request.prefix)
        response.events = [
            (event.version, event.digest.raw, event.key,
             event.old, event.new)
            for event in events]
        response.cursor_version = cursor.version
        response.cursor_offset = cursor.offset
        response.up_to_date = up_to_date

    def _commit_at(self, version: Optional[int]) -> ServiceCommit:
        """The commit record of ``version`` (default branch head if None)."""
        if version is None:
            return self.service.branch_head(self.service.default_branch)
        return self.service.snapshot(version).commit


#: Op → handler, one per schema row: an op whose ``_op_<name>`` method is
#: missing fails here, at import.
HANDLERS: Dict[Op, Callable[[RepositoryServer, Request, Response], None]] = {
    op: getattr(RepositoryServer, f"_op_{op.name.lower()}")
    for op in protocol.SCHEMA}


class ServerThread:
    """Runs a :class:`RepositoryServer` on a background event loop.

    The test suites and benchmarks need a live server without giving up
    their (synchronous) thread; this helper owns the loop thread::

        with ServerThread(RepositoryServer(repo)) as address:
            client = RemoteRepository(*address)

    :meth:`stop` performs the server's graceful drain before the loop
    exits; exiting the ``with`` block calls it.
    """

    def __init__(self, server: RepositoryServer):
        self.server = server
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The server's bound ``(host, port)``."""
        return self.server.address

    def start(self) -> Tuple[str, int]:
        """Start the loop thread; returns the bound address."""
        if self._thread is not None:
            raise RuntimeError("ServerThread already started")
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-server-loop")
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") from self._startup_error
        return self.address

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            try:
                loop.run_until_complete(self.server.start())
            # repro-lint: disable=L5-exception-policy — parked for the caller: ServerThread.start() re-raises this on the starting thread
            except BaseException as exc:
                self._startup_error = exc
                return
            finally:
                self._started.set()
            loop.run_until_complete(self.server.serve_forever())
        finally:
            loop.close()
            asyncio.set_event_loop(None)

    def stop(self) -> None:
        """Drain and stop the server, then join the loop thread."""
        if self._thread is None or self._loop is None:
            return
        if self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(
                self.server.shutdown(), self._loop)
            future.result(timeout=60)
        self._thread.join(timeout=60)
        self._thread = None

    def __enter__(self) -> Tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
