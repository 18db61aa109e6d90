"""The process shard backend: one forked worker per shard, GIL escaped.

The thread backend tops out near ~2.5× scaling because hashing and node
encoding are GIL-bound pure python.  This module places each shard's
:class:`~repro.service.engine.ShardEngine` in its **own forked worker
process** — Forkbase's shard-isolated worker architecture — so the
per-shard flush/lookup work runs on independent interpreters:

* **Ownership** — the worker builds and exclusively owns its shard's
  store (a ``SegmentNodeStore`` under ``directory/shard-NN``, or an
  in-memory store).  The parent never opens a shard store in process
  mode, so there is no cross-process file-descriptor sharing to reason
  about.
* **Command pipes** — each shard has a duplex pipe carrying pickled
  ``(method, args)`` engine commands parent→worker and ``("ok", result)``
  / ``("error", exception)`` replies back; the commands are the rows of
  :data:`~repro.service.engine.SHARD_COMMANDS`.  The worker executes
  them strictly serially, which *is* the shard's mutual exclusion — the
  parent-side :class:`~repro.service.engine.ShardHandle` keeps the shard
  mutex and contention counters of the service's locking discipline,
  over a :class:`PipeTransport` whose pipe lock keeps concurrent
  lock-free reads from interleaving frames on the wire.
* **Two-phase commits** — the service's control plane prepares a commit
  by pipelining ``apply_ops`` to every worker (apply + store fsync),
  collects the shard roots, and only then journals the cut once in the
  parent's MANIFEST.  A worker death during prepare surfaces as
  :class:`~repro.core.errors.ShardExecutionError` and the journal is
  never touched — recovery lands exactly on the previous cut.
* **Fault injection** — ``set_fault("flush"|"prepare")`` arms a
  SIGKILL-self kill-point in the worker (mid-batch, or at the prepare
  barrier), which is how the fault suite
  (``tests/service/test_process_faults.py``) exercises every crash
  window of the commit protocol.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import threading
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.diff import DiffResult
from repro.core.errors import InvalidParameterError, ShardExecutionError
from repro.core.interfaces import KeyLike, coerce_key
from repro.core.proof import MerkleProof, ProofStep
from repro.hashing.digest import Digest
from repro.service.engine import SHARD_COMMANDS, ShardEngine, ShardHandle

#: Kill-points a worker accepts via the ``set_fault`` command: ``"flush"``
#: SIGKILLs the worker at the top of a *non-empty* batch application
#: (mid-batch crash), ``"prepare"`` at the top of any ``apply_ops`` /
#: ``store_flush`` command (the two-phase-commit prepare barrier).
FAULT_POINTS = ("flush", "prepare")

#: Exception types raised by a broken/closed command pipe.
_PIPE_ERRORS = (EOFError, BrokenPipeError, ConnectionResetError, OSError)


def _picklable_exception(exc: BaseException) -> BaseException:
    """Return ``exc`` if it survives a pickle round trip, else a stand-in.

    Exceptions with custom constructor signatures can fail to unpickle on
    the parent side, which would desynchronize nothing (the frame is read
    whole) but surface as a confusing ``TypeError``; degrade them to a
    ``RuntimeError`` carrying the original type name and message instead.
    """
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    # repro-lint: disable=L5-exception-policy — pickle round-trip guard: user __reduce__ hooks can raise anything; the fallback RuntimeError still crosses the pipe
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def shard_worker_main(conn, engine_builder: Callable[[], ShardEngine]) -> None:
    """The worker process body: build the engine, serve commands until EOF.

    Commands are ``(method, args)`` tuples executed strictly in arrival
    order.  The dispatch table is :data:`~repro.service.engine.SHARD_COMMANDS`
    bound to this worker's engine, plus ``set_fault`` — which arms a
    kill-point (see :data:`FAULT_POINTS`) checked in front of
    ``apply_ops`` and ``store_flush``; ``close_store`` also ends the
    loop.  Engine exceptions are replied as ``("error", exc)`` and
    re-raised on the caller's side with their original type; only
    transport failures become
    :class:`~repro.core.errors.ShardExecutionError` (in the parent).
    """
    engine = engine_builder()
    commands: Dict[str, Callable] = {
        method: getattr(engine, method) for method in SHARD_COMMANDS}
    fault_point: Optional[str] = None

    def set_fault(point: Optional[str]) -> None:
        """Arm (or clear, with ``None``) the worker's kill-point."""
        nonlocal fault_point
        if point is not None and point not in FAULT_POINTS:
            raise InvalidParameterError(
                f"unknown fault point {point!r}; expected one of "
                f"{FAULT_POINTS} or None")
        fault_point = point

    def apply_ops(puts, removes):
        """``engine.apply_ops`` behind the ``flush``/``prepare`` kill-points."""
        if fault_point == "prepare" or (
                fault_point == "flush" and (puts or removes)):
            os.kill(os.getpid(), signal.SIGKILL)
        return engine.apply_ops(puts, removes)

    def store_flush() -> None:
        """``engine.store_flush`` behind the ``prepare`` kill-point."""
        if fault_point == "prepare":
            os.kill(os.getpid(), signal.SIGKILL)
        engine.store_flush()

    commands.update(set_fault=set_fault, apply_ops=apply_ops,
                    store_flush=store_flush)
    while True:
        try:
            method, args = conn.recv()
        except _PIPE_ERRORS:
            break  # parent went away: exit quietly, stores stay crash-safe
        try:
            if method not in commands:
                raise InvalidParameterError(f"unknown shard command {method!r}")
            reply = ("ok", commands[method](*args))
        # repro-lint: disable=L5-exception-policy — worker loop: the error is shipped to the parent over the pipe and re-raised there with its original type
        except BaseException as exc:  # engine errors travel to the caller
            reply = ("error", _picklable_exception(exc))
        try:
            conn.send(reply)
        except _PIPE_ERRORS:
            break
        if method == "close_store" and reply[0] == "ok":
            break


class PipeTransport:
    """Parent-side end of one shard worker's command pipe.

    :meth:`send` pickles ``(method, args)`` to the worker and :meth:`recv`
    collects the reply.  ``send`` takes the pipe lock and ``recv`` gives
    it back, so a command and its reply are never interleaved with
    another thread's — lock-free versioned reads share the wire with
    locked mutations — and a command may stay in flight between the two
    calls (the split-phase flush of the commit protocol).

    A dead worker (SIGKILL, OOM, crash) surfaces as
    :class:`~repro.core.errors.ShardExecutionError` naming the shard and
    the in-flight command; the transport then stays dead — every later
    command fails fast the same way until the service is reopened.
    """

    def __init__(self, shard_id: int, process, conn):
        self.shard_id = shard_id
        self._process = process
        self._conn = conn
        self._lock = threading.Lock()
        self._alive = True

    @property
    def pid(self) -> Optional[int]:
        """OS pid of the worker process (the fault suite SIGKILLs it)."""
        return self._process.pid

    @property
    def is_alive(self) -> bool:
        """Whether the transport still believes its worker is serving."""
        return self._alive and self._process.is_alive()

    def _dead(self, method: str, cause: BaseException) -> ShardExecutionError:
        self._alive = False
        return ShardExecutionError(self.shard_id, method, cause)

    def send(self, method: str, args: Tuple) -> None:
        """Ship one command; the pipe is held until :meth:`recv`."""
        self._lock.acquire()
        try:
            if not self._alive:
                raise ShardExecutionError(
                    self.shard_id, method,
                    RuntimeError("shard worker process is dead; reopen() the "
                                 "service to restart it"))
            try:
                self._conn.send((method, args))
            except _PIPE_ERRORS as exc:
                raise self._dead(method, exc) from exc
        except BaseException:
            self._lock.release()
            raise

    def recv(self, method: str):
        """Collect the reply to the command in flight and unwrap it."""
        try:
            status, payload = self._conn.recv()
        except _PIPE_ERRORS as exc:
            raise self._dead(method, exc) from exc
        finally:
            self._lock.release()
        if status == "error":
            raise payload
        return payload

    def call(self, method: str, *args):
        """One command round trip."""
        self.send(method, args)
        return self.recv(method)

    def view(self, root: Optional[Digest],
             record_count: Optional[int]) -> "RemoteShardView":
        """An immutable view of ``root``, served by the worker."""
        return RemoteShardView(self, root, record_count)

    def close(self) -> None:
        """Shut the worker down: graceful command first, SIGTERM fallback."""
        if self._alive:
            try:
                self.call("close_store")
            except ShardExecutionError:
                pass  # already dead: nothing graceful left to do
        self._alive = False
        self._process.join(timeout=5.0)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=5.0)
        try:
            self._conn.close()
        except OSError:
            pass


class RemoteShardView:
    """An immutable read view of one shard root, served by its worker.

    The process-backend counterpart of
    :class:`~repro.core.interfaces.IndexSnapshot`: the same read protocol
    (``get``/``items``/``keys``/``values``/``to_dict``/``len``/``diff``/
    ``prove``/``update``), backed by command round trips instead of local
    tree walks.  Roots are content addresses, so the view stays valid as
    the shard's head advances; like any snapshot, reads can fail with
    ``NodeNotFoundError`` after garbage collection reclaims an
    unprotected root.
    """

    __slots__ = ("_transport", "root_digest", "_record_count")

    def __init__(self, transport: PipeTransport, root: Optional[Digest],
                 record_count: Optional[int] = None):
        self._transport = transport
        #: Root digest of the viewed version (``None`` = empty shard).
        self.root_digest = root
        self._record_count = record_count

    @property
    def root_hex(self) -> Optional[str]:
        """Hex form of the root digest (``None`` for an empty shard)."""
        return self.root_digest.hex if self.root_digest is not None else None

    def get(self, key: KeyLike, default: Optional[bytes] = None) -> Optional[bytes]:
        """Return the value bound to ``key`` or ``default`` when absent."""
        value = self._transport.call("lookup_at", self.root_digest, coerce_key(key))
        return value if value is not None else default

    def __contains__(self, key: KeyLike) -> bool:
        return self.get(key) is not None

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        """Iterate ``(key, value)`` records in ascending key order."""
        return iter(self._transport.call("scan", self.root_digest))

    def items_range(self, start: Optional[bytes] = None,
                    stop: Optional[bytes] = None) -> Iterator[Tuple[bytes, bytes]]:
        """Iterate records with ``start <= key < stop``, keys ascending.

        The range is pruned worker-side (the engine's ``scan_range``), so
        only the matching records cross the pipe.
        """
        return iter(self._transport.call("scan_range", self.root_digest, start, stop))

    def keys(self) -> Iterator[bytes]:
        """Iterate keys in ascending order."""
        for key, _ in self.items():
            yield key

    def values(self) -> Iterator[bytes]:
        """Iterate values in ascending key order."""
        for _, value in self.items():
            yield value

    def to_dict(self) -> Dict[bytes, bytes]:
        """Materialize the full shard content as a dictionary."""
        return dict(self.items())

    def __len__(self) -> int:
        if self._record_count is None:
            self._record_count = self._transport.call("count_at", self.root_digest)
        return self._record_count

    def update(self, puts: Optional[Dict] = None, removes: Iterable = ()) -> "RemoteShardView":
        """Copy-on-write a batch onto this view; returns the new view."""
        coerced_puts = {coerce_key(k): v for k, v in (puts or {}).items()}
        coerced_removes = [coerce_key(k) for k in removes]
        new_root = self._transport.call(
            "write_at", self.root_digest, coerced_puts, coerced_removes)
        return RemoteShardView(self._transport, new_root, None)

    def diff(self, other: "RemoteShardView") -> DiffResult:
        """Structural diff against another view of the *same* shard."""
        if not isinstance(other, RemoteShardView) or other._transport is not self._transport:
            raise InvalidParameterError(
                "RemoteShardView.diff requires a view of the same shard "
                "worker (cross-shard diffs go through the service)")
        return self._transport.call("diff", self.root_digest, other.root_digest)

    def prove(self, key: KeyLike) -> MerkleProof:
        """A Merkle proof for ``key`` under this view's root.

        Rebuilt from the worker's transportable proof parts; the
        index-specific binding check does not cross the process boundary,
        so verification falls back to the conservative containment check
        — the same trust model as proofs shipped over the wire protocol.
        """
        key_bytes = coerce_key(key)
        value, index_name, steps = self._transport.call(
            "prove", self.root_digest, key_bytes)
        return MerkleProof(
            key=key_bytes,
            value=value,
            steps=[ProofStep(node_bytes, level) for level, node_bytes in steps],
            index_name=index_name,
        )

    def node_digests(self):
        """The page (node digest) set reachable from this view's root."""
        return self._transport.call("node_digests", self.root_digest)

    def __repr__(self) -> str:
        root = self.root_hex
        return (f"RemoteShardView(shard={self._transport.shard_id}, "
                f"root={root[:12] if root else None})")


class ProcessShardBackend:
    """Forks one engine worker per shard and wires up the command pipes.

    The fork start method is required: engine builders are closures over
    the service's configuration (index factories, parked node seeds) that
    must reach the child by address-space inheritance, not pickling — and
    fork is also what makes per-example worker fleets cheap enough for
    the hypothesis-driven equivalence suite.
    """

    def __init__(self):
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX platforms
            raise InvalidParameterError(
                "backend='process' requires the fork start method "
                "(POSIX only)") from exc

    def start(self, engine_builders: List[Callable[[], ShardEngine]]
              ) -> List[ShardHandle]:
        """Fork one worker per builder; returns the shard handles in order.

        Workers are daemonic, so stray processes die with the parent even
        if a test forgets to close the service.
        """
        handles: List[ShardHandle] = []
        for shard_id, builder in enumerate(engine_builders):
            parent_conn, child_conn = self._context.Pipe(duplex=True)
            process = self._context.Process(
                target=shard_worker_main, args=(child_conn, builder),
                name=f"repro-shard-{shard_id}", daemon=True)
            process.start()
            child_conn.close()  # the worker owns its end now
            handles.append(ShardHandle(
                shard_id, pipe=PipeTransport(shard_id, process, parent_conn)))
        return handles
