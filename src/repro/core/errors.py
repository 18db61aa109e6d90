"""Exception hierarchy for the SIRI reproduction library.

All library-specific exceptions derive from :class:`ReproError` so callers
can catch everything coming out of this package with a single ``except``
clause while still being able to distinguish the individual failure modes
that matter operationally (missing node, corrupted node, merge conflict,
failed proof verification).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Tuple, Type

if TYPE_CHECKING:
    from repro.hashing.digest import Digest


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class NodeNotFoundError(ReproError, KeyError):
    """A node digest was requested that the node store does not contain.

    In a content-addressed store this indicates either data loss or a
    dangling reference (e.g. a version whose nodes were garbage
    collected).
    """

    def __init__(self, digest: "Digest", message: str = ""):
        self.digest = digest
        detail = message or f"node {digest!r} not found in store"
        super().__init__(detail)


class CorruptNodeError(ReproError):
    """Stored node bytes do not hash to the digest they are filed under.

    This is the tamper-evidence path: any bit flip in a stored node is
    detected when the node is re-hashed on read (or during proof
    verification) and surfaces as this exception.
    """

    def __init__(self, digest: "Digest", message: str = ""):
        self.digest = digest
        detail = message or f"node {digest!r} failed integrity verification"
        super().__init__(detail)


class KeyNotFoundError(ReproError, KeyError):
    """A lookup key is not present in the index snapshot."""

    def __init__(self, key: bytes, message: str = ""):
        self.key = key
        detail = message or f"key {key!r} not found"
        super().__init__(detail)


class MergeConflictError(ReproError):
    """Two index versions assign different values to the same key.

    The paper's merge operation must be interrupted on conflicts and a
    resolution strategy supplied by the caller (Section 4.1.4); this
    exception carries the conflicting keys so the caller can resolve and
    retry.
    """

    def __init__(self, conflicts: Iterable[bytes], message: str = ""):
        self.conflicts = list(conflicts)
        detail = message or f"merge conflict on {len(self.conflicts)} key(s)"
        super().__init__(detail)


class ShardExecutionError(ReproError):
    """A per-shard task failed; no partial cross-shard result was produced.

    Raised by :class:`repro.service.executor.ServiceExecutor` when a
    fanned-out shard task fails, and by the process shard backend
    (:mod:`repro.service.process`) when a shard worker process dies or
    its command pipe breaks.  In both cases the failing operation is
    abandoned whole — callers never observe a result assembled from a
    subset of shards, and a cross-shard commit whose prepare phase raised
    this error is never journalled.

    Attributes
    ----------
    shard_id:
        The shard whose task (or worker process) failed first.
    operation:
        Short name of the failing operation ("get_many", "commit",
        "apply_ops", ...).

    The original exception is chained as ``__cause__``.
    """

    def __init__(self, shard_id: int, operation: str, cause: BaseException):
        self.shard_id = shard_id
        self.operation = operation
        super().__init__(
            f"shard {shard_id} failed during {operation}: {cause!r}"
        )

    def __reduce__(self) -> Tuple[Type["ShardExecutionError"], Tuple[int, str, BaseException]]:
        # The informative constructor takes (shard_id, operation, cause),
        # not the formatted message in ``args`` — spell the reconstruction
        # out so the error survives a pickled trip through a command pipe.
        return (type(self), (self.shard_id, self.operation,
                             self.__cause__ or RuntimeError("unknown cause")))


class ProofVerificationError(ReproError):
    """A Merkle proof failed to verify against the trusted root digest."""


class ImmutableWriteError(ReproError):
    """An attempt was made to mutate an immutable snapshot in place."""


class InvalidParameterError(ReproError, ValueError):
    """An index or workload was configured with invalid parameters."""


class StoreClosedError(ReproError, RuntimeError):
    """An operation was attempted on a node store after it was closed.

    Durable stores (:class:`repro.storage.segment.SegmentNodeStore`)
    reject reads and writes once :meth:`close` has flushed their final
    batch, so a lifecycle bug cannot silently write nodes that the next
    open will never see.
    """


class ServiceClosedError(ReproError, RuntimeError):
    """An operation was attempted on a closed :class:`VersionedKVService`.

    Raised by every service entry point between :meth:`close` and the
    next :meth:`open`/:meth:`reopen`, mirroring the store-level
    :class:`StoreClosedError` one layer up.
    """


class ProtocolError(ReproError):
    """Malformed bytes on the wire protocol (:mod:`repro.server.protocol`).

    Raised by the frame decoder and the request/response codecs for any
    input they cannot parse — truncated payloads, trailing garbage,
    unknown opcodes, oversized frames, invalid UTF-8.  The decoder's
    contract is that arbitrary bytes produce *this* exception (never a
    crash, never an over-read): a server can always answer a malformed
    frame with an error frame instead of dying.
    """


class ServerBusyError(ReproError):
    """The server rejected a request because its admission queue was full.

    The wire server bounds every per-shard request queue; when a queue is
    full the request is refused immediately with a ``BUSY`` frame instead
    of being buffered without limit (backpressure, see ``docs/SERVER.md``).
    Clients may retry after a backoff —
    :class:`repro.server.client.RemoteRepository` does so automatically
    when configured with ``busy_retries``.
    """


class RemoteServerError(ReproError):
    """The server answered with an error frame the client cannot map back.

    Well-known error codes (``key_not_found``, ``unknown_branch``,
    ``invalid_parameter``) are re-raised client-side as their local
    exception types; everything else — shard execution failures, internal
    server errors — surfaces as this exception carrying the server's
    error ``code`` and message.
    """

    def __init__(self, code: str, message: str = ""):
        self.code = code
        super().__init__(message or f"remote server error: {code}")


class TransactionConflictError(ReproError):
    """An optimistic transaction lost a race on its branch.

    Raised by :meth:`repro.api.Transaction.commit` when another commit
    advanced the branch head after the transaction began *and* touched at
    least one of the keys this transaction staged.  Transactions whose key
    sets are disjoint from the intervening commits are rebased and applied
    instead of raising.  Carries the contended keys so the caller can
    re-read them and retry.
    """

    def __init__(self, keys: Iterable[bytes], message: str = ""):
        self.keys = list(keys)
        detail = message or (
            f"transaction conflicts with a concurrent commit on "
            f"{len(self.keys)} key(s)")
        super().__init__(detail)


class TransactionClosedError(ReproError, RuntimeError):
    """An operation was attempted on a committed or aborted transaction.

    Each :class:`repro.api.Transaction` is single-shot: after
    :meth:`commit` or :meth:`abort` it permanently rejects further
    operations, so a stale handle cannot silently stage writes that will
    never be applied.
    """


class SyncError(ReproError):
    """Anti-entropy replication failed (:mod:`repro.sync`).

    Base class for everything that can go wrong while two replicas
    exchange nodes and heads.  A failed sync never leaves a replica in an
    inconsistent state: nodes land in the content-addressed store before
    any branch head moves, so the worst case is orphaned-but-valid nodes
    that the next sync attempt reuses instead of re-transferring.
    """


class SyncIntegrityError(SyncError):
    """A transferred node's bytes do not hash to the digest it claims.

    The trust model for replication is verify-before-store: every node
    received from a sync source is re-hashed locally and compared to the
    digest it was requested under.  A lying or corrupted source raises
    this error *before* any byte of the batch is written, so a bad peer
    cannot poison the local store.
    """

    def __init__(self, digest: "Digest", message: str = ""):
        self.digest = digest
        detail = message or (
            f"sync peer sent bytes that do not hash to claimed digest "
            f"{digest!r}")
        super().__init__(detail)


class SyncHeadMovedError(SyncError):
    """A push lost the compare-and-set race on the remote branch head.

    Pushing publishes the new head only if the remote branch still points
    at the head observed when the sync session started.  A concurrent
    writer advancing the remote branch in between surfaces as this error;
    the caller re-syncs (the transferred nodes are already landed, so the
    retry pays only for the new delta).
    """

    def __init__(self, branch: str, message: str = ""):
        self.branch = branch
        detail = message or (
            f"remote branch {branch!r} advanced during sync; "
            "re-sync to merge the new head")
        super().__init__(detail)
