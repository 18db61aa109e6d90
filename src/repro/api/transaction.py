"""Transactions: isolated staging buffers with optimistic commit.

A :class:`Transaction` gives a multi-step update three guarantees the
bare branch staging buffer does not:

* **Snapshot isolation for reads** — the transaction pins the branch
  head's roots when it begins; its reads resolve against that frozen
  state (plus its own writes) no matter what commits land on the branch
  meanwhile.  Immutability makes this free: pinned roots never change.
* **All-or-nothing application** — :meth:`commit` applies the whole
  buffer as one batched copy-on-write update journalled in a single
  fsynced append across all shards; :meth:`abort` (or an exception when
  used as a context manager) drops it without a trace.
* **Conflict detection** — if other commits advanced the branch while
  the transaction ran, :meth:`commit` diffs the intervening history
  against the transaction's key set.  Disjoint updates are rebased onto
  the new head and applied; overlapping ones raise
  :class:`~repro.core.errors.TransactionConflictError` (optimistic
  concurrency — re-read and retry).

Example::

    with Repository.open() as repo:
        accounts = repo.default_branch
        accounts.put(b"alice", b"100")
        accounts.put(b"bob", b"50")
        accounts.commit("open accounts")
        with accounts.transaction("transfer") as txn:
            alice = int(txn[b"alice"])
            bob = int(txn[b"bob"])
            txn.put(b"alice", str(alice - 10))
            txn.put(b"bob", str(bob + 10))
        # committed atomically here; on exception: discarded
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional, Tuple

from repro.core.errors import (
    KeyNotFoundError,
    TransactionClosedError,
    TransactionConflictError,
)
from repro.core.interfaces import KeyLike, ValueLike, coerce_key, coerce_value
from repro.service.service import ServiceCommit

from repro.api.branch import (
    Branch,
    StagedOps,
    lookup_with_overlay,
    overlay_items,
    range_with_overlay,
)


class Transaction:
    """One isolated, atomically-committed batch of reads and writes.

    Obtain via :meth:`repro.api.branch.Branch.transaction`.  A transaction
    is single-shot: after :meth:`commit` or :meth:`abort` every operation
    raises :class:`~repro.core.errors.TransactionClosedError`.

    Transactions are *not* shared between threads; open one per worker
    (commits still serialize correctly on the branch lock underneath).

    The base view is pinned against :meth:`Repository.collect_garbage`
    for the transaction's lifetime, so snapshot-isolated reads cannot
    dangle; always resolve transactions (commit or abort — the context
    manager does) or the pin persists for the process lifetime.
    """

    def __init__(self, branch: Branch, message: str = ""):
        """Begin a transaction over ``branch``'s current committed head."""
        self.branch = branch
        self.message = message
        head = branch.head
        #: Version of the branch head this transaction read from (None =
        #: the branch was unborn); the optimistic check compares against it.
        self.base_version: Optional[int] = head.version if head is not None else None
        service = branch.repository.service
        base_roots = branch.roots
        #: The pinned base commit (None for an unborn branch); secondary
        #: -index reads resolve against its journalled posting roots.
        self._base_commit: Optional[ServiceCommit] = head
        self._base_snapshot = service.snapshot_roots(base_roots)
        # Pin the base view against GC: the snapshot-isolation promise
        # must hold even if the branch churns past the retention window
        # and collect_garbage() runs while this transaction is open.
        self._pin_id = service.pin_roots(base_roots)
        self._staged: StagedOps = {}
        self._outcome: Optional[str] = None
        #: Set by commit(): the commit that applied this transaction.
        self.commit_result: Optional[ServiceCommit] = None

    # -- state guards ------------------------------------------------------

    @property
    def is_open(self) -> bool:
        """Whether the transaction can still stage and commit."""
        return self._outcome is None

    def _require_open(self) -> None:
        if self._outcome is not None:
            raise TransactionClosedError(
                f"transaction already {self._outcome}; begin a new one")

    # -- reads (snapshot isolation + read-your-writes) ---------------------

    def get(self, key: KeyLike, default: Optional[bytes] = None) -> Optional[bytes]:
        """Read ``key`` from this transaction's view (own writes first)."""
        self._require_open()
        key_bytes = coerce_key(key)
        if key_bytes in self._staged:
            value = self._staged[key_bytes]
            return value if value is not None else default
        value = self._base_snapshot.get(key_bytes)
        return value if value is not None else default

    def __getitem__(self, key: KeyLike) -> bytes:
        value = self.get(key)
        if value is None:
            raise KeyNotFoundError(key)
        return value

    def __contains__(self, key: KeyLike) -> bool:
        return self.get(key) is not None

    def scan(self, start: Optional[KeyLike] = None,
             stop: Optional[KeyLike] = None) -> Iterator[Tuple[bytes, bytes]]:
        """Iterate the transaction's view in ascending key order."""
        self._require_open()
        start_bytes = coerce_key(start) if start is not None else None
        stop_bytes = coerce_key(stop) if stop is not None else None
        for key, value in overlay_items(self._base_snapshot.items(), dict(self._staged)):
            if start_bytes is not None and key < start_bytes:
                continue
            if stop_bytes is not None and key >= stop_bytes:
                return
            yield key, value

    def lookup(self, index, key: KeyLike):
        """Secondary-index lookup inside the transaction's isolated view.

        Mirrors :meth:`repro.api.branch.Branch.lookup` — sorted
        ``(primary_key, value)`` pairs — but resolves against the pinned
        base commit's posting trees plus this transaction's own staged
        writes, so the answer is snapshot-isolated like every other read.
        """
        self._require_open()
        definition = self.branch._resolve_index(index)
        return lookup_with_overlay(
            self.branch.repository.service, definition, coerce_key(key),
            self._base_commit, self._base_snapshot, dict(self._staged))

    def range(self, index, lo: Optional[KeyLike] = None,
              hi: Optional[KeyLike] = None):
        """Secondary-index range query inside the transaction's view.

        Mirrors :meth:`repro.api.branch.Branch.range` (``lo`` inclusive,
        ``hi`` exclusive over index keys; sorted ``(index_key,
        primary_key, value)`` triples) against the pinned base plus this
        transaction's staged writes.
        """
        self._require_open()
        definition = self.branch._resolve_index(index)
        return range_with_overlay(
            self.branch.repository.service, definition,
            coerce_key(lo) if lo is not None else None,
            coerce_key(hi) if hi is not None else None,
            self._base_commit, self._base_snapshot, dict(self._staged))

    # -- writes ------------------------------------------------------------

    def put(self, key: KeyLike, value: ValueLike) -> None:
        """Stage a write (visible to this transaction's reads only)."""
        self._require_open()
        self._staged[coerce_key(key)] = coerce_value(value)

    def remove(self, key: KeyLike) -> None:
        """Stage a removal (visible to this transaction's reads only)."""
        self._require_open()
        self._staged[coerce_key(key)] = None

    def put_many(self, items) -> None:
        """Stage many writes at once (dict or iterable of pairs)."""
        self._require_open()
        pairs = items.items() if isinstance(items, Mapping) else items
        for key, value in pairs:
            self._staged[coerce_key(key)] = coerce_value(value)

    @property
    def staged_count(self) -> int:
        """Number of staged operations."""
        return len(self._staged)

    # -- outcome -----------------------------------------------------------

    def commit(self, message: Optional[str] = None) -> Optional[ServiceCommit]:
        """Apply the buffer atomically; optimistic conflict check first.

        Returns the new head commit (or the unchanged head for an empty
        transaction).  Raises
        :class:`~repro.core.errors.TransactionConflictError` when a
        concurrent commit changed any key this transaction staged.  The
        transaction then stays open **rebased onto the new head**: reads
        serve the branch's current committed values (plus this
        transaction's staged writes), and the *contended* staged
        operations are discarded — they were derived from stale reads —
        so the caller can re-read the contended keys, re-stage, and call
        :meth:`commit` again — or :meth:`abort`.
        """
        self._require_open()
        if not self._staged:
            self._close("committed")
            self.commit_result = self.branch.head
            return self.commit_result
        final_message = message if message is not None else self.message
        try:
            commit = self.branch._apply(dict(self._staged), final_message,
                                        expected_head_version=self.base_version)
        except TransactionConflictError as conflict:
            self._rebase_to_head(conflict.keys)
            raise
        self._close("committed")
        self.commit_result = commit
        return commit

    def _rebase_to_head(self, contended_keys) -> None:
        """Move the base view to the branch's current head after a conflict.

        The contended staged entries are dropped (their values came from
        reads the concurrent commit invalidated); the rest are kept.
        Reads now resolve against the fresh head, so "re-read and retry"
        genuinely observes the concurrent change that caused the
        conflict.  The old base's GC pin is swapped for one on the new
        base.
        """
        for key in contended_keys:
            self._staged.pop(key, None)
        service = self.branch.repository.service
        head = self.branch.head
        self.base_version = head.version if head is not None else None
        self._base_commit = head
        self._base_snapshot = service.snapshot_roots(self.branch.roots)
        new_pin = service.pin_roots(self.branch.roots)
        service.unpin_roots(self._pin_id)
        self._pin_id = new_pin

    def abort(self) -> None:
        """Discard every staged operation; the branch never sees them."""
        self._require_open()
        self._staged.clear()
        self._close("aborted")

    def _close(self, outcome: str) -> None:
        """Resolve the transaction and release its GC pin."""
        self._outcome = outcome
        self.branch.repository.service.unpin_roots(self._pin_id)

    def __enter__(self) -> "Transaction":
        self._require_open()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if self._outcome is not None:
            return  # already resolved explicitly inside the block
        if exc_type is not None:
            self.abort()
            return
        try:
            self.commit()
        except BaseException:
            # The block is over — nobody can retry an implicit commit, so
            # a conflict (or any failure) must not leave the transaction
            # open holding its GC pin.
            if self._outcome is None:
                self.abort()
            raise

    def __repr__(self) -> str:
        state = self._outcome or "open"
        base = f"v{self.base_version}" if self.base_version is not None else "unborn"
        return (f"Transaction(branch={self.branch.name!r}, base={base}, "
                f"staged={len(self._staged)}, {state})")
