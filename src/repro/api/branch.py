"""Branch handles: staged writes, reads, history and O(1) forks.

A :class:`Branch` is a named line of development inside a
:class:`~repro.api.repository.Repository`.  Its *committed* state is the
tuple of per-shard root digests recorded by the branch's head commit;
because roots address immutable copy-on-write trees, two branches share
every node they have in common and forking costs one journal append.

Writes stage in a small in-memory buffer (last-writer-wins per key) and
become durable — and visible to other readers of the branch — only at
:meth:`Branch.commit`, which applies the whole buffer as one batched
copy-on-write update and journals the new roots atomically across all
shards.  Reads are *read-your-writes*: :meth:`Branch.get` and
:meth:`Branch.scan` overlay the staged buffer on the committed state.

For isolated multi-step updates use :meth:`Branch.transaction`, which
snapshots the branch head on entry and detects conflicting concurrent
commits at commit time (:mod:`repro.api.transaction`).
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.core.diff import DiffResult
from repro.core.errors import InvalidParameterError, KeyNotFoundError, TransactionConflictError
from repro.core.interfaces import KeyLike, ValueLike, coerce_key, coerce_value
from repro.core.proof import MerkleProof
from repro.hashing.digest import Digest
from repro.query.definition import IndexDefinition, encode_posting_key
from repro.service.service import ServiceCommit, ServiceSnapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.repository import Repository
    from repro.api.transaction import Transaction

#: Sentinel distinguishing "no expectation" from "expected no head".
_UNSET = object()

#: A staging buffer: key -> value, or None for a staged removal.
StagedOps = Dict[bytes, Optional[bytes]]


def route_staged_ops(service, staged: StagedOps):
    """Partition a staging buffer into per-shard put/remove batches.

    ``None`` values are removals — the one convention shared by branch
    commits and merges, kept in a single place so both surfaces always
    route an operation identically.  Returns ``(puts_by_shard,
    removes_by_shard)`` sized to the service's shard count.
    """
    num_shards = service.num_shards
    puts_by_shard: List[Dict[bytes, bytes]] = [{} for _ in range(num_shards)]
    removes_by_shard: List[List[bytes]] = [[] for _ in range(num_shards)]
    for key, value in staged.items():
        shard_id = service.shard_of(key)
        if value is None:
            removes_by_shard[shard_id].append(key)
        else:
            puts_by_shard[shard_id][key] = value
    return puts_by_shard, removes_by_shard


def prefix_upper_bound(prefix: bytes) -> Optional[bytes]:
    """The smallest key greater than every key starting with ``prefix``.

    Used to turn a prefix constraint into an exclusive ``stop`` bound for
    range-pruned scans.  ``None`` when no such key exists (the prefix is
    empty or all ``0xFF`` bytes — the range is unbounded above).
    """
    for position in range(len(prefix) - 1, -1, -1):
        if prefix[position] != 0xFF:
            return prefix[:position] + bytes([prefix[position] + 1])
    return None


def scan_bounds(start: Optional[bytes], stop: Optional[bytes],
                prefix: Optional[bytes]) -> Tuple[Optional[bytes], Optional[bytes]]:
    """The ``[start, stop)`` range of a scan with ``prefix`` folded in.

    Keys starting with ``prefix`` are exactly those in
    ``[prefix, prefix_upper_bound(prefix))``, so the prefix narrows the
    bounds and a range-pruned scan reads only that range.
    """
    if prefix is not None:
        if start is None or start < prefix:
            start = prefix
        upper = prefix_upper_bound(prefix)
        if upper is not None and (stop is None or upper < stop):
            stop = upper
    return start, stop


def committed_postings(service, commit: Optional[ServiceCommit],
                       definition: IndexDefinition,
                       index_key: bytes) -> Optional[List[Tuple[bytes, bytes]]]:
    """``(primary_key, value)`` pairs under ``index_key`` in ``commit``.

    Answered entirely from the commit's covering posting trees — one
    pruned contiguous scan, no primary-tree reads.  Returns ``None``
    when the commit has no posting roots for the index (it predates
    registration) — the caller falls back to a scan-filter.  An unborn
    branch (``commit is None``) has no records, so ``[]``.
    """
    if commit is None:
        return []
    roots = commit.index_root_map().get(definition.name)
    if roots is None:
        return None
    return service.index_lookup(roots, index_key)


def committed_posting_triples(
        service, commit: Optional[ServiceCommit],
        definition: IndexDefinition,
        lo: Optional[bytes],
        hi: Optional[bytes]) -> Optional[List[Tuple[bytes, bytes, bytes]]]:
    """``(index_key, primary_key, value)`` triples with ``lo <= index_key < hi``.

    Same fallback contract as :func:`committed_postings`: ``None`` means
    the commit carries no posting roots for this index.
    """
    if commit is None:
        return []
    roots = commit.index_root_map().get(definition.name)
    if roots is None:
        return None
    return service.index_range(roots, lo, hi)


def lookup_with_overlay(service, definition: IndexDefinition, index_key: bytes,
                        commit: Optional[ServiceCommit], snapshot: ServiceSnapshot,
                        staged: StagedOps) -> List[Tuple[bytes, bytes]]:
    """Secondary-index lookup over a committed view plus a staging buffer.

    Committed matches come straight from the commit's covering posting
    trees (or, for commits predating the index, a scan-filter over the
    snapshot); the staging buffer then overlays them exactly like
    primary reads: staged removals and overwrites drop the committed
    match, staged values whose extracted keys include ``index_key`` add
    one.  Returns sorted ``(primary_key, value)`` pairs.
    """
    committed = committed_postings(service, commit, definition, index_key)
    if committed is None:
        committed = [(key, value) for key, value in snapshot.items()
                     if index_key in definition.keys_for(value)]
    results = [(key, value) for key, value in committed if key not in staged]
    for key, value in staged.items():
        if value is not None and index_key in definition.keys_for(value):
            results.append((key, value))
    results.sort()
    return results


def range_with_overlay(service, definition: IndexDefinition,
                       lo: Optional[bytes], hi: Optional[bytes],
                       commit: Optional[ServiceCommit], snapshot: ServiceSnapshot,
                       staged: StagedOps) -> List[Tuple[bytes, bytes, bytes]]:
    """Secondary-index range query with staged overlay.

    Returns sorted ``(index_key, primary_key, value)`` triples for every
    effective record whose extracted keys intersect ``[lo, hi)`` —
    committed covering postings first (one pruned range scan), then the
    staging buffer's adds/overrides, mirroring
    :func:`lookup_with_overlay`.
    """
    triples = committed_posting_triples(service, commit, definition, lo, hi)
    if triples is None:
        triples = []
        for key, value in snapshot.items():
            for index_key in definition.keys_for(value):
                if lo is not None and index_key < lo:
                    continue
                if hi is not None and index_key >= hi:
                    continue
                triples.append((index_key, key, value))
        triples.sort()
    results = [(index_key, key, value) for index_key, key, value in triples
               if key not in staged]
    for key, value in staged.items():
        if value is None:
            continue
        for index_key in definition.keys_for(value):
            if lo is not None and index_key < lo:
                continue
            if hi is not None and index_key >= hi:
                continue
            results.append((index_key, key, value))
    results.sort()
    return results


def overlay_items(committed: Iterator[Tuple[bytes, bytes]],
                  staged: StagedOps) -> Iterator[Tuple[bytes, bytes]]:
    """Merge-join a committed (key, value) stream with a staging buffer.

    Staged puts override committed values, staged removals (``None``)
    suppress them, and both streams stay in ascending key order.
    """
    pending = sorted(staged.items())
    position = 0
    for key, value in committed:
        while position < len(pending) and pending[position][0] < key:
            staged_key, staged_value = pending[position]
            if staged_value is not None:
                yield staged_key, staged_value
            position += 1
        if position < len(pending) and pending[position][0] == key:
            staged_value = pending[position][1]
            if staged_value is not None:
                yield key, staged_value
            position += 1
        else:
            yield key, value
    for staged_key, staged_value in pending[position:]:
        if staged_value is not None:
            yield staged_key, staged_value


class Branch:
    """One named branch of a repository (obtain via the repository).

    All methods are safe to call from any thread; staged writes and
    commits on the *same* branch serialize on the branch's lock, while
    different branches proceed in parallel.
    """

    def __init__(self, repository: "Repository", name: str):
        """Bind a handle to ``name``; use the repository's accessors instead."""
        self.repository = repository
        self.name = name
        self._service = repository.service
        self._staged: StagedOps = {}
        self._lock = threading.RLock()
        #: (head version, snapshot) cache for committed-state reads.
        self._snapshot_cache: Optional[Tuple[Optional[int], ServiceSnapshot]] = None

    # -- committed state ---------------------------------------------------

    @property
    def head(self) -> Optional[ServiceCommit]:
        """The branch's newest commit (``None`` before the first commit)."""
        if self._service.has_branch(self.name):
            return self._service.branch_head(self.name)
        return None

    @property
    def roots(self) -> Tuple[Optional[Digest], ...]:
        """Per-shard root digests of the committed head (all-empty if none)."""
        head = self.head
        if head is None:
            return (None,) * self._service.num_shards
        return head.roots

    def snapshot(self) -> ServiceSnapshot:
        """An immutable view of the committed head (staged writes excluded)."""
        head = self.head
        version = head.version if head is not None else None
        cached = self._snapshot_cache
        if cached is not None and cached[0] == version:
            return cached[1]
        snapshot = self._service.snapshot_roots(self.roots, commit=head)
        self._snapshot_cache = (version, snapshot)
        return snapshot

    def record_count(self) -> int:
        """Records in the committed head (staged writes excluded)."""
        return len(self.snapshot())

    # -- staged writes -----------------------------------------------------

    def put(self, key: KeyLike, value: ValueLike) -> None:
        """Stage a write of ``key = value`` (visible to this branch's reads)."""
        with self._lock:
            self._staged[coerce_key(key)] = coerce_value(value)

    def remove(self, key: KeyLike) -> None:
        """Stage a removal of ``key`` (absent keys are ignored at commit)."""
        with self._lock:
            self._staged[coerce_key(key)] = None

    def put_many(self, items) -> None:
        """Stage many writes at once (dict or iterable of pairs)."""
        pairs = items.items() if isinstance(items, Mapping) else items
        with self._lock:
            for key, value in pairs:
                self._staged[coerce_key(key)] = coerce_value(value)

    @property
    def staged_count(self) -> int:
        """Number of staged-but-uncommitted operations."""
        return len(self._staged)

    def discard(self) -> None:
        """Drop every staged operation without committing."""
        with self._lock:
            self._staged.clear()

    # -- reads (read-your-writes) ------------------------------------------

    def get(self, key: KeyLike, default: Optional[bytes] = None) -> Optional[bytes]:
        """Read ``key``: staged value if any, else the committed head's."""
        key_bytes = coerce_key(key)
        with self._lock:
            if key_bytes in self._staged:
                value = self._staged[key_bytes]
                return value if value is not None else default
        value = self.snapshot().get(key_bytes)
        return value if value is not None else default

    def __getitem__(self, key: KeyLike) -> bytes:
        value = self.get(key)
        if value is None:
            raise KeyNotFoundError(key)
        return value

    def __contains__(self, key: KeyLike) -> bool:
        return self.get(key) is not None

    def scan(self, start: Optional[KeyLike] = None, stop: Optional[KeyLike] = None,
             prefix: Optional[KeyLike] = None) -> Iterator[Tuple[bytes, bytes]]:
        """Iterate ``(key, value)`` pairs in ascending key order.

        Bound contract (pinned — every index family and both shard
        backends behave identically): ``start`` is **inclusive**,
        ``stop`` is **exclusive** — keys satisfy ``start <= key < stop``
        — and ``None`` leaves that end open.  ``prefix`` restricts to
        keys beginning with those bytes and composes with the bounds
        (it is folded into them: ``prefix <= key < prefix+1``).

        Staged operations are overlaid on the committed state, like
        :meth:`get`.  The committed stream is range-pruned per shard
        (:meth:`~repro.core.interfaces.SIRIIndex.iterate_range`), so a
        narrow scan costs the range, not the dataset.
        """
        lo, hi = scan_bounds(*(None if bound is None else coerce_key(bound)
                               for bound in (start, stop, prefix)))
        with self._lock:
            staged = dict(self._staged)
        for key, value in overlay_items(self.snapshot().items_range(lo, hi), staged):
            # The committed stream honours the bounds already; re-checking
            # here filters the staged overlay (whose keys are unbounded).
            if lo is not None and key < lo:
                continue
            if hi is not None and key >= hi:
                return
            yield key, value

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        """Iterate every record (staged overlay included), keys ascending."""
        return self.scan()

    def keys(self) -> Iterator[bytes]:
        """Iterate every key (staged overlay included), ascending."""
        for key, _ in self.scan():
            yield key

    def to_dict(self) -> Dict[bytes, bytes]:
        """Materialize the branch's effective content as a dictionary."""
        return dict(self.scan())

    # -- secondary-index queries -------------------------------------------

    def _resolve_index(self, index) -> IndexDefinition:
        """Map an index name (or definition) to its registered definition."""
        name = index.name if isinstance(index, IndexDefinition) else index
        definition = self._service.index_definitions().get(name)
        if definition is None:
            raise InvalidParameterError(
                f"no secondary index named {name!r} is registered "
                "(Repository.register_index)")
        return definition

    def lookup(self, index, key: KeyLike) -> List[Tuple[bytes, bytes]]:
        """Records filed under index key ``key`` by secondary index ``index``.

        Returns sorted ``(primary_key, value)`` pairs.  Committed matches
        are answered from the head commit's posting trees — a pruned
        range scan, no primary-data walk — and the staging buffer is
        overlaid exactly like primary reads (:meth:`get`): staged
        removals and overwrites hide committed matches, staged values
        whose extracted keys include ``key`` appear.  Head commits
        predating the index registration fall back to a scan-filter, so
        the answer is always exact.
        """
        definition = self._resolve_index(index)
        index_key = coerce_key(key)
        with self._lock:
            staged = dict(self._staged)
        return lookup_with_overlay(self._service, definition, index_key,
                                   self.head, self.snapshot(), staged)

    def range(self, index, lo: Optional[KeyLike] = None,
              hi: Optional[KeyLike] = None) -> List[Tuple[bytes, bytes, bytes]]:
        """Records whose index keys fall in ``[lo, hi)`` under ``index``.

        Bound contract matches :meth:`scan`: ``lo`` inclusive, ``hi``
        exclusive, ``None`` = open end — over *index* keys, not primary
        keys.  Returns sorted ``(index_key, primary_key, value)`` triples
        with the staged overlay applied (see :meth:`lookup`).
        """
        definition = self._resolve_index(index)
        lo_bytes = coerce_key(lo) if lo is not None else None
        hi_bytes = coerce_key(hi) if hi is not None else None
        with self._lock:
            staged = dict(self._staged)
        return range_with_overlay(self._service, definition, lo_bytes, hi_bytes,
                                  self.head, self.snapshot(), staged)

    def prove_posting(self, index, key: KeyLike, primary_key: KeyLike) -> MerkleProof:
        """A Merkle proof that ``primary_key`` is posted under index key ``key``.

        The proof anchors to the branch's **committed head**: its top
        step hashes to the posting root recorded (and digest-mixed) by
        the head commit —
        ``head.index_root_map()[name][service.shard_of(primary_key)]`` —
        so a verifier holding the commit can check the posting without
        trusting this process.  Staged operations are unprovable (raise
        after :meth:`commit`); a head predating the index registration
        has no posting roots and raises
        :class:`~repro.core.errors.InvalidParameterError`.
        """
        definition = self._resolve_index(index)
        index_key = coerce_key(key)
        primary = coerce_key(primary_key)
        head = self.head
        roots = (head.index_root_map().get(definition.name)
                 if head is not None else None)
        if roots is None:
            raise InvalidParameterError(
                f"branch {self.name!r} has no committed posting roots for "
                f"index {definition.name!r}; commit first")
        shard_id = self._service.shard_of(primary)
        view = self._service.snapshot_roots(roots).shards[shard_id]
        return view.prove(encode_posting_key(index_key, primary))

    # -- committing --------------------------------------------------------

    def commit(self, message: str = "", allow_empty: bool = False) -> Optional[ServiceCommit]:
        """Apply the staged buffer as one atomic cross-shard commit.

        Returns the new head commit — or the current head unchanged when
        nothing is staged (pass ``allow_empty=True`` to journal an empty
        commit anyway, e.g. as a marker).  The journal append is the
        atomicity point: a crash before it loses only the staged buffer, a
        crash after it recovers the new head on reopen.
        """
        with self._lock:
            if not self._staged and not allow_empty:
                return self.head
            staged = dict(self._staged)
            commit = self._apply(staged, message)
            self._staged.clear()
            return commit

    def _apply(self, staged: StagedOps, message: str,
               expected_head_version=_UNSET) -> ServiceCommit:
        """Commit ``staged`` on top of the branch head (branch lock held).

        ``expected_head_version`` is the optimistic-concurrency check used
        by transactions: if the head moved past it, the staged keys are
        compared against everything the intervening commits changed —
        disjoint updates are rebased onto the new head, overlapping ones
        raise :class:`~repro.core.errors.TransactionConflictError`.
        """
        with self._lock:
            head = self.head
            head_version = head.version if head is not None else None
            if expected_head_version is not _UNSET and head_version != expected_head_version:
                self._check_rebase(staged, expected_head_version)
            puts_by_shard, removes_by_shard = route_staged_ops(self._service, staged)
            parents = (head_version,) if head_version is not None else ()
            commit = self._service.commit_update(
                self.name, self.roots, puts_by_shard, removes_by_shard,
                message=message, parents=parents)
            self._snapshot_cache = None
            return commit

    def load(self, items, message: str = "bulk load") -> Optional[ServiceCommit]:
        """Bulk-import ``items`` into this branch as **one** journalled commit.

        The records (dict or iterable of pairs; duplicates coalesce
        last-writer-wins) are routed per shard once and applied as a
        single batched copy-on-write update per shard — on an empty or
        unborn branch that update is the index's O(N) bottom-up bulk
        builder — and the resulting roots are journalled atomically as
        one commit.  This is the ingest path for seeding a branch with a
        large dataset; for streaming writes keep using :meth:`put` /
        :meth:`commit`.

        The staging buffer is untouched: operations staged before the
        load stay staged (and keep overlaying reads) until their own
        :meth:`commit`, exactly as if another writer had committed to the
        branch.  Returns the new head commit, or the unchanged head when
        ``items`` is empty.
        """
        pairs = items.items() if isinstance(items, Mapping) else items
        puts: StagedOps = {coerce_key(k): coerce_value(v) for k, v in pairs}
        with self._lock:
            head = self.head
            if not puts:
                return head
            head_version = head.version if head is not None else None
            puts_by_shard, removes_by_shard = route_staged_ops(self._service, puts)
            parents = (head_version,) if head_version is not None else ()
            commit = self._service.commit_update(
                self.name, self.roots, puts_by_shard, removes_by_shard,
                message=message, parents=parents)
            self._snapshot_cache = None
            return commit

    def _check_rebase(self, staged: StagedOps, expected_head_version) -> None:
        """Raise unless ``staged`` is disjoint from the intervening commits."""
        if expected_head_version is None:
            base = self._service.snapshot_roots((None,) * self._service.num_shards)
        else:
            base = self._service.snapshot(expected_head_version)
        intervening = base.diff(self.snapshot())
        contended = sorted({entry.key for entry in intervening} & set(staged))
        if contended:
            raise TransactionConflictError(contended)

    # -- forks, history, diffs ---------------------------------------------

    def fork(self, name: str) -> "Branch":
        """Create branch ``name`` at this branch's head (O(1), no data copied)."""
        if self._staged:
            raise InvalidParameterError(
                f"branch {self.name!r} has {len(self._staged)} staged "
                "operation(s); commit or discard before forking")
        return self.repository.create_branch(name, from_branch=self.name)

    def history(self) -> List[ServiceCommit]:
        """This branch's first-parent commit chain, newest first."""
        if not self._service.has_branch(self.name):
            return []
        return list(self._service.log(self.name))

    def diff(self, other) -> DiffResult:
        """Structural diff of committed heads: this branch vs ``other``.

        ``other`` may be a :class:`Branch`, a branch name, a commit, or a
        version number.  Entries are ordered by key; shared subtrees are
        pruned by digest, so the cost scales with the difference.
        """
        if isinstance(other, Branch):
            other_snapshot = other.snapshot()
        elif isinstance(other, str):
            other_snapshot = self.repository.branch(other).snapshot()
        else:
            other_snapshot = self._service.snapshot(other)
        return self.snapshot().diff(other_snapshot)

    def merge(self, theirs, message: str = "", resolver=None):
        """Merge ``theirs`` (branch or name) into this branch (three-way)."""
        return self.repository.merge(self, theirs, message=message, resolver=resolver)

    def transaction(self, message: str = "") -> "Transaction":
        """An isolated read-your-writes transaction over this branch.

        Use as a context manager: commits on clean exit, discards on
        exception.  See :class:`repro.api.transaction.Transaction`.
        """
        from repro.api.transaction import Transaction

        return Transaction(self, message=message)

    def __repr__(self) -> str:
        head = self.head
        at = f"v{head.version}" if head is not None else "unborn"
        return (f"Branch({self.name!r}, head={at}, "
                f"staged={len(self._staged)})")
