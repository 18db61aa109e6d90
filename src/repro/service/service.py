"""The sharded versioned key-value service.

:class:`VersionedKVService` is the serving layer the benchmarks and
examples use to drive the index structures the way an online system
would, rather than as bare library classes:

* **Sharding** — keys are hash-partitioned (:mod:`repro.service.sharding`)
  across N independent index instances, each with its own node store and
  its own root-version history.  Shards keep every tree a factor N
  smaller, which shortens root→leaf paths for both lookups and
  copy-on-write rewrites, and they are the unit of both parallelism
  (:mod:`repro.service.process` forks one worker per shard) and
  replication (anti-entropy sync — :mod:`repro.sync` — walks each
  shard's structural frontier independently through the node
  export/import entry points below).
* **Write coalescing** — puts/removes buffer per shard
  (:mod:`repro.service.batcher`) and flush through the index's batched
  :meth:`~repro.core.interfaces.SIRIIndex.write` path, amortizing node
  rewrites exactly as the paper's batched write workloads do.
* **Read-through caching** — each shard's store can be wrapped in a
  :class:`~repro.storage.cache.CachingNodeStore`; hit/miss counters are
  reported as :class:`~repro.core.metrics.CacheCounters`.
* **Versioning and branches** — :meth:`VersionedKVService.commit` captures
  a cross-shard snapshot (one root digest per shard, rolled up into a
  single service-level digest) and :meth:`get` accepts ``version=`` to
  read any committed version.  :meth:`diff` merges the per-shard
  structural diffs (:mod:`repro.core.diff`) into one result.  Every
  commit is *branch-qualified*: it records its branch name and parent
  versions, the journal persists them, and the commit DAG
  (:class:`~repro.core.version.VersionGraph`, exposed as
  :attr:`version_graph`) is rebuilt identically on every open — so
  recovery restores **every** branch head and merge bases survive
  crashes.  The flat entry points operate on the *default branch*; the
  repository API (:mod:`repro.api`) drives other branches through
  :meth:`commit_roots`/:meth:`commit_update`.

* **Durability** — constructed with ``directory=``, the service shards
  over :class:`~repro.storage.segment.SegmentNodeStore` backends and
  keeps a fsynced commit manifest: :meth:`commit` is the durability
  point, :meth:`close`/:meth:`reopen` (or a crash and a fresh
  construction over the same directory) recover exactly the last
  committed cross-shard roots.  A ``retain_versions=N`` policy plus
  :meth:`collect_garbage` reclaims the space of expired versions by
  mark-and-sweep segment compaction (:mod:`repro.storage.gc`); the
  protocol is specified in ``docs/STORAGE.md``.

* **Concurrency** — every public entry point is safe to call from any
  thread.  Each shard is guarded by its own lock (recorded in per-shard
  :class:`~repro.core.metrics.ContentionCounters`), versioned reads
  against committed roots are lock-free, and :meth:`commit` /
  :meth:`snapshot` capture an atomic cross-shard cut by briefly holding
  all shard locks.  The full model is documented in
  ``docs/ARCHITECTURE.md`` ("The concurrency model").  The *lifecycle*
  methods (:meth:`close`, :meth:`reopen`) are the one exception: call
  them on a quiesced service, not concurrently with in-flight
  operations.

The service works with any index class implementing
:class:`~repro.core.interfaces.SIRIIndex` and any
:class:`~repro.storage.store.NodeStore` backend.
"""

from __future__ import annotations

import heapq
import json
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.diff import DiffEntry, DiffResult
from repro.core.errors import CorruptNodeError, InvalidParameterError, KeyNotFoundError, ServiceClosedError, ShardExecutionError, SyncHeadMovedError
from repro.core.interfaces import IndexSnapshot, KeyLike, SIRIIndex, ValueLike, coerce_key, coerce_value
from repro.core.metrics import CacheCounters, ContentionCounters, GCCounters
from repro.core.version import UnknownBranchError, VersionGraph
from repro.hashing.digest import Digest, default_hash_function
from repro.query.definition import (
    IndexDefinition,
    decode_posting_key,
    lookup_range,
    posting_range,
)
from repro.service.batcher import ShardWriteBatcher
from repro.service.engine import ShardEngine, ShardHandle, ShardMetrics
from repro.service.process import ProcessShardBackend
from repro.service.sharding import ShardRouter
from repro.storage.cache import CachingNodeStore
from repro.storage.memory import InMemoryNodeStore
from repro.storage.segment import SegmentNodeStore, fsync_directory
from repro.storage.store import NodeStore

IndexFactory = Callable[[NodeStore], SIRIIndex]
StoreFactory = Callable[[], NodeStore]

#: Shard backends the service can run on: ``"thread"`` keeps every shard
#: engine in-process behind its shard mutex; ``"process"`` forks one
#: worker per shard (:mod:`repro.service.process`), escaping the GIL.
BACKENDS = ("thread", "process")


@dataclass(frozen=True)
class ServiceCommit:
    """One committed cross-shard version of the service.

    Attributes
    ----------
    version:
        Dense sequence number (0 for the first commit), global across all
        branches.  This is the value :meth:`VersionedKVService.get`
        accepts as ``version=``.
    roots:
        The root digest of every shard at commit time (``None`` = empty
        shard), in shard-id order.
    digest:
        Service-level digest over the shard roots — a single value that
        identifies the entire cross-shard state, tamper-evident in the
        same way as each shard's own Merkle root.
    branch:
        Name of the branch this commit advanced.  Flat-API commits land on
        the service's default branch; the repository layer
        (:mod:`repro.api`) commits on arbitrary branches.
    parents:
        Versions of the parent commits (empty for a branch's first commit,
        two for a merge commit).  Together with ``branch`` this is enough
        to rebuild the commit DAG — and therefore merge bases — from the
        journal alone.
    index_roots:
        Per-secondary-index posting-tree roots at commit time, as a
        name-sorted tuple of ``(index_name, per-shard root tuple)`` pairs
        (a tuple, not a dict, so the dataclass stays hashable).  Empty
        when no secondary index is registered — and then absent from the
        journal line and the commit digest, keeping pre-index journals
        and digests byte-identical.
    """

    version: int
    roots: Tuple[Optional[Digest], ...]
    digest: Digest
    message: str = ""
    timestamp: float = 0.0
    branch: str = "main"
    parents: Tuple[int, ...] = ()
    index_roots: Tuple[Tuple[str, Tuple[Optional[Digest], ...]], ...] = ()

    def short_id(self) -> str:
        """Truncated hex of the service-level digest (for logs)."""
        return self.digest.short()

    def is_merge(self) -> bool:
        """Whether this commit joined two branch histories."""
        return len(self.parents) > 1

    def index_root_map(self) -> Dict[str, Tuple[Optional[Digest], ...]]:
        """The commit's posting roots as ``{index name: per-shard roots}``."""
        return dict(self.index_roots)

    def shard_postings(self, shard_id: int) -> Dict[str, Optional[Digest]]:
        """Posting roots of every index on one shard (``{name: root}``)."""
        return {name: roots[shard_id] for name, roots in self.index_roots}


@dataclass
class ServiceMetrics:
    """Aggregated service counters returned by :meth:`VersionedKVService.metrics`."""

    shards: List[ShardMetrics] = field(default_factory=list)
    gets: int = 0
    puts: int = 0
    removes: int = 0
    buffered_ops: int = 0
    coalesced_ops: int = 0
    flushes: int = 0
    commits: int = 0
    #: Garbage-collection/compaction counters merged across shard stores.
    gc: GCCounters = field(default_factory=GCCounters)

    @property
    def nodes_written(self) -> int:
        """Node (page) writes summed over all shards."""
        return sum(s.nodes_written for s in self.shards)

    @property
    def nodes_read(self) -> int:
        """Node (page) reads summed over all shards."""
        return sum(s.nodes_read for s in self.shards)

    @property
    def cache(self) -> CacheCounters:
        """Cache hit/miss counters merged across shards."""
        merged = CacheCounters()
        for shard in self.shards:
            merged = merged.merge(shard.cache)
        return merged

    @property
    def coalescing_ratio(self) -> float:
        """Fraction of buffered write operations absorbed by coalescing."""
        writes = self.puts + self.removes
        return self.coalesced_ops / writes if writes else 0.0

    @property
    def contention(self) -> ContentionCounters:
        """Shard-lock contention counters merged across shards."""
        merged = ContentionCounters()
        for shard in self.shards:
            merged = merged.merge(shard.contention)
        return merged


class ServiceSnapshot:
    """An immutable cross-shard view: one per-shard snapshot view each.

    Obtained from :meth:`VersionedKVService.snapshot`.  Reads route by the
    same hash partitioning the service uses; iteration merge-joins the
    shards' ordered record streams so keys come out globally sorted.  The
    per-shard views are :class:`~repro.core.interfaces.IndexSnapshot`
    instances on the thread backend and
    :class:`~repro.service.process.RemoteShardView` command proxies on the
    process backend — both speak the same read protocol, so everything
    above this class is backend-agnostic.
    """

    __slots__ = ("shards", "router", "commit")

    def __init__(self, shards: Sequence[IndexSnapshot], commit: Optional[ServiceCommit] = None):
        self.shards = list(shards)
        self.router = ShardRouter(len(self.shards))
        self.commit = commit

    @property
    def roots(self) -> Tuple[Optional[Digest], ...]:
        """Per-shard root digests of this view."""
        return tuple(snap.root_digest for snap in self.shards)

    def get(self, key: KeyLike, default: Optional[bytes] = None) -> Optional[bytes]:
        """Return the value for ``key`` or ``default`` when absent."""
        key_bytes = coerce_key(key)
        return self.shards[self.router.shard_of(key_bytes)].get(key_bytes, default)

    def __getitem__(self, key: KeyLike) -> bytes:
        value = self.get(key)
        if value is None:
            raise KeyNotFoundError(key)
        return value

    def __contains__(self, key: KeyLike) -> bool:
        return self.get(key) is not None

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        """Iterate ``(key, value)`` pairs of all shards in ascending key order."""
        return heapq.merge(*(snap.items() for snap in self.shards))

    def items_range(self, start: Optional[bytes] = None,
                    stop: Optional[bytes] = None) -> Iterator[Tuple[bytes, bytes]]:
        """Iterate pairs with ``start <= key < stop``, keys ascending.

        ``start`` inclusive, ``stop`` exclusive, ``None`` = open end —
        the :meth:`~repro.core.interfaces.SIRIIndex.iterate_range`
        contract.  Each shard prunes its own tree to the bounds, so the
        cost scales with the range size, not the dataset.
        """
        return heapq.merge(*(snap.items_range(start, stop) for snap in self.shards))

    def keys(self) -> Iterator[bytes]:
        """Iterate all keys across shards in ascending order."""
        for key, _ in self.items():
            yield key

    def to_dict(self) -> Dict[bytes, bytes]:
        """Materialize the full cross-shard content as a dictionary."""
        return dict(self.items())

    def __len__(self) -> int:
        return sum(len(snap) for snap in self.shards)

    def diff(self, other: "ServiceSnapshot") -> DiffResult:
        """Structural diff against another view of the same service."""
        return diff_service_snapshots(self, other)

    def __repr__(self) -> str:
        version = self.commit.version if self.commit is not None else "head"
        return f"ServiceSnapshot(shards={len(self.shards)}, version={version})"


def diff_service_snapshots(left: ServiceSnapshot, right: ServiceSnapshot) -> DiffResult:
    """Merge the per-shard structural diffs of two cross-shard views.

    Because routing is deterministic, a key lives on the same shard in
    both views, so the service-level diff is exactly the union of the
    per-shard diffs — each of which prunes shared subtrees by digest
    (:func:`repro.core.diff.diff_snapshots`).  Entries are re-sorted so
    the merged result is ordered by key like a single-index diff.
    """
    if len(left.shards) != len(right.shards):
        raise InvalidParameterError(
            "cannot diff snapshots with different shard counts "
            f"({len(left.shards)} vs {len(right.shards)})"
        )
    merged = DiffResult()
    for left_snap, right_snap in zip(left.shards, right.shards):
        partial = left_snap.diff(right_snap)
        merged.entries.extend(partial.entries)
        merged.comparisons += partial.comparisons
    merged.entries.sort(key=lambda entry: entry.key)
    return merged


class VersionedKVService:
    """A sharded, write-batched, multi-version key-value service.

    Parameters
    ----------
    index_factory:
        Callable building one index per shard from a node store (an index
        *class* such as :class:`~repro.indexes.pos_tree.POSTree` works
        directly; use ``functools.partial`` to pin tuning parameters).
    num_shards:
        Number of hash partitions.  Each shard gets its own store, its own
        index instance and its own root-version history.
    store_factory:
        Callable building one backing store per shard (default
        :class:`~repro.storage.memory.InMemoryNodeStore`).
    cache_bytes:
        Capacity of the per-shard read-through LRU node cache; ``0``
        disables caching and reads hit the backing store directly.
    batch_size:
        Write-coalescing flush threshold: a shard's pending puts/removes
        are flushed through the batched write path once this many distinct
        operations are buffered.  ``1`` degenerates to unbatched
        single-operation writes (useful as a baseline).
    directory:
        Root directory for a *durable* service: each shard stores its
        nodes in an append-only :class:`SegmentNodeStore` under
        ``directory/shard-NN`` and commits are journalled to a fsynced
        ``MANIFEST.jsonl``.  Mutually exclusive with ``store_factory``.
        Construction (or :meth:`reopen`) recovers the last committed
        state — this is the crash-recovery path.
    retain_versions:
        Version retention policy: only the newest N commits (plus the
        current head) are guaranteed to survive :meth:`collect_garbage`;
        older commits stay listed and readable until a GC run reclaims
        their exclusive nodes.  ``None`` (default) retains everything.
    segment_capacity_bytes:
        Soft segment-file size for directory-backed shards.
    default_branch:
        Name of the branch the flat entry points (:meth:`put`,
        :meth:`commit`, ...) operate on, and the branch old journals
        (written before commits were branch-qualified) are attributed to.
    backend:
        Shard placement: ``"thread"`` (default) runs every shard engine
        in-process behind its shard mutex; ``"process"`` forks one worker
        process per shard (:mod:`repro.service.process`), each owning its
        shard's store, with commands travelling over per-shard pipes and
        cross-shard commits coordinated two-phase by this parent.  The
        entire public API behaves identically on both backends — the
        differential suite (``tests/service/test_backend_equivalence.py``)
        proves byte-identical roots and commit digests.

    Example
    -------
    >>> from repro.indexes import POSTree
    >>> from repro.service import VersionedKVService
    >>> service = VersionedKVService(POSTree, num_shards=4)
    >>> service.put(b"alice", b"100")
    >>> v0 = service.commit("initial balances").version
    >>> service.put(b"alice", b"175")
    >>> service.commit("pay alice")           # doctest: +ELLIPSIS
    ServiceCommit(...)
    >>> service.get(b"alice")
    b'175'
    >>> service.get(b"alice", version=v0)
    b'100'
    """

    MANIFEST_NAME = "MANIFEST.jsonl"

    #: Change-log retention: entries are kept for this many recent commits.
    FEED_LOG_COMMITS = 128
    #: Commits whose delta exceeds this many entries (bulk loads) are not
    #: captured — feeds fall back to the structural diff for them.
    FEED_LOG_MAX_ENTRIES = 10_000

    def __init__(
        self,
        index_factory: IndexFactory,
        *,
        num_shards: int = 4,
        store_factory: Optional[StoreFactory] = None,
        cache_bytes: int = 16 * 1024 * 1024,
        batch_size: int = 1024,
        directory: Optional[str] = None,
        retain_versions: Optional[int] = None,
        segment_capacity_bytes: int = 4 * 1024 * 1024,
        default_branch: str = "main",
        backend: str = "thread",
    ):
        if num_shards <= 0:
            raise InvalidParameterError("num_shards must be positive")
        if backend not in BACKENDS:
            raise InvalidParameterError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}")
        if batch_size <= 0:
            raise InvalidParameterError("batch_size must be positive")
        if cache_bytes < 0:
            raise InvalidParameterError("cache_bytes must be non-negative")
        if retain_versions is not None and retain_versions <= 0:
            raise InvalidParameterError("retain_versions must be positive (or None)")
        if directory is not None and store_factory is not None:
            raise InvalidParameterError(
                "pass either directory= (durable segment shards) or "
                "store_factory=, not both")
        if not default_branch:
            raise InvalidParameterError("default_branch must be a non-empty name")
        self.default_branch = default_branch
        self.backend = backend
        self.router = ShardRouter(num_shards)
        self.batcher = ShardWriteBatcher(num_shards, flush_threshold=batch_size)
        self.directory = directory
        self.retain_versions = retain_versions
        self._index_factory = index_factory
        self._store_factory = store_factory
        self._cache_bytes = cache_bytes
        self._segment_capacity_bytes = segment_capacity_bytes
        self._hash = default_hash_function()
        self._commits: List[ServiceCommit] = []
        #: Latest commit per branch (every branch head, not just the default).
        self._branch_heads: Dict[str, ServiceCommit] = {}
        #: The shared commit DAG (rebuilt from the journal on every open).
        self.version_graph = VersionGraph()
        #: Maps between journal versions and graph commit ids.
        self._graph_ids: Dict[int, Digest] = {}
        self._graph_versions: Dict[Digest, int] = {}
        self._shards: List = []
        self._index_name = "?"
        #: Backing stores parked by close() for an in-memory reopen()
        #: (thread backend: the store objects survive in-process).
        self._parked_backings: Optional[List[NodeStore]] = None
        #: Exported node pairs parked by close() for an in-memory
        #: reopen() (process backend: the stores die with their workers,
        #: so their *content* is pulled across the pipe and re-seeded).
        self._parked_nodes: Optional[List[Optional[List[Tuple[Digest, bytes]]]]] = None
        self._opened = False
        # Serializes commit-record creation and the cross-shard root cut.
        self._commit_lock = threading.Lock()
        # Operation counters (service-level; shard-level live on the indexes).
        # Guarded by _counter_lock: bare += on attributes is a racy
        # read-modify-write under concurrent clients.
        self._counter_lock = threading.Lock()
        self._gets = 0
        self._puts = 0
        self._removes = 0
        #: Cumulative GC counters across collect_garbage() runs.
        self._gc_total = GCCounters()
        #: Root tuples pinned against GC (open transactions' base views).
        self._pinned_roots: Dict[int, Tuple[Optional[Digest], ...]] = {}
        self._pin_counter = 0
        self._pin_lock = threading.Lock()
        #: Store-less index instance used only to parse child digests out
        #: of node bytes during sync (built lazily by child_digests()).
        self._parser_index: Optional[SIRIIndex] = None
        #: Registered secondary indexes (definitions are code, so a fresh
        #: process must re-register them after constructing the service;
        #: commits made while an index is registered journal its posting
        #: roots and stay queryable either way).
        self._index_definitions: Dict[str, IndexDefinition] = {}
        #: Per-commit change log: version -> key-sorted DiffEntry tuple,
        #: captured for free from the indexed write path (the engine
        #: computes the delta for posting maintenance anyway).  A bounded
        #: cache, not a source of truth: feeds consult it first and fall
        #: back to the structural diff for evicted, bulk or foreign
        #: commits — both produce the identical entry list.
        self._feed_log: "OrderedDict[int, Tuple[DiffEntry, ...]]" = OrderedDict()
        self.open()

    # -- lifecycle ---------------------------------------------------------

    def _engine_builder(self, shard_id: int) -> Callable[[], ShardEngine]:
        """A zero-argument builder of one shard's engine, for either backend.

        The closure captures plain configuration and whatever the last
        in-memory ``close()`` parked for this shard (the thread backend
        parks the store object itself, the process backend the node pairs
        it exported).  On the process backend it is executed **inside the
        forked worker**, so the shard's store is created, owned and
        closed entirely by the process that serves it — the parent never
        holds a shard store file descriptor in process mode.
        """
        index_factory = self._index_factory
        store_factory = self._store_factory
        directory = self.directory
        cache_bytes = self._cache_bytes
        capacity = self._segment_capacity_bytes
        parked = (self._parked_backings[shard_id]
                  if self._parked_backings is not None else None)
        seed = (self._parked_nodes[shard_id]
                if self._parked_nodes is not None else None)

        def build() -> ShardEngine:
            """Construct the shard's store stack and engine."""
            if parked is not None:
                backing: NodeStore = parked
            elif directory is not None:
                backing = SegmentNodeStore(
                    os.path.join(directory, f"shard-{shard_id:02d}"),
                    segment_capacity_bytes=capacity)
            elif store_factory is not None:
                backing = store_factory()
            else:
                backing = InMemoryNodeStore()
                if seed:
                    for digest, data in seed:
                        backing.put_bytes(digest, data)
            cache: Optional[CachingNodeStore] = None
            store: NodeStore = backing
            if cache_bytes:
                cache = CachingNodeStore(backing, capacity_bytes=cache_bytes)
                store = cache
            return ShardEngine(shard_id, backing, store, cache,
                               index_factory(store))

        return build

    def open(self) -> None:
        """Build the shards and recover the last committed state.

        Called automatically by the constructor; a no-op on an already
        open service.  Directory-backed services rescan their segment
        files (torn tails are truncated — see
        :class:`~repro.storage.segment.RecoveryReport` per shard) and
        reload the commit manifest; every shard head is reset to the
        newest commit's roots.  Without a directory, commits recorded in
        this process are replayed from memory.

        On the process backend this (re)forks one worker per shard — a
        service whose worker died mid-operation is restarted and
        recovered by exactly this path.
        """
        if self._opened:
            return
        builders = [self._engine_builder(shard_id)
                    for shard_id in range(self.router.num_shards)]
        if self.backend == "process":
            self._shards = ProcessShardBackend().start(builders)
        else:
            self._shards = [ShardHandle(shard_id, engine=build())
                            for shard_id, build in enumerate(builders)]
        self._parked_nodes = self._parked_backings = None
        self._index_name = self._shards[0].describe() if self._shards else "?"
        if self.directory is not None:
            self._commits = self._load_manifest()
        # Rebuild the commit DAG and every branch's head from the journal.
        # Commit ids are deterministic (journalled timestamps/parents), so
        # merge bases computed before a crash are recomputed identically
        # after recovery.
        self.version_graph = VersionGraph()
        self._graph_ids = {}
        self._graph_versions = {}
        self._branch_heads = {}
        for commit in self._commits:
            self._register_commit(commit)
        # Re-install registered index definitions into the (fresh) shard
        # engines *before* the head reset, so reset_head can adopt the
        # head commit's journalled posting roots (or rebuild missing ones).
        for definition in self._index_definitions.values():
            for shard in self._shards:
                with shard:
                    shard.register_index(definition)
        head = self._branch_heads.get(self.default_branch)
        if head is not None:
            for shard, root in zip(self._shards, head.roots):
                shard.reset_head(root, head.shard_postings(shard.shard_id))
        self._opened = True

    def close(self) -> None:
        """Commit outstanding changes durably and shut the shards down.

        A clean close is lossless: if any write happened since the last
        commit (buffered, or flushed to a head that was never committed),
        an implicit ``commit("close()")`` records it first.  Afterwards
        every backing store is closed and all service entry points raise
        :class:`~repro.core.errors.ServiceClosedError` until
        :meth:`open`/:meth:`reopen`.  A *crash* (no close) instead loses
        exactly the uncommitted tail — reopen recovers the last commit.

        Unlike the data-path entry points, the lifecycle methods are
        **not** designed to race in-flight operations: quiesce your
        clients before calling :meth:`close`/:meth:`reopen`.  A ``put``
        that overlaps a close may land after the final commit (and be
        dropped by the next open) or hit the already-closed store; the
        "lossless" guarantee covers operations that returned before
        close() was called on a quiet service.

        If a process-backend shard worker has died, the final implicit
        commit is impossible — close() then skips it (crash semantics:
        the uncommitted tail is lost) and still tears every worker down,
        so ``reopen()`` recovers exactly the last journalled commit.
        """
        if not self._opened:
            return
        try:
            with self._commit_lock:
                heads, index_roots = self._atomic_cut(collect_postings=True)
                roots = tuple(head.root_digest for head in heads)
                committed = self._branch_heads.get(self.default_branch)
                if committed is not None:
                    dirty = roots != committed.roots
                else:
                    dirty = any(root is not None for root in roots)
                if dirty:
                    self._record_commit(roots, "close()", index_roots=index_roots)
        except ShardExecutionError:
            # A dead shard worker cannot contribute to the final cut;
            # never journal a partial one — fall through to teardown and
            # let the next open() recover the last committed roots.
            pass
        if self.directory is None and self._store_factory is None:
            # No persistent medium: park what reopen() restores the
            # committed state from.  In-process the store objects simply
            # survive; a worker's store dies with it, so its *content* is
            # pulled across the pipe first.
            if self.backend == "process":
                self._parked_nodes = []
                for shard in self._shards:
                    try:
                        self._parked_nodes.append(shard.export_nodes())
                    except ShardExecutionError:
                        self._parked_nodes.append(None)  # dead worker: content lost
            else:
                self._parked_backings = [shard.engine.backing for shard in self._shards]
        for shard in self._shards:
            shard.close()
        self._opened = False

    def reopen(self) -> None:
        """Cleanly close (if open) and open again — the restart drill.

        Because :meth:`close` commits outstanding changes, a reopen is
        lossless.  Directory-backed services rebuild everything from disk,
        exactly like a fresh process constructing over the same directory;
        to exercise the *crash* path instead, abandon the instance without
        closing and construct a new one (that is what the kill-point tests
        do).  With the default in-memory backings the same store objects
        are reused and the head is restored from the last in-memory
        commit.  With a custom ``store_factory`` the factory is invoked
        anew — only meaningful when it returns stores over a persistent
        medium.
        """
        self.close()
        self.open()

    def __enter__(self) -> "VersionedKVService":
        """Context-manager entry: (re)opens the service if needed."""
        self.open()
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: always :meth:`close`, even on error paths."""
        self.close()

    @property
    def is_open(self) -> bool:
        """Whether the service is accepting operations."""
        return self._opened

    def _require_open(self) -> None:
        if not self._opened:
            raise ServiceClosedError(
                "service is closed; call reopen() (or construct a new "
                "instance over the same directory) first")

    # -- the commit manifest ----------------------------------------------

    def _manifest_path(self) -> str:
        return os.path.join(self.directory, self.MANIFEST_NAME)

    def _parse_manifest_line(self, line: bytes, lineno: int, path: str,
                             expected_version: int,
                             branch_tips: Dict[str, int]) -> ServiceCommit:
        """Decode and validate one manifest line (raises CorruptNodeError).

        ``branch_tips`` maps branch name → version of that branch's newest
        commit seen so far in the replay; journals written before commits
        were branch-qualified carry neither ``branch`` nor ``parents``, so
        the branch defaults to the service's default branch and the parent
        to that branch's previous commit — exactly the linear history the
        old format implied.
        """
        try:
            entry = json.loads(line.decode("utf-8"))
            roots = tuple(
                Digest.from_hex(root) if root is not None else None
                for root in entry["roots"]
            )
            branch = entry.get("branch", self.default_branch)
            if not isinstance(branch, str) or not branch:
                raise ValueError(f"invalid branch name: {branch!r}")
            if "parents" in entry:
                parents = tuple(int(parent) for parent in entry["parents"])
            elif branch in branch_tips:
                parents = (branch_tips[branch],)
            else:
                parents = ()
            index_roots = tuple(
                (name, tuple(
                    Digest.from_hex(root) if root is not None else None
                    for root in posting_roots))
                for name, posting_roots in sorted(
                    (entry.get("indexes") or {}).items()))
            commit = ServiceCommit(
                version=int(entry["version"]),
                roots=roots,
                digest=Digest.from_hex(entry["digest"]),
                message=entry.get("message", ""),
                timestamp=float(entry.get("timestamp", 0.0)),
                branch=branch,
                parents=parents,
                index_roots=index_roots,
            )
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise CorruptNodeError(
                None, f"corrupt manifest entry at {path}:{lineno}: {exc}"
            ) from None
        if commit.version != expected_version:
            raise CorruptNodeError(
                None,
                f"manifest {path}:{lineno} has version {commit.version}, "
                f"expected {expected_version} (journal must be dense)")
        if len(commit.roots) != self.router.num_shards:
            raise CorruptNodeError(
                None,
                f"manifest {path}:{lineno} records {len(commit.roots)} "
                f"shard roots but the service has {self.router.num_shards}")
        for name, posting_roots in commit.index_roots:
            if len(posting_roots) != self.router.num_shards:
                raise CorruptNodeError(
                    None,
                    f"manifest {path}:{lineno} records {len(posting_roots)} "
                    f"posting roots for index {name!r} but the service has "
                    f"{self.router.num_shards} shards")
        if any(parent >= commit.version or parent < 0 for parent in commit.parents):
            raise CorruptNodeError(
                None,
                f"manifest {path}:{lineno} references parent versions "
                f"{commit.parents} outside the preceding journal")
        return commit

    def _load_manifest(self) -> List[ServiceCommit]:
        """Replay the commit journal, repairing a torn final line.

        A crash mid-append leaves a partial (or otherwise unparseable)
        final line; it is dropped **and physically truncated** — leaving
        it on disk would make the next append (mode ``"a"``) concatenate
        a new commit onto the garbage, losing that commit on the
        following open.  An unparseable line anywhere *before* the tail
        is corruption of committed history and raises.
        """
        os.makedirs(self.directory, exist_ok=True)
        path = self._manifest_path()
        if not os.path.exists(path):
            return []
        with open(path, "rb") as handle:
            raw = handle.read()
        commits: List[ServiceCommit] = []
        branch_tips: Dict[str, int] = {}
        offset = 0
        good_end = 0
        lineno = 0
        torn = False
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            if newline == -1:
                torn = True  # unterminated tail: crash mid-append
                break
            line = raw[offset:newline]
            lineno += 1
            if line.strip():
                try:
                    commit = self._parse_manifest_line(
                        line, lineno, path, expected_version=len(commits),
                        branch_tips=branch_tips)
                    commits.append(commit)
                    branch_tips[commit.branch] = commit.version
                except CorruptNodeError:
                    if newline == len(raw) - 1:
                        torn = True  # garbage *final* line: treat as torn
                        break
                    raise
            offset = newline + 1
            good_end = offset
        if torn and good_end < len(raw):
            with open(path, "r+b") as handle:
                handle.truncate(good_end)
                handle.flush()
                os.fsync(handle.fileno())
        return commits

    def _append_manifest(self, commit: ServiceCommit) -> None:
        entry = {
            "version": commit.version,
            "roots": [root.hex if root is not None else None for root in commit.roots],
            "digest": commit.digest.hex,
            "message": commit.message,
            "timestamp": commit.timestamp,
            "branch": commit.branch,
            "parents": list(commit.parents),
        }
        if commit.index_roots:
            # Written only when secondary indexes are registered, so
            # journals of index-free services stay byte-identical to the
            # previous format (and old readers would simply ignore it).
            entry["indexes"] = {
                name: [root.hex if root is not None else None for root in roots]
                for name, roots in commit.index_roots
            }
        path = self._manifest_path()
        creating = not os.path.exists(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        if creating:
            # The journal's *directory entry* must be durable too, or the
            # first commit of a fresh service can vanish on power loss.
            fsync_directory(self.directory)

    # -- basic properties --------------------------------------------------

    @property
    def num_shards(self) -> int:
        """Number of hash partitions."""
        return self.router.num_shards

    @property
    def batch_size(self) -> int:
        """Write-coalescing flush threshold."""
        return self.batcher.flush_threshold

    @property
    def commits(self) -> List[ServiceCommit]:
        """All committed versions, oldest first."""
        return list(self._commits)

    def shard_of(self, key: KeyLike) -> int:
        """The shard id owning ``key`` (stable hash routing)."""
        return self.router.shard_of(coerce_key(key))

    # -- writes ------------------------------------------------------------

    def put(self, key: KeyLike, value: ValueLike) -> None:
        """Buffer a write of ``key = value`` (flushes when the batch fills)."""
        self._require_open()
        key_bytes = coerce_key(key)
        shard_id = self.router.shard_of(key_bytes)
        with self._counter_lock:
            self._puts += 1
        if self.batcher.buffer_put(shard_id, key_bytes, coerce_value(value)):
            self._flush_shard(shard_id)

    def remove(self, key: KeyLike) -> None:
        """Buffer a removal of ``key`` (absent keys are ignored at flush)."""
        self._require_open()
        key_bytes = coerce_key(key)
        shard_id = self.router.shard_of(key_bytes)
        with self._counter_lock:
            self._removes += 1
        if self.batcher.buffer_remove(shard_id, key_bytes):
            self._flush_shard(shard_id)

    def put_many(self, items: Union[Dict[KeyLike, ValueLike], Sequence[Tuple[KeyLike, ValueLike]]]) -> None:
        """Buffer many writes at once (same coalescing/flush behaviour).

        Unlike a loop of :meth:`put` (the seed implementation), the batch
        is routed per shard up front: the operation counter is bumped
        once, each destination shard's buffer lock is taken once, and
        each shard is flushed at most once per call (when its buffer
        crossed the threshold), instead of re-routing and re-locking per
        key.  Within a shard the input order is preserved, so duplicate
        keys coalesce last-writer-wins exactly as sequential puts would.
        """
        self._require_open()
        pairs = items.items() if isinstance(items, Mapping) else items
        per_shard: List[List[Tuple[bytes, bytes]]] = [[] for _ in range(self.num_shards)]
        total = 0
        shard_of = self.router.shard_of
        for key, value in pairs:
            key_bytes = coerce_key(key)
            per_shard[shard_of(key_bytes)].append((key_bytes, coerce_value(value)))
            total += 1
        if not total:
            return
        with self._counter_lock:
            self._puts += total
        for shard_id, bucket in enumerate(per_shard):
            if bucket and self.batcher.buffer_put_many(shard_id, bucket):
                self._flush_shard(shard_id)

    def load(self, items: Union[Dict[KeyLike, ValueLike], Sequence[Tuple[KeyLike, ValueLike]]]) -> int:
        """Bulk-ingest ``items`` straight through the shard write paths.

        The batch is grouped per shard once and each shard is loaded
        under **one** lock round-trip: pending buffered operations are
        drained into the batch (the loaded items are newer and win), and
        the merged records are applied as a single batched write — which,
        on an empty shard, is the index's O(N) bottom-up bulk builder.
        The loaded state lands in the shards' working heads exactly like
        flushed puts; call :meth:`commit` (or use
        :meth:`repro.api.Branch.load`) to version it.  Returns the number
        of records routed.
        """
        self._require_open()
        per_shard, total = self._partition_load(items)
        for shard_id, puts in enumerate(per_shard):
            if puts:
                self._load_shard(shard_id, puts)
        return total

    def _partition_load(self, items: Union[Dict[KeyLike, ValueLike], Sequence[Tuple[KeyLike, ValueLike]]]) -> Tuple[List[Dict[bytes, bytes]], int]:
        """Coerce and group a load batch per shard; bump counters once.

        The returned total counts *routed records* — duplicate keys in the
        input coalesce last-writer-wins before routing.
        """
        pairs = items.items() if isinstance(items, Mapping) else items
        per_shard: List[Dict[bytes, bytes]] = [{} for _ in range(self.num_shards)]
        shard_of = self.router.shard_of
        for key, value in pairs:
            key_bytes = coerce_key(key)
            per_shard[shard_of(key_bytes)][key_bytes] = coerce_value(value)
        total = sum(len(bucket) for bucket in per_shard)
        if total:
            with self._counter_lock:
                self._puts += total
        return per_shard, total

    def _load_shard(self, shard_id: int, puts: Dict[bytes, bytes]) -> None:
        """Apply one shard's load batch under a single lock acquisition.

        Anything already buffered for the shard is folded into the batch
        (loaded items win over older buffered puts; buffered removes of
        keys the load rewrites are dropped), so the shard is written once
        and read-your-writes ordering is preserved.
        """
        shard = self._shards[shard_id]
        with shard:
            pending_puts, pending_removes = self.batcher.take(shard_id)
            if pending_puts:
                pending_puts.update(puts)
                puts = pending_puts
            removes = [key for key in pending_removes if key not in puts]
            shard.load_batch(puts, removes)

    def _flush_shard_locked(self, shard) -> None:
        """Apply pending operations to ``shard``; its lock must be held.

        The engine's batch application includes the durability barrier:
        the batch is pushed through the backing store's batched append
        path (SegmentNodeStore writes the DATA records plus a COMMIT
        marker and fsyncs).
        """
        puts, removes = self.batcher.take(shard.shard_id)
        if not puts and not removes:
            return
        shard.apply_ops(puts, removes)

    def _flush_shard(self, shard_id: int) -> None:
        """Apply a shard's pending operations through the batched write path.

        Safe to call from any thread, including concurrently with enqueues
        on the same shard: the batcher drains its buffer atomically, and
        the head/history transition happens under the shard's lock.

        A failure is raised as :class:`~repro.core.errors.ShardExecutionError`
        naming the shard and the ``"flush"`` operation (a worker's own
        ``ShardExecutionError`` passes through unchanged).
        """
        shard = self._shards[shard_id]
        try:
            with shard:
                self._flush_shard_locked(shard)
        except ShardExecutionError:
            raise
        except Exception as exc:
            raise ShardExecutionError(shard_id, "flush", exc) from exc

    def flush(self) -> None:
        """Flush every shard's pending operations to its index.

        Shards flush one at a time, each under its own lock only; the
        first shard to fail stops the flush with a
        :class:`~repro.core.errors.ShardExecutionError`, and nothing is
        committed.
        """
        self._require_open()
        for shard_id in range(self.num_shards):
            self._flush_shard(shard_id)

    # -- reads -------------------------------------------------------------

    def get(self, key: KeyLike, default: Optional[bytes] = None,
            version: Optional[Union[int, ServiceCommit]] = None) -> Optional[bytes]:
        """Read ``key`` from the latest state or from a committed version.

        With ``version=None`` the read is *read-your-writes*: pending
        buffered operations are visible before they are flushed.  With a
        version number (or :class:`ServiceCommit`), the read resolves
        against that commit's shard roots — any committed version stays
        readable forever thanks to copy-on-write.

        Concurrency: a latest-state read takes its shard's lock for the
        duration of the buffer check and tree lookup, so it can never
        observe the window inside a concurrent flush where operations have
        left the buffer but not yet reached the shard head.  Versioned
        reads resolve against immutable commit roots and take no lock at
        all.
        """
        self._require_open()
        key_bytes = coerce_key(key)
        shard_id = self.router.shard_of(key_bytes)
        with self._counter_lock:
            self._gets += 1
        shard = self._shards[shard_id]
        if version is None:
            with shard:
                pending, value = self.batcher.pending_value(shard_id, key_bytes)
                if not pending:
                    value = shard.lookup_head(key_bytes)
            return value if value is not None else default
        commit = self._resolve_commit(version)
        value = shard.lookup_at(commit.roots[shard_id], key_bytes)
        return value if value is not None else default

    def __getitem__(self, key: KeyLike) -> bytes:
        value = self.get(key)
        if value is None:
            raise KeyNotFoundError(key)
        return value

    def __contains__(self, key: KeyLike) -> bool:
        return self.get(key) is not None

    def items(self, version: Optional[Union[int, ServiceCommit]] = None) -> Iterator[Tuple[bytes, bytes]]:
        """Iterate all records in ascending key order (latest or a version)."""
        return self.snapshot(version).items()

    def record_count(self) -> int:
        """Total records across all shards (flushes pending writes first)."""
        self._require_open()
        heads, _ = self._atomic_cut()
        return sum(len(head) for head in heads)

    # -- versioning --------------------------------------------------------

    def _atomic_cut(self, collect_postings: bool = False) -> Tuple[List, Tuple]:
        """Flush every shard and return one consistent cross-shard cut.

        Returns ``(heads, index_roots)``: the per-shard head snapshots
        plus — when ``collect_postings`` is set and secondary indexes are
        registered — the posting roots of every index in the
        :attr:`ServiceCommit.index_roots` shape (``()`` otherwise).

        Acquires every shard lock (in ascending shard-id order — writers
        only ever hold one shard lock, so this cannot deadlock), drains
        each shard's pending buffer while all locks are held, and records
        the heads.  The result is an *atomic cut*: every operation that
        completed before the cut is included on every shard, and no
        operation is included on one shard but missing from another.

        This is the **prepare phase** of the two-phase commit protocol:
        the flush is staged on every shard before any result is collected
        (``flush_begin`` on all, then ``flush_finish`` on all), so on the
        process backend the per-shard batch application and store fsyncs
        overlap across worker processes.  If any shard's prepare fails
        (e.g. a worker died), every already-staged reply is still drained
        — no pipe is left mid-conversation — and the first failure is
        re-raised, so the caller never journals a partial cut.
        """
        acquired: List = []
        try:
            for shard in self._shards:
                shard.__enter__()
                acquired.append(shard)
            staged: List = []
            failure: Optional[BaseException] = None
            for shard in self._shards:
                try:
                    puts, removes = self.batcher.take(shard.shard_id)
                    shard.flush_begin(puts, removes)
                    staged.append(shard)
                # repro-lint: disable=L5-exception-policy — two-phase cut: the first failure is parked, remaining prepares are abandoned, and `raise failure` below re-raises it before any journal append
                except BaseException as exc:
                    failure = exc
                    break
            heads: List = []
            for shard in staged:
                try:
                    heads.append(shard.flush_finish())
                # repro-lint: disable=L5-exception-policy — every staged shard must be collected so no worker is left mid-prepare; the first failure is re-raised by `raise failure` below
                except BaseException as exc:
                    if failure is None:
                        failure = exc
            if failure is not None:
                raise failure
            if collect_postings and self._index_definitions:
                return heads, self._collect_index_roots_locked()
            return heads, ()
        finally:
            for shard in reversed(acquired):
                shard.__exit__()

    def _collect_index_roots_locked(
            self) -> Tuple[Tuple[str, Tuple[Optional[Digest], ...]], ...]:
        """Posting roots of every registered index (shard locks held).

        Returns the name-sorted ``ServiceCommit.index_roots`` shape; the
        engines keep their posting heads in lock-step with their primary
        working heads, so reading them after a flush yields the postings
        of exactly the cut being committed.
        """
        if not self._index_definitions:
            return ()
        per_shard = [shard.posting_heads_state() for shard in self._shards]
        return tuple(
            (name, tuple(states.get(name) for states in per_shard))
            for name in sorted(self._index_definitions))

    def _resolve_commit(self, version: Union[int, ServiceCommit]) -> ServiceCommit:
        if isinstance(version, ServiceCommit):
            return version
        try:
            if version < 0:
                # Versions are dense sequence numbers from 0; negative
                # indexing would silently alias the newest commits.
                raise IndexError(version)
            return self._commits[version]
        except (IndexError, TypeError):
            raise KeyNotFoundError(f"unknown service version: {version!r}") from None

    def commit(self, message: str = "") -> ServiceCommit:
        """Flush all shards and record a cross-shard version.

        Returns a :class:`ServiceCommit` whose ``version`` number can be
        passed to :meth:`get`, :meth:`snapshot` and :meth:`diff`.  The
        commit digest rolls the shard roots up into one value, so two
        services with identical content produce identical commit digests
        (structural invariance carries through the service layer).

        Concurrency: the recorded roots form an atomic cross-shard cut
        (every shard lock is held while the roots are read), so a commit
        racing with writers observes each in-flight operation either on
        all the shards it touched or on none — a multi-key update issued
        before the commit started can never be half-visible.  Commits are
        serialized by a dedicated lock, so version numbers stay dense.

        Durability: for a directory-backed service the commit is recorded
        in the fsynced manifest *after* every shard store has flushed, so
        a manifest entry implies all its nodes are on disk — a crash
        between the two simply recovers to the previous commit.
        """
        self._require_open()
        with self._commit_lock:
            heads, index_roots = self._atomic_cut(collect_postings=True)
            roots = tuple(head.root_digest for head in heads)
            return self._record_commit(roots, message, index_roots=index_roots)

    def _record_commit(self, roots: Tuple[Optional[Digest], ...], message: str,
                       branch: Optional[str] = None,
                       parents: Optional[Sequence[int]] = None,
                       index_roots: Tuple[Tuple[str, Tuple[Optional[Digest], ...]], ...] = ()) -> ServiceCommit:
        """Journal one commit over an already-captured cut (commit lock held).

        ``branch`` defaults to the service's default branch; ``parents``
        defaults to that branch's current head (the linear-history case).
        ``index_roots`` (the :attr:`ServiceCommit.index_roots` shape) is
        mixed into the commit digest only when non-empty, so services
        without secondary indexes keep their historical digests.
        """
        if branch is None:
            branch = self.default_branch
        if parents is None:
            head = self._branch_heads.get(branch)
            parents = (head.version,) if head is not None else ()
        parents = tuple(parents)
        for parent in parents:
            if parent not in self._graph_ids:
                raise InvalidParameterError(
                    f"unknown parent commit version: {parent}")
        index_roots = tuple(sorted(index_roots))
        parts = [root.raw if root is not None else b"\x00" for root in roots]
        for name, posting_roots in index_roots:
            # Postings are a pure function of primary content, so two
            # replicas with the same content *and the same registered
            # indexes* still agree on the commit digest.
            parts.append(name.encode("ascii"))
            parts.extend(root.raw if root is not None else b"\x00"
                         for root in posting_roots)
        digest = self._hash.hash_many(parts)
        commit = ServiceCommit(
            version=len(self._commits),
            roots=roots,
            digest=digest,
            message=message,
            timestamp=time.time(),
            branch=branch,
            parents=parents,
            index_roots=index_roots,
        )
        if self.directory is not None:
            self._append_manifest(commit)
        self._commits.append(commit)
        self._register_commit(commit)
        return commit

    def _register_commit(self, commit: ServiceCommit) -> None:
        """Mirror a journalled commit into the DAG and the branch-head map.

        The journal version is mixed into the DAG commit id as a salt:
        versions are unique and replay deterministically, so two commits
        whose visible fields coincide (e.g. two forks in one clock tick)
        still get distinct, crash-stable DAG nodes.
        """
        parent_ids = [self._graph_ids[version] for version in commit.parents]
        graph_commit = self.version_graph.add_commit(
            commit.roots, commit.branch, parent_ids,
            message=commit.message, timestamp=commit.timestamp,
            salt=b"v%d" % commit.version)
        self._graph_ids[commit.version] = graph_commit.commit_id
        self._graph_versions[graph_commit.commit_id] = commit.version
        self._branch_heads[commit.branch] = commit

    # -- branch-qualified commits (the repository API's primitives) --------

    def branches(self) -> List[str]:
        """Every branch with at least one journalled commit, sorted."""
        self._require_open()
        return sorted(self._branch_heads.keys())

    def has_branch(self, branch: str) -> bool:
        """Whether ``branch`` has a journalled head commit."""
        return branch in self._branch_heads

    def branch_head(self, branch: str) -> ServiceCommit:
        """The newest commit on ``branch`` (every head survives recovery)."""
        self._require_open()
        head = self._branch_heads.get(branch)
        if head is None:
            raise UnknownBranchError(branch)
        return head

    def log(self, branch: str) -> Iterator[ServiceCommit]:
        """Walk ``branch``'s first-parent history, newest commit first."""
        self._require_open()
        current: Optional[ServiceCommit] = self.branch_head(branch)
        while current is not None:
            yield current
            if not current.parents:
                return
            current = self._commits[current.parents[0]]

    def merge_base(self, branch_a: str, branch_b: str) -> Optional[ServiceCommit]:
        """The nearest common ancestor of two branch heads (or ``None``).

        Computed over the commit DAG rebuilt from the journal, so the
        answer is identical before and after a crash/reopen.
        """
        self._require_open()
        ancestor = self.version_graph.common_ancestor(branch_a, branch_b)
        if ancestor is None:
            return None
        return self._commits[self._graph_versions[ancestor.commit_id]]

    def commit_roots(self, branch: str,
                     roots: Sequence[Optional[Digest]], message: str = "",
                     parents: Optional[Sequence[int]] = None,
                     index_roots: Optional[Tuple] = None) -> ServiceCommit:
        """Record already-built shard roots as the new head of ``branch``.

        This is the repository layer's commit primitive: branch writers
        build new per-shard roots through the shard indexes (copy-on-write,
        so no other branch observes anything), then publish them in one
        journal append.  The append *is* the atomicity point across all
        shards — a crash before it leaves every branch head at its previous
        committed roots; a crash after it recovers the new head.

        ``parents`` are commit versions (default: the branch's current
        head); a fork passes the source head, a merge passes both heads.
        Every shard store is flushed before the journal append, preserving
        the invariant that a manifest entry implies its nodes are durable.

        ``index_roots`` carries pre-computed posting roots (the
        :attr:`ServiceCommit.index_roots` shape); with the default
        ``None`` they are resolved automatically — inherited from the
        base commit when the primary roots are unchanged (forks), else
        recomputed diff-driven from the base commit's postings.
        """
        self._require_open()
        with self._commit_lock:
            return self._commit_roots_locked(branch, roots, message, parents,
                                             index_roots=index_roots)

    def _commit_roots_locked(self, branch: str, roots: Sequence[Optional[Digest]],
                             message: str,
                             parents: Optional[Sequence[int]],
                             index_roots: Optional[Tuple] = None) -> ServiceCommit:
        roots = tuple(roots)
        if len(roots) != self.router.num_shards:
            raise InvalidParameterError(
                f"expected {self.router.num_shards} shard roots, got {len(roots)}")
        acquired: List = []
        try:
            for shard in self._shards:
                shard.__enter__()
                acquired.append(shard)
            return self._commit_roots_shards_held(branch, roots, message, parents,
                                                  index_roots=index_roots)
        finally:
            for shard in reversed(acquired):
                shard.__exit__()

    def _preserve_working_heads_locked(
            self, parents: Optional[Sequence[int]]) -> Optional[Sequence[int]]:
        """Journal dirty working heads before a default-branch commit.

        Commit lock and every shard lock held.  If the flat API flushed
        writes into the working heads that were never committed, a commit
        arriving through the repository layer must not wipe them: they are
        journalled here as an implicit commit (mirroring what ``close()``
        does), and the incoming commit is reparented onto it so the branch
        history records both states.  Returns the (possibly fixed-up)
        parent list.
        """
        committed = self._branch_heads.get(self.default_branch)
        committed_roots = (committed.roots if committed is not None
                           else (None,) * self.router.num_shards)
        working = tuple(shard.head_root() for shard in self._shards)
        if working == committed_roots:
            return parents
        implicit = self._record_commit(
            working, "flat-API writes (implicit commit)",
            branch=self.default_branch, parents=None,
            index_roots=self._collect_index_roots_locked())
        if parents is None:
            return None  # _record_commit defaults to the branch head (= implicit)
        parents = list(parents)
        if parents:
            # Internal callers always pass the branch head first; it just
            # moved to the implicit commit.
            parents[0] = implicit.version
        else:
            parents = [implicit.version]
        return parents

    def _commit_roots_shards_held(self, branch: str,
                                  roots: Tuple[Optional[Digest], ...],
                                  message: str,
                                  parents: Optional[Sequence[int]],
                                  index_roots: Optional[Tuple] = None) -> ServiceCommit:
        """Journal ``roots`` with every shard lock (and the commit lock) held."""
        # Durability barrier (the prepare phase for branch commits):
        # branch writers fed these roots' nodes through the shard stores'
        # buffered append path; push them to disk before the manifest
        # names them.
        for shard in self._shards:
            shard.store_flush()
        if branch == self.default_branch:
            parents = self._preserve_working_heads_locked(parents)
        if index_roots is None:
            index_roots = self._resolve_index_roots_shards_held(
                branch, roots, parents)
        commit = self._record_commit(roots, message, branch=branch,
                                     parents=parents, index_roots=index_roots)
        if branch == self.default_branch:
            # Keep the flat API's working heads in step with their
            # branch: pending buffered writes stay buffered and apply
            # on top of the new head at the next flush.
            for shard, root in zip(self._shards, roots):
                shard.set_head(root, commit.shard_postings(shard.shard_id))
        return commit

    def _resolve_index_roots_shards_held(
            self, branch: str, roots: Tuple[Optional[Digest], ...],
            parents: Optional[Sequence[int]]) -> Tuple:
        """Posting roots for a roots-only commit (shard locks held).

        Base = the first parent (or the branch head).  When the primary
        roots are unchanged from the base — a fork — its posting roots
        are inherited outright.  Otherwise each shard recomputes its
        postings diff-driven from the base (structural diff of primary
        roots → extractor on just the changed records), so the cost is
        proportional to the divergence, not the dataset; shards whose
        base predates index registration bulk-build from content.
        """
        if not self._index_definitions:
            return ()
        base: Optional[ServiceCommit] = None
        if parents:
            base = self._commits[parents[0]]
        else:
            base = self._branch_heads.get(branch)
        if base is not None and base.roots == roots:
            base_map = base.index_root_map()
            if all(name in base_map for name in self._index_definitions):
                return base.index_roots
        per_shard: List[Dict[str, Optional[Digest]]] = []
        for shard in self._shards:
            shard_id = shard.shard_id
            base_primary = base.roots[shard_id] if base is not None else None
            base_postings = (base.shard_postings(shard_id)
                             if base is not None else None)
            per_shard.append(shard.postings_for(
                roots[shard_id], base_primary, base_postings))
        return tuple(
            (name, tuple(postings.get(name) for postings in per_shard))
            for name in sorted(self._index_definitions))

    def commit_update(self, branch: str,
                      base_roots: Sequence[Optional[Digest]],
                      puts_by_shard: Sequence[Dict[bytes, bytes]],
                      removes_by_shard: Sequence[Sequence[bytes]],
                      message: str = "",
                      parents: Optional[Sequence[int]] = None) -> ServiceCommit:
        """Apply per-shard write batches to ``base_roots`` and commit them.

        The copy-on-write application and the journal append happen under
        the commit lock, so a concurrent :meth:`collect_garbage` can never
        sweep the freshly-written nodes in the window before the journal
        names them.

        On the *default* branch the batches are applied to the current
        working heads rather than ``base_roots``: flat-API writes that
        were flushed into the heads but never committed are first
        journalled as an implicit parent commit and then carried into the
        new head (last-writer-wins per key), so mixing the deprecated flat
        surface with repository commits can never silently lose data.
        """
        self._require_open()
        base_roots = tuple(base_roots)
        if not (len(base_roots) == len(puts_by_shard) == len(removes_by_shard)
                == self.router.num_shards):
            raise InvalidParameterError(
                "base_roots/puts_by_shard/removes_by_shard must all have "
                f"exactly {self.router.num_shards} entries")
        with self._commit_lock:
            if branch == self.default_branch:
                return self._commit_update_default_locked(
                    puts_by_shard, removes_by_shard, message, parents)
            # Base commit for incremental posting maintenance: internal
            # callers always pass the first parent's roots as base_roots.
            base: Optional[ServiceCommit] = None
            if self._index_definitions:
                if parents:
                    base = self._commits[parents[0]]
                else:
                    base = self._branch_heads.get(branch)
            new_roots: List[Optional[Digest]] = []
            postings_by_shard: List[Dict[str, Optional[Digest]]] = []
            changed_by_shard: List[List] = []
            for shard, root, puts, removes in zip(
                    self._shards, base_roots, puts_by_shard, removes_by_shard):
                base_postings = (base.shard_postings(shard.shard_id)
                                 if base is not None else None)
                changed: List = []
                if puts or removes:
                    with shard:
                        if self._index_definitions:
                            root, postings, changed = shard.write_at_indexed(
                                root, puts, list(removes), base_postings)
                        else:
                            root = shard.write_at(root, puts, list(removes))
                            postings = {}
                elif self._index_definitions:
                    # Untouched shard: postings carry over from the base
                    # (diff of identical primary roots is empty; missing
                    # names bulk-build from content).
                    with shard:
                        postings = shard.postings_for(root, root, base_postings)
                else:
                    postings = {}
                new_roots.append(root)
                postings_by_shard.append(postings)
                changed_by_shard.append(changed)
            index_roots: Tuple = ()
            if self._index_definitions:
                index_roots = tuple(
                    (name, tuple(p.get(name) for p in postings_by_shard))
                    for name in sorted(self._index_definitions))
            commit = self._commit_roots_locked(branch, new_roots, message,
                                               parents, index_roots=index_roots)
            # Capture the change log only when the delta was computed
            # against the commit's actual first parent (internal callers
            # always arrange this; anything else falls back to the diff).
            expected = (base.roots if base is not None
                        else (None,) * self.router.num_shards)
            if self._index_definitions and base_roots == expected:
                self._record_feed_entries(commit.version, changed_by_shard)
            return commit

    def _commit_update_default_locked(
            self, puts_by_shard: Sequence[Dict[bytes, bytes]],
            removes_by_shard: Sequence[Sequence[bytes]],
            message: str, parents: Optional[Sequence[int]]) -> ServiceCommit:
        """Default-branch ``commit_update`` body (commit lock held).

        Holds every shard lock across base capture, application and the
        journal append, so no concurrent flat-API flush can slip a working
        -head change into the window and be wiped by the head sync.
        """
        acquired: List = []
        try:
            for shard in self._shards:
                shard.__enter__()
                acquired.append(shard)
            # Apply on the *working* heads (preserving flushed flat-API
            # writes in the result); _commit_roots_shards_held journals
            # those same heads as the implicit parent commit before the
            # main record, so both states reach the journal in order.
            new_roots: List[Optional[Digest]] = []
            postings_by_shard: List[Dict[str, Optional[Digest]]] = []
            changed_by_shard: List[List] = []
            for shard, puts, removes in zip(
                    self._shards, puts_by_shard, removes_by_shard):
                root = shard.head_root()
                postings = (shard.posting_heads_state()
                            if self._index_definitions else {})
                changed: List = []
                if puts or removes:
                    if self._index_definitions:
                        root, postings, changed = shard.write_at_indexed(
                            root, puts, list(removes), postings)
                    else:
                        root = shard.write_at(root, puts, list(removes))
                new_roots.append(root)
                postings_by_shard.append(postings)
                changed_by_shard.append(changed)
            index_roots: Tuple = ()
            if self._index_definitions:
                index_roots = tuple(
                    (name, tuple(p.get(name) for p in postings_by_shard))
                    for name in sorted(self._index_definitions))
            commit = self._commit_roots_shards_held(
                self.default_branch, tuple(new_roots), message, parents,
                index_roots=index_roots)
            if self._index_definitions:
                self._record_feed_entries(commit.version, changed_by_shard)
            return commit
        finally:
            for shard in reversed(acquired):
                shard.__exit__()

    # -- secondary indexes (the query layer's primitives) --------------------

    def register_index(self, definition: IndexDefinition) -> None:
        """Register a secondary index and materialize its posting trees.

        Every shard engine builds the index's posting tree for its
        current working head (a bulk build over existing content) and
        maintains it incrementally from then on: each flushed batch
        advances the postings from exactly the changed records, and
        every subsequent commit journals the posting roots next to the
        primary roots — so the index recovers, forks, merges and
        garbage-collects with the commits it belongs to.

        Definitions are code: a fresh process must re-register its
        indexes after constructing the service (commits journalled while
        the index was registered remain queryable through their recorded
        roots either way).  Registering a name twice raises
        :class:`~repro.core.errors.InvalidParameterError`.
        """
        self._require_open()
        with self._commit_lock:
            if definition.name in self._index_definitions:
                raise InvalidParameterError(
                    f"index {definition.name!r} is already registered")
            for shard in self._shards:
                with shard:
                    self._flush_shard_locked(shard)
                    shard.register_index(definition)
            self._index_definitions[definition.name] = definition

    def index_definitions(self) -> Dict[str, IndexDefinition]:
        """The currently registered secondary indexes, by name."""
        return dict(self._index_definitions)

    def has_index(self, name: str) -> bool:
        """Whether a secondary index named ``name`` is registered."""
        return name in self._index_definitions

    def _record_feed_entries(self, version: int,
                             changed_by_shard: Sequence[Sequence[Tuple]]) -> None:
        """Capture a commit's change log from its per-shard write deltas.

        Called (commit lock held) right after the commit is journalled.
        The per-shard ``(key, old, new)`` lists are each key-sorted and
        keys never cross shards, so a heap merge yields exactly the
        key-ordered entry list the structural first-parent diff would
        produce.  Deltas larger than :attr:`FEED_LOG_MAX_ENTRIES` (bulk
        loads) are not kept, and only the newest
        :attr:`FEED_LOG_COMMITS` commits are retained — evicted commits
        simply fall back to the diff.
        """
        total = sum(len(changed) for changed in changed_by_shard)
        if total > self.FEED_LOG_MAX_ENTRIES:
            return
        merged = tuple(DiffEntry(key, old, new) for key, old, new
                       in heapq.merge(*changed_by_shard))
        self._feed_log[version] = merged
        while len(self._feed_log) > self.FEED_LOG_COMMITS:
            self._feed_log.popitem(last=False)

    def feed_entries(self, version: int) -> Optional[Tuple[DiffEntry, ...]]:
        """The captured change log of commit ``version``, if still held.

        ``None`` means "not captured" (evicted, bulk-loaded, journalled
        before any index existed, or imported from a peer) — the caller
        computes the structural first-parent diff instead, which yields
        the identical entry list.
        """
        return self._feed_log.get(version)

    def _check_posting_roots(self, posting_roots: Sequence[Optional[Digest]]) -> Tuple[Optional[Digest], ...]:
        posting_roots = tuple(posting_roots)
        if len(posting_roots) != self.router.num_shards:
            raise InvalidParameterError(
                f"expected {self.router.num_shards} posting roots, "
                f"got {len(posting_roots)}")
        return posting_roots

    def index_lookup(self, posting_roots: Sequence[Optional[Digest]],
                     index_key: bytes) -> List[Tuple[bytes, bytes]]:
        """``(primary_key, value)`` pairs filed under ``index_key``.

        ``posting_roots`` is one index's per-shard root tuple (from a
        commit's :attr:`ServiceCommit.index_roots`).  Each shard answers
        with a pruned range scan over its posting tree — lock-free, since
        the roots are immutable — and the union is returned sorted.
        Postings are covering (they store the record value), so the
        answer costs one contiguous scan proportional to its size; the
        primary tree is never touched.
        """
        self._require_open()
        posting_roots = self._check_posting_roots(posting_roots)
        start, stop = lookup_range(index_key)
        # Every posting key in [start, stop) begins with the escaped
        # index key plus its terminator; the primary key is the tail.
        prefix_length = len(start)
        pairs: List[Tuple[bytes, bytes]] = []
        for shard, root in zip(self._shards, posting_roots):
            for posting_key, value in shard.scan_range(root, start, stop):
                pairs.append((posting_key[prefix_length:], value))
        pairs.sort()
        return pairs

    def index_range(self, posting_roots: Sequence[Optional[Digest]],
                    lo: Optional[bytes],
                    hi: Optional[bytes]) -> List[Tuple[bytes, bytes, bytes]]:
        """``(index_key, primary_key, value)`` triples with ``lo <= index_key < hi``.

        ``None`` bounds are open ends, matching the
        :meth:`~repro.core.interfaces.SIRIIndex.iterate_range` contract.
        The merged result is sorted by ``(index_key, primary_key)``;
        values come from the covering postings themselves.
        """
        self._require_open()
        posting_roots = self._check_posting_roots(posting_roots)
        start, stop = posting_range(lo, hi)
        triples: List[Tuple[bytes, bytes, bytes]] = []
        for shard, root in zip(self._shards, posting_roots):
            for posting_key, value in shard.scan_range(root, start, stop):
                index_key, primary_key = decode_posting_key(posting_key)
                triples.append((index_key, primary_key, value))
        triples.sort()
        return triples

    # -- replication (node transfer by structural frontier) -----------------

    def _check_shard_id(self, shard_id: int) -> None:
        if not 0 <= shard_id < self.router.num_shards:
            raise InvalidParameterError(
                f"shard id {shard_id} out of range "
                f"(service has {self.router.num_shards} shards)")

    def shard_missing_digests(self, shard_id: int,
                              digests: Sequence[Digest]) -> List[Digest]:
        """The subset of ``digests`` shard ``shard_id`` does not hold.

        The receiver half of the sync frontier: because imports land
        children before parents (and flush between levels), a held digest
        implies its entire subtree is held, so the sender can prune the
        descent at every digest this method omits.
        """
        self._require_open()
        self._check_shard_id(shard_id)
        return self._shards[shard_id].missing_digests(list(digests))

    def shard_fetch_nodes(self, shard_id: int,
                          digests: Sequence[Digest]) -> List[Tuple[Digest, bytes]]:
        """Canonical bytes of the requested nodes from shard ``shard_id``.

        Raises :class:`~repro.core.errors.NodeNotFoundError` for a digest
        the shard does not hold — peers only request digests this side
        advertised, so a miss is local data loss, not a race.
        """
        self._require_open()
        self._check_shard_id(shard_id)
        return self._shards[shard_id].fetch_nodes(list(digests))

    def shard_import_nodes(self, shard_id: int,
                           pairs: Sequence[Tuple[Digest, bytes]]) -> int:
        """Verify and land transferred nodes into shard ``shard_id``.

        Every pair is re-hashed against its claimed digest before any
        byte is stored (:class:`~repro.core.errors.SyncIntegrityError` on
        mismatch — a lying peer cannot poison the store), and the shard's
        backing store is flushed afterwards, making each imported batch a
        durable resume checkpoint.  Returns how many nodes were new.
        """
        self._require_open()
        self._check_shard_id(shard_id)
        shard = self._shards[shard_id]
        with shard:
            return shard.import_nodes(list(pairs))

    def child_digests(self, node_bytes: bytes) -> List[Digest]:
        """Digests of the children referenced by one node's canonical bytes.

        Pure byte parsing through a store-less parser index instance, so
        it works identically on the thread and process backends (where
        the parent holds no shard index).  Sync uses it to advance the
        frontier descent one level from already-transferred parents.
        """
        if self._parser_index is None:
            self._parser_index = self._index_factory(InMemoryNodeStore())
        return self._parser_index._child_digests(node_bytes)

    def ancestry_digests(self, branch: str, limit: int = 64) -> List[Digest]:
        """Commit digests along ``branch``'s first-parent history, newest first.

        Commit digests are content-derived (a hash over the shard roots),
        so two replicas that ever held the same state share a digest even
        though their journal version numbers differ.  Sync peers exchange
        these chains to find a common base without sharing a journal;
        ``limit`` bounds the chain (deep divergences fall back to a full
        three-way merge against the empty base).
        """
        self._require_open()
        chain: List[Digest] = []
        for commit in self.log(branch):
            chain.append(commit.digest)
            if len(chain) >= limit:
                break
        return chain

    def commit_for_digest(self, digest: Digest) -> Optional[ServiceCommit]:
        """The newest commit whose content digest equals ``digest``.

        Used by sync to recover the shard roots of a common-ancestor
        digest found in a peer's ancestry chain.  Returns ``None`` when no
        local commit ever had that content.
        """
        self._require_open()
        for commit in reversed(self._commits):
            if commit.digest == digest:
                return commit
        return None

    def publish_roots(self, branch: str, roots: Sequence[Optional[Digest]],
                      message: str = "",
                      expected_digest: Optional[Digest] = None) -> ServiceCommit:
        """Compare-and-set publish of sync-transferred roots onto ``branch``.

        The head-move half of a sync session.  The caller transferred all
        of ``roots``' nodes first (:meth:`shard_import_nodes`), so this
        method only has to (1) check the CAS — the branch head's content
        digest must still equal ``expected_digest`` (``None`` = the branch
        must not exist yet), raising
        :class:`~repro.core.errors.SyncHeadMovedError` when a concurrent
        writer won the race — and (2) verify every non-empty root is
        actually held by its shard store, so a buggy or lying peer cannot
        publish a head whose subtree was never landed.  Publishing the
        roots the head already has is an idempotent no-op returning the
        existing head.
        """
        self._require_open()
        roots = tuple(roots)
        if len(roots) != self.router.num_shards:
            raise InvalidParameterError(
                f"expected {self.router.num_shards} shard roots, got {len(roots)}")
        with self._commit_lock:
            head = self._branch_heads.get(branch)
            head_digest = head.digest if head is not None else None
            if head_digest != expected_digest:
                raise SyncHeadMovedError(branch)
            if head is not None and head.roots == roots:
                return head
            for shard_id, root in enumerate(roots):
                if root is not None and self._shards[shard_id].missing_digests(
                        [root]):
                    raise InvalidParameterError(
                        f"cannot publish branch {branch!r}: shard {shard_id} "
                        f"root {root!r} is not present in its store")
            parents = (head.version,) if head is not None else ()
            return self._commit_roots_locked(branch, roots, message, parents)

    def pin_roots(self, roots: Sequence[Optional[Digest]]) -> int:
        """Protect a cross-shard root tuple from :meth:`collect_garbage`.

        Used by readers holding a long-lived view that is neither a branch
        head nor a retained commit — e.g. an open transaction's pinned
        base snapshot.  Returns a pin id for :meth:`unpin_roots`; an
        unreleased pin keeps its nodes live for the process lifetime.
        """
        roots = tuple(roots)
        if len(roots) != self.router.num_shards:
            raise InvalidParameterError(
                f"expected {self.router.num_shards} shard roots, got {len(roots)}")
        with self._pin_lock:
            self._pin_counter += 1
            pin_id = self._pin_counter
            self._pinned_roots[pin_id] = roots
        return pin_id

    def unpin_roots(self, pin_id: int) -> None:
        """Release a pin taken with :meth:`pin_roots` (unknown ids ignored)."""
        with self._pin_lock:
            self._pinned_roots.pop(pin_id, None)

    def retained_commits(self) -> List[ServiceCommit]:
        """The commits protected from :meth:`collect_garbage`.

        With ``retain_versions=N`` these are the newest N commits; older
        commits remain listed (version numbers never reuse) and readable
        until a GC run actually reclaims their exclusively-owned nodes.
        ``retain_versions=None`` retains every commit.
        """
        if self.retain_versions is None:
            return list(self._commits)
        return list(self._commits[-self.retain_versions:])

    def collect_garbage(self) -> GCCounters:
        """Mark-and-sweep the shard stores down to the retained versions.

        Mark: per shard, the union of nodes reachable from the shard's
        roots in every retained commit (:meth:`retained_commits`), in
        **every branch's head commit** (a branch head is always live, no
        matter how old — the retention window only expires interior
        history), in every pinned view (:meth:`pin_roots` — open
        transactions), plus its current working head.  Sweep: segment stores are compacted (live
        nodes rewritten into fresh segments, old files unlinked); stores
        exposing ``delete`` are swept in place
        (:class:`repro.storage.gc.GarbageCollector`).  Shard caches are
        invalidated so a stale cache cannot resurrect swept nodes.

        Reads of *retained* versions are unaffected (content addressing
        keeps digests stable).  Reads of versions older than the
        retention window — and of intermediate flush roots that were
        never committed — may raise
        :class:`~repro.core.errors.NodeNotFoundError` afterwards.

        Returns the merged :class:`~repro.core.metrics.GCCounters` delta
        for this run; cumulative counters are reported by
        :meth:`metrics`.
        """
        self._require_open()
        merged = GCCounters()
        with self._commit_lock:
            retained = self.retained_commits()
            protected = [commit.roots for commit in retained]
            protected.extend(commit.roots for commit in self._branch_heads.values())
            # Posting trees live or die with their commits: protect the
            # per-index root tuples of every commit whose primary roots
            # are protected (the engine adds its own working posting
            # heads during collect()).
            for commit in retained:
                protected.extend(roots for _, roots in commit.index_roots)
            for commit in self._branch_heads.values():
                protected.extend(roots for _, roots in commit.index_roots)
            with self._pin_lock:
                protected.extend(self._pinned_roots.values())
            for shard in self._shards:
                with shard:
                    self._flush_shard_locked(shard)
                    roots = {root_tuple[shard.shard_id] for root_tuple in protected}
                    # The engine adds its own working head, sweeps the
                    # store, invalidates the cache and restarts the
                    # shard's history at its (live) head — un-committed
                    # intermediate flush roots may now dangle.
                    delta = shard.collect(roots)
                    merged = merged.merge(delta)
            self._gc_total = self._gc_total.merge(merged)
        return merged

    def snapshot(self, version: Optional[Union[int, ServiceCommit]] = None) -> ServiceSnapshot:
        """An immutable cross-shard view of the latest state or a commit.

        ``version=None`` flushes pending writes and snapshots the current
        heads; otherwise the view is reconstructed from the commit's
        recorded shard roots.
        """
        self._require_open()
        if version is None:
            heads, _ = self._atomic_cut()
            return ServiceSnapshot(heads, commit=None)
        commit = self._resolve_commit(version)
        snaps = [shard.view(root) for shard, root in zip(self._shards, commit.roots)]
        return ServiceSnapshot(snaps, commit=commit)

    def snapshot_roots(self, roots: Sequence[Optional[Digest]],
                       commit: Optional[ServiceCommit] = None) -> ServiceSnapshot:
        """Wrap explicit per-shard roots in an immutable cross-shard view.

        The repository layer uses this to read branch heads (whose roots
        live in the commit journal, not in the shards' working heads).
        """
        self._require_open()
        roots = tuple(roots)
        if len(roots) != self.router.num_shards:
            raise InvalidParameterError(
                f"expected {self.router.num_shards} shard roots, got {len(roots)}")
        snaps = [shard.view(root) for shard, root in zip(self._shards, roots)]
        return ServiceSnapshot(snaps, commit=commit)

    def diff(self, left: Union[int, ServiceCommit, ServiceSnapshot],
             right: Union[int, ServiceCommit, ServiceSnapshot, None] = None) -> DiffResult:
        """Merged structural diff between two versions (or a version and head)."""
        self._require_open()
        left_snap = left if isinstance(left, ServiceSnapshot) else self.snapshot(left)
        if right is None:
            right_snap = self.snapshot()
        elif isinstance(right, ServiceSnapshot):
            right_snap = right
        else:
            right_snap = self.snapshot(right)
        return diff_service_snapshots(left_snap, right_snap)

    # -- observability -----------------------------------------------------

    def shard_histories(self) -> List[List[Optional[Digest]]]:
        """Each shard's root-version history (one root per flush).

        Each shard's list is copied under that shard's lock, so every
        returned history is a consistent prefix even while flushes race.
        """
        self._require_open()
        histories = []
        for shard in self._shards:
            with shard:
                histories.append(shard.history_copy())
        return histories

    def metrics(self, include_records: bool = False) -> ServiceMetrics:
        """Current counters: per-shard node I/O, cache hits, coalescing, commits.

        ``include_records=True`` additionally counts each shard's *flushed*
        records (pending buffered writes are excluded — use
        :meth:`record_count` for a flush-then-count total), which costs a
        full iteration per shard — leave it off on hot paths.
        """
        self._require_open()
        shards = [shard.shard_metrics(include_records) for shard in self._shards]
        return ServiceMetrics(
            shards=shards,
            gets=self._gets,
            puts=self._puts,
            removes=self._removes,
            buffered_ops=self.batcher.buffered_ops,
            coalesced_ops=self.batcher.coalesced_ops,
            flushes=sum(metric.flushes for metric in shards),
            commits=len(self._commits),
            gc=self._gc_total.copy(),
        )

    def reset_counters(self) -> None:
        """Zero every operation/cache/node counter (state is untouched)."""
        self._require_open()
        with self._counter_lock:
            self._gets = self._puts = self._removes = 0
        # collect_garbage() adds to the GC total under the commit lock.
        with self._commit_lock:
            self._gc_total = GCCounters()
        self.batcher.reset_counters()
        for shard in self._shards:
            # Under the shard lock: flushes/flush_seconds/contention are
            # read-modify-written by concurrent flushes and lock waiters.
            with shard:
                shard.reset_shard_counters()

    def storage_bytes(self) -> int:
        """Physical bytes across all shard stores (unique nodes only)."""
        self._require_open()
        return sum(shard.storage_bytes() for shard in self._shards)

    def __repr__(self) -> str:
        index_name = self._index_name if self._shards else "?"
        return (
            f"VersionedKVService(index={index_name}, shards={self.num_shards}, "
            f"batch_size={self.batch_size}, commits={len(self._commits)})"
        )
