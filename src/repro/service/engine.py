"""The single-shard engine: one partition's index, store, cache and head.

:class:`ShardEngine` is the self-contained per-shard core extracted from
:class:`~repro.service.service.VersionedKVService`: one index instance
over one (optionally cached) node store, plus the shard's mutable serving
state — the working head snapshot, the per-flush root history and the
flush counters.  The engine is deliberately **lock-free and
transport-free**: it assumes its caller serializes mutations, and every
method speaks plain picklable values (digests, byte strings, op batches),
so exactly the same engine runs in two placements:

* **in-process** (``backend="thread"``) — the :class:`ShardHandle`
  carries the engine's own bound methods;
* **out-of-process** (``backend="process"``) — owned by a forked worker
  (:mod:`repro.service.process`) that executes pickled engine commands
  arriving over a per-shard command pipe, escaping the GIL for the
  hash/encode-heavy flush and lookup work.

Either way the service holds one :class:`ShardHandle` per shard, and
what crosses its boundary is named once, in :data:`SHARD_COMMANDS`.

Running the *same* engine code under both backends is what makes the
cross-backend differential suite meaningful: byte-identical shard roots
and commit digests fall out of construction, and the equivalence tests
(``tests/service/test_backend_equivalence.py``) verify it end to end.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.diff import DiffResult, diff_snapshots
from repro.core.errors import SyncIntegrityError
from repro.core.interfaces import IndexSnapshot, SIRIIndex
from repro.core.metrics import CacheCounters, ContentionCounters, GCCounters
from repro.hashing.digest import Digest
from repro.query.definition import IndexDefinition, encode_posting_key
from repro.storage.cache import CachingNodeStore
from repro.storage.gc import GarbageCollector, reachable_digests
from repro.storage.store import NodeStore



@dataclass
class ShardMetrics:
    """Point-in-time counters for one shard."""

    shard_id: int
    flushes: int
    nodes_written: int
    nodes_read: int
    cache: CacheCounters
    records: Optional[int] = None
    #: Lock acquisition/contention accounting for this shard's mutex.
    contention: ContentionCounters = field(default_factory=ContentionCounters)
    #: Cumulative seconds spent applying this shard's flushes (index time
    #: only, excluding lock waits — those are in ``contention``).
    flush_seconds: float = 0.0


class ShardEngine:
    """One partition: an index over its own (optionally cached) store.

    Owns the shard's complete serving state — backing store, optional
    read-through cache, index instance, working head snapshot and root
    history — but **no lock**: callers (the thread handle's mutex, or the
    one-command-at-a-time worker loop of the process backend) serialize
    mutations.  Every argument and return value is picklable, so the full
    method surface doubles as the process backend's command set.
    """

    __slots__ = ("shard_id", "backing", "store", "cache", "index", "head",
                 "history", "flushes", "flush_seconds", "index_defs",
                 "posting_heads")

    def __init__(self, shard_id: int, backing: NodeStore, store: NodeStore,
                 cache: Optional[CachingNodeStore], index: SIRIIndex):
        self.shard_id = shard_id
        self.backing = backing
        self.store = store
        self.cache = cache
        self.index = index
        #: Registered secondary indexes (name -> IndexDefinition).  Posting
        #: trees are ordinary trees of ``self.index`` living in the same
        #: store; ``posting_heads`` tracks their roots alongside the
        #: primary working head and upholds the invariant
        #: ``posting_heads.keys() == index_defs.keys()``.
        self.index_defs: Dict[str, IndexDefinition] = {}
        self.posting_heads: Dict[str, Optional[Digest]] = {}
        # A *counted* head costs the flush path nothing: the SIRI indexes
        # report the record delta as a free by-product of each batched
        # write (SIRIIndex.write_counted), so record_count() is O(1) on a
        # freshly built service.  The count is unknown (None) after the
        # head is reset from journalled roots — open()/branch commits —
        # where the first len() falls back to one iteration and caches.
        self.head: IndexSnapshot = index.empty_snapshot()
        #: Root digest after every flush, oldest first (the shard's own
        #: root-version history; service commits reference entries of it).
        self.history: List[Optional[Digest]] = [index.empty_root()]
        self.flushes = 0
        self.flush_seconds = 0.0

    # -- identity ----------------------------------------------------------

    def describe(self) -> str:
        """Name of the index structure this shard runs (for reprs/logs)."""
        return self.index.name

    # -- head state --------------------------------------------------------

    def reset_head(self, root: Optional[Digest],
                   posting_roots: Optional[Dict[str, Optional[Digest]]] = None) -> None:
        """Reset the working head (and restart history) at ``root``.

        Used on open/recovery: the root comes from the journal, so the
        record count is unknown until first use.  ``posting_roots`` are
        the journalled posting roots for this shard; any registered index
        missing from them (a commit that predates the index) is rebuilt
        from the primary content.
        """
        self.head = self.index.snapshot(root)
        self.history = [root]
        self.posting_heads = self._resolve_posting_heads(root, posting_roots)

    def head_root(self) -> Optional[Digest]:
        """Root digest of the current working head."""
        return self.head.root_digest

    def set_head(self, root: Optional[Digest],
                 posting_roots: Optional[Dict[str, Optional[Digest]]] = None) -> None:
        """Advance the working head to ``root`` and append it to history.

        ``posting_roots`` carries the matching posting roots when the
        caller knows them (a just-journalled commit); registered indexes
        missing from them are rebuilt from the primary content.
        """
        self.head = self.index.snapshot(root)
        self.history.append(root)
        self.posting_heads = self._resolve_posting_heads(root, posting_roots)

    # -- secondary indexes (posting trees) ---------------------------------

    def register_index(self, definition: IndexDefinition) -> Optional[Digest]:
        """Register a secondary index and materialize its working postings.

        The posting tree for the current working head is bulk-built on
        the spot (O(shard content)); afterwards every write path
        maintains it incrementally.  Returns the initial posting root.
        """
        self.index_defs[definition.name] = definition
        root = self._build_posting_root(definition.name, self.head.root_digest)
        self.posting_heads[definition.name] = root
        self.store_flush()
        return root

    def posting_heads_state(self) -> Dict[str, Optional[Digest]]:
        """Posting root per registered index for the working head."""
        return dict(self.posting_heads)

    def _resolve_posting_heads(
        self,
        primary_root: Optional[Digest],
        posting_roots: Optional[Dict[str, Optional[Digest]]],
    ) -> Dict[str, Optional[Digest]]:
        """Posting roots for every registered index at ``primary_root``.

        Provided roots are trusted (they come from a commit record);
        registered indexes absent from them are rebuilt from content so a
        head predating the index registration still answers queries.
        """
        provided = posting_roots or {}
        resolved: Dict[str, Optional[Digest]] = {}
        built = False
        for name in self.index_defs:
            if name in provided:
                resolved[name] = provided[name]
            else:
                resolved[name] = self._build_posting_root(name, primary_root)
                built = True
        if built:
            self.store_flush()
        return resolved

    def _build_posting_root(self, name: str,
                            primary_root: Optional[Digest]) -> Optional[Digest]:
        """Bulk-build index ``name``'s posting tree from primary content.

        Postings are *covering*: each one stores the primary record's
        value, so index reads answer from the posting tree's contiguous
        range alone — no per-result point reads back into the primary
        tree.
        """
        definition = self.index_defs[name]
        records: List[Tuple[bytes, bytes]] = []
        for key, value in self.index.iterate(primary_root):
            for index_key in definition.keys_for(value):
                records.append((encode_posting_key(index_key, key), value))
        records.sort()
        return self.index.bulk_build(records)

    def _changed_entries(
        self,
        base_primary: Optional[Digest],
        puts: Dict[bytes, bytes],
        removes: Iterable[bytes],
    ) -> List[Tuple[bytes, Optional[bytes], Optional[bytes]]]:
        """``(key, old value, new value)`` for a batch against a base root.

        Remove-wins (matching :meth:`SIRIIndex.write`); keys whose value
        does not change are dropped, so postings never churn on no-op
        writes.
        """
        removed = set(removes)
        changed: List[Tuple[bytes, Optional[bytes], Optional[bytes]]] = []
        for key in sorted(set(puts) | removed):
            new = None if key in removed else puts[key]
            old = self.index.lookup(base_primary, key)
            if old != new:
                changed.append((key, old, new))
        return changed

    def _advance_postings(
        self,
        base_postings: Dict[str, Optional[Digest]],
        changed: Iterable[Tuple[bytes, Optional[bytes], Optional[bytes]]],
    ) -> Dict[str, Optional[Digest]]:
        """Apply value changes to every posting tree; returns the new roots.

        For each changed primary key the old value's index keys that
        disappear become posting removals, and every index key of the new
        value becomes a posting insertion carrying the new value —
        postings are covering, so a surviving index key still needs its
        stored copy refreshed.  This is the incremental commit-time
        maintenance step.
        """
        changed = list(changed)
        result: Dict[str, Optional[Digest]] = {}
        for name, definition in self.index_defs.items():
            posting_puts: Dict[bytes, bytes] = {}
            posting_removes: List[bytes] = []
            for key, old, new in changed:
                old_keys = definition.keys_for(old)
                new_keys = definition.keys_for(new)
                for index_key in old_keys:
                    if index_key not in new_keys:
                        posting_removes.append(encode_posting_key(index_key, key))
                for index_key in new_keys:
                    posting_puts[encode_posting_key(index_key, key)] = new
            if not posting_puts and not posting_removes:
                # Untouched index: keep the base root (skipping the write
                # also guarantees root stability for no-op batches).
                result[name] = base_postings.get(name)
            else:
                result[name] = self.index.write(
                    base_postings.get(name), posting_puts, posting_removes)
        return result

    def postings_for(
        self,
        primary_root: Optional[Digest],
        base_primary: Optional[Digest] = None,
        base_postings: Optional[Dict[str, Optional[Digest]]] = None,
    ) -> Dict[str, Optional[Digest]]:
        """Posting roots matching ``primary_root``, diff-driven from a base.

        Cost is proportional to the structural diff between
        ``base_primary`` and ``primary_root`` (O(content) from an empty
        base).  Registered indexes missing from ``base_postings`` are
        first rebuilt at ``base_primary``.  Used when roots arrive
        *already built* — replication publishes, fork-point recovery —
        so postings are always a pure function of the primary content.
        """
        if not self.index_defs:
            return {}
        base = self._resolve_posting_heads(base_primary, base_postings)
        changed = [(key, old, new) for key, old, new
                   in self.index.iterate_diff(base_primary, primary_root)]
        roots = self._advance_postings(base, changed)
        self.store_flush()
        return roots

    def write_at_indexed(
        self,
        root: Optional[Digest],
        puts: Dict[bytes, bytes],
        removes: Iterable[bytes],
        base_postings: Optional[Dict[str, Optional[Digest]]],
    ) -> Tuple[Optional[Digest], Dict[str, Optional[Digest]],
               List[Tuple[bytes, Optional[bytes], Optional[bytes]]]]:
        """:meth:`write_at` plus incremental posting maintenance.

        The branch-commit primitive when secondary indexes exist: applies
        the batch onto ``root`` and advances the matching posting trees
        from the staged delta (old-value lookups against ``root``).
        Returns ``(new primary root, new posting roots, changed)`` where
        ``changed`` is the key-sorted ``(key, old, new)`` delta the batch
        actually made against ``root`` — computed here anyway for posting
        maintenance, and recycled by the service as the commit's change
        log so feeds can skip the structural diff for recent commits.
        """
        removes = list(removes)
        new_root = self.index.write(root, puts, removes)
        base = self._resolve_posting_heads(root, base_postings)
        changed = self._changed_entries(root, puts, removes)
        postings = self._advance_postings(base, changed)
        return new_root, postings, changed

    # -- writes ------------------------------------------------------------

    def apply_ops(self, puts: Dict[bytes, bytes],
                  removes: Iterable[bytes]) -> Tuple[Optional[Digest], Optional[int]]:
        """Apply one drained write batch to the head (a no-op when empty).

        This is the flush body: the batch goes through the index's batched
        copy-on-write path, then the backing store's buffered append path
        is flushed (the durability barrier — a SegmentNodeStore writes the
        DATA records plus a COMMIT marker and fsyncs), and the new root is
        appended to the shard's history.

        Returns the resulting head as ``(root, cached record count or
        None)``.  This makes it the one-round-trip command behind the
        commit protocol's *prepare* phase: once it returns, the batch is
        applied **and** durable, and the root is the shard's contribution
        to the cut.
        """
        removes = list(removes)
        if puts or removes:
            started = time.perf_counter()
            if self.index_defs:
                self.posting_heads = self._advance_postings(
                    self.posting_heads,
                    self._changed_entries(self.head.root_digest, puts, removes))
            self.head = self.head.update(puts, removes=removes)
            self.store_flush()
            self.flush_seconds += time.perf_counter() - started
            self.history.append(self.head.root_digest)
            self.flushes += 1
        return self.head.root_digest, self.head._record_count

    def load_batch(self, puts: Dict[bytes, bytes], removes: Iterable[bytes]) -> None:
        """Bulk-ingest an already-routed batch as one batched write.

        On an empty shard this is the index's O(N) bottom-up bulk builder.
        Keys are already coerced: write through the index directly
        (``head.update`` would re-coerce and rebuild the whole batch
        dict), carrying the head's cached record count through the batch.
        """
        started = time.perf_counter()
        removes = list(removes)
        if self.index_defs:
            self.posting_heads = self._advance_postings(
                self.posting_heads,
                self._changed_entries(self.head.root_digest, puts, removes))
        new_root, delta = self.index.write_counted(
            self.head.root_digest, puts, list(removes))
        count = self.head._record_count
        new_count = count + delta if (count is not None and delta is not None) else None
        self.head = self.index.snapshot(new_root, record_count=new_count)
        self.store_flush()
        self.flush_seconds += time.perf_counter() - started
        self.history.append(self.head.root_digest)
        self.flushes += 1

    def write_at(self, root: Optional[Digest], puts: Dict[bytes, bytes],
                 removes: Iterable[bytes]) -> Optional[Digest]:
        """Copy-on-write a batch onto an arbitrary ``root``; head untouched.

        The branch-commit primitive: nodes land in the store's buffered
        append path (flushed by :meth:`store_flush` before the journal
        names them) and no other reader observes anything until the new
        root is published.
        """
        return self.index.write(root, puts, list(removes))

    def store_flush(self) -> None:
        """Push the backing store's buffered appends to durable storage."""
        flush = getattr(self.backing, "flush", None)
        if flush is not None:
            flush()

    # -- reads -------------------------------------------------------------

    def lookup_head(self, key: bytes) -> Optional[bytes]:
        """Read ``key`` from the working head (``None`` when absent)."""
        return self.index.lookup(self.head.root_digest, key)

    def lookup_at(self, root: Optional[Digest], key: bytes) -> Optional[bytes]:
        """Read ``key`` from an arbitrary (usually committed) root."""
        return self.index.lookup(root, key)

    def scan(self, root: Optional[Digest]) -> List[Tuple[bytes, bytes]]:
        """Materialize every record under ``root`` in ascending key order."""
        return list(self.index.snapshot(root).items())

    def scan_range(self, root: Optional[Digest], start: Optional[bytes],
                   stop: Optional[bytes]) -> List[Tuple[bytes, bytes]]:
        """Materialize records with ``start <= key < stop`` under ``root``.

        Pruned by the index where the structure allows it (the ranged
        trees descend only subtrees overlapping the window); the query
        layer uses this on posting-tree roots for lookups and ranges.
        """
        return list(self.index.iterate_range(root, start, stop))

    def count_at(self, root: Optional[Digest]) -> int:
        """Number of records under ``root``."""
        return len(self.index.snapshot(root))

    def diff(self, root_a: Optional[Digest], root_b: Optional[Digest]) -> DiffResult:
        """Structural diff between two of this shard's roots."""
        return diff_snapshots(self.index.snapshot(root_a), self.index.snapshot(root_b))

    def prove(self, root: Optional[Digest],
              key: bytes) -> Tuple[Optional[bytes], str, List[Tuple[int, bytes]]]:
        """Build a Merkle proof for ``key`` under ``root``, as plain parts.

        Returns ``(value, index name, [(level, node bytes), ...])`` — the
        transportable pieces of a :class:`~repro.core.proof.MerkleProof`.
        The index-specific ``binding_check`` closure is deliberately left
        behind (it binds the index instance and cannot cross a process
        boundary); reconstructed proofs fall back to the conservative
        containment check, exactly like proofs returned over the wire
        protocol (:meth:`repro.server.protocol.WireProof.to_merkle_proof`).
        """
        proof = self.index.snapshot(root).prove(key)
        return (proof.value, proof.index_name,
                [(step.level, step.node_bytes) for step in proof.steps])

    def node_digests(self, root: Optional[Digest]) -> Set[Digest]:
        """The page (node digest) set reachable from ``root``."""
        return self.index.snapshot(root).node_digests()

    # -- maintenance -------------------------------------------------------

    def collect(self, protected_roots: Iterable[Optional[Digest]]) -> GCCounters:
        """Mark-and-sweep this shard's store down to the protected roots.

        ``protected_roots`` are this shard's entries of every retained
        commit/branch head/pin; the current working head is always added.
        The read-through cache is invalidated (a stale cache must not
        resurrect swept nodes) and the root history restarts at the head,
        since un-committed intermediate flush roots may now dangle.
        """
        roots = set(protected_roots)
        roots.add(self.head.root_digest)
        roots.update(self.posting_heads.values())
        live = reachable_digests(self.index, roots)
        delta = GarbageCollector(self.backing).collect(live)
        if self.cache is not None:
            self.cache.invalidate()
        self.history = [self.head.root_digest]
        return delta

    def history_copy(self) -> List[Optional[Digest]]:
        """A copy of the shard's root-version history, oldest first."""
        return list(self.history)

    def metrics(self, include_records: bool = False) -> ShardMetrics:
        """This shard's counters (contention is filled in by the handle)."""
        cache = (CacheCounters.from_cache(self.cache)
                 if self.cache is not None else CacheCounters())
        return ShardMetrics(
            shard_id=self.shard_id,
            flushes=self.flushes,
            nodes_written=getattr(self.index, "nodes_written", 0),
            nodes_read=getattr(self.index, "nodes_read", 0),
            cache=cache,
            records=len(self.head) if include_records else None,
            flush_seconds=self.flush_seconds,
        )

    def reset_counters(self) -> None:
        """Zero flush/node/cache counters (state is untouched)."""
        self.flushes = 0
        self.flush_seconds = 0.0
        if hasattr(self.index, "reset_counters"):
            self.index.reset_counters()
        if self.cache is not None:
            self.cache.cache_hits = 0
            self.cache.cache_misses = 0

    def storage_bytes(self) -> int:
        """Physical bytes in this shard's backing store (unique nodes)."""
        return self.backing.total_bytes()

    def export_nodes(self) -> List[Tuple[Digest, bytes]]:
        """Every node in the backing store, as ``(digest, bytes)`` pairs.

        Used by the process backend's close path to park an in-memory
        shard's content in the parent, so ``reopen()`` restores committed
        state without a persistent medium — mirroring the thread backend
        parking its store objects.
        """
        return [(digest, self.store.get_bytes(digest))
                for digest in self.backing.digests()]

    # -- replication (node transfer by digest) -----------------------------

    def missing_digests(self, digests: Sequence[Digest]) -> List[Digest]:
        """The subset of ``digests`` this shard's store does not hold.

        The receiving half of the structural frontier: a sync session asks
        each shard which of the advertised child digests it already owns,
        and prunes the descent at every subtree whose root is present
        (store invariant: a stored digest implies its whole subtree is
        stored — imports land children before parents).
        """
        return [d for d in digests if not self.store.contains(d)]

    def fetch_nodes(self, digests: Sequence[Digest]) -> List[Tuple[Digest, bytes]]:
        """Read the canonical bytes of each requested node digest.

        The sending half of the frontier.  Raises
        :class:`~repro.core.errors.NodeNotFoundError` when a requested
        digest is absent — a sync peer only requests digests this side
        advertised, so a miss means local data loss, not a protocol race.
        """
        return [(digest, self.store.get_bytes(digest)) for digest in digests]

    def import_nodes(self, pairs: Sequence[Tuple[Digest, bytes]]) -> int:
        """Verify and land transferred nodes; returns how many were new.

        Trust model: every pair is re-hashed and compared against its
        claimed digest *before any byte is stored* — a lying source
        raises :class:`~repro.core.errors.SyncIntegrityError` and the
        store is untouched.  After the batch lands, the backing store is
        flushed, making the batch a durable resume checkpoint: an
        interrupted sync never re-pays for nodes already imported.
        """
        hash_function = self.store.hash_function
        for digest, data in pairs:
            if hash_function.hash(data) != digest:
                raise SyncIntegrityError(digest)
        new = 0
        for digest, data in pairs:
            if self.store.put_bytes(digest, data):
                new += 1
        self.store_flush()
        return new

    def close_store(self) -> None:
        """Close the backing store, if it has a lifecycle."""
        close = getattr(self.backing, "close", None)
        if close is not None:
            close()


#: The shard command table: every :class:`ShardEngine` method that may be
#: invoked through a :class:`ShardHandle`, by name.  It is the one
#: definition of the handle boundary — the handle's command methods, the
#: worker loop's dispatch (:func:`repro.service.process.shard_worker_main`)
#: and lint rule L4's pickle-boundary checks are all generated from it.
#: A command's arguments and result must be plain picklable values.
SHARD_COMMANDS: Tuple[str, ...] = (
    "describe",
    "reset_head", "head_root", "set_head",
    "register_index", "posting_heads_state", "postings_for", "write_at_indexed",
    "apply_ops", "load_batch", "write_at", "store_flush",
    "lookup_head", "lookup_at", "scan", "scan_range", "count_at", "diff",
    "prove", "node_digests",
    "collect", "history_copy", "metrics", "reset_counters", "storage_bytes",
    "export_nodes",
    "missing_digests", "fetch_nodes", "import_nodes",
    "close_store",
)


class ShardHandle:
    """One shard as the service sees it: the command table behind a mutex.

    The handle adds what the engine deliberately lacks — the per-shard
    lock and its contention counters (acquire it with ``with handle:`` so
    every wait is recorded) — and carries one method per
    :data:`SHARD_COMMANDS` row.  Given an ``engine``
    (``backend="thread"``) each is the engine's own bound method; given a
    ``pipe`` (``backend="process"``, a
    :class:`~repro.service.process.PipeTransport`) each is one pickled
    round trip to the shard's worker.  The service code is therefore
    identical across backends; only the commands written out below are
    more than a table row.

    Locking discipline is the caller's: commands that touch the working
    head (``lookup_head``, ``apply_ops``, ``set_head``, ``collect``, …)
    are issued under the handle's lock; commands on a committed root
    (``lookup_at``, ``scan_range``, ``fetch_nodes``, …) are lock-free,
    because roots are immutable.
    """

    def __init__(self, shard_id: int, engine: Optional[ShardEngine] = None,
                 pipe=None):
        #: This shard's id (its position in the service's shard list).
        self.shard_id = shard_id
        self.lock = threading.Lock()
        self.contention = ContentionCounters()
        #: The shard's engine when it lives in this process, else ``None``.
        self.engine = engine
        #: The transport to the shard's worker process, else ``None``.
        self.pipe = pipe
        for method in SHARD_COMMANDS:
            setattr(self, method, getattr(engine, method) if pipe is None
                    else functools.partial(pipe.call, method))

    # -- locking -----------------------------------------------------------

    def __enter__(self) -> "ShardHandle":
        # Fast path: an uncontended acquire costs one non-blocking attempt.
        if not self.lock.acquire(blocking=False):
            started = time.perf_counter()
            self.lock.acquire()
            self.contention.contended += 1
            self.contention.wait_seconds += time.perf_counter() - started
        self.contention.acquisitions += 1
        return self

    def __exit__(self, *exc_info) -> None:
        self.lock.release()

    # -- placement ---------------------------------------------------------

    @property
    def pid(self) -> Optional[int]:
        """OS pid of the shard's worker process (process backend only)."""
        return self.pipe.pid

    @property
    def is_alive(self) -> bool:
        """Whether the shard's worker is still serving (process backend only)."""
        return self.pipe.is_alive

    # -- commands that are more than a table row ---------------------------

    def flush_begin(self, puts: Dict[bytes, bytes], removes: Iterable[bytes]) -> None:
        """Stage one shard's *prepare*: dispatch ``apply_ops``, don't wait.

        The two-phase commit protocol issues ``flush_begin`` on every
        shard before collecting any result, which is what overlaps the
        per-shard batch application and store fsyncs across worker
        processes; in-process there is nothing to overlap and the batch
        is applied on the spot.
        """
        if self.pipe is None:
            self.engine.apply_ops(puts, removes)
        else:
            self.pipe.send("apply_ops", (puts, removes))

    def flush_finish(self):
        """Collect the staged prepare's result: the shard's new head view."""
        if self.pipe is None:
            return self.engine.head
        return self.pipe.view(*self.pipe.recv("apply_ops"))

    def view(self, root: Optional[Digest]):
        """An immutable view of ``root`` (lock-free; roots are immutable)."""
        if self.pipe is None:
            return self.engine.index.snapshot(root)
        return self.pipe.view(root, None)

    def shard_metrics(self, include_records: bool = False) -> ShardMetrics:
        """This shard's counters, the handle's lock contention merged in."""
        metrics = self.metrics(include_records)
        metrics.contention = self.contention.copy()
        return metrics

    def reset_shard_counters(self) -> None:
        """Zero the shard's counters (caller holds the lock)."""
        self.contention = ContentionCounters()
        self.reset_counters()

    def set_fault(self, point: Optional[str]) -> None:
        """Arm (or clear, with ``None``) a kill-point in the shard's worker."""
        if self.pipe is None:
            raise NotImplementedError(
                "fault injection kill-points require backend='process'")
        self.pipe.call("set_fault", point)

    def close(self) -> None:
        """Close the shard's store (and stop its worker, if it has one)."""
        if self.pipe is None:
            self.engine.close_store()
        else:
            self.pipe.close()
