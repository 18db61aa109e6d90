"""Content-addressed node storage.

Every index in this library persists its nodes into a *node store*: a
content-addressed map from :class:`~repro.hashing.digest.Digest` to the
node's canonical byte serialization.  Because the key is the hash of the
value, structurally identical nodes — whether they come from two versions
of the same index, two branches, or two entirely different indexes — are
stored exactly once.  That single mechanism is what realizes the paper's
page-level deduplication.

Provided stores:

* :class:`~repro.storage.memory.InMemoryNodeStore` — dictionary-backed,
  used by unit tests and most benchmarks.
* :class:`~repro.storage.segment.SegmentNodeStore` — the durable
  append-only segment engine: CRC-protected records, commit markers,
  torn-tail truncation on reopen, batched fsynced appends, and
  compaction hooks for the garbage collector (``docs/STORAGE.md``).
* :class:`~repro.storage.cache.CachingNodeStore` — an LRU read cache in
  front of another store, modelling Forkbase's client-side node cache
  (Section 5.6.1).
* :class:`~repro.storage.metered.MeteredNodeStore` — wraps another store
  and counts gets/puts/bytes, used by the benchmark harness.
* :class:`~repro.storage.refcount.RefCountingNodeStore` — reference
  counting and garbage collection of unreachable versions.
* :class:`~repro.storage.gc.GarbageCollector` — mark-and-sweep GC over
  any store: marks from retained index roots
  (:func:`~repro.storage.gc.reachable_digests`) and sweeps by segment
  compaction or per-node deletion, whichever the store supports.

Stores compose: the service layer (:mod:`repro.service`) fronts one
backing store per shard with a :class:`~repro.storage.cache.CachingNodeStore`,
and any :class:`~repro.storage.store.NodeStore` subclass overriding the
five primitives (``put_bytes``, ``get_bytes``, ``contains``, ``digests``,
``__len__``) can serve as a backend anywhere in the library — the base
class supplies the hashing/verification/accounting API on top of them.
"""

from repro.storage.store import NodeStore, StoreStats
from repro.storage.memory import InMemoryNodeStore
from repro.storage.segment import RecoveryReport, SegmentNodeStore
from repro.storage.cache import CachingNodeStore
from repro.storage.metered import MeteredNodeStore
from repro.storage.refcount import RefCountingNodeStore
from repro.storage.gc import GarbageCollector, reachable_digests

__all__ = [
    "NodeStore",
    "StoreStats",
    "InMemoryNodeStore",
    "SegmentNodeStore",
    "RecoveryReport",
    "CachingNodeStore",
    "MeteredNodeStore",
    "RefCountingNodeStore",
    "GarbageCollector",
    "reachable_digests",
]
