"""Deduplication and storage metrics (Section 4.2 and Section 5.4).

The paper formulates two metrics over a set of index instances
``S = {I_1, ..., I_k}``, each with page set ``P_i``:

* **Deduplication ratio**::

      η(S) = 1 − byte(P_1 ∪ … ∪ P_k) / (byte(P_1) + … + byte(P_k))

  — the fraction of total page *bytes* that page-level sharing avoids
  storing.

* **Node sharing ratio** (Section 5.4.2)::

      σ(S) = 1 − |P_1 ∪ … ∪ P_k| / (|P_1| + … + |P_k|)

  — the fraction of page *count* eliminated by sharing.

Both are computed here directly from snapshots' page sets, so they apply
uniformly to every index type (and to the ablation variants).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Protocol, Sequence, Set, Tuple

from repro.hashing.digest import Digest


class _CountingCache(Protocol):
    """What :meth:`CacheCounters.from_cache` needs from a caching store."""

    cache_hits: int
    cache_misses: int


@dataclass
class StorageBreakdown:
    """Physical/logical storage accounting for a set of index versions."""

    #: Number of unique pages across all versions (|P_1 ∪ … ∪ P_k|).
    unique_nodes: int
    #: Sum of per-version page counts (|P_1| + … + |P_k|).
    total_nodes: int
    #: Bytes of unique pages (byte(P_1 ∪ … ∪ P_k)).
    unique_bytes: int
    #: Sum of per-version page bytes.
    total_bytes: int

    @property
    def deduplication_ratio(self) -> float:
        """η(S): byte-level saving from page sharing (0 when nothing shared)."""
        if self.total_bytes == 0:
            return 0.0
        return 1.0 - self.unique_bytes / self.total_bytes

    @property
    def node_sharing_ratio(self) -> float:
        """σ(S): node-count-level saving from page sharing."""
        if self.total_nodes == 0:
            return 0.0
        return 1.0 - self.unique_nodes / self.total_nodes

    @property
    def raw_bytes(self) -> int:
        """Bytes that would be stored without any deduplication."""
        return self.total_bytes

    @property
    def deduplicated_bytes(self) -> int:
        """Bytes actually stored with page-level deduplication."""
        return self.unique_bytes


def snapshot_page_sets(snapshots: Sequence) -> List[Set[Digest]]:
    """Collect the page (node digest) set of each snapshot."""
    return [snap.node_digests() for snap in snapshots]


def _page_bytes(snapshots: Sequence, page_sets: List[Set[Digest]]) -> Dict[Digest, int]:
    """Map every referenced page digest to its byte size (looked up once)."""
    sizes: Dict[Digest, int] = {}
    for snap, pages in zip(snapshots, page_sets):
        store = snap.index.store
        for digest in pages:
            if digest not in sizes:
                sizes[digest] = store.size_of(digest)
    return sizes


def storage_breakdown(snapshots: Sequence) -> StorageBreakdown:
    """Compute the full storage breakdown for a set of snapshots.

    Snapshots may come from the same index evolving over time (versions),
    from different branches, or from entirely separate indexes sharing a
    store — the metric only looks at page sets, exactly as the paper's
    definition does.
    """
    page_sets = snapshot_page_sets(snapshots)
    sizes = _page_bytes(snapshots, page_sets)

    union: Set[Digest] = set()
    total_nodes = 0
    total_bytes = 0
    for pages in page_sets:
        union |= pages
        total_nodes += len(pages)
        total_bytes += sum(sizes[d] for d in pages)
    unique_bytes = sum(sizes[d] for d in union)

    return StorageBreakdown(
        unique_nodes=len(union),
        total_nodes=total_nodes,
        unique_bytes=unique_bytes,
        total_bytes=total_bytes,
    )


def deduplication_ratio(snapshots: Sequence) -> float:
    """η(S) over the given snapshots (paper Section 4.2.1)."""
    return storage_breakdown(snapshots).deduplication_ratio


def node_sharing_ratio(snapshots: Sequence) -> float:
    """Node sharing ratio over the given snapshots (paper Section 5.4.2)."""
    return storage_breakdown(snapshots).node_sharing_ratio


def incremental_version_growth(snapshots: Sequence) -> List[Tuple[int, int, int]]:
    """Per-version storage growth: list of (version, raw bytes, dedup bytes).

    ``raw`` accumulates each version's page bytes independently (what a
    store-every-version-separately system would pay); ``dedup`` is the size
    of the union of page sets up to that version (what a content-addressed
    store pays).  This is the data series behind the paper's Figure 1.
    """
    growth: List[Tuple[int, int, int]] = []
    seen: Set[Digest] = set()
    sizes: Dict[Digest, int] = {}
    raw_total = 0
    dedup_total = 0
    for version, snap in enumerate(snapshots):
        pages = snap.node_digests()
        store = snap.index.store
        for digest in pages:
            if digest not in sizes:
                sizes[digest] = store.size_of(digest)
        raw_total += sum(sizes[d] for d in pages)
        for digest in pages:
            if digest not in seen:
                seen.add(digest)
                dedup_total += sizes[digest]
        growth.append((version, raw_total, dedup_total))
    return growth


@dataclass
class CacheCounters:
    """Hit/miss accounting for a read-through node cache.

    Populated from :class:`repro.storage.cache.CachingNodeStore` by the
    benchmark harness and by the service layer's per-shard caches
    (:mod:`repro.service`), so cache effectiveness is reported with the
    same vocabulary everywhere.
    """

    hits: int = 0
    misses: int = 0

    @property
    def requests(self) -> int:
        """Total reads that consulted the cache."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of reads served from the cache (0.0 when unused)."""
        total = self.requests
        return self.hits / total if total else 0.0

    def merge(self, other: "CacheCounters") -> "CacheCounters":
        """Return a new :class:`CacheCounters` summing self and ``other``."""
        return CacheCounters(hits=self.hits + other.hits, misses=self.misses + other.misses)

    @classmethod
    def from_cache(cls, cache: _CountingCache) -> "CacheCounters":
        """Snapshot the counters of a ``CachingNodeStore``-like object."""
        return cls(hits=cache.cache_hits, misses=cache.cache_misses)


@dataclass
class ContentionCounters:
    """Lock acquisition accounting for one mutex (a shard lock).

    The service layer (:mod:`repro.service`) guards each shard with its
    own lock, so any number of client threads can drive it; these counters record how often that lock was taken, how often the
    taker had to wait because another thread held it, and for how long.
    A high :attr:`contention_ratio` on one shard while the others are idle
    is the signature of key skew defeating hash partitioning.
    """

    #: Total successful lock acquisitions.
    acquisitions: int = 0
    #: Acquisitions that had to block because the lock was already held.
    contended: int = 0
    #: Total seconds spent blocked waiting for the lock.
    wait_seconds: float = 0.0

    @property
    def contention_ratio(self) -> float:
        """Fraction of acquisitions that had to wait (0.0 when uncontended)."""
        return self.contended / self.acquisitions if self.acquisitions else 0.0

    def merge(self, other: "ContentionCounters") -> "ContentionCounters":
        """Return a new :class:`ContentionCounters` summing self and ``other``."""
        return ContentionCounters(
            acquisitions=self.acquisitions + other.acquisitions,
            contended=self.contended + other.contended,
            wait_seconds=self.wait_seconds + other.wait_seconds,
        )

    def copy(self) -> "ContentionCounters":
        """A point-in-time copy (the live object keeps mutating)."""
        return ContentionCounters(self.acquisitions, self.contended, self.wait_seconds)


@dataclass
class GCCounters:
    """Garbage-collection / segment-compaction accounting.

    Produced by :meth:`repro.storage.segment.SegmentNodeStore.compact`
    and by :class:`repro.storage.gc.GarbageCollector`, accumulated per
    store and merged across service shards by
    :meth:`repro.service.VersionedKVService.metrics` — so space
    reclamation is reported with the same vocabulary everywhere, like
    the cache and contention counters above.
    """

    #: Completed mark-and-sweep runs.
    runs: int = 0
    #: Nodes found reachable from a retained root and kept (rewritten).
    live_nodes: int = 0
    #: Unreachable nodes dropped.
    swept_nodes: int = 0
    #: Physical store bytes before the sweep (summed across runs).
    bytes_before: int = 0
    #: Physical store bytes after the sweep (summed across runs).
    bytes_after: int = 0
    #: Physical bytes reclaimed (``bytes_before - bytes_after``).
    bytes_reclaimed: int = 0
    #: Fresh segment files written by compaction.
    segments_created: int = 0
    #: Old segment files unlinked by compaction.
    segments_deleted: int = 0
    #: Wall-clock seconds spent collecting.
    gc_seconds: float = 0.0

    @property
    def reclaimed_fraction(self) -> float:
        """Fraction of pre-GC bytes reclaimed (0.0 before any run)."""
        return self.bytes_reclaimed / self.bytes_before if self.bytes_before else 0.0

    def merge(self, other: "GCCounters") -> "GCCounters":
        """Return a new :class:`GCCounters` summing self and ``other``."""
        return GCCounters(
            runs=self.runs + other.runs,
            live_nodes=self.live_nodes + other.live_nodes,
            swept_nodes=self.swept_nodes + other.swept_nodes,
            bytes_before=self.bytes_before + other.bytes_before,
            bytes_after=self.bytes_after + other.bytes_after,
            bytes_reclaimed=self.bytes_reclaimed + other.bytes_reclaimed,
            segments_created=self.segments_created + other.segments_created,
            segments_deleted=self.segments_deleted + other.segments_deleted,
            gc_seconds=self.gc_seconds + other.gc_seconds,
        )

    def copy(self) -> "GCCounters":
        """A point-in-time copy (the live object keeps mutating)."""
        return GCCounters(
            self.runs, self.live_nodes, self.swept_nodes, self.bytes_before,
            self.bytes_after, self.bytes_reclaimed, self.segments_created,
            self.segments_deleted, self.gc_seconds,
        )


@dataclass
class QueueCounters:
    """Admission-queue accounting for one bounded request queue.

    The wire-protocol server (:mod:`repro.server`) admits every request
    into a bounded per-shard queue and rejects with a ``BUSY`` frame when
    the queue is full; these counters record that backpressure with the
    same vocabulary as the cache/contention/GC counters above.  The
    invariant the fault-injection tests assert: after clients stop and
    the server drains, ``depth`` returns to zero and
    ``admitted == completed``.
    """

    #: Requests accepted into the queue.
    admitted: int = 0
    #: Requests fully executed (their response frame was handed off).
    completed: int = 0
    #: Requests refused with a BUSY frame because the queue was full.
    rejected_busy: int = 0
    #: Current number of queued-but-unfinished requests.
    depth: int = 0
    #: High-water mark of :attr:`depth`.
    peak_depth: int = 0

    @property
    def rejection_ratio(self) -> float:
        """Fraction of arrivals refused with BUSY (0.0 when never full)."""
        arrivals = self.admitted + self.rejected_busy
        return self.rejected_busy / arrivals if arrivals else 0.0

    def merge(self, other: "QueueCounters") -> "QueueCounters":
        """Return a new :class:`QueueCounters` summing self and ``other``."""
        return QueueCounters(
            admitted=self.admitted + other.admitted,
            completed=self.completed + other.completed,
            rejected_busy=self.rejected_busy + other.rejected_busy,
            depth=self.depth + other.depth,
            peak_depth=max(self.peak_depth, other.peak_depth),
        )

    def copy(self) -> "QueueCounters":
        """A point-in-time copy (the live object keeps mutating)."""
        return QueueCounters(self.admitted, self.completed, self.rejected_busy,
                             self.depth, self.peak_depth)


@dataclass
class OperationCounters:
    """Mutable counters used by benchmarks to accumulate operation metrics."""

    operations: int = 0
    records_touched: int = 0
    nodes_created: int = 0
    nodes_read: int = 0
    elapsed_seconds: float = 0.0
    #: Cache effectiveness over the run (zeroed when no cache is present).
    cache: CacheCounters = field(default_factory=CacheCounters)
    extra: Dict[str, float] = field(default_factory=dict)

    def throughput(self) -> float:
        """Operations per second (0 when no time has been recorded)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.operations / self.elapsed_seconds
