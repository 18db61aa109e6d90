"""Sharded versioned key-value service over the SIRI indexes.

This package is the engine between the repository API (:mod:`repro.api`,
the public surface) and the bare index structures: it partitions keys
across independent index shards, batches and coalesces writes, caches
node reads, and names cross-shard versions — branch-qualified commits in
a journalled DAG — so any committed state can be read back, diffed, or
merged later.

* :mod:`repro.service.sharding` — deterministic hash routing of keys to
  shards (:class:`ShardRouter`).
* :mod:`repro.service.batcher` — per-shard write buffering with
  last-writer-wins coalescing (:class:`ShardWriteBatcher`).
* :mod:`repro.service.service` — the service itself
  (:class:`VersionedKVService`), cross-shard views
  (:class:`ServiceSnapshot`), commits (:class:`ServiceCommit`) and
  metrics (:class:`ServiceMetrics`).
* Durability: constructed with ``directory=``, the service shards over
  the append-only segment engine
  (:class:`~repro.storage.segment.SegmentNodeStore`) with a fsynced
  commit manifest, gains ``open()/close()/reopen()`` lifecycle and a
  ``retain_versions=N`` policy whose expired versions are reclaimed by
  :meth:`~repro.service.service.VersionedKVService.collect_garbage`
  (mark-and-sweep compaction, :mod:`repro.storage.gc`) — see
  ``docs/STORAGE.md``.
* :mod:`repro.service.engine` — the self-contained per-shard core
  (:class:`ShardEngine`: one index + store + cache, no locks, no
  transport), its command table, and the handle the service holds per
  shard (:class:`ShardHandle`: the mutex over an engine or a worker pipe).
* :mod:`repro.service.process` — the process-parallel shard backend
  (:class:`ProcessShardBackend`): one forked worker process per shard,
  commands over pickled per-shard pipes, so shard work escapes the GIL.
  Select it with ``VersionedKVService(..., backend="process")``; the
  default ``backend="thread"`` keeps every shard in-process.
* :class:`ShardExecutionError` — how a shard's failure surfaces from a
  cross-shard operation (a flush, a dead worker process): the operation
  is abandoned whole, never answered from a subset of shards.
* :mod:`repro.service.executor` — deprecated: :class:`ServiceExecutor`
  is a thread-free alias of the service, kept for existing imports.

Quickstart::

    from repro.indexes import POSTree
    from repro.service import VersionedKVService

    service = VersionedKVService(POSTree, num_shards=4, batch_size=1000)
    service.put(b"user:1", b"alice")
    v0 = service.commit("signup").version
    service.put(b"user:1", b"alice v2")
    service.commit("rename")
    assert service.get(b"user:1") == b"alice v2"
    assert service.get(b"user:1", version=v0) == b"alice"
"""

from repro.core.errors import ShardExecutionError
from repro.service.batcher import ShardWriteBatcher
from repro.service.engine import ShardEngine, ShardHandle
from repro.service.executor import ServiceExecutor
from repro.service.process import ProcessShardBackend
from repro.service.service import (
    ServiceCommit,
    ServiceMetrics,
    ServiceSnapshot,
    ShardMetrics,
    VersionedKVService,
    diff_service_snapshots,
)
from repro.service.sharding import ShardRouter, route_key

__all__ = [
    "VersionedKVService",
    "ServiceExecutor",
    "ShardExecutionError",
    "ShardEngine",
    "ShardHandle",
    "ProcessShardBackend",
    "ServiceSnapshot",
    "ServiceCommit",
    "ServiceMetrics",
    "ShardMetrics",
    "ShardRouter",
    "ShardWriteBatcher",
    "route_key",
    "diff_service_snapshots",
]
