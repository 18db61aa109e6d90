"""Behaviour of the sharded versioned-KV service.

The service is parameterized over every index candidate (same discipline
as the rest of the suite): sharding, batching, caching and versioning are
index-agnostic, so each structure must behave identically behind it.
"""

import functools

import pytest

from tests.conftest import build_index
from repro.core.errors import InvalidParameterError, KeyNotFoundError
from repro.service import VersionedKVService
from repro.storage.memory import InMemoryNodeStore


@pytest.fixture
def service(index_class):
    """A 4-shard service over the parameterized index class."""
    factory = functools.partial(build_index, index_class)
    return VersionedKVService(factory, num_shards=4, batch_size=8, cache_bytes=1 << 20)


def fill(service, count, prefix="key"):
    for i in range(count):
        service.put(f"{prefix}:{i:05d}", f"value-{i}")


# -- basic reads and writes -------------------------------------------------

def test_put_get_roundtrip(service):
    fill(service, 100)
    service.flush()
    for i in range(100):
        assert service.get(f"key:{i:05d}") == f"value-{i}".encode()
    assert service.get("missing") is None
    assert service.get("missing", default=b"fallback") == b"fallback"


def test_read_your_writes_before_flush(service):
    # batch_size=8 > 1 pending op, so this put is still buffered.
    service.put("pending", "not yet flushed")
    assert service.get("pending") == b"not yet flushed"
    service.remove("pending")
    assert service.get("pending") is None
    assert "pending" not in service


def test_getitem_and_contains(service):
    service.put("k", "v")
    assert service["k"] == b"v"
    assert "k" in service
    with pytest.raises(KeyNotFoundError):
        service["absent"]


def test_remove_is_idempotent(service):
    fill(service, 10)
    service.flush()
    service.remove("key:00003")
    service.remove("key:00003")
    service.remove("never-existed")
    service.flush()
    assert service.get("key:00003") is None
    assert service.record_count() == 9


def test_records_partitioned_across_all_shards(service):
    fill(service, 400)
    service.flush()
    metrics = service.metrics(include_records=True)
    counts = [shard.records for shard in metrics.shards]
    assert sum(counts) == 400
    assert all(count > 0 for count in counts)


# -- versioning -------------------------------------------------------------

def test_commit_and_multi_version_reads(service):
    fill(service, 50)
    v0 = service.commit("load")
    service.put("key:00007", "rewritten")
    service.remove("key:00009")
    v1 = service.commit("edit")

    # Latest state.
    assert service.get("key:00007") == b"rewritten"
    assert service.get("key:00009") is None
    # Historical state, by version number and by commit object.
    assert service.get("key:00007", version=v0.version) == b"value-7"
    assert service.get("key:00009", version=v0) == b"value-9"
    assert service.get("key:00007", version=v1) == b"rewritten"
    assert v0.version == 0 and v1.version == 1


def test_unknown_version_rejected(service):
    service.commit("only commit")
    with pytest.raises(KeyNotFoundError):
        service.get("k", version=99)
    # Negative numbers must not alias the newest commits via list indexing.
    with pytest.raises(KeyNotFoundError):
        service.get("k", version=-1)
    with pytest.raises(KeyNotFoundError):
        service.snapshot(version="not-a-version")


def test_commit_digest_is_content_addressed(index_class):
    # Two services built with different operation orders but identical
    # content commit identical digests (structural invariance carries
    # through the service layer) — for the structurally invariant indexes.
    def build(order):
        factory = functools.partial(build_index, index_class)
        svc = VersionedKVService(factory, num_shards=4, batch_size=4)
        for i in order:
            svc.put(f"key:{i:04d}", f"value-{i}")
        return svc.commit("done")

    forward = build(range(30))
    backward = build(reversed(range(30)))
    if index_class.name == "MVMB+-Tree":
        pytest.skip("the MVMB+-Tree baseline is not structurally invariant")
    assert forward.digest == backward.digest
    assert forward.roots == backward.roots


def test_shard_histories_grow_per_flush(service):
    fill(service, 64)
    service.flush()
    histories = service.shard_histories()
    assert len(histories) == service.num_shards
    for history in histories:
        assert history[0] is None              # every shard starts empty
        assert len(history) >= 2               # at least one flush happened


# -- snapshots and diff ------------------------------------------------------

def test_snapshot_merges_shards_in_key_order(service):
    fill(service, 200)
    snapshot = service.snapshot()
    items = list(snapshot.items())
    assert len(items) == 200
    assert items == sorted(items)
    assert len(snapshot) == 200
    assert snapshot.get("key:00123") == b"value-123"
    assert snapshot["key:00123"] == b"value-123"
    assert "key:00123" in snapshot
    with pytest.raises(KeyNotFoundError):
        snapshot["absent"]


def test_snapshot_of_committed_version_is_stable(service):
    fill(service, 30)
    v0 = service.commit("load")
    service.put("key:00001", "changed")
    service.flush()
    old = service.snapshot(v0)
    assert old.get("key:00001") == b"value-1"
    assert old.commit.version == 0
    assert service.snapshot().get("key:00001") == b"changed"


def test_cross_shard_diff(service):
    fill(service, 100)
    v0 = service.commit("base")
    service.put("key:00010", "changed")        # changed
    service.put("new-key", "added")            # added
    service.remove("key:00020")                # removed
    v1 = service.commit("edits")

    result = service.diff(v0, v1)
    kinds = {entry.key: entry.kind for entry in result}
    assert kinds == {
        b"key:00010": "changed",
        b"new-key": "added",
        b"key:00020": "removed",
    }
    # Entries come out globally sorted even though they span shards.
    keys = [entry.key for entry in result]
    assert keys == sorted(keys)
    # diff against the current head when right is omitted.
    assert len(service.diff(v0)) == 3
    # Identical versions diff empty without comparisons.
    assert len(service.diff(v1, v1)) == 0


def test_diff_requires_matching_shard_counts(index_class):
    factory = functools.partial(build_index, index_class)
    two = VersionedKVService(factory, num_shards=2, batch_size=4)
    four = VersionedKVService(factory, num_shards=4, batch_size=4)
    with pytest.raises(InvalidParameterError):
        two.snapshot().diff(four.snapshot())


# -- batching and caching ----------------------------------------------------

def test_auto_flush_at_batch_size(service):
    # batch_size=8 and 4 shards: 64 puts must have triggered flushes.
    fill(service, 64)
    metrics = service.metrics()
    assert metrics.flushes > 0
    assert service.batcher.total_pending() < 8 * service.num_shards


def test_hot_key_writes_coalesce(service):
    for i in range(7):                         # below the threshold of 8
        service.put("hot", f"value-{i}")
    assert service.batcher.pending_count(service.shard_of("hot")) == 1
    service.flush()
    assert service.get("hot") == b"value-6"
    assert service.metrics().coalesced_ops == 6


def test_unbatched_writes_cost_more_node_writes(index_class):
    def nodes_written(batch_size):
        factory = functools.partial(build_index, index_class)
        svc = VersionedKVService(factory, num_shards=2,
                                 batch_size=batch_size, cache_bytes=0)
        for i in range(200):
            svc.put(f"key:{i:05d}", f"value-{i}")
        svc.flush()
        return svc.metrics().nodes_written

    # Batching never costs extra node writes; for the structures whose
    # write path is genuinely batch-amortized (bottom-up rebuilds: MBT and
    # POS-Tree — see the paper's Table 2 discussion) it must save a lot.
    assert nodes_written(100) <= nodes_written(1)
    if index_class.name in ("MBT", "POS-Tree"):
        assert nodes_written(100) < nodes_written(1) / 5


def test_cache_metrics_are_reported(service):
    fill(service, 100)
    service.flush()
    for i in range(100):
        service.get(f"key:{i:05d}")
    metrics = service.metrics()
    assert metrics.cache.requests > 0
    assert 0.0 <= metrics.cache.hit_ratio <= 1.0
    assert metrics.gets == 100
    per_shard = [shard.cache.requests for shard in metrics.shards]
    assert sum(per_shard) == metrics.cache.requests


def test_cache_can_be_disabled(index_class):
    factory = functools.partial(build_index, index_class)
    svc = VersionedKVService(factory, num_shards=2, batch_size=4, cache_bytes=0)
    svc.put("a", "1")
    svc.flush()
    assert svc.get("a") == b"1"
    assert svc.metrics().cache.requests == 0


def test_reset_counters(service):
    fill(service, 50)
    service.flush()
    service.get("key:00001")
    service.collect_garbage()
    assert service.metrics().gc.runs > 0
    service.reset_counters()
    metrics = service.metrics()
    assert metrics.gets == metrics.puts == 0
    assert metrics.nodes_written == 0
    assert metrics.cache.requests == 0
    assert metrics.flushes == 0
    assert metrics.gc.runs == 0
    # State survives the counter reset.
    assert service.get("key:00001") == b"value-1"


# -- construction ------------------------------------------------------------

def test_invalid_construction_rejected(index_class):
    factory = functools.partial(build_index, index_class)
    with pytest.raises(InvalidParameterError):
        VersionedKVService(factory, num_shards=0)
    with pytest.raises(InvalidParameterError):
        VersionedKVService(factory, batch_size=0)
    with pytest.raises(InvalidParameterError):
        VersionedKVService(factory, cache_bytes=-1)


def test_custom_store_factory(index_class):
    stores = []

    def store_factory():
        store = InMemoryNodeStore()
        stores.append(store)
        return store

    factory = functools.partial(build_index, index_class)
    svc = VersionedKVService(factory, num_shards=3, store_factory=store_factory,
                             batch_size=4)
    assert len(stores) == 3                    # one backing store per shard
    fill(svc, 30)
    svc.flush()
    assert sum(len(store) for store in stores) > 0
    assert svc.storage_bytes() == sum(store.total_bytes() for store in stores)
