"""Tests for the shard-parallel bulk-ingest path (ISSUE 5).

``VersionedKVService.load`` must be observationally identical to the
per-key put path — same commit digests, same read-your-writes
interaction with the buffer — while touching each shard exactly once
per call.  ``put_many`` (bug-fixed in the same PR)
must group per shard, count once, and flush each shard at most once per
call.
"""

import threading

import pytest

from repro.indexes import MerklePatriciaTrie, POSTree
from repro.service import VersionedKVService

ITEMS = {b"key%05d" % i: b"value%05d" % i for i in range(2000)}


def make_service(index_factory=POSTree, **kwargs):
    kwargs.setdefault("num_shards", 4)
    return VersionedKVService(index_factory, **kwargs)


class TestServiceLoad:
    def test_load_matches_put_path_commit_digest(self):
        by_puts = make_service()
        for key, value in ITEMS.items():
            by_puts.put(key, value)
        by_puts.flush()
        expected = by_puts.commit("loaded")

        by_load = make_service()
        routed = by_load.load(ITEMS)
        actual = by_load.commit("loaded")
        assert routed == len(ITEMS)
        assert actual.digest == expected.digest
        assert actual.roots == expected.roots

    @pytest.mark.parametrize("index_factory", [POSTree, MerklePatriciaTrie],
                             ids=["POS-Tree", "MPT"])
    def test_load_serves_reads(self, index_factory):
        service = make_service(index_factory)
        service.load(ITEMS)
        assert service.get(b"key00042") == b"value00042"
        assert service.record_count() == len(ITEMS)

    def test_load_accepts_pair_iterables_with_duplicates(self):
        service = make_service()
        routed = service.load([(b"dup", b"first"), (b"x", b"1"), (b"dup", b"last")])
        assert service.get(b"dup") == b"last"
        assert service.record_count() == 2
        # duplicates coalesce before routing: the return value and the put
        # counter report routed records, not raw input pairs
        assert routed == 2
        assert service.metrics().puts == 2

    def test_load_and_put_many_accept_non_dict_mappings(self):
        from types import MappingProxyType
        view = MappingProxyType({b"ab": b"1", b"cd": b"2"})
        service = make_service()
        assert service.load(view) == 2
        assert service.get(b"ab") == b"1"
        other = make_service()
        other.put_many(view)
        assert other.get(b"cd") == b"2"

    def test_load_takes_one_lock_round_trip_per_shard(self):
        service = make_service()
        before = service.metrics().contention.acquisitions
        service.load(ITEMS)
        after = service.metrics()
        # One shard-lock acquisition per non-empty shard, not per key.
        assert after.contention.acquisitions - before <= service.num_shards
        assert all(shard.flushes <= 1 for shard in after.shards)

    def test_load_folds_in_pending_buffered_operations(self):
        service = make_service()
        service.put(b"key00001", b"stale-buffered")   # load overwrites it
        service.remove(b"key00002")                   # load rewrites it
        service.put(b"survivor", b"kept")             # untouched by the load
        service.remove(b"key-removed")                # stays a remove
        service.load(ITEMS)
        assert service.get(b"key00001") == b"value00001"
        assert service.get(b"key00002") == b"value00002"
        assert service.get(b"survivor") == b"kept"
        assert service.get(b"key-removed") is None
        assert service.batcher.total_pending() == 0

    def test_load_onto_existing_data_is_an_incremental_batch(self):
        service = make_service()
        service.load({b"old": b"1", b"key00000": b"old-value"})
        first = service.commit("first load")
        service.load(ITEMS)
        second = service.commit("second load")
        assert service.get(b"old") == b"1"
        assert service.get(b"key00000") == b"value00000"
        assert second.version > first.version
        assert service.record_count() == len(ITEMS) + 1

    def test_empty_load_is_a_no_op(self):
        service = make_service()
        assert service.load({}) == 0
        assert service.metrics().flushes == 0

    def test_load_requires_open_service(self):
        service = make_service()
        service.close()
        from repro.core.errors import ServiceClosedError
        with pytest.raises(ServiceClosedError):
            service.load(ITEMS)

    def test_load_concurrent_with_readers(self):
        service = make_service()
        service.load({b"existing%d" % i: b"v" for i in range(100)})
        errors = []

        def reader():
            try:
                for _ in range(300):
                    service.get(b"existing50")
                    service.get(b"key00123")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        service.load(ITEMS)
        for thread in threads:
            thread.join()
        assert not errors
        assert service.get(b"key00123") == b"value00123"
        assert service.get(b"existing50") == b"v"


class TestPutManyGrouping:
    def test_put_many_groups_per_shard_and_flushes_once(self):
        # Threshold smaller than the batch: the seed implementation would
        # flush mid-iteration, possibly several times per shard.
        service = make_service(batch_size=100)
        service.put_many(ITEMS)
        metrics = service.metrics()
        assert metrics.puts == len(ITEMS)
        # At most one flush per shard for the whole call.
        assert all(shard.flushes <= 1 for shard in metrics.shards)
        service.flush()
        assert service.record_count() == len(ITEMS)

    def test_put_many_matches_sequential_puts(self):
        a = make_service()
        a.put_many(ITEMS)
        expected = a.commit("x")
        b = make_service()
        for key, value in ITEMS.items():
            b.put(key, value)
        assert b.commit("x").digest == expected.digest

    def test_put_many_preserves_order_within_a_shard(self):
        service = make_service()
        service.put_many([(b"k", b"first"), (b"k", b"second"), (b"k", b"last")])
        assert service.get(b"k") == b"last"
        assert service.metrics().coalesced_ops >= 2

    def test_put_many_counts_once_under_the_counter_lock(self):
        service = make_service()
        service.put_many(list(ITEMS.items())[:10])
        assert service.metrics().puts == 10

    def test_empty_put_many(self):
        service = make_service()
        service.put_many({})
        service.put_many([])
        assert service.metrics().puts == 0


class TestDurableLoad:
    def test_loaded_commit_survives_reopen(self, tmp_path):
        directory = str(tmp_path / "svc")
        service = VersionedKVService(POSTree, num_shards=2, directory=directory)
        service.load(ITEMS)
        committed = service.commit("bulk load")
        service.close()

        recovered = VersionedKVService(POSTree, num_shards=2, directory=directory)
        assert recovered.commits[-1].digest == committed.digest
        assert recovered.get(b"key01999") == b"value01999"
        recovered.close()
