"""Tests for mark-and-sweep garbage collection (repro.storage.gc)."""

import pytest

from repro.core.errors import InvalidParameterError, NodeNotFoundError
from repro.core.metrics import GCCounters
from repro.indexes import POSTree
from repro.storage.cache import CachingNodeStore
from repro.storage.gc import GarbageCollector, reachable_digests
from repro.storage.memory import InMemoryNodeStore
from repro.storage.refcount import RefCountingNodeStore
from repro.storage.segment import SegmentNodeStore


def build_versions(store, versions=6, keys=120):
    """A POS-Tree with `versions` churned versions sharing one store."""
    tree = POSTree(store)
    snaps = [tree.from_items({f"k{i:03d}".encode(): b"v0" * 20 for i in range(keys)})]
    for v in range(1, versions):
        snaps.append(snaps[-1].update(
            {f"k{i:03d}".encode(): f"v{v}".encode() * 20 for i in range(0, keys, 2)}))
    return tree, snaps


class TestMarkPhase:
    def test_reachable_digests_unions_page_sets(self):
        tree, snaps = build_versions(InMemoryNodeStore(), versions=3)
        live = reachable_digests(tree, [s.root_digest for s in snaps[-2:]])
        assert live == snaps[-2].node_digests() | snaps[-1].node_digests()

    def test_none_roots_contribute_nothing(self):
        tree, snaps = build_versions(InMemoryNodeStore(), versions=2)
        assert reachable_digests(tree, [None]) == set()
        assert reachable_digests(tree, [None, snaps[0].root_digest]) == snaps[0].node_digests()


class TestSweepStrategies:
    def test_delete_path_on_memory_store(self):
        store = InMemoryNodeStore()
        tree, snaps = build_versions(store)
        before_nodes = len(store)
        live = reachable_digests(tree, [snaps[-1].root_digest])
        report = GarbageCollector(store).collect(live)
        assert report.runs == 1
        assert report.swept_nodes == before_nodes - len(live)
        assert len(store) == len(live)
        assert report.bytes_reclaimed == report.bytes_before - report.bytes_after
        # The retained version is untouched; an old one now dangles.
        assert snaps[-1][b"k002"] == b"v5" * 20
        with pytest.raises(NodeNotFoundError):
            dict(snaps[0].items())

    def test_compact_path_on_segment_store(self, tmp_path):
        store = SegmentNodeStore(str(tmp_path / "segs"), fsync=False)
        tree, snaps = build_versions(store)
        store.flush()
        before = store.file_bytes()
        report = GarbageCollector(store).collect_roots(tree, [snaps[-1].root_digest])
        assert report.segments_deleted >= 1
        assert store.file_bytes() < before
        assert snaps[-1][b"k004"] == b"v5" * 20
        # Survives reopen with only the live generation present.
        reopened = SegmentNodeStore(str(tmp_path / "segs"), fsync=False)
        assert len(reopened) == report.live_nodes

    def test_collect_pinned_reuses_refcount_registry(self):
        backing = InMemoryNodeStore()
        refstore = RefCountingNodeStore(backing)
        tree, snaps = build_versions(refstore)
        refstore.pin(snaps[-1].root_digest, snaps[-1].node_digests())
        refstore.pin(snaps[-2].root_digest, snaps[-2].node_digests())
        live = refstore.reachable_union()
        assert live == snaps[-1].node_digests() | snaps[-2].node_digests()
        report = GarbageCollector(refstore).collect_pinned(refstore)
        assert len(backing) == len(live)
        assert report.swept_nodes > 0
        assert snaps[-2][b"k003"] is not None

    def test_store_without_delete_or_compact_rejected(self):
        store = CachingNodeStore(InMemoryNodeStore())
        store.put(b"unreclaimable")
        with pytest.raises(InvalidParameterError):
            GarbageCollector(store).collect(set())


class TestGCCounters:
    def test_merge_and_copy(self):
        a = GCCounters(runs=1, live_nodes=5, swept_nodes=7, bytes_before=100,
                       bytes_after=40, bytes_reclaimed=60, segments_created=1,
                       segments_deleted=2, gc_seconds=0.5)
        b = GCCounters(runs=1, bytes_before=50, bytes_after=50)
        merged = a.merge(b)
        assert merged.runs == 2
        assert merged.bytes_before == 150
        assert merged.bytes_reclaimed == 60
        copied = a.copy()
        copied.runs = 99
        assert a.runs == 1

    def test_reclaimed_fraction(self):
        assert GCCounters().reclaimed_fraction == 0.0
        assert GCCounters(bytes_before=200, bytes_reclaimed=50).reclaimed_fraction == 0.25
