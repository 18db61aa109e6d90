"""End-to-end integration tests combining indexes, workloads, versioning and storage."""

import pytest

from repro.core.metrics import deduplication_ratio, storage_breakdown
from repro.core.version import VersionGraph
from repro.storage.segment import SegmentNodeStore
from repro.storage.memory import InMemoryNodeStore
from repro.workloads.collaboration import CollaborationWorkload
from repro.workloads.wiki import WikiDatasetGenerator
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload
from tests.conftest import build_index


class TestVersionedWorkloadLifecycle:
    def test_ycsb_load_and_update_cycle(self, index_class):
        """Load a YCSB dataset in batches, run write batches, validate every version."""
        workload = YCSBWorkload(YCSBConfig(record_count=1_200, operation_count=600,
                                           write_ratio=1.0, batch_size=300, seed=21))
        index = build_index(index_class)
        graph = VersionGraph(clock=lambda: 0.0)

        snapshot = index.empty_snapshot()
        expected = {}
        for batch in workload.load_batches():
            snapshot = snapshot.update(batch)
            expected.update(batch)
            graph.commit(snapshot.root_digest, message="load batch")
        assert snapshot.to_dict() == expected

        versions = [snapshot]
        for batch in workload.operation_batches():
            puts = {op.key: op.value for op in batch if op.is_write}
            snapshot = snapshot.update(puts)
            expected.update(puts)
            versions.append(snapshot)
            graph.commit(snapshot.root_digest, message="update batch")

        assert snapshot.to_dict() == expected
        assert len(list(graph.log())) == len(versions) + 3
        # Page sharing across versions keeps the physical footprint below the
        # sum of the versions' logical footprints (how much below depends on
        # the index type and update spread — quantified by the benchmarks).
        breakdown = storage_breakdown(versions)
        assert breakdown.unique_bytes < breakdown.total_bytes
        assert 0.0 < breakdown.deduplication_ratio < 1.0

    def test_wiki_versions_on_file_store(self, tmp_path, index_class):
        """Versions written through a persistent store survive a reopen."""
        generator = WikiDatasetGenerator(page_count=300, versions=3,
                                         edits_per_version=30, new_pages_per_version=5, seed=22)
        directory = str(tmp_path / "store")
        store = SegmentNodeStore(directory)
        index = build_index(index_class, store)
        snapshot = index.from_items(generator.initial_dataset())
        roots = [snapshot.root_digest]
        expected = generator.initial_dataset()
        for version in generator.version_stream():
            snapshot = snapshot.update(version.changes)
            expected.update(version.changes)
            roots.append(snapshot.root_digest)
        store.close()

        reopened = build_index(index_class, SegmentNodeStore(directory))
        final = reopened.snapshot(roots[-1])
        assert final.to_dict() == expected
        first = reopened.snapshot(roots[0])
        assert first.to_dict() == generator.initial_dataset()


class TestMultiGroupCollaboration:
    def test_overlap_improves_dedup(self, siri_index_class):
        """More overlap across groups ⇒ more page sharing (Figure 17 trend)."""

        def run(overlap):
            workload = CollaborationWorkload(base_records=400, group_count=4,
                                             operations_per_group=800,
                                             overlap_ratio=overlap, batch_size=400, seed=23)
            store = InMemoryNodeStore()
            base_index = build_index(siri_index_class, store)
            base = base_index.from_items(workload.base_dataset())
            snapshots = []
            for group, batches in workload.all_groups():
                snapshot = base
                for batch in batches:
                    snapshot = snapshot.update(batch)
                snapshots.append(snapshot)
            return deduplication_ratio([base] + snapshots)

        assert run(0.9) > run(0.1)

    def test_all_groups_readable_from_shared_store(self, index_class):
        workload = CollaborationWorkload(base_records=200, group_count=3,
                                         operations_per_group=300, overlap_ratio=0.5,
                                         batch_size=150, seed=24)
        store = InMemoryNodeStore()
        index = build_index(index_class, store)
        base = index.from_items(workload.base_dataset())
        finals = []
        expectations = []
        for group, batches in workload.all_groups():
            snapshot = base
            expected = dict(workload.base_dataset())
            for batch in batches:
                snapshot = snapshot.update(batch)
                expected.update(batch)
            finals.append(snapshot)
            expectations.append(expected)
        for snapshot, expected in zip(finals, expectations):
            assert snapshot.to_dict() == expected
        breakdown = storage_breakdown([base] + finals)
        assert breakdown.unique_bytes <= breakdown.total_bytes
