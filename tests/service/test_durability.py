"""Durability, crash-recovery and GC tests for the service lifecycle.

The kill-point tests simulate crashes the way the storage engine will
meet them in production: by abandoning a service instance without
``close()`` and/or physically truncating a shard's active segment file
mid-record or mid-batch, then asserting that a fresh instance over the
same directory recovers *exactly* the last committed cross-shard roots.
"""

import glob
import os

import pytest

from repro.core.errors import NodeNotFoundError, ServiceClosedError
from repro.indexes import POSTree
from repro.service import VersionedKVService
from repro.storage.segment import encode_data_record
from repro.hashing.digest import hash_bytes
from repro.workloads.ycsb import YCSBServiceDriver, YCSBWorkload


def make_service(directory, **kwargs):
    kwargs.setdefault("num_shards", 4)
    kwargs.setdefault("batch_size", 32)
    return VersionedKVService(POSTree, directory=str(directory), **kwargs)


def shard_segments(directory):
    """Every shard's segment files, newest last per shard."""
    return sorted(glob.glob(os.path.join(str(directory), "shard-*", "seg-*.seg")))


class TestLifecycle:
    def test_commit_close_reopen_round_trip(self, tmp_path):
        service = make_service(tmp_path)
        for i in range(200):
            service.put(f"key-{i:04d}", f"val-{i}-r0")
        v0 = service.commit("load").version
        for i in range(0, 200, 3):
            service.put(f"key-{i:04d}", f"val-{i}-r1")
        v1 = service.commit("update").version
        service.close()
        assert not service.is_open

        recovered = make_service(tmp_path)
        assert len(recovered.commits) == 2
        assert recovered.get("key-0003", version=v1) == b"val-3-r1"
        assert recovered.get("key-0003", version=v0) == b"val-3-r0"
        assert recovered.record_count() == 200

    def test_close_commits_buffered_tail(self, tmp_path):
        service = make_service(tmp_path)
        service.put("committed", "yes")
        service.commit("c0")
        service.put("buffered", "still pending")  # below batch threshold
        service.close()
        recovered = make_service(tmp_path)
        # Clean close is lossless: the tail was committed implicitly.
        assert recovered.get("buffered") == b"still pending"
        assert recovered.commits[-1].message == "close()"

    def test_reopen_is_lossless(self, tmp_path):
        service = make_service(tmp_path)
        service.put("a", "1")
        service.commit("c")
        service.put("b", "2")
        service.reopen()
        assert service.get("a") == b"1"
        assert service.get("b") == b"2"

    def test_closed_service_raises_everywhere(self, tmp_path):
        service = make_service(tmp_path)
        service.put("k", "v")
        service.close()
        for call in (
            lambda: service.get("k"),
            lambda: service.put("k", "v2"),
            lambda: service.remove("k"),
            lambda: service.flush(),
            lambda: service.commit("x"),
            lambda: service.snapshot(),
            lambda: service.record_count(),
            lambda: service.collect_garbage(),
        ):
            with pytest.raises(ServiceClosedError):
                call()
        service.reopen()
        assert service.get("k") == b"v"

    def test_in_memory_lifecycle(self):
        service = VersionedKVService(POSTree, num_shards=2)
        service.put("a", "1")
        service.commit("c0")
        service.reopen()  # default memory backings are parked and reused
        assert service.get("a") == b"1"

    def test_directory_and_store_factory_are_exclusive(self, tmp_path):
        from repro.storage.memory import InMemoryNodeStore
        from repro.core.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            VersionedKVService(POSTree, directory=str(tmp_path),
                               store_factory=InMemoryNodeStore)
        with pytest.raises(InvalidParameterError):
            VersionedKVService(POSTree, retain_versions=0)


class TestCrashRecovery:
    def test_crash_loses_uncommitted_tail_only(self, tmp_path):
        service = make_service(tmp_path)
        for i in range(100):
            service.put(f"key-{i:04d}", f"val-{i}")
        commit = service.commit("durable")
        for i in range(50):
            service.put(f"lost-{i:04d}", "never committed")
        service.flush()  # store-durable, but no manifest entry
        # Crash: abandon the instance without close().
        recovered = make_service(tmp_path)
        assert recovered.commits[-1].roots == commit.roots
        assert recovered.get("key-0042") == b"val-42"
        assert recovered.get("lost-0000") is None

    def test_kill_point_mid_record(self, tmp_path):
        """Truncating the active segment inside a record recovers the last
        committed roots exactly."""
        service = make_service(tmp_path, num_shards=2)
        for i in range(80):
            service.put(f"key-{i:04d}", f"val-{i}" * 8)
        commit = service.commit("checkpoint")
        expected = {k: v for k, v in service.snapshot(commit.version).items()}
        for i in range(40):
            service.put(f"doomed-{i:04d}", "x" * 64)
        service.flush()
        # Kill point: cut into the middle of the last appended record on
        # every shard that grew past the checkpoint.
        for path in shard_segments(tmp_path):
            size = os.path.getsize(path)
            with open(path, "r+b") as handle:
                handle.truncate(size - 7)
        recovered = make_service(tmp_path, num_shards=2)
        assert recovered.commits[-1].roots == commit.roots
        assert dict(recovered.snapshot(commit.version).items()) == expected
        assert recovered.get("doomed-0000") is None

    def test_kill_point_mid_batch(self, tmp_path):
        """A flush that persisted some complete records but no commit
        marker is invisible after reopen (no partial batches)."""
        service = make_service(tmp_path, num_shards=2)
        for i in range(60):
            service.put(f"base-{i:04d}", f"val-{i}")
        commit = service.commit("base")
        # Hand-append a half-batch directly to one shard's active segment:
        # two complete records, crash before the COMMIT marker.
        path = shard_segments(tmp_path)[0]
        with open(path, "ab") as handle:
            handle.write(encode_data_record(hash_bytes(b"uncommitted-1"), b"u1" * 30))
            handle.write(encode_data_record(hash_bytes(b"uncommitted-2"), b"u2" * 30))
        recovered = make_service(tmp_path, num_shards=2)
        assert recovered.commits[-1].roots == commit.roots
        shard_store = recovered._shards[0].engine.backing
        assert shard_store.recovery.uncommitted_records_dropped == 2
        assert not shard_store.contains(hash_bytes(b"uncommitted-1"))
        assert recovered.get("base-0007") == b"val-7"

    def test_torn_manifest_line_is_dropped_and_truncated(self, tmp_path):
        service = make_service(tmp_path)
        service.put("k", "v")
        commit = service.commit("good")
        service.close()
        manifest = os.path.join(str(tmp_path), VersionedKVService.MANIFEST_NAME)
        size_before = os.path.getsize(manifest)
        with open(manifest, "a", encoding="utf-8") as handle:
            handle.write('{"version": 1, "roots": [')  # torn mid-append
        recovered = make_service(tmp_path)
        assert [c.version for c in recovered.commits] == [commit.version]
        assert recovered.commits[-1].roots == commit.roots
        assert recovered.get("k") == b"v"
        # The torn tail must be physically gone, or the next append would
        # concatenate onto it and corrupt the journal.
        assert os.path.getsize(manifest) == size_before

        # Commits issued after the repair journal cleanly...
        recovered.put("k2", "v2")
        next_commit = recovered.commit("after repair")
        recovered.close()
        # ...and every later open replays the full history.
        final = make_service(tmp_path)
        assert [c.version for c in final.commits] == [0, 1]
        assert final.get("k2", version=next_commit.version) == b"v2"

    def test_manifest_corruption_before_tail_raises(self, tmp_path):
        from repro.core.errors import CorruptNodeError

        service = make_service(tmp_path)
        service.put("a", "1")
        service.commit("c0")
        service.put("a", "2")
        service.commit("c1")
        service.close()
        manifest = os.path.join(str(tmp_path), VersionedKVService.MANIFEST_NAME)
        with open(manifest, "r+b") as handle:
            handle.seek(5)
            handle.write(b"\xff\xfe")  # bitrot inside the first (sealed) entry
        with pytest.raises(CorruptNodeError):
            make_service(tmp_path)


class TestRetentionAndGC:
    def test_gc_reclaims_churn_and_keeps_retained_versions(self, tmp_path):
        service = make_service(tmp_path, num_shards=2, retain_versions=4,
                               cache_bytes=0, segment_capacity_bytes=64 * 1024)
        for i in range(150):
            service.put(f"key-{i:04d}", f"val-{i}-r0" * 4)
        service.commit("load")
        for version in range(12):
            for i in range(0, 150, 2):
                service.put(f"key-{i:04d}", f"val-{i}-r{version + 1}" * 4)
            service.commit(f"churn {version}")
        retained = service.retained_commits()
        assert len(retained) == 4
        report = service.collect_garbage()
        assert report.runs == 2  # one compaction per shard
        assert report.bytes_reclaimed > 0
        assert report.reclaimed_fraction >= 0.5
        # Every retained version remains byte-identical readable.
        for commit in retained:
            assert service.get("key-0002", version=commit.version) is not None
        # A version older than the window now dangles.
        with pytest.raises(NodeNotFoundError):
            dict(service.snapshot(0).items())
        # Cumulative counters surface through metrics().
        assert service.metrics().gc.runs == 2
        # And the collected state survives reopen.
        service.reopen()
        assert service.get("key-0002", version=retained[-1].version) is not None

    def test_gc_without_retention_keeps_everything(self, tmp_path):
        service = make_service(tmp_path, num_shards=2)
        service.put("a", "1")
        v0 = service.commit("c0").version
        service.put("a", "2")
        service.commit("c1")
        service.collect_garbage()
        assert service.get("a", version=v0) == b"1"
        assert service.get("a") == b"2"

    def test_gc_on_memory_service_uses_delete_path(self):
        service = VersionedKVService(POSTree, num_shards=2, retain_versions=1,
                                     cache_bytes=0)
        for i in range(100):
            service.put(f"k{i:03d}", "v0" * 10)
        service.commit("c0")
        for version in range(5):
            for i in range(100):
                service.put(f"k{i:03d}", f"v{version + 1}" * 10)
            service.commit(f"c{version + 1}")
        report = service.collect_garbage()
        assert report.swept_nodes > 0
        assert service.get("k007") == b"v5" * 10


class TestGCConcurrency:
    def test_versioned_reads_survive_concurrent_gc(self, tmp_path):
        """Reads of retained versions take no locks; a racing
        collect_garbage (segment compaction) must never crash them."""
        import threading

        service = make_service(tmp_path, num_shards=2, retain_versions=3,
                               cache_bytes=0, segment_capacity_bytes=32 * 1024)
        for i in range(200):
            service.put(f"key-{i:04d}", f"val-{i}" * 6)
        service.commit("base")
        for version in range(6):
            for i in range(0, 200, 2):
                service.put(f"key-{i:04d}", f"val-{i}-r{version}" * 6)
            service.commit(f"churn {version}")
        retained = service.retained_commits()
        stop = threading.Event()
        failures = []

        def reader():
            i = 0
            while not stop.is_set():
                commit = retained[i % len(retained)]
                try:
                    assert service.get(f"key-{(i * 2) % 200:04d}",
                                       version=commit.version) is not None
                except Exception as exc:  # pragma: no cover - the bug path
                    failures.append(exc)
                    return
                i += 1

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(3):
                service.collect_garbage()
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not failures, failures[0]
        service.close()


class TestBranchDurability:
    """Branch-qualified commits: every branch head survives crashes —
    including a crash injected *during* a merge commit's journal append."""

    @staticmethod
    def make_repo(directory, **kwargs):
        from repro.api import Repository

        kwargs.setdefault("num_shards", 4)
        kwargs.setdefault("batch_size", 32)
        return Repository.open(str(directory), **kwargs)

    def test_every_branch_head_recovers_after_crash(self, tmp_path):
        repo = self.make_repo(tmp_path)
        main = repo.default_branch
        main.put_many({f"k{i:03d}".encode(): f"v{i}".encode() for i in range(100)})
        main.commit("base")
        heads = {}
        for name in ("alpha", "beta", "gamma"):
            branch = main.fork(name)
            branch.put(f"only-{name}".encode(), name.encode())
            heads[name] = branch.commit(f"{name} edit")
        heads["main"] = main.head
        # Crash: abandon without close().
        recovered = self.make_repo(tmp_path)
        assert recovered.branches() == ["alpha", "beta", "gamma", "main"]
        for name, head in heads.items():
            assert recovered.service.branch_head(name).roots == head.roots
        assert recovered.branch("beta").get(b"only-beta") == b"beta"
        assert recovered.branch("beta").get(b"k007") == b"v7"
        # The DAG survived too: merge bases are recomputed identically.
        assert (recovered.merge_base("alpha", "beta").roots
                == heads["main"].roots)

    def test_crash_during_merge_commit_journal_append(self, tmp_path):
        """Kill point inside the durable merge commit: the merge's journal
        line is torn mid-append.  Recovery must land every branch head on
        its last *committed* roots — the merge simply never happened."""
        repo = self.make_repo(tmp_path, num_shards=2)
        main = repo.default_branch
        main.put_many({f"k{i:03d}".encode(): f"v{i}".encode() for i in range(80)})
        main.commit("base")
        fork = main.fork("fork")
        fork.put_many({f"k{i:03d}".encode(): b"forked" for i in range(0, 20)})
        fork.commit("fork edits")
        main.put_many({f"k{i:03d}".encode(): b"mained" for i in range(40, 60)})
        main.commit("main edits")
        pre_merge = {name: repo.service.branch_head(name).roots
                     for name in ("main", "fork")}
        manifest = os.path.join(str(tmp_path), "MANIFEST.jsonl")
        size_before_merge = os.path.getsize(manifest)

        outcome = repo.merge("main", "fork")
        assert outcome.commit is not None
        size_after_merge = os.path.getsize(manifest)
        # Kill point: the crash hits while the merge commit's line is in
        # flight — only a prefix of the append reached the disk.
        torn_size = size_before_merge + (size_after_merge - size_before_merge) // 2
        with open(manifest, "r+b") as handle:
            handle.truncate(torn_size)

        recovered = self.make_repo(tmp_path, num_shards=2)
        for name, roots in pre_merge.items():
            assert recovered.service.branch_head(name).roots == roots
        assert recovered.branch("main").get(b"k045") == b"mained"
        assert recovered.branch("main").get(b"k005") == b"v5"
        assert recovered.branch("fork").get(b"k005") == b"forked"
        # The repaired journal accepts the merge cleanly on retry.
        retry = recovered.merge("main", "fork")
        assert retry.commit is not None
        assert retry.commit.roots == outcome.commit.roots
        recovered.close()
        final = self.make_repo(tmp_path, num_shards=2)
        assert final.service.branch_head("main").roots == outcome.commit.roots

    def test_crash_before_merge_manifest_append_loses_only_the_merge(self, tmp_path):
        """Kill point between the merge's node flush and its journal
        append (simulated by making the append raise): the merge fails,
        and a fresh process sees every branch head unchanged."""
        repo = self.make_repo(tmp_path, num_shards=2)
        main = repo.default_branch
        main.put_many({b"a": b"1", b"b": b"2"})
        main.commit("base")
        fork = main.fork("fork")
        fork.put(b"a", b"forked")
        fork.commit("fork edit")
        pre_merge = {name: repo.service.branch_head(name).roots
                     for name in ("main", "fork")}

        service = repo.service
        original_append = service._append_manifest

        def dying_append(commit):
            raise OSError("simulated power loss at the journal append")

        service._append_manifest = dying_append
        with pytest.raises(OSError):
            repo.merge("main", "fork")
        service._append_manifest = original_append
        # Crash: abandon the wounded instance entirely.
        recovered = self.make_repo(tmp_path, num_shards=2)
        for name, roots in pre_merge.items():
            assert recovered.service.branch_head(name).roots == roots
        assert recovered.merge("main", "fork").commit is not None
        assert recovered.branch("main").get(b"a") == b"forked"


class TestYCSBOverDurableStore:
    def test_ycsb_a_survives_crash_and_reopen(self, tmp_path):
        """The acceptance drill: a YCSB-A run with periodic commits over
        SegmentNodeStore shards; crash; every committed version stays
        readable."""
        workload = YCSBWorkload(record_count=300, operation_count=600,
                                write_ratio=0.5, theta=0.9, batch_size=100, seed=7)
        driver = YCSBServiceDriver(workload)
        service = make_service(tmp_path, num_shards=2, batch_size=100)
        driver.load(service)
        counters = driver.run(service, commit_every=150)
        # 600 ops / 150 = 4 boundary checkpoints; the final checkpoint is
        # skipped because the last boundary already committed everything.
        assert counters.extra["commits"] == 4
        commits = service.commits
        expected = {
            commit.version: dict(service.snapshot(commit.version).items())
            for commit in commits
        }
        # Crash (no close), then recover.
        recovered = make_service(tmp_path, num_shards=2, batch_size=100)
        assert len(recovered.commits) == len(commits)
        for version, content in expected.items():
            assert dict(recovered.snapshot(version).items()) == content
