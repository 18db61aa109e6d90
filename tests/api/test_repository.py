"""Tests for the Repository/Branch public surface."""

import warnings

import pytest

from repro.api import Repository
from repro.core.errors import (
    InvalidParameterError,
    NodeNotFoundError,
    ServiceClosedError,
)
from repro.core.version import UnknownBranchError
from repro.indexes import POSTree
from repro.service import VersionedKVService
from repro.storage.segment import SegmentNodeStore


class TestOpenBackends:
    def test_in_memory_roundtrip(self):
        with Repository.open(num_shards=2) as repo:
            main = repo.default_branch
            main.put(b"k", b"v")
            main.commit("c0")
            assert main.get(b"k") == b"v"
        assert not repo.is_open

    def test_durable_directory_backend(self, tmp_path):
        with Repository.open(str(tmp_path), num_shards=2) as repo:
            repo.default_branch.put(b"k", b"v")
            repo.default_branch.commit("c0")
        with Repository.open(str(tmp_path), num_shards=2) as repo:
            assert repo.default_branch.get(b"k") == b"v"

    def test_store_factory_backend(self, tmp_path):
        counter = [0]

        def factory():
            counter[0] += 1
            return SegmentNodeStore(str(tmp_path / f"shard-{counter[0]}"))

        with Repository.open(store_factory=factory, num_shards=2) as repo:
            repo.default_branch.put(b"k", b"v")
            repo.default_branch.commit("c0")
            assert repo.default_branch.get(b"k") == b"v"
        assert counter[0] == 2

    def test_context_manager_closes_on_error(self, tmp_path):
        with pytest.raises(RuntimeError, match="boom"):
            with Repository.open(str(tmp_path), num_shards=2) as repo:
                repo.default_branch.put(b"k", b"v")
                repo.default_branch.commit("before the error")
                raise RuntimeError("boom")
        assert not repo.is_open
        with pytest.raises(ServiceClosedError):
            repo.default_branch.snapshot()
        # The committed state survived the error path.
        with Repository.open(str(tmp_path), num_shards=2) as reopened:
            assert reopened.default_branch.get(b"k") == b"v"

    def test_from_service_does_not_own_lifecycle(self):
        service = VersionedKVService(POSTree, num_shards=2)
        with Repository.from_service(service) as repo:
            repo.default_branch.put(b"k", b"v")
            repo.default_branch.commit("c0")
        assert service.is_open  # not owned: close() left it alone
        assert service.get(b"k") == b"v"  # flat API sees branch commits
        service.close()

    def test_flat_service_state_is_the_default_branch(self):
        service = VersionedKVService(POSTree, num_shards=2)
        service.put(b"flat", b"1")
        service.commit("flat commit")
        repo = Repository.from_service(service)
        assert repo.default_branch.get(b"flat") == b"1"
        service.close()

    def test_branch_commit_preserves_flushed_flat_writes(self):
        """Flat-API writes flushed (but not committed) into the working
        heads must survive a repository commit on the default branch —
        journalled as an implicit parent commit and carried into the new
        head."""
        service = VersionedKVService(POSTree, num_shards=2, batch_size=1)
        service.put(b"flat-key", b"flat-value")
        service.flush()  # in the working heads, never committed
        repo = Repository.from_service(service)
        main = repo.default_branch
        main.put(b"repo-key", b"x")
        commit = main.commit("repository commit")
        # Both writes are in the head, on both surfaces.
        assert service.get(b"flat-key") == b"flat-value"
        assert main.get(b"flat-key") == b"flat-value"
        assert main.get(b"repo-key") == b"x"
        # The flat state was journalled as the commit's parent.
        messages = [c.message for c in main.history()]
        assert messages[0] == "repository commit"
        assert messages[1] == "flat-API writes (implicit commit)"
        assert commit.parents[0] == main.history()[1].version
        service.close()

    def test_buffered_flat_writes_survive_branch_commit(self):
        """Still-buffered (unflushed) flat writes reapply on the new head."""
        service = VersionedKVService(POSTree, num_shards=2, batch_size=1024)
        repo = Repository.from_service(service)
        main = repo.default_branch
        main.put(b"repo-key", b"x")
        service.put(b"buffered", b"pending")  # below the batch threshold
        main.commit("repository commit")
        assert service.get(b"buffered") == b"pending"
        service.flush()
        assert service.get(b"buffered") == b"pending"
        assert service.get(b"repo-key") == b"x"
        service.close()


class TestBranching:
    def test_fork_is_isolated(self):
        with Repository.open(num_shards=2) as repo:
            main = repo.default_branch
            main.put(b"shared", b"base")
            main.commit("base")
            fork = main.fork("fork")
            fork.put(b"only-fork", b"1")
            fork.commit("fork edit")
            assert b"only-fork" not in main
            assert fork.get(b"shared") == b"base"
            assert repo.branches() == ["fork", "main"]

    def test_fork_records_dag_parent(self):
        with Repository.open(num_shards=2) as repo:
            main = repo.default_branch
            main.put(b"k", b"v")
            base = main.commit("base")
            fork = main.fork("fork")
            assert fork.head.parents == (base.version,)
            assert repo.merge_base("main", "fork").version == base.version

    def test_unknown_branch_raises(self):
        with Repository.open(num_shards=2) as repo:
            with pytest.raises(UnknownBranchError):
                repo.branch("ghost")

    def test_duplicate_branch_rejected(self):
        with Repository.open(num_shards=2) as repo:
            repo.default_branch.commit("c0", allow_empty=True)
            repo.create_branch("twin")
            with pytest.raises(InvalidParameterError):
                repo.create_branch("twin")

    def test_fork_with_staged_operations_rejected(self):
        with Repository.open(num_shards=2) as repo:
            main = repo.default_branch
            main.put(b"staged", b"1")
            with pytest.raises(InvalidParameterError):
                main.fork("fork")
            main.commit("now clean")
            assert main.fork("fork").get(b"staged") == b"1"

    def test_branch_history_walks_first_parents(self):
        with Repository.open(num_shards=2) as repo:
            main = repo.default_branch
            main.put(b"a", b"1")
            main.commit("one")
            main.put(b"a", b"2")
            main.commit("two")
            messages = [commit.message for commit in main.history()]
            assert messages == ["two", "one"]

    def test_scan_ranges_and_prefix(self):
        with Repository.open(num_shards=4) as repo:
            main = repo.default_branch
            main.put_many({b"app:1": b"a", b"app:2": b"b", b"web:1": b"c"})
            main.commit("load")
            main.put(b"app:3", b"staged")          # staged overlay included
            main.remove(b"app:1")                   # staged removal excluded
            assert [k for k, _ in main.scan(prefix=b"app:")] == [b"app:2", b"app:3"]
            assert [k for k, _ in main.scan(start=b"app:2", stop=b"web:1")] == [
                b"app:2", b"app:3"]
            assert main.to_dict() == {b"app:2": b"b", b"app:3": b"staged", b"web:1": b"c"}

    def test_diff_between_branches(self):
        with Repository.open(num_shards=2) as repo:
            main = repo.default_branch
            main.put_many({b"a": b"1", b"b": b"2"})
            main.commit("base")
            fork = main.fork("fork")
            fork.put(b"a", b"10")
            fork.remove(b"b")
            fork.commit("edit")
            diff = main.diff(fork)
            assert {e.key: e.kind for e in diff} == {b"a": "changed", b"b": "removed"}
            assert repo.diff("fork", "main").keys() == diff.keys()


class TestGCAndBranches:
    def test_gc_keeps_every_branch_head_live(self):
        with Repository.open(num_shards=2, retain_versions=1, cache_bytes=0) as repo:
            main = repo.default_branch
            main.put_many({f"k{i:03d}".encode(): b"v0" * 8 for i in range(80)})
            main.commit("base")
            old = main.fork("old-branch")
            # Churn main far past the retention window.
            for round_number in range(6):
                main.put_many({f"k{i:03d}".encode(): f"v{round_number + 1}".encode() * 8
                               for i in range(80)})
                main.commit(f"churn {round_number}")
            report = repo.collect_garbage()
            assert report.swept_nodes > 0
            # The old branch head predates the retention window but must
            # stay fully readable: GC marks from every branch head.
            assert old.get(b"k007") == b"v0" * 8
            assert len(old.snapshot()) == 80
            # Expired interior main versions are actually gone (version 3
            # is a churn commit inside the expired window; versions 0/1
            # share the protected old-branch head's roots).
            with pytest.raises(NodeNotFoundError):
                dict(repo.snapshot(3).items())

    def test_gc_keeps_open_transaction_base_pinned(self):
        """An open transaction's pinned base view survives GC even when
        the branch churns past the retention window (snapshot isolation)."""
        with Repository.open(num_shards=2, retain_versions=1, cache_bytes=0) as repo:
            main = repo.default_branch
            main.put_many({f"k{i:03d}".encode(): b"base" * 8 for i in range(60)})
            main.commit("base")
            txn = main.transaction()
            for round_number in range(4):
                main.put_many({f"k{i:03d}".encode(): f"r{round_number}".encode() * 8
                               for i in range(60)})
                main.commit(f"churn {round_number}")
            repo.collect_garbage()
            # Snapshot-isolated reads still resolve against the pinned base.
            assert txn.get(b"k003") == b"base" * 8
            assert dict(txn.scan(start=b"k000", stop=b"k002")) == {
                b"k000": b"base" * 8, b"k001": b"base" * 8}
            # The conflict check also still works against the GC'd window.
            txn.put(b"k003", b"mine")
            with pytest.raises(Exception) as excinfo:
                txn.commit()
            from repro.core.errors import TransactionConflictError
            assert isinstance(excinfo.value, TransactionConflictError)
            txn.abort()
            # Resolved transactions release their pin: the base becomes
            # collectable on the next run.
            report = repo.collect_garbage()
            assert report.swept_nodes >= 0  # runs cleanly, nothing pinned


class TestDAGIdentity:
    def test_same_tick_forks_get_distinct_dag_nodes(self, monkeypatch):
        """Two forks journalled in the same clock tick must not collapse
        to one commit-DAG node (commit ids are salted by version)."""
        import repro.service.service as service_module

        monkeypatch.setattr(service_module.time, "time", lambda: 1234.5)
        with Repository.open(num_shards=2) as repo:
            main = repo.default_branch
            main.put(b"k", b"v")
            base = main.commit("base")
            main.fork("a")
            main.fork("b")
            service = repo.service
            assert len(service.version_graph) == len(service.commits) == 3
            assert (service._graph_ids[1] != service._graph_ids[2])
            # Merge base resolves to the true fork point, not a collapsed
            # sibling fork commit.
            assert repo.merge_base("a", "b").version == base.version


class TestDeprecatedSurface:
    def test_top_level_service_access_warns(self):
        import repro

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            service_class = repro.VersionedKVService
        assert service_class is VersionedKVService
        assert any(issubclass(w.category, DeprecationWarning) for w in caught)
        assert any("Repository" in str(w.message) for w in caught)

    def test_internal_service_import_does_not_warn(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            from repro.service import VersionedKVService as _  # noqa: F401
        assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]


class TestBulkImport:
    """Repository.import_data / Branch.load (the ISSUE 5 ingest surface)."""

    ITEMS = {b"row%04d" % i: b"payload%04d" % i for i in range(500)}

    def test_import_data_is_one_journalled_commit(self):
        with Repository.open(num_shards=4) as repo:
            before = len(repo.commits)
            commit = repo.import_data(self.ITEMS, message="seed dataset")
            assert len(repo.commits) == before + 1
            assert commit.message == "seed dataset"
            assert repo.default_branch.head.version == commit.version
            assert repo.default_branch.get(b"row0042") == b"payload0042"
            assert repo.default_branch.record_count() == len(self.ITEMS)

    def test_import_matches_staged_commit_digest(self):
        with Repository.open(num_shards=4) as repo:
            imported = repo.import_data(self.ITEMS)
        with Repository.open(num_shards=4) as repo:
            branch = repo.default_branch
            branch.put_many(self.ITEMS)
            staged = branch.commit("same content")
            assert staged.digest == imported.digest

    def test_import_into_new_branch_creates_it(self):
        with Repository.open(num_shards=2) as repo:
            commit = repo.import_data(self.ITEMS, branch="ingest")
            assert "ingest" in repo.branches()
            assert repo.branch("ingest").head.version == commit.version
            # the default branch is untouched
            assert repo.default_branch.get(b"row0000") is None

    def test_branch_load_on_top_of_existing_data(self):
        with Repository.open(num_shards=2) as repo:
            main = repo.default_branch
            main.put(b"pre-existing", b"1")
            main.commit("before")
            main.load(self.ITEMS, message="bulk")
            assert main.get(b"pre-existing") == b"1"
            assert main.get(b"row0001") == b"payload0001"
            assert main.record_count() == len(self.ITEMS) + 1

    def test_branch_load_leaves_staged_buffer_alone(self):
        with Repository.open(num_shards=2) as repo:
            main = repo.default_branch
            main.put(b"staged-key", b"staged-value")
            main.load(self.ITEMS)
            assert main.staged_count == 1
            assert main.get(b"staged-key") == b"staged-value"
            # the staged op is not part of the committed head
            assert main.snapshot().get(b"staged-key") is None

    def test_empty_import_returns_current_head(self):
        with Repository.open(num_shards=2) as repo:
            assert repo.import_data({}) is None  # unborn branch stays unborn
            first = repo.import_data(self.ITEMS)
            assert repo.import_data({}) == first

    def test_import_last_writer_wins_duplicates(self):
        with Repository.open(num_shards=2) as repo:
            repo.import_data([(b"dup", b"first"), (b"dup", b"final")])
            assert repo.default_branch.get(b"dup") == b"final"

    def test_import_accepts_non_dict_mappings(self):
        from types import MappingProxyType
        with Repository.open(num_shards=2) as repo:
            repo.import_data(MappingProxyType({b"ab": b"v1", b"cd": b"v2"}))
            assert repo.default_branch.get(b"ab") == b"v1"
            assert repo.default_branch.get(b"cd") == b"v2"
            assert repo.default_branch.record_count() == 2

    def test_imported_branch_forks_and_merges(self):
        with Repository.open(num_shards=2) as repo:
            main = repo.default_branch
            repo.import_data(self.ITEMS)
            fork = main.fork("edit")
            fork.put(b"row0000", b"edited")
            fork.commit("edit one row")
            outcome = repo.merge("main", "edit", message="merge edits")
            assert outcome.commit is not None
            assert main.get(b"row0000") == b"edited"

    def test_import_survives_crash_recovery(self, tmp_path):
        directory = str(tmp_path / "repo")
        repo = Repository.open(directory, num_shards=2)
        commit = repo.import_data(self.ITEMS, message="durable import")
        # abandon without close(): recovery must restore the imported head
        repo.service._opened = False
        recovered = Repository.open(directory, num_shards=2)
        assert recovered.default_branch.head.digest == commit.digest
        assert recovered.default_branch.get(b"row0499") == b"payload0499"
        recovered.close()
