"""Differential proof that the process backend equals the thread backend.

``VersionedKVService(backend="process")`` moves every shard into its own
forked worker process; nothing about the *content* of the service may
change.  These tests drive identical operation streams — randomized
(hypothesis) and seeded YCSB — through a thread-backed and a
process-backed service built from the same configuration and assert the
observable state is byte-identical across all three SIRI index families:

* per-shard commit roots (the Merkle commitment of every version),
* commit digests (the cross-shard version identity),
* full scans of every committed version,
* structural diffs between consecutive versions,
* Merkle proofs that verify against the shared roots,
* the answer of every row of the shard command table, issued directly
  through the shard handles of both backends.

Because the commit digest is a hash over the shard root digests, root
equality here is equality of the entire Merkle trees — one differing
node anywhere in a worker's copy-on-write path would surface as a
digest mismatch.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.diff import DiffResult
from repro.core.metrics import GCCounters
from repro.hashing.digest import hash_bytes
from repro.query.definition import IndexDefinition
from repro.service.engine import SHARD_COMMANDS, ShardMetrics
from repro.service.service import VersionedKVService
from repro.workloads.ycsb import YCSBConfig, YCSBServiceDriver, YCSBWorkload
from tests.conftest import SIRI_INDEXES, build_index


def build_service(index_class, backend, num_shards=3, batch_size=4, **kwargs):
    """A small service over ``index_class`` shards on the given backend."""
    service = VersionedKVService(
        index_factory=lambda store: build_index(index_class, store),
        num_shards=num_shards,
        batch_size=batch_size,
        backend=backend,
        **kwargs,
    )
    service.open()
    return service


def service_pair(index_class, **kwargs):
    """A (thread, process) service pair with identical configuration."""
    return (build_service(index_class, "thread", **kwargs),
            build_service(index_class, "process", **kwargs))


def apply_ops(service, ops):
    """Replay a ("put"|"remove"|"commit", ...) stream against a service."""
    for op in ops:
        if op[0] == "put":
            service.put(op[1], op[2])
        elif op[0] == "remove":
            service.remove(op[1])
        else:
            service.commit("checkpoint")
    service.commit("final")


def assert_equivalent(thread_svc, process_svc):
    """Every observable version of the two services must be byte-identical."""
    t_commits, p_commits = thread_svc.commits, process_svc.commits
    assert len(t_commits) == len(p_commits)
    for t_commit, p_commit in zip(t_commits, p_commits):
        assert t_commit.roots == p_commit.roots
        assert t_commit.digest == p_commit.digest
        t_snap = thread_svc.snapshot(t_commit)
        p_snap = process_svc.snapshot(p_commit)
        assert t_snap.to_dict() == p_snap.to_dict()
    for earlier, later in zip(range(len(t_commits) - 1), range(1, len(t_commits))):
        t_diff = thread_svc.diff(earlier, later)
        p_diff = process_svc.diff(earlier, later)
        assert ([(e.key, e.left, e.right) for e in t_diff.entries]
                == [(e.key, e.left, e.right) for e in p_diff.entries])


# Small keyspace so streams collide: overwrites, removes of live keys,
# and removes of absent keys all occur.
keys = st.binary(min_size=1, max_size=4)
values = st.binary(min_size=0, max_size=16)
ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("put"), keys, values),
        st.tuples(st.just("remove"), keys),
        st.tuples(st.just("commit")),
    ),
    min_size=1,
    max_size=40,
)


@pytest.mark.parametrize("index_class", SIRI_INDEXES, ids=lambda c: c.name)
class TestRandomizedEquivalence:
    @given(ops=ops_strategy)
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    def test_identical_streams_yield_identical_state(self, index_class, ops):
        thread_svc, process_svc = service_pair(index_class)
        try:
            apply_ops(thread_svc, ops)
            apply_ops(process_svc, ops)
            assert_equivalent(thread_svc, process_svc)
        finally:
            thread_svc.close()
            process_svc.close()


@pytest.mark.parametrize("index_class", SIRI_INDEXES, ids=lambda c: c.name)
class TestYCSBEquivalence:
    def test_seeded_ycsb_stream_matches(self, index_class):
        """A seeded YCSB load + mixed run produces identical histories."""
        workload = YCSBWorkload(YCSBConfig(
            record_count=120, operation_count=200, write_ratio=0.5,
            theta=0.9, batch_size=32, seed=7))
        driver = YCSBServiceDriver(workload)
        thread_svc, process_svc = service_pair(index_class, batch_size=16)
        try:
            for service in (thread_svc, process_svc):
                driver.load(service)
                driver.run(service, commit_every=64)
            assert_equivalent(thread_svc, process_svc)
        finally:
            thread_svc.close()
            process_svc.close()

    def test_proofs_verify_against_shared_roots(self, index_class):
        """Process-side proofs verify against roots the thread side computed."""
        workload = YCSBWorkload(YCSBConfig(record_count=60, batch_size=30, seed=3))
        driver = YCSBServiceDriver(workload)
        thread_svc, process_svc = service_pair(index_class, batch_size=16)
        try:
            driver.load(thread_svc)
            driver.load(process_svc)
            t_snap = thread_svc.snapshot(0)
            p_snap = process_svc.snapshot(0)
            for shard_id, p_shard in enumerate(p_snap.shards):
                t_shard = t_snap.shards[shard_id]
                assert p_shard.root_digest == t_shard.root_digest
                for key in list(p_shard.keys())[:3]:
                    proof = p_shard.prove(key)
                    # The roots are interchangeable: they are equal.
                    assert proof.verify(t_shard.root_digest)
                    assert proof.value == t_shard.get(key)
        finally:
            thread_svc.close()
            process_svc.close()


class TestLifecycleEquivalence:
    @pytest.mark.parametrize("index_class", SIRI_INDEXES, ids=lambda c: c.name)
    def test_close_reopen_preserves_state(self, index_class):
        """In-memory process services survive close()/reopen() like threads."""
        thread_svc, process_svc = service_pair(index_class)
        try:
            for service in (thread_svc, process_svc):
                for i in range(30):
                    service.put(b"k%d" % i, b"v%d" % i)
                service.commit("before close")
                service.close()
                service.reopen()
            assert_equivalent(thread_svc, process_svc)
            assert process_svc.get(b"k7") == b"v7"
        finally:
            thread_svc.close()
            process_svc.close()

    def test_invalid_backend_rejected(self):
        from repro.core.errors import InvalidParameterError
        from repro.indexes.pos_tree import POSTree
        with pytest.raises(InvalidParameterError):
            VersionedKVService(POSTree, num_shards=2, backend="greenlet")


@pytest.mark.parametrize("index_class", SIRI_INDEXES, ids=lambda c: c.name)
class TestSyncEquivalence:
    """Anti-entropy sync is backend-blind: it converges any service pair.

    The replication entry points (``shard_missing_digests`` /
    ``shard_fetch_nodes`` / ``shard_import_nodes`` / ``publish_roots``)
    go through the same shard surface the rest of the service uses, so a
    sync session between a thread-backed and a process-backed replica —
    or between a durable and an in-memory one — must land byte-identical
    branch heads, exactly as if both sides shared a backend.
    """

    def _seed(self, service):
        for i in range(80):
            service.put(b"sync%03d" % i, b"payload-%03d" % i)
        service.commit("seed")

    def _assert_synced(self, left, right):
        l_head, r_head = left.branch_head("main"), right.branch_head("main")
        assert l_head.digest == r_head.digest
        assert l_head.roots == r_head.roots
        assert (left.snapshot(l_head).to_dict()
                == right.snapshot(r_head).to_dict())

    def test_thread_and_process_replicas_converge(self, index_class):
        from repro.sync import sync_service

        thread_svc, process_svc = service_pair(index_class)
        try:
            self._seed(thread_svc)
            report = sync_service(process_svc, thread_svc)
            assert [r.action for r in report.branches] == ["created_local"]
            self._assert_synced(thread_svc, process_svc)

            # Diverge both sides, heal with a symmetric resolver: the
            # merged head must be identical across the backend boundary.
            thread_svc.put(b"sync000", b"thread-wins")
            thread_svc.commit("thread side")
            process_svc.put(b"sync000", b"process-wins")
            process_svc.put(b"extra", b"process-only")
            process_svc.commit("process side")
            resolver = lambda c: max(v for v in (c.ours, c.theirs)
                                     if v is not None)
            merged = sync_service(process_svc, thread_svc, resolver=resolver)
            assert [r.action for r in merged.branches] == ["merged"]
            self._assert_synced(thread_svc, process_svc)
            snap = process_svc.snapshot(process_svc.branch_head("main"))
            assert snap.get(b"sync000") == b"thread-wins"
            assert snap.get(b"extra") == b"process-only"
        finally:
            thread_svc.close()
            process_svc.close()

    def test_durable_and_memory_replicas_converge(self, index_class, tmp_path):
        from repro.sync import sync_service

        durable = VersionedKVService(
            index_factory=lambda store: build_index(index_class, store),
            num_shards=3, batch_size=4, directory=str(tmp_path / "replica"))
        durable.open()
        memory = build_service(index_class, "thread")
        try:
            self._seed(memory)
            first = sync_service(durable, memory)
            assert first.nodes_pulled > 0
            self._assert_synced(memory, durable)

            # The pulled state is durable: a reopen sees it and the next
            # session finds nothing to transfer.
            durable.close()
            durable.reopen()
            self._assert_synced(memory, durable)
            second = sync_service(durable, memory)
            assert second.total_nodes == 0
        finally:
            memory.close()
            durable.close()


def first_byte(value):
    """Index extractor for the command-table script (module level: it is pickled)."""
    return [value[:1]]


def comparable(result):
    """A command result with its wall-clock parts dropped."""
    if isinstance(result, DiffResult):
        return [(entry.key, entry.left, entry.right) for entry in result.entries]
    if isinstance(result, ShardMetrics):
        return (result.shard_id, result.flushes, result.nodes_written, result.records)
    if isinstance(result, GCCounters):
        return (result.runs, result.live_nodes, result.swept_nodes)
    if isinstance(result, (set, frozenset)):
        return sorted(result)
    return result


def run_command_script(shard):
    """Issue every shard command through ``shard``; returns the answers.

    One scripted life of a shard — write, read back, index, replicate,
    collect, reset, close — in which each step's arguments come from
    earlier answers.  The answers are ``(command, comparable result)``
    pairs in script order.
    """
    answers = []

    def issue(command, *args):
        result = getattr(shard, command)(*args)
        answers.append((command, comparable(result)))
        return result

    blob = b"a node that is not part of any tree"
    with shard:
        issue("describe")
        issue("head_root")
        first, _count = issue(
            "apply_ops", {b"k%02d" % i: b"v%02d" % i for i in range(30)}, [])
        issue("lookup_head", b"k07")
        issue("load_batch", {b"k99": b"loaded"}, [b"k03"])
        issue("history_copy")
        second = issue("head_root")
        issue("lookup_at", first, b"k03")
        third = issue("write_at", second, {b"k50": b"branch"}, [b"k04"])
        issue("store_flush")
        issue("set_head", third, None)
        issue("scan", third)
        issue("scan_range", third, b"k05", b"k10")
        issue("count_at", third)
        issue("diff", first, third)
        issue("prove", third, b"k07")
        issue("node_digests", third)
        issue("register_index", IndexDefinition("initial", first_byte))
        postings = issue("posting_heads_state")
        issue("postings_for", second, third, postings)
        issue("write_at_indexed", third, {b"k51": b"x"}, [b"k05"], postings)
        issue("metrics", True)
        issue("reset_counters")
        issue("storage_bytes")
        issue("missing_digests", [third, hash_bytes(blob)])
        issue("fetch_nodes", [third])
        issue("import_nodes", [(hash_bytes(blob), blob)])
        issue("collect", {first})
        answers.append(("export_nodes", sorted(shard.export_nodes())))
        issue("reset_head", first, None)
        issue("lookup_head", b"k03")
        issue("close_store")
    return answers


@pytest.mark.parametrize("index_class", SIRI_INDEXES, ids=lambda c: c.name)
class TestCommandTableEquivalence:
    def test_every_command_answers_identically_through_both_transports(self, index_class):
        thread_svc, process_svc = service_pair(index_class, num_shards=2)
        try:
            for thread_shard, process_shard in zip(thread_svc._shards, process_svc._shards):
                local = run_command_script(thread_shard)
                piped = run_command_script(process_shard)
                assert {command for command, _ in local} == set(SHARD_COMMANDS)
                assert local == piped
        finally:
            # The script ends in close_store, so the workers are gone:
            # close() skips its final commit and tears the rest down.
            thread_svc.close()
            process_svc.close()

    def test_each_command_is_a_table_row_exactly_once(self, index_class):
        assert len(set(SHARD_COMMANDS)) == len(SHARD_COMMANDS)
        thread_svc, process_svc = service_pair(index_class, num_shards=2)
        try:
            for shard in thread_svc._shards + process_svc._shards:
                for command in SHARD_COMMANDS:
                    assert callable(getattr(shard, command))
            # In-process, a command *is* the engine's bound method: no
            # forwarding frame between the service and the engine.
            local = thread_svc._shards[0]
            assert local.lookup_at == local.engine.lookup_at
        finally:
            thread_svc.close()
            process_svc.close()
