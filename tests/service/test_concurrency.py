"""Multi-threaded stress tests for the thread-safe sharded service.

These tests exercise the concurrency contract documented in
``docs/ARCHITECTURE.md`` ("The concurrency model"): no lost updates under
concurrent writers, read-your-writes visibility while flushes race,
atomic cross-shard commit cuts, stable version history, and fail-fast
error propagation with shard context (never a partial result).

They are intentionally schedule-sensitive — the CI stress job replays
them many times (``scripts/run_stress.py``) so rare interleavings get a
chance to bite before merge.
"""

import functools
import threading

import pytest

from tests.conftest import SIRI_INDEXES, build_index
from repro.core.errors import ReproError
from repro.indexes import POSTree
from repro.service import ShardExecutionError, VersionedKVService
from repro.service.sharding import route_key
from repro.storage.memory import InMemoryNodeStore

THREADS = 4


def make_service(batch_size=16, num_shards=4, index_class=POSTree, **kwargs):
    factory = functools.partial(build_index, index_class)
    return VersionedKVService(factory, num_shards=num_shards,
                              batch_size=batch_size, **kwargs)


def run_threads(targets):
    """Start one thread per target behind a barrier; join; re-raise failures."""
    barrier = threading.Barrier(len(targets))
    failures = []
    lock = threading.Lock()

    def wrap(fn):
        try:
            barrier.wait()
            fn()
        except BaseException as exc:  # surfaced after join
            with lock:
                failures.append(exc)

    threads = [threading.Thread(target=wrap, args=(fn,)) for fn in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]


# -- no lost updates ---------------------------------------------------------

def test_concurrent_writers_disjoint_key_sets():
    """T writers on disjoint key ranges: every single write must survive."""
    service = make_service()
    keys_per_thread = 150

    def writer(thread_id):
        for i in range(keys_per_thread):
            service.put(f"t{thread_id}:k{i:04d}", f"value-{thread_id}-{i}")

    run_threads([functools.partial(writer, t) for t in range(THREADS)])
    service.flush()
    assert service.record_count() == THREADS * keys_per_thread
    for thread_id in range(THREADS):
        for i in range(0, keys_per_thread, 17):
            assert service.get(f"t{thread_id}:k{i:04d}") == f"value-{thread_id}-{i}".encode()
    metrics = service.metrics()
    assert metrics.puts == THREADS * keys_per_thread


@pytest.mark.parametrize("index_class", SIRI_INDEXES, ids=lambda cls: cls.name)
def test_concurrent_writers_overlapping_keys(index_class):
    """T writers updating the same keys: the winner is always a real write."""
    service = make_service(index_class=index_class)
    shared_keys = [f"hot:{i:03d}" for i in range(60)]

    def writer(thread_id):
        for key in shared_keys:
            service.put(key, f"{key}={thread_id}")

    run_threads([functools.partial(writer, t) for t in range(THREADS)])
    service.flush()
    assert service.record_count() == len(shared_keys)
    for key in shared_keys:
        value = service.get(key)
        assert value in {f"{key}={t}".encode() for t in range(THREADS)}, value


# -- reads racing flushes ----------------------------------------------------

def test_reads_during_flush_never_observe_gaps():
    """Readers racing a constantly-flushing writer see old or new — never absent.

    ``batch_size=4`` makes the writer flush every few puts, so readers
    hammer exactly the window where operations move from the write buffer
    into the shard head.  A key that exists must never read as missing,
    and its value must always be one the writer actually wrote.
    """
    service = make_service(batch_size=4)
    keys = [f"r:{i:02d}" for i in range(24)]
    rounds = 25
    for key in keys:
        service.put(key, f"{key}#0")
    service.flush()
    stop = threading.Event()

    def writer():
        for round_number in range(1, rounds + 1):
            for key in keys:
                service.put(key, f"{key}#{round_number}")
        stop.set()

    def reader():
        valid_suffixes = {f"#{r}".encode() for r in range(rounds + 1)}
        while not stop.is_set():
            for key in keys:
                value = service.get(key)
                assert value is not None, f"{key} transiently missing during flush"
                prefix, _, suffix = value.partition(b"#")
                assert prefix == key.encode() and b"#" + suffix in valid_suffixes, value

    run_threads([writer] + [reader] * (THREADS - 1))
    for key in keys:
        assert service.get(key) == f"{key}#{rounds}".encode()


# -- cross-shard commit linearization ----------------------------------------

def _keys_on_distinct_shards(num_shards=4):
    """Two keys that hash-route to different shards (found deterministically)."""
    first = "pair:a"
    for i in range(1000):
        candidate = f"pair:b{i}"
        if route_key(candidate.encode(), num_shards) != route_key(first.encode(), num_shards):
            return first, candidate
    raise AssertionError("could not find keys on distinct shards")


def test_cross_shard_commit_cuts_are_atomic():
    """A commit racing a writer never captures a half-applied multi-key update.

    The writer bumps ``key_a`` then ``key_b`` to the same sequence number;
    a concurrent committer snapshots repeatedly.  In every committed
    version, ``key_a`` may be at most one step ahead of ``key_b`` (the cut
    fell between the two puts) and never behind it — anything else means
    the cut saw shard B's future or lost shard A's past.
    """
    service = make_service(batch_size=4)
    key_a, key_b = _keys_on_distinct_shards()
    increments = 120
    commit_count = 30
    service.put(key_a, "0")
    service.put(key_b, "0")
    service.commit("seed")

    def writer():
        for i in range(1, increments + 1):
            service.put(key_a, str(i))
            service.put(key_b, str(i))

    def committer():
        for _ in range(commit_count):
            service.commit("cut")

    run_threads([writer, committer])
    commits = service.commits
    assert [commit.version for commit in commits] == list(range(len(commits)))
    for commit in commits:
        value_a = int(service.get(key_a, version=commit))
        value_b = int(service.get(key_b, version=commit))
        assert 0 <= value_a - value_b <= 1, (
            f"commit {commit.version} tore the update: {key_a}={value_a}, {key_b}={value_b}"
        )
    # Committed versions are immutable: re-reading yields identical values.
    for commit in commits[:: max(1, len(commits) // 5)]:
        assert service.get(key_a, version=commit) == service.get(key_a, version=commit)


def test_concurrent_commits_stay_dense_and_stable():
    """Commits from many threads interleaved with writers keep dense versions."""
    service = make_service(batch_size=8)

    def writer(thread_id):
        for i in range(80):
            service.put(f"w{thread_id}:{i:03d}", f"{thread_id}.{i}")

    def committer():
        for _ in range(10):
            service.commit("concurrent")

    run_threads([functools.partial(writer, t) for t in range(2)] + [committer] * 2)
    commits = service.commits
    assert [commit.version for commit in commits] == list(range(len(commits)))
    # Each commit's recorded roots resolve to a readable snapshot whose
    # content re-reads identically (copy-on-write keeps versions stable).
    for commit in commits:
        snapshot = service.snapshot(commit)
        assert snapshot.to_dict() == service.snapshot(commit.version).to_dict()


def test_version_history_is_stable_under_concurrency():
    """Shard histories stay append-only and consistent with flush counts."""
    service = make_service(batch_size=8)

    def writer(thread_id):
        for i in range(100):
            service.put(f"h{thread_id}:{i:03d}", str(i))

    run_threads([functools.partial(writer, t) for t in range(THREADS)])
    service.flush()
    histories = service.shard_histories()
    metrics = service.metrics()
    for shard_metrics, history in zip(metrics.shards, histories):
        # One entry per flush plus the initial empty root.
        assert len(history) == shard_metrics.flushes + 1
        assert history[0] is None
    # The recorded heads are exactly the last history entries.
    snapshot = service.snapshot()
    assert tuple(history[-1] for history in histories) == snapshot.roots


# -- fail-fast error handling ------------------------------------------------

class _FailingStore(InMemoryNodeStore):
    """A store whose writes can be armed to fail on demand."""

    fail_writes = False

    def put_bytes(self, digest, data):
        if self.fail_writes:
            raise OSError("injected write failure")
        return super().put_bytes(digest, data)


def test_failed_shard_flush_raises_with_shard_context():
    """A shard that cannot flush names itself; nothing is committed."""
    stores = []

    def store_factory():
        stores.append(_FailingStore())
        return stores[-1]

    service = make_service(batch_size=1000, store_factory=store_factory, cache_bytes=0)
    service.put_many({f"g:{i:04d}": str(i) for i in range(200)})
    stores[1].fail_writes = True
    with pytest.raises(ShardExecutionError) as excinfo:
        service.flush()
    assert excinfo.value.shard_id == 1
    assert excinfo.value.operation == "flush"
    assert isinstance(excinfo.value.__cause__, OSError)
    assert isinstance(excinfo.value, ReproError)
    assert service.commits == []


def test_threshold_flush_failure_in_put_names_the_shard():
    """A put that fills its shard's batch reports that shard's failed flush."""
    stores = []

    def store_factory():
        stores.append(_FailingStore())
        return stores[-1]

    service = make_service(batch_size=4, store_factory=store_factory, cache_bytes=0)
    failing = 1
    keys = [key for key in (f"p:{i:03d}" for i in range(200))
            if service.shard_of(key) == failing][:4]
    stores[failing].fail_writes = True
    with pytest.raises(ShardExecutionError) as excinfo:
        for key in keys:  # the fourth put fills the batch and flushes
            service.put(key, "v")
    assert excinfo.value.shard_id == failing
    assert excinfo.value.operation == "flush"
    assert isinstance(excinfo.value.__cause__, OSError)
