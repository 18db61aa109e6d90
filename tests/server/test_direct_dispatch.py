"""Handlers call the service on their dispatch thread, and nowhere else.

The server hands each request to one ``repro-serve`` dispatch thread and
the handler calls :class:`~repro.service.VersionedKVService` right there:
no second pool, no cross-thread fan-out.  These tests watch the node
stores underneath the shards, so they see every thread that touches a
shard, however the service reaches it:

* every node a wire operation reads or writes is read or written on a
  ``repro-serve`` thread;
* a prefix ``SCAN`` with a ``limit`` reads the few nodes on its range
  (not the dataset) and still sees writes buffered since the commit;
* a shard failing under ``GET_MANY``, or failing to flush under
  ``PUT_MANY`` or ``COMMIT``, is named in the ``shard_execution`` error
  frame;
* the wire answers of ``GET_MANY``, ``SCAN``, ``DIFF`` and ``COMMIT``
  are the service's own answers, on both shard backends.
"""

from __future__ import annotations

import threading

import pytest

from tests.server.conftest import make_service

from repro.core.errors import RemoteServerError
from repro.server.client import RemoteRepository
from repro.server.protocol import Op, Request
from repro.server.server import RepositoryServer, ServerThread
from repro.service import ServiceExecutor
from repro.storage.memory import InMemoryNodeStore
from repro.storage.metered import MeteredNodeStore


class _WatchedStore(InMemoryNodeStore):
    """Records the name of every thread that reads or writes a node."""

    def __init__(self, threads: set):
        super().__init__()
        self.threads = threads
        self.fail_reads = False
        self.fail_writes = False

    def get_bytes(self, digest):
        self.threads.add(threading.current_thread().name)
        if self.fail_reads:
            raise OSError("injected read failure")
        return super().get_bytes(digest)

    def put_bytes(self, digest, data):
        self.threads.add(threading.current_thread().name)
        if self.fail_writes:
            raise OSError("injected write failure")
        return super().put_bytes(digest, data)


def _watched_service(threads: set, stores: list, **kwargs):
    def store_factory():
        stores.append(_WatchedStore(threads))
        return stores[-1]
    return make_service(store_factory=store_factory, cache_bytes=0, **kwargs)


def test_every_shard_access_runs_on_the_dispatch_thread():
    threads: set = set()
    service = _watched_service(threads, [])
    keys = [b"t:%03d" % i for i in range(200)]

    def ops(remote):
        # batch_size is 16: 200 puts over 4 shards cross every threshold,
        # so PUT_MANY flushes every shard itself, leaving the first commit
        # nothing to write.  The 8 puts after it stay buffered for COMMIT.
        yield "PUT_MANY", lambda: remote.put_many([(k, b"v") for k in keys])
        remote.commit("first")
        yield "COMMIT", lambda: (remote.put_many([(k, b"w") for k in keys[:8]]),
                                 remote.commit("second"))
        yield "GET_MANY", lambda: remote.get_many(keys)
        yield "SCAN", lambda: remote.scan(prefix=b"t:1")
        yield "DIFF", lambda: remote.diff(0, 1)

    with ServerThread(RepositoryServer(service)) as (host, port):
        with RemoteRepository(host, port) as remote:
            for name, op in ops(remote):
                threads.clear()
                op()
                assert threads, f"{name} never reached a shard store"
                assert all(t.startswith("repro-serve") for t in threads), (name, threads)
    service.close()


def test_prefix_scan_reads_its_range_and_sees_buffered_writes():
    stores = []

    def store_factory():
        stores.append(MeteredNodeStore(InMemoryNodeStore()))
        return stores[-1]

    service = make_service(store_factory=store_factory, cache_bytes=0)
    service.load({b"rec:%05d" % i: b"value-%05d" % i for i in range(5000)})
    service.commit("load")
    nodes = sum(len(store) for store in stores)
    scan = Request(op=Op.SCAN, prefix=b"rec:0001", limit=3)

    with ServerThread(RepositoryServer(service)) as (host, port):
        with RemoteRepository(host, port) as remote:
            for store in stores:
                store.reset_meters()
            response = remote.request(scan)
            reads = sum(store.get_count for store in stores)
            assert reads < 0.05 * nodes, (reads, nodes)
            assert [key for key, _ in response.items] == [
                b"rec:00010", b"rec:00011", b"rec:00012"]
            assert response.truncated

            # Buffered, never committed: both must show in the next scan.
            service.put(b"rec:00010a", b"buffered")
            service.remove(b"rec:00011")
            assert remote.request(scan).items == [
                (b"rec:00010", b"value-00010"),
                (b"rec:00010a", b"buffered"),
                (b"rec:00012", b"value-00012")]
    service.close()


def test_get_many_failure_names_the_shard():
    stores = []
    service = _watched_service(set(), stores)
    keys = [b"g:%03d" % i for i in range(40)]

    with ServerThread(RepositoryServer(service)) as (host, port):
        with RemoteRepository(host, port) as remote:
            remote.put_many([(key, b"v") for key in keys])
            remote.commit("seed")
            failing = service.shard_of(keys[0])
            stores[failing].fail_reads = True
            with pytest.raises(RemoteServerError) as excinfo:
                remote.get_many(keys)
            assert excinfo.value.code == "shard_execution"
            assert f"shard {failing} failed during get_many" in str(excinfo.value)
            assert "injected read failure" in str(excinfo.value)
            # Transient: once the shard recovers the same request succeeds.
            stores[failing].fail_reads = False
            assert remote.get_many(keys) == [b"v"] * len(keys)
    service.close()


def test_single_key_get_many_failure_names_the_shard():
    stores = []
    service = _watched_service(set(), stores)
    service.put(b"solo", b"value")
    service.flush()
    shard_id = service.shard_of(b"solo")
    stores[shard_id].fail_reads = True

    with ServerThread(RepositoryServer(service)) as (host, port):
        with RemoteRepository(host, port) as remote:
            with pytest.raises(RemoteServerError) as excinfo:
                remote.get_many([b"solo"])
            assert excinfo.value.code == "shard_execution"
            assert f"shard {shard_id} failed during get_many" in str(excinfo.value)
    stores[shard_id].fail_reads = False
    service.close()


def test_put_many_flush_failure_names_the_shard():
    stores = []
    service = _watched_service(set(), stores)
    failing = 1
    # More keys of one shard than batch_size (16): PUT_MANY flushes it.
    keys = [key for key in (b"p:%03d" % i for i in range(200))
            if service.shard_of(key) == failing][:20]

    with ServerThread(RepositoryServer(service)) as (host, port):
        with RemoteRepository(host, port) as remote:
            stores[failing].fail_writes = True
            with pytest.raises(RemoteServerError) as excinfo:
                remote.put_many([(key, b"v") for key in keys])
            assert excinfo.value.code == "shard_execution"
            assert f"shard {failing} failed during flush" in str(excinfo.value)
            assert "injected write failure" in str(excinfo.value)
            stores[failing].fail_writes = False
            remote.ping()
    service.close()


def test_failed_commit_names_the_shard_and_records_nothing():
    stores = []
    service = _watched_service(set(), stores, batch_size=1000)

    with ServerThread(RepositoryServer(service)) as (host, port):
        with RemoteRepository(host, port) as remote:
            remote.put_many([(b"g:%04d" % i, b"%d" % i) for i in range(200)])
            stores[1].fail_writes = True
            with pytest.raises(RemoteServerError) as excinfo:
                remote.commit("doomed")
            assert excinfo.value.code == "shard_execution"
            assert "shard 1 failed during flush" in str(excinfo.value)
            assert service.commits == []
            # The failure is per-request: once the shard recovers, the
            # next commit is the first version.
            stores[1].fail_writes = False
            assert remote.commit("retry").version == 0
    service.close()


def test_get_many_preserves_input_order_under_writes():
    service = make_service()
    items = [(b"e:%04d" % i, b"v%d" % i) for i in range(300)]
    barrier = threading.Barrier(2)

    def writer():
        barrier.wait()
        for i in range(200):
            service.put(b"e:%04d" % i, b"updated-%d" % i)

    with ServerThread(RepositoryServer(service)) as (host, port):
        with RemoteRepository(host, port) as remote:
            remote.put_many(items)
            remote.commit("load")
            thread = threading.Thread(target=writer)
            thread.start()
            barrier.wait()
            values = remote.get_many([key for key, _ in items])
            thread.join()
    assert len(values) == len(items)
    for i, ((key, value), got) in enumerate(zip(items, values)):
        assert got in (value, b"updated-%d" % i), (key, got)
    service.close()


def test_wire_commit_matches_a_sequential_service_commit():
    service = make_service()
    with ServerThread(RepositoryServer(service)) as (host, port):
        with RemoteRepository(host, port) as remote:
            remote.put_many([(b"c:%03d" % i, b"%d" % i) for i in range(100)])
            commit = remote.commit("over the wire")
    twin = make_service()
    for i in range(100):
        twin.put(b"c:%03d" % i, b"%d" % i)
    assert twin.commit("sequential").digest == commit.digest
    service.close()
    twin.close()


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_wire_answers_are_the_service_answers(backend):
    service = make_service(backend=backend)
    keys = [b"s:%03d" % i for i in range(120)]
    first_state = {key: b"v%d" % i for i, key in enumerate(keys)}
    second_state = dict(first_state)
    second_state.update({key: b"w" + key for key in keys[::3]})
    removed = keys[1::40]
    for key in removed:
        del second_state[key]

    with ServerThread(RepositoryServer(service)) as (host, port):
        with RemoteRepository(host, port) as remote:
            remote.put_many(list(first_state.items()))
            first = remote.commit("first").version
            remote.put_many([(key, b"w" + key) for key in keys[::3]])
            remote.remove_many(removed)
            second = remote.commit("second").version

            assert remote.get_many(keys + [b"absent"], version=first) == \
                [first_state[key] for key in keys] + [None]
            assert remote.get_many(keys) == [second_state.get(key) for key in keys]
            assert remote.scan(version=first) == sorted(first_state.items())
            assert remote.scan() == list(service.items(second)) == \
                sorted(second_state.items())
            window = [(key, value) for key, value in sorted(second_state.items())
                      if b"s:010" <= key < b"s:050"]
            assert remote.scan(b"s:010", b"s:050", prefix=b"s:0", limit=5) == window[:5]

            wire_diff = remote.diff(first, second)
            service_diff = service.diff(first, second)
            assert [(e.key, e.left, e.right) for e in wire_diff] == \
                [(e.key, e.left, e.right) for e in service_diff]
            assert sorted(e.key for e in wire_diff) == sorted(
                key for key in keys if first_state.get(key) != second_state.get(key))
    service.close()


def test_deprecated_executor_argument_is_accepted_and_ignored():
    service = make_service()
    with ServiceExecutor(service) as executor:
        assert executor.service is service
        executor.put_many({b"a": b"1"})  # forwarded to the service
        assert executor.get(b"a") == b"1"
        with ServerThread(RepositoryServer(service, executor=executor)) as (host, port):
            with RemoteRepository(host, port) as remote:
                assert remote.get_many([b"a", b"b"]) == [b"1", None]
                remote.commit("served")
    executor.close()  # a no-op, however often it is called
    assert service.get(b"a") == b"1"
    assert len(service.commits) == 1
    service.close()
