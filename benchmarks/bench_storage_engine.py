"""Durable storage engine — recovery time, GC reclamation, read throughput.

This benchmark is not a paper figure: it evaluates the append-only
segment storage engine (:mod:`repro.storage.segment`, documented in
``docs/STORAGE.md``) that makes the service layer durable.  Four
questions:

1. **Read throughput** — what does serving point lookups off the segment
   store cost versus the in-memory store?  Segment reads re-parse and
   CRC-check every record, so they sit below memory.
2. **Recovery time** — how long does the open-time scan (directory
   rebuild + torn-tail repair) take as the store grows?  Recovery is a
   single sequential pass, so seconds should scale roughly linearly with
   the file bytes scanned.
3. **GC reclamation** — on a 20-version churn workload with
   ``retain_versions=4``, how many segment bytes does mark-and-sweep
   compaction reclaim?  The acceptance bar (ISSUE 3) is ≥ 50 %.
4. **Crash + reopen** — a YCSB-A run with periodic commits over
   `SegmentNodeStore` shards, killed without close(): every committed
   version must be byte-identical readable after recovery, and the
   uncommitted tail must be gone.
"""

import os
import shutil
import tempfile
import time

import pytest

from common import report_table, run_read_workload, scaled, throughput
from repro.indexes import POSTree
from repro.service import VersionedKVService
from repro.storage.memory import InMemoryNodeStore
from repro.storage.segment import SegmentNodeStore
from repro.workloads.ycsb import YCSBConfig, YCSBServiceDriver, YCSBWorkload

RECORD_COUNT = scaled(8_000)
READ_OPS = scaled(4_000)
CHURN_VERSIONS = 20
RETAIN_VERSIONS = 4
SEED = 23


@pytest.fixture()
def workdir():
    """A throwaway directory tree for the durable stores."""
    path = tempfile.mkdtemp(prefix="bench-storage-engine-")
    yield path
    shutil.rmtree(path, ignore_errors=True)


def dataset(record_count=RECORD_COUNT):
    workload = YCSBWorkload(YCSBConfig(record_count=record_count, seed=SEED))
    return workload, workload.initial_dataset()


def build_tree(store, data):
    tree = POSTree(store, target_node_size=1024, estimated_entry_size=272)
    snapshot = tree.from_items(data)
    flush = getattr(store, "flush", None)
    if flush is not None:
        flush()
    return tree, snapshot


# ---------------------------------------------------------------------------
# 1. Read throughput: segment store vs memory
# ---------------------------------------------------------------------------

def run_read_comparison(workdir):
    workload, data = dataset()
    read_keys = [workload.keys[i % len(workload.keys)] for i in range(READ_OPS)]
    rows = []
    ops = {}
    stores = [
        ("InMemoryNodeStore", lambda: InMemoryNodeStore()),
        ("SegmentNodeStore", lambda: SegmentNodeStore(os.path.join(workdir, "segment"))),
    ]
    for name, factory in stores:
        store = factory()
        _tree, snapshot = build_tree(store, data)
        elapsed = run_read_workload(snapshot, read_keys)
        ops[name] = throughput(READ_OPS, elapsed)
        rows.append([name, READ_OPS, f"{elapsed:.3f}", round(ops[name])])
    return rows, ops


def test_read_throughput(benchmark, workdir):
    rows, ops = benchmark.pedantic(run_read_comparison, args=(workdir,), rounds=1, iterations=1)
    report_table(
        "storage_engine_read_throughput",
        f"Storage engine: point-lookup throughput off each store "
        f"({RECORD_COUNT} records, POS-Tree, {READ_OPS} reads)",
        ["Store", "Reads", "Seconds", "Ops/s"],
        rows,
    )
    # Shape: memory is the ceiling for the CRC-checking segment store.
    assert ops["InMemoryNodeStore"] > ops["SegmentNodeStore"]


# ---------------------------------------------------------------------------
# 2. Recovery time: open-time scan vs store size
# ---------------------------------------------------------------------------

def run_recovery(workdir):
    rows = []
    recovered = []
    for label, record_count in [("0.5x", RECORD_COUNT // 2), ("1x", RECORD_COUNT)]:
        directory = os.path.join(workdir, f"recover-{label}")
        _workload, data = dataset(record_count)
        store = SegmentNodeStore(directory)
        build_tree(store, data)
        store.close()
        file_bytes = store.file_bytes()
        node_count = len(store)

        started = time.perf_counter()
        reopened = SegmentNodeStore(directory)
        elapsed = time.perf_counter() - started
        recovered.append((node_count, len(reopened)))
        rows.append([
            label, node_count, file_bytes, f"{elapsed * 1e3:.1f}",
            round(node_count / elapsed) if elapsed else float("inf"),
        ])
    return rows, recovered


def test_recovery_time(benchmark, workdir):
    rows, recovered = benchmark.pedantic(run_recovery, args=(workdir,), rounds=1, iterations=1)
    report_table(
        "storage_engine_recovery",
        "Storage engine: reopen (directory-rebuild scan) time vs store size",
        ["Dataset", "Nodes", "FileBytes", "RecoveryMillis", "Nodes/s"],
        rows,
    )
    for written, reread in recovered:
        assert written == reread  # the scan recovers every committed node


# ---------------------------------------------------------------------------
# 3. GC reclamation on a churn workload (the ISSUE 3 acceptance bar)
# ---------------------------------------------------------------------------

def run_gc_churn(workdir):
    directory = os.path.join(workdir, "gc")
    service = VersionedKVService(
        POSTree, num_shards=4, directory=directory, batch_size=1_000,
        retain_versions=RETAIN_VERSIONS, cache_bytes=0,
    )
    workload = YCSBWorkload(YCSBConfig(record_count=RECORD_COUNT, theta=0.5, seed=SEED))
    driver = YCSBServiceDriver(workload)
    driver.load(service)
    for version, batch in enumerate(
            workload.version_stream(CHURN_VERSIONS, updates_per_version=RECORD_COUNT // 4)):
        service.put_many(batch)
        service.commit(f"churn {version}")
    bytes_before = sum(shard.engine.backing.file_bytes() for shard in service._shards)
    report = service.collect_garbage()
    bytes_after = sum(shard.engine.backing.file_bytes() for shard in service._shards)
    # Every retained version must stay fully readable after the sweep.
    retained_ok = all(
        service.get(workload.keys[0], version=commit.version) is not None
        for commit in service.retained_commits()
    )
    service.close()
    return {
        "bytes_before": bytes_before,
        "bytes_after": bytes_after,
        "report": report,
        "retained_ok": retained_ok,
        "commits": CHURN_VERSIONS + 1,
    }


def test_gc_space_reclaimed(benchmark, workdir):
    result = benchmark.pedantic(run_gc_churn, args=(workdir,), rounds=1, iterations=1)
    report = result["report"]
    report_table(
        "storage_engine_gc",
        f"Storage engine: mark-and-sweep GC on a {CHURN_VERSIONS}-version churn "
        f"workload (retain_versions={RETAIN_VERSIONS}, {RECORD_COUNT} records, 4 shards)",
        ["Commits", "SegmentBytesBefore", "SegmentBytesAfter", "Reclaimed",
         "ReclaimedFraction", "LiveNodes", "SweptNodes", "GCSeconds"],
        [[
            result["commits"], result["bytes_before"], result["bytes_after"],
            report.bytes_reclaimed, f"{report.reclaimed_fraction:.3f}",
            report.live_nodes, report.swept_nodes, f"{report.gc_seconds:.3f}",
        ]],
    )
    assert result["retained_ok"]
    # The ISSUE 3 acceptance criterion: ≥ 50 % of segment bytes reclaimed.
    assert report.reclaimed_fraction >= 0.5, (
        f"GC reclaimed only {report.reclaimed_fraction:.1%} of segment bytes")


# ---------------------------------------------------------------------------
# 4. YCSB-A crash + reopen drill
# ---------------------------------------------------------------------------

def run_crash_drill(workdir):
    directory = os.path.join(workdir, "crash")
    config = YCSBConfig(
        record_count=RECORD_COUNT // 2,
        operation_count=scaled(4_000),
        write_ratio=0.5,
        theta=0.9,
        batch_size=500,
        seed=SEED,
    )
    driver = YCSBServiceDriver(YCSBWorkload(config))

    service = VersionedKVService(POSTree, num_shards=4, directory=directory, batch_size=500)
    load_counters = driver.load(service)
    run_counters = driver.run(service, commit_every=config.operation_count // 4)
    committed = {
        commit.version: dict(service.snapshot(commit.version).items())
        for commit in service.commits
    }
    # Leave an uncommitted tail behind, then crash (no close()).
    service.put(b"uncommitted-tail", b"must not survive")
    service.flush()

    started = time.perf_counter()
    recovered = VersionedKVService(POSTree, num_shards=4, directory=directory, batch_size=500)
    recovery_seconds = time.perf_counter() - started
    versions_ok = all(
        dict(recovered.snapshot(version).items()) == content
        for version, content in committed.items()
    )
    tail_gone = recovered.get(b"uncommitted-tail") is None
    recovered.close()
    return {
        "load_ops_s": round(load_counters.throughput()),
        "run_ops_s": round(run_counters.throughput()),
        "commits": len(committed),
        "recovery_millis": round(recovery_seconds * 1e3, 1),
        "versions_ok": versions_ok,
        "tail_gone": tail_gone,
    }


def test_ycsb_a_crash_and_reopen(benchmark, workdir):
    result = benchmark.pedantic(run_crash_drill, args=(workdir,), rounds=1, iterations=1)
    report_table(
        "storage_engine_crash",
        "Storage engine: YCSB-A (θ=0.9) over durable segment shards — "
        "simulated crash, recovery, committed-version audit",
        ["LoadOps/s", "RunOps/s", "CommittedVersions", "RecoveryMillis",
         "AllVersionsByteIdentical", "UncommittedTailDropped"],
        [[
            result["load_ops_s"], result["run_ops_s"], result["commits"],
            result["recovery_millis"], result["versions_ok"], result["tail_gone"],
        ]],
    )
    assert result["versions_ok"], "a committed version changed across crash recovery"
    assert result["tail_gone"], "the uncommitted tail survived the crash"
