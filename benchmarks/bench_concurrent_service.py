"""Concurrent service execution — throughput vs client threads and shards.

This benchmark is not a paper figure: it evaluates the thread-safe
paths of the sharded versioned-KV service (see "The concurrency model"
in ``docs/ARCHITECTURE.md``).  It answers one
question: once the serving layer is safe to drive from many client
threads, does adding workers actually buy throughput, and how does the
gain interact with the shard count?

The regime matters.  A pure-Python in-memory lookup is CPU-bound and
serialized by the GIL, so threads cannot speed it up no matter how the
service is locked — on this machine that configuration measures locking
overhead, not parallelism.  Deployments of the paper's stack are not in
that regime: ForkBase's own evaluation (Section 5.6.1) shows remote read
throughput dominated by client↔server round trips.  We reproduce that
regime with a :class:`~repro.storage.metered.MeteredNodeStore` in
``realtime`` mode, which *sleeps* a fixed per-node-read cost (releasing
the GIL) exactly where a networked store would wait on a socket.  Client
threads then overlap their round trips, which is precisely the work a
concurrent execution engine exists to do:

1. **Worker scaling** — at a fixed shard count, YCSB A/B/C throughput
   with 1/2/4 client threads.  Expected shape: near-linear gains for the
   read-heavy mixes (reads overlap freely; only same-shard head reads
   serialize on the shard lock), smaller gains for YCSB-A whose flushes
   serialize per shard.
2. **Shard × worker interaction** — more shards means more independent
   locks, so contention (reported from the service's per-shard
   :class:`~repro.core.metrics.ContentionCounters`) drops as shards grow
   and the worker-scaling curve steepens toward its I/O-overlap limit.

Workload mixes follow the standard YCSB presets over a Zipfian (θ = 0.9)
request stream: A = 50 % writes, B = 5 % writes, C = read-only.
"""

import functools

from common import report_series, report_table, scaled
from repro.indexes import POSTree
from repro.service import VersionedKVService
from repro.storage.memory import InMemoryNodeStore
from repro.storage.metered import MeteredNodeStore
from repro.workloads.ycsb import YCSBConfig, YCSBServiceDriver, YCSBWorkload

RECORD_COUNT = scaled(4_000)
OPERATION_COUNT = scaled(600)
BATCH_SIZE = 200
SHARD_COUNTS = [1, 2, 4, 8]
WORKER_COUNTS = [1, 2, 4]
THETA = 0.9
#: (label, write ratio) per standard YCSB mix.
WORKLOADS = [("YCSB-A", 0.5), ("YCSB-B", 0.05), ("YCSB-C", 0.0)]
#: Simulated remote-storage cost per node read, slept for real (releases
#: the GIL) so concurrent clients genuinely overlap their round trips.
#: Writes stay free so the load phase does not dominate the run time and
#: the read-side overlap is what the worker sweep measures.
GET_RTT_SECONDS = 150e-6


def make_service(num_shards: int) -> VersionedKVService:
    """A POS-Tree service over latency-modelling stores, caching disabled.

    The per-shard node cache is off so every node read pays the simulated
    round trip — the remote-read-dominated regime of ForkBase's
    client/server experiments, where concurrency is the mitigation.
    """
    factory = functools.partial(POSTree, target_node_size=1024, estimated_entry_size=272)

    def fresh_store():
        return MeteredNodeStore(InMemoryNodeStore(),
                                get_cost_seconds=GET_RTT_SECONDS, realtime=True)

    return VersionedKVService(factory, num_shards=num_shards,
                              store_factory=fresh_store, cache_bytes=0,
                              batch_size=BATCH_SIZE)


def run_config(write_ratio: float, num_shards: int, num_workers: int):
    """Load + run one (mix, shards, workers) configuration once."""
    workload = YCSBWorkload(YCSBConfig(
        record_count=RECORD_COUNT,
        operation_count=OPERATION_COUNT,
        write_ratio=write_ratio,
        theta=THETA,
        batch_size=BATCH_SIZE,
        seed=73,
    ))
    driver = YCSBServiceDriver(workload)
    service = make_service(num_shards)
    # Load without paying simulated read latency: reads during the batched
    # load are index-internal and identical across configurations.
    for shard in service._shards:
        shard.engine.backing.realtime = False
    driver.load(service)
    for shard in service._shards:
        shard.engine.backing.realtime = True
    counters = driver.run_concurrent(service, num_threads=num_workers)
    contention = service.metrics().contention
    return counters, contention


def run_sweep():
    """The full (mix × shards × workers) grid; returns series and detail rows."""
    throughput = {}
    detail_rows = []
    for label, write_ratio in WORKLOADS:
        for num_shards in SHARD_COUNTS:
            for num_workers in WORKER_COUNTS:
                counters, contention = run_config(write_ratio, num_shards, num_workers)
                ops_per_second = counters.throughput()
                throughput[(label, num_shards, num_workers)] = ops_per_second
                detail_rows.append([
                    label,
                    num_shards,
                    num_workers,
                    round(ops_per_second),
                    contention.acquisitions,
                    contention.contended,
                    f"{contention.contention_ratio:.3f}",
                    f"{contention.wait_seconds * 1e3:.1f}",
                ])
    return throughput, detail_rows


def test_concurrent_service_scaling(benchmark):
    throughput, detail_rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    # Worker-scaling series at 4 shards (one line per mix).
    series = {
        label: [round(throughput[(label, 4, workers)]) for workers in WORKER_COUNTS]
        for label, _ in WORKLOADS
    }
    report_series(
        "concurrent_service_worker_scaling",
        f"Concurrent service: throughput (ops/s) vs client threads at 4 shards "
        f"({RECORD_COUNT} records, {OPERATION_COUNT} ops, θ={THETA}, "
        f"simulated {GET_RTT_SECONDS * 1e6:.0f}µs/node-read, POS-Tree)",
        "#Workers",
        WORKER_COUNTS,
        series,
    )
    report_table(
        "concurrent_service_detail",
        "Concurrent service detail: throughput and shard-lock contention per config",
        ["Mix", "Shards", "Workers", "Ops/s",
         "LockAcq", "Contended", "ContentionRatio", "LockWaitMs"],
        detail_rows,
    )
    # Acceptance shape: with remote-read latency on the path, four client
    # threads over four shards must beat the single-threaded configuration
    # on read-only YCSB-C (the engine's reason to exist).
    single = throughput[("YCSB-C", 4, 1)]
    concurrent = throughput[("YCSB-C", 4, 4)]
    assert concurrent > single, (
        f"4 workers not faster than 1 on YCSB-C/4 shards: {concurrent:.0f} vs {single:.0f}"
    )
    # Every mix must gain something from concurrency at 4 shards.
    for label, _ in WORKLOADS:
        assert throughput[(label, 4, 4)] > throughput[(label, 4, 1)], (
            f"{label} did not scale with workers: {series[label]}"
        )
