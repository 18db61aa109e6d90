"""Bulk-ingest throughput: bottom-up builders vs the seed ingest paths.

Every workload in the paper's evaluation starts by ingesting a large
dataset (YCSB load phases, the Wikipedia/Ethereum replays, the Figure 1
dedup corpora).  ISSUE 5 replaces the seed's incremental ingest with
O(N) bottom-up builders (``SIRIIndex.bulk_build``) plus a shard-parallel
service load path.  This benchmark measures, per index type and key
count:

* ``seed from_items`` — the seed implementation of ``from_items``: one
  incremental ``update()`` over the whole dataset (per-key path-copying
  inserts for MPT, a single merge-into-empty-buckets/chunks pass for
  MBT/POS-Tree).  Emulated by seeding the tree with its first record and
  applying the rest through the incremental write path.
* ``seed load phase`` — how the repo's load phases actually ingested at
  the seed: incremental ``update()`` batches of 1 024 records on a
  growing tree (``common.load_in_batches``).
* ``bulk builder`` — the new ``from_items``: sort once, emit leaves and
  internal nodes level by level, each node serialized and hashed exactly
  once.

History independence makes the comparison airtight: the benchmark
*asserts* that all three strategies produce byte-identical roots before
reporting.  The acceptance bar (ISSUE 5) is bulk ≥ 5× the seed
``from_items`` ingest on ≥ 2 of the 3 SIRI index types at 100 k keys.

A second section measures the service-level load path (per-key puts vs
``put_many`` vs ``VersionedKVService.load`` vs
``Repository.import_data``), asserting equal commit digests.

Run directly (``--quick`` for the CI smoke configuration)::

    PYTHONPATH=src python benchmarks/bench_bulk_load.py [--quick]
"""

import argparse
import time

from common import make_index, report, scaled, throughput
from repro.analysis.report import format_table
from repro.api import Repository
from repro.indexes import POSTree
from repro.service import VersionedKVService

INDEX_NAMES = ["POS-Tree", "MBT", "MPT"]  # the three SIRI families
BATCH_SIZE = 1_024
VALUE_SIZE = 96
NUM_SHARDS = 4


def dataset(count):
    """A deterministic keyed dataset of ``count`` records."""
    return {b"user%010d" % i: (b"v%010d" % i) * (VALUE_SIZE // 11)
            for i in range(count)}


def seed_from_items(index, items):
    """Emulate the seed ``from_items``: one incremental update() batch.

    The seed implementation fed the whole dataset through ``write`` from
    the empty root — per-key inserts for MPT, one batched merge for
    MBT/POS-Tree.  With ``write(None, ...)`` now routed to the bulk
    builders, the same work is reproduced by seeding the tree with its
    first record and pushing the rest through the (unchanged) non-empty
    incremental write path.
    """
    pairs = list(items.items())
    snapshot = index.empty_snapshot().update(dict(pairs[:1]))
    return snapshot.update(dict(pairs[1:]))


def seed_load_phase(index, items, batch_size=BATCH_SIZE):
    """Emulate the seed load phases: incremental update() per batch."""
    pairs = list(items.items())
    snapshot = index.empty_snapshot().update(dict(pairs[:1]))
    for start in range(1, len(pairs), batch_size):
        snapshot = snapshot.update(dict(pairs[start:start + batch_size]))
    return snapshot


def timed(build, *args):
    started = time.perf_counter()
    result = build(*args)
    return result, time.perf_counter() - started


def run_index_comparison(sizes, baseline_limit, suffix=""):
    rows = []
    for count in sizes:
        items = dataset(count)
        for name in INDEX_NAMES:
            bulk_snap, bulk_s = timed(
                lambda: make_index(name, dataset_size=count,
                                   value_size=VALUE_SIZE).from_items(items))
            row = [name, count, round(bulk_s, 3),
                   round(throughput(count, bulk_s))]
            if count <= baseline_limit:
                single_snap, single_s = timed(
                    lambda: seed_from_items(
                        make_index(name, dataset_size=count,
                                   value_size=VALUE_SIZE), items))
                batched_snap, batched_s = timed(
                    lambda: seed_load_phase(
                        make_index(name, dataset_size=count,
                                   value_size=VALUE_SIZE), items))
                # History independence: every strategy must produce the
                # same version, byte for byte.
                assert bulk_snap.root_digest == single_snap.root_digest, (
                    f"{name}: bulk root != seed from_items root")
                assert bulk_snap.root_digest == batched_snap.root_digest, (
                    f"{name}: bulk root != seed load-phase root")
                row += [round(single_s, 3), round(batched_s, 3),
                        f"{single_s / bulk_s:.1f}x",
                        f"{batched_s / bulk_s:.1f}x", "yes"]
            else:
                row += ["-", "-", "-", "-", "-"]
            rows.append(row)
    note = (
        "\nSeedFromItems = the seed's from_items (one incremental update() "
        "over the whole dataset);\nSeedLoadPhase = the seed's load phases "
        "(incremental update() per 1 024-record batch on a growing tree).\n"
        "MBT and POS-Tree already applied a single update() batch-wise at "
        "the seed, so their single-shot\ncolumn measures mostly hashing "
        "floor; the load phases every workload actually ran through are\n"
        "the per-batch column.  Baselines are measured up to 100 k keys; "
        "1 M rows are bulk-only.\n")
    report(f"bulk_load_index{suffix}",
           "Bulk-ingest: bottom-up builders vs seed ingest paths "
           f"(values ~{VALUE_SIZE} B; roots asserted byte-identical)",
           format_table(
               ["Index", "Keys", "BulkSecs", "BulkKeys/s", "SeedFromItemsSecs",
                "SeedLoadPhaseSecs", "VsFromItems", "VsLoadPhase", "RootsEqual"],
               rows) + note)
    return rows


def run_service_comparison(count, suffix=""):
    items = dataset(count)
    rows = []
    digests = {}

    def finish(label, service, seconds, extra=""):
        commit = service.commit("loaded")
        metrics = service.metrics()
        digests[label] = commit.digest
        rows.append([label, count, round(seconds, 3),
                     round(throughput(count, seconds)),
                     metrics.contention.acquisitions, metrics.flushes, extra])

    service = VersionedKVService(POSTree, num_shards=NUM_SHARDS)
    started = time.perf_counter()
    for key, value in items.items():
        service.put(key, value)
    service.flush()
    finish("per-key put loop (seed)", service, time.perf_counter() - started)

    service = VersionedKVService(POSTree, num_shards=NUM_SHARDS)
    started = time.perf_counter()
    service.put_many(items)
    service.flush()
    finish("put_many (fixed)", service, time.perf_counter() - started)

    service = VersionedKVService(POSTree, num_shards=NUM_SHARDS)
    started = time.perf_counter()
    service.load(items)
    finish("service.load", service, time.perf_counter() - started)

    with Repository.open(num_shards=NUM_SHARDS) as repo:
        started = time.perf_counter()
        commit = repo.import_data(items, message="bulk import")
        seconds = time.perf_counter() - started
        digests["repository.import_data"] = commit.digest
        rows.append(["repository.import_data", count, round(seconds, 3),
                     round(throughput(count, seconds)), "-", "-",
                     "1 journalled commit"])

    reference = digests["per-key put loop (seed)"]
    assert all(digest == reference for digest in digests.values()), (
        "service-level load strategies disagreed on the commit digest")
    report(f"bulk_load_service{suffix}",
           f"Service bulk-ingest: {NUM_SHARDS} POS-Tree shards "
           "(commit digests asserted identical across strategies)",
           format_table(
               ["Strategy", "Keys", "Secs", "Keys/s", "LockAcquisitions",
                "ShardFlushes", "Notes"],
               rows))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke configuration: 10k keys only")
    parser.add_argument("--full", action="store_true",
                        help="additionally run a 1M-key bulk-only row")
    args = parser.parse_args(argv)
    if args.quick:
        # Smoke configuration (CI): small sizes, and results written under
        # *_quick names so the committed full-scale tables stay intact.
        sizes, baseline_limit, service_count = [scaled(10_000)], 100_000, scaled(10_000)
        suffix = "_quick"
    else:
        sizes, baseline_limit, service_count = [10_000, 100_000], 100_000, 100_000
        suffix = ""
        if args.full:
            sizes.append(1_000_000)
    run_index_comparison(sizes, baseline_limit, suffix=suffix)
    run_service_comparison(service_count, suffix=suffix)
    return 0


def test_bulk_ingest_quick_smoke():
    """Pytest entry point (every bench script runs under pytest too)."""
    assert main(["--quick"]) == 0


if __name__ == "__main__":
    raise SystemExit(main())
