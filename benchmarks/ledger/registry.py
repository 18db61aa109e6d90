"""The metrics of the ledger: names, units, directions, bounds, owners.

``BENCHMARK.json`` at the repository root lists the same names (the smoke
test keeps the two in step).  ``owners`` are the workloads whose own
operations measure the metric — ISSUE 11's "reported on" column; claims
and ``--compare`` use a metric on its owners only.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

from workloads import BASE_SECONDS, WORKLOADS

R, D, W, V = WORKLOADS
EVERY = WORKLOADS


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may get worse
    #: (end-to-end metrics only; per-layer metrics explain, they do not gate).
    #: Exact counts and memory have ISSUE 11's bounds.  Times have twice the
    #: issue's: ten runs in a noisy hour of this sandbox spread 3-10 % on
    #: medians and 13-24 % on tails (README, "Bounds"), and the driver
    #: refuses a benchmark whose spread exceeds its own bound.
    bound: float
    owners: Tuple[str, ...]
    meaning: str


END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25, EVERY,
           "dataset generation + bulk load (+ server spawn and connect, + first full sync); "
           "median of three set-ups"),
    Metric("ops_per_s", "1/s", "higher", 0.20, EVERY,
           "completed client operations per second of the timed phase, median of 5 equal "
           "slices (version_collab: staged edits merged into main per second)"),
    Metric("get_p50_us", "us", "lower", 0.20, (R, D, W), "median latency of one get call"),
    Metric("get_p99_us", "us", "lower", 0.25, (R, D, W), "99th percentile of the same samples"),
    Metric("mpt_ops_per_s", "1/s", "higher", 0.20, (R,),
           "the read_inproc key stream against a Merkle Patricia Trie repository"),
    Metric("mbt_ops_per_s", "1/s", "higher", 0.20, (R,),
           "the same against a Merkle Bucket Tree repository"),
    Metric("commit_p50_ms", "ms", "lower", 0.20, (D, W, V), "median latency of one commit call"),
    Metric("commit_p90_ms", "ms", "lower", 0.25, (D,), "90th percentile of the same samples"),
    Metric("diff_p50_ms", "ms", "lower", 0.20, (V,), "median main.diff(branch) per round"),
    Metric("merge_p50_ms", "ms", "lower", 0.20, (V,), "median three-way merge per round"),
    Metric("sync_p50_ms", "ms", "lower", 0.20, (V,), "median delta sync of the replica per round"),
    Metric("dedup_ratio", "ratio", "higher", 0.01, (V,),
           "paper section 4.2 over main and the last 8 branch heads; exact count"),
    Metric("write_amp", "ratio", "lower", 0.01, (D, V),
           "bytes added to the node stores per byte of user data written; exact count"),
    Metric("space_amp", "ratio", "lower", 0.01, (D,),
           "bytes on disk per byte of live user data at the end; exact count"),
    # ISSUE 11's failed_share, as its complement: the driver refuses a
    # metric whose median is 0.  No run attempts a million operations, so
    # this bound is crossed by a single failure.
    Metric("ok_share", "ratio", "higher", 1e-6, EVERY,
           "1 - failed_share, where failed_share = (failed + refused + wrong answers) / "
           "attempted, the reopen check included"),
    Metric("peak_rss_mb", "MiB", "lower", 0.10, EVERY,
           "high-water mark of the resident set of the process that holds the data "
           "(the server on wire_mixed), reset before the workload starts"),
]

LEDGER = ("indexes", "storage", "hashing", "service", "server")

PER_LAYER: List[Metric] = [
    *(Metric(f"{layer}.self_us_per_op", "us", "lower", 0.0, EVERY,
             f"self time of the {layer} layer per client operation of the timed phase")
      for layer in LEDGER),
    Metric("ledger.coverage", "ratio", "higher", 0.0, EVERY,
           "sum of the five self times / wall of the loop issuing the operations; valid in 0.9-1.1"),
    Metric("trace.overhead_share", "ratio", "lower", 0.0, EVERY,
           "traced wall / untraced wall of the same operations - 1"),
    # read_inproc
    *(Metric(f"indexes.{family}.lookup_us", "us", "lower", 0.0, (R,),
             f"mean time inside {family.upper()} lookup()") for family in ("pos", "mpt", "mbt")),
    *(Metric(f"indexes.{family}.nodes_read_per_lookup", "count", "lower", 0.0, (R,),
             "store reads per lookup; exact") for family in ("pos", "mpt", "mbt")),
    Metric("indexes.pos.height", "count", "lower", 0.0, (R,), "levels of the POS-Tree"),
    Metric("encoding.decode_calls_per_get", "count", "lower", 0.0, (R,),
           "decode_bytes() calls per get; exact (cProfile)"),
    Metric("hashing.digest_ctor_per_get", "count", "lower", 0.0, (R,),
           "Digest() constructions per get; exact (cProfile)"),
    Metric("encoding.decode_bytes_ns", "ns", "lower", 0.0, (R,),
           "decode_bytes() on one real node field"),
    Metric("encoding.encode_bytes_ns", "ns", "lower", 0.0, (R,),
           "encode_bytes() on one real node field"),
    Metric("hashing.hash_1k_ns", "ns", "lower", 0.0, (R,), "hashing 1 KiB of real node bytes"),
    Metric("service.engine.lookup_us", "us", "lower", 0.0, (R,),
           "the key stream at the shard's index lookup, which is all ShardEngine.lookup_at() does"),
    Metric("api.get_overhead_us", "us", "lower", 0.0, (R,),
           "Branch.get minus that lookup on the same keys"),
    Metric("service.process.get_overhead_us", "us", "lower", 0.0, (R,),
           "Branch.get on the process backend minus the thread backend"),
    # durable_update
    Metric("indexes.pos.write_us_per_key", "us", "lower", 0.0, (D,),
           "time inside POS-Tree write() per key written"),
    Metric("indexes.pos.nodes_read_per_written_key", "count", "lower", 0.0, (D,),
           "store reads inside write() per key written; exact"),
    Metric("indexes.pos.nodes_written_per_key", "count", "lower", 0.0, (D,),
           "store writes inside write() per key written; exact"),
    Metric("hashing.chunker_items_per_put", "count", "lower", 0.0, (D,),
           "entries fingerprinted by the chunker per put; exact (cProfile)"),
    Metric("encoding.encode_calls_per_put", "count", "lower", 0.0, (D,),
           "encode_bytes() calls per put; exact (cProfile)"),
    Metric("hashing.hash_calls_per_put", "count", "lower", 0.0, (D,),
           "node digests computed per put; exact"),
    Metric("storage.cache.hit_ratio", "ratio", "higher", 0.0, (D,),
           "node-cache hits / lookups in the timed phase"),
    Metric("storage.cache.get_us", "us", "lower", 0.0, (D,), "mean cache hit"),
    Metric("storage.segment.get_us", "us", "lower", 0.0, (D,), "mean read below the cache"),
    Metric("storage.segment.flush_ms", "ms", "lower", 0.0, (D,),
           "SegmentNodeStore.flush() time per commit, all shards"),
    Metric("storage.fsyncs_per_commit", "count", "lower", 0.0, (D,), "os.fsync calls per commit"),
    Metric("storage.bytes_written_per_commit", "B", "lower", 0.0, (D,),
           "bytes added to the node stores per commit; exact"),
    Metric("storage.nodes_written_per_commit", "count", "lower", 0.0, (D,),
           "nodes appended to segment files per commit; exact"),
    Metric("service.commit_overhead_ms", "ms", "lower", 0.0, (D,),
           "commit span - index write - flush: journal append and locks"),
    Metric("storage.segment.recovery_s", "s", "lower", 0.0, (D,),
           "reopening the crash copy (segment scan + journal)"),
    # wire_mixed
    Metric("server.ping_us", "us", "lower", 0.0, (W,), "median empty round trip"),
    Metric("server.protocol.encode_decode_us", "us", "lower", 0.0, (W,),
           "a GET request and its response through the four codec functions"),
    Metric("server.roundtrip_overhead_us", "us", "lower", 0.0, (W,),
           "wire get p50 minus in-process get p50 on the server's data"),
    Metric("server.scaling_1_to_2", "ratio", "higher", 0.0, (W,),
           "gets per second with two connections / with one"),
    Metric("server.busy_share", "ratio", "lower", 0.0, (W,), "requests refused / sent"),
    Metric("server.peak_queue_depth", "count", "lower", 0.0, (W,),
           "deepest admission queue during the run"),
    Metric("server.put_p50_us", "us", "lower", 0.0, (W,), "median latency of one put call"),
    # version_collab
    Metric("api.fork_us", "us", "lower", 0.0, (V,), "median Branch.fork()"),
    Metric("indexes.pos.diff_us_per_changed_key", "us", "lower", 0.0, (V,),
           "time inside iterate_diff() per key that differs"),
    Metric("indexes.pos.nodes_read_per_diff", "count", "lower", 0.0, (V,),
           "store reads per main.diff(branch); exact"),
    Metric("api.merge_self_ms", "ms", "lower", 0.0, (V,),
           "merge span minus the diff and write spans inside it"),
    Metric("sync.nodes_moved_per_delta", "count", "lower", 0.0, (V,),
           "nodes transferred per delta sync; exact"),
    Metric("sync.bytes_moved_per_changed_byte", "ratio", "lower", 0.0, (V,),
           "bytes transferred per byte of user data changed; exact"),
    Metric("sync.full_s", "s", "lower", 0.0, (V,), "the replica's first, full sync (in setup_s)"),
    Metric("core.proof.prove_us", "us", "lower", 0.0, (V,), "mean prove() of one key"),
    Metric("core.proof.verify_us", "us", "lower", 0.0, (V,), "mean verify() of one proof"),
    Metric("core.proof.size_bytes", "B", "lower", 0.0, (V,), "mean proof size"),
]


def manifest() -> Dict[str, object]:
    """The content of ``BENCHMARK.json``."""
    why = {
        R: "in-memory point reads on POS-Tree, MPT and MBT: index descent, node decoding and "
           "Digest construction do the work, storage is a dict hit, the server is absent",
        D: "50/50 get/put with a commit every 80 ops on fsynced segment files and a cache "
           "smaller than the working set: the write path, the journal and cache misses",
        W: "two closed-loop clients, 95/5 get/put, against the server process over loopback: "
           "the same descent as read_inproc, so the difference is the front door",
        V: "fork, edit, commit, diff, three-way merge and delta sync per round: structural "
           "comparison and page sharing instead of point descent",
    }
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": BASE_SECONDS,
        "workloads": [{"name": name, "why": why[name]} for name in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
                       for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }
