"""Per-layer metrics: what a traced run measures beyond its spans.

Two entry points per workload:

* ``live(run, outcome)`` runs right after the timed phase, while the
  repositories (or the server) are still open: exact call counts under
  ``cProfile``, micro-timings of public functions on real node data, the
  engine -> service -> API ladder, proofs, ping and connection scaling;
* ``settle(run, outcome)`` turns the spans of the timed phase into the
  five-layer ledger and the span-derived metrics.

Which end-to-end metric each number should move is tabulated in
README.md ("What should move what").
"""

from __future__ import annotations

import cProfile
import pstats
import statistics
import threading
from time import perf_counter_ns as now
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from repro import Repository
from repro.encoding.binary import decode_bytes, encode_bytes
from repro.hashing.chunker import ContentDefinedChunker
from repro.hashing.digest import Digest, default_hash_function
from repro.server import protocol
from repro.server.client import RemoteRepository

import tracing
from scenarios import Outcome, Run, slice_rate
from workloads import VALUE_BYTES, dataset_rng, key_of, rng_for

LADDER_GETS = 3000


def mean_ns(function: Callable[[bytes], object], keys: Sequence[bytes]) -> float:
    started = now()
    for key in keys:
        function(key)
    return (now() - started) / len(keys)


def paired_mean_ns(first: Callable[[bytes], object], second: Callable[[bytes], object],
                   keys: Sequence[bytes]) -> Tuple[float, float]:
    """Mean time of two ways to do the same read, key by key and taking
    turns at going first, so that neither always finds the nodes warm."""
    totals = [0, 0]
    for number, key in enumerate(keys):
        for which in ((0, 1) if number % 2 else (1, 0)):
            started = now()
            (first, second)[which](key)
            totals[which] += now() - started
    return totals[0] / len(keys), totals[1] / len(keys)


def call_counts(work: Callable[[], None], functions: Iterable[Callable]) -> List[int]:
    """Exact number of calls of each of ``functions`` while ``work`` runs."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        work()
    finally:
        profiler.disable()
    calls: Dict[tuple, int] = {}
    for (filename, line, name), (_cc, total_calls, *_rest) in pstats.Stats(profiler).stats.items():
        calls[(filename, line, name)] = total_calls
    counts = []
    for function in functions:
        code = function.__code__
        count = calls.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        if count == 0:
            # Renamed, inlined or bypassed: a count of 0 would read as a gain.
            raise RuntimeError(f"{function.__qualname__} was never called under the profiler; "
                               f"the metric counting its calls needs a new definition")
        counts.append(count)
    return counts


# ---------------------------------------------------------------------------
# live measurements
# ---------------------------------------------------------------------------

def live_read_inproc(run: Run, outcome: Outcome) -> None:
    repos, keys, records = (outcome.handles[name] for name in ("repos", "keys", "records"))
    layers = outcome.layers
    ladder_keys = keys[:LADDER_GETS]
    pos = repos["pos"]
    snapshot = pos.default_branch.snapshot()
    layers["indexes.pos.height"] = snapshot.shards[0].height()

    get = pos.default_branch.get
    decodes, digests = call_counts(lambda: [get(key) for key in ladder_keys],
                                   (decode_bytes, Digest.__init__))
    layers["encoding.decode_calls_per_get"] = decodes / len(ladder_keys)
    layers["hashing.digest_ctor_per_get"] = digests / len(ladder_keys)

    # Public codec and hash functions on what real nodes are made of:
    # keys, values, child digests, and whole node serializations.
    store = snapshot.shards[0].index.store
    node_digests = sorted(snapshot.shards[0].node_digests())[:200]
    nodes = [store.get(digest) for digest in node_digests]
    fields = [digest.raw for digest in node_digests]
    for key in sorted(records)[:200]:
        fields += [key, records[key]]
    encoded = [encode_bytes(value) for value in fields]
    repeats = 20
    started = now()
    for _ in range(repeats):
        for value in fields:
            encode_bytes(value)
    layers["encoding.encode_bytes_ns"] = (now() - started) / (repeats * len(fields))
    started = now()
    for _ in range(repeats):
        for value in encoded:
            decode_bytes(value)
    layers["encoding.decode_bytes_ns"] = (now() - started) / (repeats * len(encoded))
    hash_function = default_hash_function()
    started = now()
    for _ in range(repeats):
        for node in nodes:
            hash_function.hash(node)
    layers["hashing.hash_1k_ns"] = ((now() - started) * 1024
                                    / (repeats * sum(len(node) for node in nodes)))

    # The ladder, on untraced repositories so that spans do not widen the rungs.
    plain = Repository.open(num_shards=1)
    run.defer(plain.close)
    plain.import_data(records)
    branch = plain.default_branch
    # What ShardEngine.lookup_at(root, key) executes: the index's own lookup.
    shard = branch.snapshot().shards[0]
    lookup, root = shard.index.lookup, shard.root_digest
    for key in ladder_keys[:300]:
        branch.get(key)
    engine_ns, api_ns = paired_mean_ns(lambda key: lookup(root, key), branch.get, ladder_keys)
    layers["service.engine.lookup_us"] = engine_ns / 1e3
    layers["api.get_overhead_us"] = (api_ns - engine_ns) / 1e3
    forked = Repository.open(num_shards=1, backend="process")
    run.defer(forked.close)
    forked.import_data(records)
    remote_branch = forked.default_branch
    for key in ladder_keys[:300]:
        remote_branch.get(key)
    layers["service.process.get_overhead_us"] = (
        mean_ns(remote_branch.get, ladder_keys) - api_ns) / 1e3


def live_durable_update(run: Run, outcome: Outcome) -> None:
    """Exact call counts of the write path, on the recovered crash copy."""
    repo, records = outcome.handles["repo"], outcome.handles["records"]
    main = repo.default_branch
    rng = dataset_rng("durable-profile")
    commits, per_commit = 5, run.sizes.commit_every

    def work() -> None:
        for number in range(commits):
            for _ in range(per_commit):
                main.put(key_of(rng.randrange(records)), rng.randbytes(VALUE_BYTES))
            main.commit(f"profiled {number}")

    hashed, direct, encodes = call_counts(work, (
        ContentDefinedChunker._item_fingerprint_hash,
        ContentDefinedChunker._item_fingerprint_direct, encode_bytes))
    puts = commits * per_commit
    outcome.layers["hashing.chunker_items_per_put"] = (hashed + direct) / puts
    outcome.layers["encoding.encode_calls_per_put"] = encodes / puts


def live_wire_mixed(run: Run, outcome: Outcome) -> None:
    remote, keys = outcome.handles["remote"], outcome.handles["keys"]
    layers = outcome.layers
    pings = []
    for _ in range(300):
        started = now()
        remote.ping()
        pings.append(now() - started)
    layers["server.ping_us"] = statistics.median(pings) / 1e3

    request = protocol.Request(op=protocol.Op.GET, request_id=7, key=keys[0])
    response = protocol.Response(status=protocol.Status.OK, op=protocol.Op.GET,
                                 request_id=7, value=bytes(VALUE_BYTES))
    repeats = 2000
    started = now()
    for _ in range(repeats):
        protocol.decode_request(protocol.encode_request(request))
        protocol.decode_response(protocol.encode_response(response))
    layers["server.protocol.encode_decode_us"] = (now() - started) / repeats / 1e3

    # Gets per second with one connection, then with two at once.
    def get_rate(connections: int) -> float:
        remotes = [RemoteRepository("127.0.0.1", remote.port, pool_size=1)
                   for _ in range(connections)]
        ends: List[List[int]] = [[] for _ in remotes]
        barrier = threading.Barrier(connections + 1)

        def loop(number: int) -> None:
            client = remotes[number]
            client.ping()
            barrier.wait()
            for key in keys:
                client.get(key)
                ends[number].append(now())

        threads = [threading.Thread(target=loop, args=(number,)) for number in range(connections)]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = now()
        for thread in threads:
            thread.join()
        for client in remotes:
            client.close()
        return slice_rate([end for client in ends for end in client], started)

    layers["server.scaling_1_to_2"] = get_rate(2) / get_rate(1)


def live_version_collab(run: Run, outcome: Outcome) -> None:
    repo, records = outcome.handles["repo"], outcome.handles["records"]
    snapshot = repo.default_branch.snapshot()
    rng = rng_for(run.seed, "proofs")
    prove_ns = verify_ns = size = 0
    count = 200
    for _ in range(count):
        key = key_of(rng.randrange(records))
        shard = snapshot.shards[repo.service.shard_of(key)]
        started = now()
        proof = shard.prove(key)
        proved = now()
        ok = proof.verify(shard.root_digest)
        verify_ns += now() - proved
        prove_ns += proved - started
        size += proof.proof_size_bytes()
        outcome.check(ok and proof.value is not None)
    outcome.layers["core.proof.prove_us"] = prove_ns / count / 1e3
    outcome.layers["core.proof.verify_us"] = verify_ns / count / 1e3
    outcome.layers["core.proof.size_bytes"] = size / count


LIVE = {"read_inproc": live_read_inproc, "durable_update": live_durable_update,
        "wire_mixed": live_wire_mixed, "version_collab": live_version_collab}


def live(run: Run, outcome: Outcome) -> None:
    LIVE[outcome.workload](run, outcome)


# ---------------------------------------------------------------------------
# from spans to metrics
# ---------------------------------------------------------------------------

def is_store_call(span: tracing.Span, verb: str) -> bool:
    return span[2].startswith("storage.") and span[2].endswith(verb)


def index_store_calls(spans: List[tracing.Span], below: List[tracing.Span],
                      verb: str) -> List[tracing.Span]:
    """The store calls among ``below`` that an index issued itself (a
    cache's own read of its backing store on a miss is not one)."""
    index_ids = {span[0] for span in spans if span[2].startswith("indexes.")}
    return [span for span in below if is_store_call(span, verb) and span[1] in index_ids]


def mean_us(spans: Sequence[tracing.Span]) -> float:
    return tracing.duration_ns(spans) / max(1, len(spans)) / 1e3


def settle_ledger(run: Run, outcome: Outcome) -> None:
    """The five self times per operation, their coverage of the wall
    clock (below 0.9 the spans miss work, above 1.1 they double-count)
    and what tracing itself cost."""
    handles = outcome.handles
    totals = dict(tracing.layer_self_ns(outcome.spans))
    below = handles.get("server_self_ns")
    if below:
        # The clients' spans end at the socket; the server process says
        # how much of that time it spent below its own layer, and where.
        # What is left of the round trips is the server layer's own.
        totals["server"] = totals.get("server", 0) - sum(below.values())
        for layer, value in below.items():
            totals[layer] = totals.get(layer, 0) + value
    wall_ns, ops = handles["wall_ns"], handles["ops"]
    for layer in tracing.LAYERS:
        outcome.layers[f"{layer}.self_us_per_op"] = totals.get(layer, 0) / 1e3 / ops
    outcome.layers["ledger.coverage"] = sum(totals.values()) / wall_ns
    if run.untraced_wall_s:
        outcome.layers["trace.overhead_share"] = outcome.wall_s / run.untraced_wall_s - 1.0


def settle_read_inproc(run: Run, outcome: Outcome) -> None:
    spans = outcome.spans
    for family in ("pos", "mpt", "mbt"):
        lookups = tracing.by_name(spans, f"indexes.{family}.lookup")
        reads = index_store_calls(spans, tracing.descendants(spans, lookups), ".get")
        outcome.layers[f"indexes.{family}.lookup_us"] = mean_us(lookups)
        outcome.layers[f"indexes.{family}.nodes_read_per_lookup"] = len(reads) / max(1, len(lookups))


def settle_durable_update(run: Run, outcome: Outcome) -> None:
    spans, layers, handles = outcome.spans, outcome.layers, outcome.handles
    keys, commits = handles["keys_written"], handles["commits"]
    writes = tracing.top_level(spans, "indexes.pos")
    writes = [span for span in writes if span[2].startswith("indexes.pos.write")]
    below = tracing.descendants(spans, writes)
    layers["indexes.pos.write_us_per_key"] = tracing.duration_ns(writes) / 1e3 / keys
    layers["indexes.pos.nodes_read_per_written_key"] = len(index_store_calls(spans, below, ".get")) / keys
    layers["indexes.pos.nodes_written_per_key"] = len(index_store_calls(spans, below, ".put")) / keys
    layers["hashing.hash_calls_per_put"] = len(tracing.by_name(below, "hashing.hash")) / keys
    cache_gets = tracing.by_name(spans, "storage.cache.get")
    missed = {span[1] for span in spans if span[2] in ("storage.segment.get", "storage.memory.get")}
    layers["storage.cache.get_us"] = mean_us([s for s in cache_gets if s[0] not in missed])
    layers["storage.segment.get_us"] = mean_us(tracing.by_name(spans, "storage.segment.get"))
    flushes = tracing.by_name(spans, "storage.segment.flush")
    layers["storage.segment.flush_ms"] = tracing.duration_ns(flushes) / 1e6 / commits
    layers["storage.fsyncs_per_commit"] = len(tracing.by_name(spans, "storage.fsync")) / commits
    layers["storage.bytes_written_per_commit"] = outcome.counts["bytes_stored"] / commits
    layers["storage.nodes_written_per_commit"] = sum(span[5] for span in flushes) / commits
    commit_spans = tracing.by_name(spans, "api.commit")
    inside = tracing.descendants(spans, commit_spans)
    accounted = tracing.duration_ns(tracing.top_level(inside, "indexes")) + tracing.duration_ns(
        tracing.by_name(inside, "storage.segment.flush"))
    layers["service.commit_overhead_ms"] = (
        (tracing.duration_ns(commit_spans) - accounted) / 1e6 / max(1, len(commit_spans)))


def settle_wire_mixed(run: Run, outcome: Outcome) -> None:
    outcome.layers["server.roundtrip_overhead_us"] = (
        outcome.metrics["get_p50_us"] - outcome.handles["inproc_get_p50_ns"] / 1e3)


def settle_version_collab(run: Run, outcome: Outcome) -> None:
    spans, layers, handles = outcome.spans, outcome.layers, outcome.handles
    rounds = handles["rounds"]
    diffs = tracing.by_name(spans, "api.diff")
    below = tracing.descendants(spans, diffs)
    layers["indexes.pos.diff_us_per_changed_key"] = (
        tracing.duration_ns(tracing.top_level(below, "indexes")) / 1e3
        / (rounds * handles["changed_keys"]))
    layers["indexes.pos.nodes_read_per_diff"] = len(index_store_calls(spans, below, ".get")) / rounds
    own = tracing.self_times(spans)
    merges = tracing.by_name(spans, "api.merge")
    layers["api.merge_self_ms"] = sum(own[span[0]] for span in merges) / 1e6 / max(1, len(merges))


SETTLE = {"read_inproc": settle_read_inproc, "durable_update": settle_durable_update,
          "wire_mixed": settle_wire_mixed, "version_collab": settle_version_collab}


def settle(run: Run, outcome: Outcome) -> None:
    settle_ledger(run, outcome)
    SETTLE[outcome.workload](run, outcome)
