"""The four workloads of the SIRI ledger benchmark.

Each ``run_<workload>(run)`` sets the system up (``sizes.setups`` times,
``setup_s`` is the median), warms it, runs a fixed list of operations
with a latency sample per call, and checks every answer against a shadow
dict.  The functions are the same at bench size, at tiny size and under
tracing: tracing only swaps the handles for the proxies of
:mod:`tracing`, it adds no branch here.

Why these four — see README.md, "Workloads".
"""

from __future__ import annotations

import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter_ns as now
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import Repository
from repro.core.errors import ReproError
from repro.indexes import MerkleBucketTree, MerklePatriciaTrie, POSTree
from repro.server.client import RemoteRepository

import tracing
import workloads
from workloads import RECORD_BYTES, VALUE_BYTES, Sizes, key_of, rng_for

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Run:
    """One execution of one workload."""

    seed: int
    sizes: Sizes
    out_dir: str
    tracer: Optional[tracing.Tracer] = None
    #: Wall time of the same operations with tracing off (traced runs only).
    untraced_wall_s: Optional[float] = None
    #: Traced runs: called with the outcome once the timed phase is over,
    #: while everything the workload opened is still open (layers.py).
    after_timed: Optional[Callable[["Run", "Outcome"], None]] = None
    #: Everything opened during set-up; :meth:`close` releases it in
    #: reverse order.  Keeps the three throw-away set-ups from leaking.
    _cleanup: List[Callable[[], None]] = field(default_factory=list)

    def defer(self, release: Callable[[], None]) -> None:
        self._cleanup.append(release)

    def close(self) -> None:
        while self._cleanup:
            self._cleanup.pop()()

    def mark(self) -> int:
        return self.tracer.mark() if self.tracer is not None else 0

    def finish_traced(self, outcome: "Outcome", mark: int, end: int, **handles) -> None:
        """Hand the timed phase's spans and handles to :attr:`after_timed`."""
        if self.tracer is not None:
            outcome.spans = self.tracer.spans[mark:end]
            outcome.handles = handles
            if self.after_timed is not None:
                self.after_timed(self, outcome)

    def scratch(self, name: str) -> str:
        """A fresh directory under ``out/tmp`` removed by :meth:`close`."""
        path = os.path.join(self.out_dir, "tmp", f"{name}-{os.getpid()}")
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        self.defer(partial(shutil.rmtree, path, ignore_errors=True))
        return path


@dataclass
class Outcome:
    """What one workload execution measured."""

    workload: str
    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    roots: Dict[str, str] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    wall_s: float = 0.0
    #: Traced runs: spans of the timed phase, kept for layers.py.
    spans: List[tracing.Span] = field(default_factory=list)
    #: What layers.py measures on after the timed phase (traced runs).
    handles: Dict[str, object] = field(default_factory=dict)

    def check(self, ok: bool) -> None:
        """Count one verified answer; a wrong one is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


#: A timed phase is cut into this many equal slices and the run reports
#: the median slice.  The sandbox stalls for a second or two now and then:
#: a stall lands in one slice or two and leaves the median where it was,
#: while anything the program does to most of its operations moves it.
SLICES = 5


def slice_rate(ends_ns: Sequence[int], start_ns: int) -> float:
    """Operations per second: the median over ``SLICES`` equal runs of the
    completion times."""
    ordered = sorted(ends_ns)
    slices = max(1, min(SLICES, len(ordered)))
    rates = []
    previous_end, previous_index = start_ns, 0
    for number in range(1, slices + 1):
        index = len(ordered) * number // slices
        end = ordered[index - 1]
        rates.append((index - previous_index) * 1e9 / max(1, end - previous_end))
        previous_end, previous_index = end, index
    return statistics.median(rates)


def slice_percentile(samples: Sequence[float], share: float, per_slice: int) -> float:
    """A tail percentile: the median over up to ``SLICES`` consecutive runs
    of the samples, each of at least ``per_slice`` (fewer samples: one run,
    the plain percentile — a tail read off a short run is noise itself)."""
    slices = max(1, min(SLICES, len(samples) // per_slice))
    size = len(samples) / slices
    return statistics.median(
        percentile(samples[round(number * size):round((number + 1) * size)], share)
        for number in range(slices))


def timed_setups(run: Run, setup: Callable[[], object]):
    """Run ``setup`` ``sizes.setups`` times, keeping only the last state."""
    seconds = []
    state = None
    gc.unfreeze()
    for _ in range(run.sizes.setups):
        run.close()
        state = None
        gc.collect()  # the previous set-up's cycles, so peak RSS is one dataset's
        started = now()
        state = setup()
        seconds.append((now() - started) / 1e9)
    # Everything alive now is the loaded dataset: keep the collector from
    # re-scanning it during the timed phase.
    gc.collect()
    gc.freeze()
    return state, statistics.median(seconds)


def index_factory(run: Run, index_class: type, family: str, **index_kwargs):
    """``index_class`` as the service wants it; traced when ``run`` is."""
    if run.tracer is not None:
        return tracing.traced_index_factory(index_class, run.tracer, family,
                                            **index_kwargs)
    return partial(index_class, **index_kwargs) if index_kwargs else index_class


def open_repo(run: Run, index_class: type = POSTree, family: str = "pos",
              directory: Optional[str] = None, index_kwargs: Optional[dict] = None,
              **repo_kwargs) -> Repository:
    repo = Repository.open(
        directory, index_factory=index_factory(run, index_class, family,
                                               **(index_kwargs or {})),
        **repo_kwargs)
    run.defer(repo.close)
    return repo


def branch_of(run: Run, repo: Repository):
    """The default branch, behind the ``api.*`` proxy when tracing."""
    branch = repo.default_branch
    return tracing.TracedBranch(branch, run.tracer) if run.tracer else branch


def mbt_capacity(records: int) -> int:
    """About twelve records per bucket, as the issue's 16 384 at 200 000."""
    return max(64, 2 ** round(math.log2(records / 12.2)))


def timed_gets(get: Callable[[bytes], Optional[bytes]], keys: Sequence[bytes],
               oracle: Dict[bytes, bytes], outcome: Outcome) -> Tuple[List[int], int]:
    """Get every key, each answer checked: the latency of every call and
    the time the whole loop took."""
    latencies: List[int] = []
    lookup = oracle.get
    started = after = now()
    for key in keys:
        before = now()
        value = get(key)
        after = now()
        latencies.append(after - before)
        outcome.check(value == lookup(key))
    return latencies, after - started


def latency_metrics(outcome: Outcome, latencies_ns: Sequence[int]) -> None:
    outcome.metrics["get_p50_us"] = statistics.median(latencies_ns) / 1e3
    outcome.metrics["get_p99_us"] = slice_percentile(latencies_ns, 0.99, per_slice=1000) / 1e3
    outcome.counts["get_samples"] = len(latencies_ns)


# ---------------------------------------------------------------------------
# read_inproc
# ---------------------------------------------------------------------------

def run_read_inproc(run: Run) -> Outcome:
    """Point reads on all three index families, nothing else in the way."""
    sizes, outcome = run.sizes, Outcome("read_inproc")
    families = (
        ("pos", POSTree, {}),
        ("mpt", MerklePatriciaTrie, {}),
        ("mbt", MerkleBucketTree, {"capacity": mbt_capacity(sizes.records), "fanout": 4}),
    )

    def setup():
        records = workloads.make_records(sizes.records)
        repos = {}
        for family, index_class, index_kwargs in families:
            repos[family] = open_repo(run, index_class, family, num_shards=1,
                                      index_kwargs=index_kwargs)
            repos[family].import_data(records)
        return records, repos

    (records, repos), outcome.metrics["setup_s"] = timed_setups(run, setup)
    branches = {family: branch_of(run, repo) for family, repo in repos.items()}
    warmup = workloads.zipf_get_stream(run.seed, "read-warmup", sizes.warmup_ops, sizes.records)
    keys = workloads.zipf_get_stream(run.seed, "read", sizes.ops, sizes.records)
    for branch in branches.values():
        for key in warmup:
            branch.get(key)

    # The families take turns, a slice of the key stream each, so that a
    # stall of a second or two cannot fall on one family alone.
    rates: Dict[str, List[float]] = {family: [] for family in branches}
    pos_latencies: List[int] = []
    mark = run.mark()
    phase_started = now()
    for number in range(SLICES):
        chunk = keys[len(keys) * number // SLICES:len(keys) * (number + 1) // SLICES]
        for family, branch in branches.items():
            latencies, elapsed_ns = timed_gets(branch.get, chunk, records, outcome)
            rates[family].append(len(chunk) * 1e9 / elapsed_ns)
            if family == "pos":
                pos_latencies += latencies
    wall_ns = now() - phase_started
    latency_metrics(outcome, pos_latencies)
    for family, name in (("pos", "ops_per_s"), ("mpt", "mpt_ops_per_s"), ("mbt", "mbt_ops_per_s")):
        outcome.metrics[name] = statistics.median(rates[family])
    end_mark = run.mark()
    outcome.wall_s = wall_ns / 1e9

    for family, repo in repos.items():
        outcome.roots[family] = repo.default_branch.head.digest.hex
    outcome.counts.update(records=sizes.records, gets_per_family=len(keys))
    outcome.metrics["peak_rss_mb"] = workloads.peak_rss_mb()
    run.finish_traced(outcome, mark, end_mark, repos=repos, keys=keys, records=records,
                      wall_ns=wall_ns, ops=3 * len(keys))
    return outcome


# ---------------------------------------------------------------------------
# durable_update
# ---------------------------------------------------------------------------

def segment_bytes(path: str) -> int:
    """Bytes of every segment file under ``path``.  The commit journal is
    left out: its lines carry wall-clock timestamps of varying width,
    which would make an exact count differ from run to run."""
    total = 0
    for root, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, name)) for name in files
                     if not name.endswith(".jsonl"))
    return total


def run_durable_update(run: Run) -> Outcome:
    """Half reads, half writes, a commit every ``commit_every`` operations,
    on segment files with fsync and a cache smaller than the working set."""
    sizes, outcome = run.sizes, Outcome("durable_update")
    # 10 bytes of cache per record and shard: 2 MiB at the issue's 200 000
    # records, always about a third of the node bytes over all four shards.
    repo_kwargs = {"num_shards": 4, "cache_bytes": sizes.records * 10}

    def setup():
        records = workloads.make_records(sizes.records)
        directory = run.scratch("durable")
        repo = open_repo(run, directory=directory, **repo_kwargs)
        repo.import_data(records)
        return records, directory, repo

    (oracle, directory, repo), outcome.metrics["setup_s"] = timed_setups(run, setup)
    main = branch_of(run, repo)
    rng = rng_for(run.seed, "durable-ops")
    for _ in range(sizes.warmup_ops):
        main.get(key_of(rng.randrange(sizes.records)))

    # Between two commits: as many puts as gets.  The puts are the
    # dataset's (workloads.dataset_rng), so every seed commits the same
    # trees; the seed draws the keys read and where the reads fall.
    script = workloads.dataset_rng("durable-edits")
    plan: List[Tuple[bytes, Optional[bytes]]] = []
    for start in range(0, sizes.ops, sizes.commit_every):
        window = min(sizes.commit_every, sizes.ops - start)
        edits = [(key_of(script.randrange(sizes.records)), script.randbytes(VALUE_BYTES))
                 for _ in range(window // 2)]
        reads = set(rng.sample(range(window), window - len(edits)))
        plan += [(key_of(rng.randrange(sizes.records)), None) if slot in reads else edits.pop()
                 for slot in range(window)]
    stored_before = repo.storage_bytes()
    cache_before = repo.metrics().cache
    get_ns: List[int] = []
    commit_ns: List[int] = []
    ends: List[int] = []
    written: Dict[bytes, bytes] = {}
    puts = 0
    mark = run.mark()
    started = now()
    for number, (key, value) in enumerate(plan, 1):
        if value is None:
            before = now()
            answer = main.get(key)
            after = now()
            get_ns.append(after - before)
            outcome.check(answer == oracle[key])
        else:
            main.put(key, value)
            after = now()
            oracle[key] = written[key] = value
            puts += 1
            outcome.attempted += 1
        ends.append(after)
        if number % sizes.commit_every == 0 or number == len(plan):
            before = now()
            main.commit(f"batch {number}")
            after = now()
            commit_ns.append(after - before)
            ends.append(after)
            outcome.attempted += 1
    wall_ns = now() - started
    end_mark = run.mark()
    outcome.wall_s = wall_ns / 1e9

    stored = repo.storage_bytes() - stored_before
    cache_after = repo.metrics().cache
    outcome.metrics["ops_per_s"] = slice_rate(ends, started)
    latency_metrics(outcome, get_ns)
    outcome.metrics["commit_p50_ms"] = statistics.median(commit_ns) / 1e6
    outcome.metrics["commit_p90_ms"] = percentile(commit_ns, 0.90) / 1e6
    outcome.metrics["write_amp"] = stored / (puts * RECORD_BYTES)
    outcome.metrics["space_amp"] = segment_bytes(directory) / (sizes.records * RECORD_BYTES)
    outcome.metrics["peak_rss_mb"] = workloads.peak_rss_mb()
    outcome.roots["pos"] = repo.default_branch.head.digest.hex
    outcome.counts.update(records=sizes.records, gets=len(get_ns), puts=puts,
                          commits=len(commit_ns), bytes_stored=stored)
    hits = cache_after.hits - cache_before.hits
    misses = cache_after.misses - cache_before.misses
    outcome.layers["storage.cache.hit_ratio"] = hits / max(1, hits + misses)
    # A crash: copy the files as they are, no close(), and recover the copy.
    copy = run.scratch("durable-crash")
    shutil.rmtree(copy)
    shutil.copytree(directory, copy)
    before = now()
    recovered = Repository.open(copy, **repo_kwargs)
    outcome.layers["storage.segment.recovery_s"] = (now() - before) / 1e9
    run.defer(recovered.close)
    survivor = recovered.default_branch
    untouched = rng_for(run.seed, "durable-recheck")
    sample = [key_of(untouched.randrange(sizes.records)) for _ in range(1000)]
    for key in list(written) + sample:
        outcome.check(survivor.get(key) == oracle[key])
    outcome.check(survivor.head.digest.hex == outcome.roots["pos"])
    run.finish_traced(outcome, mark, end_mark, repo=recovered, records=sizes.records,
                      wall_ns=wall_ns, ops=len(ends), keys_written=puts,
                      commits=len(commit_ns))
    return outcome


# ---------------------------------------------------------------------------
# wire_mixed
# ---------------------------------------------------------------------------

class ServerProcess:
    """The benchmark-owned server (``server_boot.py``) as a child process."""

    def __init__(self, run: Run, inproc_gets: int):
        config = {"seed": run.seed, "records": run.sizes.records,
                  "traced": run.tracer is not None, "inproc_gets": inproc_gets}
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server_boot.py"), json.dumps(config)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        ready = self.process.stdout.readline()
        if not ready:
            self.process.wait()
            raise RuntimeError("the benchmark's server process did not start")
        self.port = json.loads(ready)["ready"]
        self.report: Optional[dict] = None

    def ask(self, command: str) -> dict:
        """``mark`` / ``self-times``: see server_boot.py."""
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()
        return json.loads(self.process.stdout.readline())

    def stop(self) -> dict:
        """Ask for a graceful drain, collect the server's report, reap it."""
        if self.report is None:
            try:
                out, _ = self.process.communicate("stop\n", timeout=120)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.communicate()
                raise
            lines = [line for line in out.splitlines() if line.strip()]
            self.report = json.loads(lines[-1]) if lines else {}
        return self.report


def wire_plan(run: Run, client: int) -> List[Tuple[bytes, Optional[bytes]]]:
    """Client ``client``'s requests.  Writes go only to keys of the
    client's own parity, so no two clients ever write one key and the
    final state does not depend on how their requests interleave."""
    sizes = run.sizes
    rng = rng_for(run.seed, f"wire-client-{client}")
    sampler = workloads.ZipfSampler(sizes.records, rng)
    plan = []
    for _ in range(sizes.ops):
        index = sampler.index()
        if rng.random() < 0.05:
            index = index - index % sizes.clients + client
            if index >= sizes.records:
                index -= sizes.clients
            plan.append((key_of(index), rng.randbytes(VALUE_BYTES)))
        else:
            if rng.random() < 0.05:
                index += sizes.records
            plan.append((key_of(index), None))
    return plan


def run_wire_mixed(run: Run) -> Outcome:
    """Two closed-loop clients against the server process over loopback."""
    sizes, outcome = run.sizes, Outcome("wire_mixed")
    records = workloads.make_records(sizes.records)
    warmup = workloads.zipf_get_stream(run.seed, "wire-warmup", sizes.warmup_ops, sizes.records)

    def setup():
        server = ServerProcess(run, inproc_gets=len(warmup))
        run.defer(server.stop)
        remotes = []
        for _ in range(sizes.clients):
            remote = RemoteRepository("127.0.0.1", server.port, pool_size=1)
            run.defer(remote.close)
            remote.ping()
            remotes.append(remote)
        return server, remotes

    (server, remotes), outcome.metrics["setup_s"] = timed_setups(run, setup)
    clients = [tracing.SpanProxy(remote, run.tracer, "wire") if run.tracer else remote
               for remote in remotes]
    for key in warmup:
        clients[0].get(key)

    plans = [wire_plan(run, client) for client in range(sizes.clients)]
    # What a get may legitimately return: the loaded value, or anything the
    # key's single writer has put so far (exactly the latest, for the
    # writer's own reads).
    history: Dict[bytes, List[bytes]] = {}
    for plan in plans:
        for key, value in plan:
            if value is not None:
                history.setdefault(key, []).append(value)

    # Client 0 also commits; short runs still get four commit samples.
    commit_every = max(1, min(sizes.wire_commit_every, sizes.ops // 4))
    results = [dict(get_ns=[], put_ns=[], commit_ns=[], ends=[], attempted=0,
                    failed=0, busy=0) for _ in clients]
    barrier = threading.Barrier(len(clients) + 1)

    def client_loop(number: int) -> None:
        client, plan, result = clients[number], plans[number], results[number]
        latest: Dict[bytes, bytes] = {}
        barrier.wait()
        loop_started = now()
        for count, (key, value) in enumerate(plan, 1):
            result["attempted"] += 1
            try:
                before = now()
                if value is None:
                    answer = client.get(key)
                    after = now()
                    result["get_ns"].append(after - before)
                    if key in latest:
                        ok = answer == latest[key]
                    else:
                        ok = answer == records.get(key) or answer in history.get(key, ())
                    result["failed"] += not ok
                else:
                    client.put(key, value)
                    after = now()
                    result["put_ns"].append(after - before)
                    latest[key] = value
                result["ends"].append(after)
                if number == 0 and count % commit_every == 0:
                    result["attempted"] += 1
                    before = now()
                    client.commit(f"client 0 at {count}")
                    after = now()
                    result["commit_ns"].append(after - before)
                    result["ends"].append(after)
            except ReproError:  # BUSY or an error frame: refused, not crashed
                result["failed"] += 1
                result["busy"] += 1
        result["loop_ns"] = now() - loop_started
        result["latest"] = latest

    mark = run.mark()
    server.ask("mark")
    threads = [threading.Thread(target=client_loop, args=(number,))
               for number in range(len(clients))]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = now()
    for thread in threads:
        thread.join()
    wall_ns = now() - started
    end_mark = run.mark()
    server_self_ns = server.ask("self-times")
    outcome.wall_s = wall_ns / 1e9

    final = clients[0].commit("final")
    expected = dict(records)
    for result in results:
        expected.update(result["latest"])
    touched = sorted(key for result in results for key in result["latest"])
    for offset in range(0, len(touched), 500):
        batch = touched[offset:offset + 500]
        for key, answer in zip(batch, remotes[0].get_many(batch)):
            outcome.check(answer == expected[key])

    ends = [end for result in results for end in result["ends"]]
    get_ns = [value for result in results for value in result["get_ns"]]
    put_ns = [value for result in results for value in result["put_ns"]]
    outcome.attempted += sum(result["attempted"] for result in results)
    outcome.failed += sum(result["failed"] for result in results)
    outcome.metrics["ops_per_s"] = slice_rate(ends, started)
    latency_metrics(outcome, get_ns)
    outcome.metrics["commit_p50_ms"] = statistics.median(results[0]["commit_ns"]) / 1e6
    outcome.counts.update(records=sizes.records, requests=len(ends), gets=len(get_ns),
                          puts=len(put_ns), commits=len(results[0]["commit_ns"]),
                          clients=len(clients))
    outcome.layers["server.put_p50_us"] = statistics.median(put_ns) / 1e3
    outcome.layers["server.busy_share"] = (
        sum(result["busy"] for result in results) / max(1, len(ends)))

    run.finish_traced(outcome, mark, end_mark, remote=remotes[0], keys=warmup,
                      wall_ns=sum(r["loop_ns"] for r in results), ops=len(ends),
                      server_self_ns=server_self_ns)
    report = server.stop()
    outcome.check(report["root"] == final.digest.hex())
    outcome.roots["pos"] = report["root"]
    outcome.metrics["peak_rss_mb"] = report["peak_rss_mb"]
    outcome.layers["server.peak_queue_depth"] = report["peak_queue_depth"]
    outcome.counts["server_rejected_busy"] = report["rejected_busy"]
    outcome.handles["inproc_get_p50_ns"] = report["inproc_get_p50_ns"]
    return outcome


# ---------------------------------------------------------------------------
# version_collab
# ---------------------------------------------------------------------------

def dedup_ratio(repo: Repository, heads: Sequence[str]) -> float:
    """The paper's deduplication ratio over ``heads`` (section 4.2):
    1 - bytes(union of the page sets) / sum of bytes(each page set)."""
    union: Dict[object, int] = {}
    total = 0
    for name in heads:
        for shard in repo.branch(name).snapshot().shards:
            store = shard.index.store
            for digest in shard.node_digests():
                size = union.get(digest)
                if size is None:
                    size = union[digest] = store.size_of(digest)
                total += size
    return 1.0 - sum(union.values()) / total


def run_version_collab(run: Run) -> Outcome:
    """Fork, edit, commit, diff, merge and exchange, round after round."""
    sizes, outcome = run.sizes, Outcome("version_collab")
    rounds = sizes.ops

    def setup():
        records = workloads.make_records(sizes.records)
        repo = open_repo(run, num_shards=4)
        repo.import_data(records)
        replica = Repository.open(num_shards=4)
        run.defer(replica.close)
        before = now()
        replica.sync(repo)
        outcome.layers["sync.full_s"] = (now() - before) / 1e9
        return records, repo, replica

    (oracle, repo, replica), outcome.metrics["setup_s"] = timed_setups(run, setup)
    main = branch_of(run, repo)
    sync = partial(replica.sync, repo)
    if run.tracer:
        sync = run.tracer.wrap("api.sync", sync)

    # Key ranges: a pool every round edits from (the paper's overlap), one
    # private stripe per round, one for main.  Disjoint, so merges are clean
    # and the expected diff is known exactly.  The edits are the dataset's:
    # every seed builds the same trees (the seed draws the read-back keys).
    script = workloads.dataset_rng("collab-edits")
    rng = rng_for(run.seed, "collab-checks")
    order = list(range(sizes.records))
    script.shuffle(order)
    pool = order[:sizes.pool_keys]
    shared = round(sizes.branch_edits * sizes.overlap)
    private = sizes.branch_edits - shared
    cursor = sizes.pool_keys

    def stripe(count: int) -> List[int]:
        nonlocal cursor
        taken = [order[(cursor + offset) % sizes.records] for offset in range(count)]
        cursor += count
        return taken

    samples: Dict[str, List[int]] = {name: [] for name in
                                     ("fork", "commit", "diff", "merge", "sync", "round")}
    sync_nodes = sync_bytes = 0
    stored_before = repo.storage_bytes()
    mark = run.mark()
    started = now()
    for number in range(rounds):
        round_started = now()
        user = main.fork(f"u{number}")
        samples["fork"].append(now() - round_started)
        edits = {key_of(index): script.randbytes(VALUE_BYTES)
                 for index in script.sample(pool, shared) + stripe(private)}
        for key, value in edits.items():
            user.put(key, value)
        before = now()
        user.commit(f"round {number}: user edits")
        samples["commit"].append(now() - before)
        own = {key_of(index): script.randbytes(VALUE_BYTES) for index in stripe(sizes.main_edits)}
        for key, value in own.items():
            main.put(key, value)
        before = now()
        main.commit(f"round {number}: main edits")
        samples["commit"].append(now() - before)

        before = now()
        difference = main.diff(user)
        samples["diff"].append(now() - before)
        expected = {key: (oracle[key], value) for key, value in edits.items()}
        expected.update({key: (value, oracle[key]) for key, value in own.items()})
        oracle.update(own)
        found = {entry.key: (entry.left, entry.right) for entry in difference}
        outcome.check(found == expected)

        before = now()
        merged = main.merge(user, resolver="theirs")
        samples["merge"].append(now() - before)
        oracle.update(edits)
        outcome.check(sorted(merged.merged_keys) == sorted(edits))

        before = now()
        report = sync()
        samples["sync"].append(now() - before)
        sync_nodes += report.total_nodes
        sync_bytes += report.total_bytes
        samples["round"].append(now() - round_started)

        # The merged state, read back through the API.
        for key in rng.sample(sorted(edits), min(sizes.check_gets, len(edits))):
            outcome.check(main.get(key) == oracle[key])
        outcome.attempted += len(edits) + len(own) + 5  # puts, 2 commits, fork, merge, sync
    wall_ns = now() - started
    end_mark = run.mark()
    outcome.wall_s = wall_ns / 1e9

    edits_merged = rounds * sizes.branch_edits
    user_bytes = rounds * (sizes.branch_edits + sizes.main_edits) * RECORD_BYTES
    stored = repo.storage_bytes() - stored_before
    # The rounds are this workload's slices.
    outcome.metrics["ops_per_s"] = sizes.branch_edits * 1e9 / statistics.median(samples["round"])
    outcome.metrics["commit_p50_ms"] = statistics.median(samples["commit"]) / 1e6
    for name in ("diff", "merge", "sync"):
        outcome.metrics[f"{name}_p50_ms"] = statistics.median(samples[name]) / 1e6
    heads = ["main"] + [f"u{number}" for number in range(rounds)][-sizes.dedup_heads:]
    outcome.metrics["dedup_ratio"] = dedup_ratio(repo, heads)
    outcome.metrics["write_amp"] = stored / user_bytes
    outcome.metrics["peak_rss_mb"] = workloads.peak_rss_mb()
    outcome.layers["api.fork_us"] = statistics.median(samples["fork"]) / 1e3
    outcome.layers["sync.nodes_moved_per_delta"] = sync_nodes / rounds
    outcome.layers["sync.bytes_moved_per_changed_byte"] = sync_bytes / user_bytes
    outcome.counts.update(records=sizes.records, rounds=rounds, edits_merged=edits_merged,
                          bytes_stored=stored, dedup_heads=len(heads),
                          sync_nodes=sync_nodes, sync_bytes=sync_bytes)

    # Both replicas must now hold exactly the shadow dict.
    outcome.check(repo.default_branch.snapshot().to_dict() == oracle)
    outcome.check(replica.default_branch.head.digest == repo.default_branch.head.digest)
    outcome.roots["pos"] = repo.default_branch.head.digest.hex
    run.finish_traced(outcome, mark, end_mark, repo=repo, records=sizes.records, rounds=rounds,
                      changed_keys=sizes.branch_edits + sizes.main_edits,
                      wall_ns=wall_ns, ops=edits_merged)
    return outcome


RUNNERS: Dict[str, Callable[[Run], Outcome]] = {
    "read_inproc": run_read_inproc,
    "durable_update": run_durable_update,
    "wire_mixed": run_wire_mixed,
    "version_collab": run_version_collab,
}
