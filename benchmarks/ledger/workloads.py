"""Seeded inputs, sizes and the result envelope of the SIRI ledger benchmark.

Everything a workload feeds the system is generated here with the standard
library only (``random`` plus the Zipf sampler below): a fixed dataset
(:func:`dataset_rng`) and, from ``--seed``, the clients' reads and requests;
``repro.workloads`` is deliberately not imported, so a change to the
library's own generators can never change what the benchmark measures.

Sizes are *operation counts*, not durations: the same seed and the same
``--seconds`` always give the same operations, the same roots and the
same exact-count metrics on both sides of a comparison.  ``--seconds`` is
turned into counts through :data:`SIZES`, which is calibrated so that a
run measures about that many seconds at the speeds of the commit that
added the benchmark.
"""

from __future__ import annotations

import math
import os
import platform
import random
import resource
import subprocess
from dataclasses import dataclass, replace
from typing import Dict, List

KEY_BYTES = 16
VALUE_BYTES = 100
#: Bytes of user data carried by one record (the base of write_amp/space_amp).
RECORD_BYTES = KEY_BYTES + VALUE_BYTES
ZIPF_THETA = 0.9
#: ``--seconds`` the bench counts in :data:`SIZES` were calibrated for.
BASE_SECONDS = 15

WORKLOADS = ("read_inproc", "durable_update", "wire_mixed", "version_collab")


@dataclass(frozen=True)
class Sizes:
    """Record and operation counts of one workload run."""

    records: int
    #: read_inproc: gets per index family.  durable_update: gets + puts.
    #: wire_mixed: requests per client.  version_collab: rounds.
    ops: int
    warmup_ops: int
    #: Fresh set-ups timed per run; ``setup_s`` is their median.
    setups: int
    # durable_update
    commit_every: int = 80
    # wire_mixed
    clients: int = 2
    wire_commit_every: int = 1000
    # version_collab
    branch_edits: int = 500
    main_edits: int = 100
    pool_keys: int = 2000
    overlap: float = 0.4
    dedup_heads: int = 8
    check_gets: int = 100

    def scaled(self, seconds: float) -> "Sizes":
        """The same workload measured for about ``seconds`` seconds."""
        ops = max(1, round(self.ops * seconds / BASE_SECONDS))
        return replace(self, ops=ops)


#: Sizes at ``--seconds 15``.  ``bench`` is what the driver runs: ISSUE 11's
#: operation counts, raised where today's speeds would otherwise leave a
#: workload under 15 s of measured work; the record count of the first
#: three is half the issue's 200 000, because 92 runs with three timed
#: set-ups each must fit 3 420 s.  ``tiny`` is for the smoke test (at
#: ``--seconds 1``) and for the cells a single-workload run fills in for
#: metrics it does not own (README, "One workload per run"): a second or
#: two per workload, flagged in the output, never compared with a bench run.
SIZES: Dict[str, Dict[str, Sizes]] = {
    "bench": {
        "read_inproc": Sizes(records=100_000, ops=60_000, warmup_ops=2_000, setups=3),
        "durable_update": Sizes(records=100_000, ops=10_000, warmup_ops=2_000, setups=3),
        "wire_mixed": Sizes(records=100_000, ops=20_000, warmup_ops=2_000, setups=3),
        "version_collab": Sizes(records=100_000, ops=30, warmup_ops=0, setups=3),
    },
    "tiny": {
        "read_inproc": Sizes(records=10_000, ops=12_000, warmup_ops=500, setups=1),
        "durable_update": Sizes(records=10_000, ops=4_800, warmup_ops=500, setups=1,
                                commit_every=40),
        "wire_mixed": Sizes(records=10_000, ops=2_400, warmup_ops=300, setups=1,
                            wire_commit_every=100),
        "version_collab": Sizes(records=10_000, ops=20, warmup_ops=0, setups=1,
                                branch_edits=100, main_edits=20, pool_keys=400,
                                check_gets=20),
    },
}


def sizes_for(workload: str, scale: str, seconds: float) -> Sizes:
    """Sizes of ``workload`` at ``scale``, measured for about ``seconds``."""
    return SIZES[scale][workload].scaled(seconds)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def rng_for(seed: int, purpose: str) -> random.Random:
    """An independent stream per (seed, purpose): adding a consumer of
    random numbers to one phase never shifts the inputs of another."""
    return random.Random(f"siri-ledger:{seed}:{purpose}")


def dataset_rng(purpose: str) -> random.Random:
    """A stream of the **dataset**, which does not follow ``--seed``: the
    corpus the repositories are loaded with, and the edit scripts of
    ``durable_update`` and ``version_collab`` (which keys are written, with
    what values, in which commit).

    On a content-defined tree the shape is a function of the content.
    Among ten corpora of 100 000 records the POS-Tree's height differed by
    a level and ``Branch.get`` throughput by 30 % (5 850 to 7 820 ops/s),
    and among ten seeded edit scripts ``write_amp`` and ``space_amp``
    spread 1 to 3.5 %, with not a line of code changed.  That is a
    property of the data; a benchmark that lets it vary cannot resolve a
    10 % timing regression, nor hold an exact count to 1 %.  ``--seed``
    draws everything else: which keys are read, how reads and writes
    interleave, and every request of the ``wire_mixed`` clients.
    """
    return random.Random(f"siri-ledger:{purpose}")


def key_of(index: int) -> bytes:
    """The 16-byte key of record ``index``."""
    return b"user%012d" % index


def make_records(count: int) -> Dict[bytes, bytes]:
    """The first ``count`` records of the corpus: 16-byte keys, random
    100-byte values (a tiny run loads a shorter prefix, which gives a
    second tree shape)."""
    randbytes = dataset_rng("corpus").randbytes
    return {key_of(i): randbytes(VALUE_BYTES) for i in range(count)}


class ZipfSampler:
    """Zipf(theta) ranks over ``n`` items (Gray et al., as used by YCSB),
    scattered over the key space by a fixed bijection so that hot keys do
    not share leaves or shards."""

    def __init__(self, n: int, rng: random.Random, theta: float = ZIPF_THETA):
        self.n = n
        self._rng = rng
        self._theta = theta
        self._zetan = math.fsum(1.0 / (i ** theta) for i in range(1, n + 1))
        zeta2 = 1.0 + 0.5 ** theta
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (1.0 - zeta2 / self._zetan)
        self._half_pow = 0.5 ** theta
        multiplier = 2_654_435_761
        while math.gcd(multiplier, n) != 1:
            multiplier += 2
        self._multiplier = multiplier

    def rank(self) -> int:
        """A Zipf-distributed rank in ``[0, n)``; rank 0 is the hottest."""
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + self._half_pow:
            return 1
        return min(self.n - 1, int(self.n * (self._eta * u - self._eta + 1.0) ** self._alpha))

    def index(self) -> int:
        """A record index whose popularity follows the Zipf ranks."""
        return (self.rank() * self._multiplier) % self.n


def zipf_get_stream(seed: int, purpose: str, count: int, records: int,
                    absent_share: float = 0.05) -> List[bytes]:
    """``count`` Zipf(0.9) keys; ``absent_share`` of them were never loaded."""
    rng = rng_for(seed, purpose)
    sampler = ZipfSampler(records, rng)
    keys = []
    for _ in range(count):
        index = sampler.index()
        if rng.random() < absent_share:
            index += records  # beyond the loaded range: a guaranteed miss
        keys.append(key_of(index))
    return keys


# ---------------------------------------------------------------------------
# Peak memory
# ---------------------------------------------------------------------------

def reset_peak_rss() -> None:
    """Start the high-water mark of this process's resident set afresh.

    A child process starts from its parent's mark, and ``ru_maxrss`` never
    falls, so the server of ``wire_mixed`` would report the memory of the
    load generator that spawned it.  Linux resets the mark on request;
    where it does not, the mark stays what it was.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak resident set in MiB since :func:`reset_peak_rss` (``VmHWM``;
    ``ru_maxrss`` where ``/proc`` is missing)."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Result envelope
# ---------------------------------------------------------------------------

def git_sha() -> str:
    """The checkout's commit, or ``unknown`` outside a git repository."""
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=here,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def envelope(seed: int, scale: str, seconds: float) -> Dict[str, object]:
    """What must be recorded beside a number for it to count (ROADMAP aim 1)."""
    return {
        "benchmark": "siri-ledger",
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "comparable": scale == "bench",
    }
