"""Hash-based key routing across index shards.

The service layer partitions the key space across N independent index
instances ("shards") so that every shard holds roughly ``1/N`` of the
records and every write batch splits into N smaller per-shard batches.
Routing must be *stable*: the same key must land on the same shard in
every process and every run, otherwise historical versions could not be
read back.  Python's builtin ``hash()`` is salted per process, so the
router hashes keys with BLAKE2b instead (fast, keyed-free, deterministic).

Routing is also *uniform*: BLAKE2b output is indistinguishable from
random, so even adversarially clustered key sets (sequential IDs, shared
prefixes) spread evenly — the same argument the paper's MBT makes for
hashing keys into buckets.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List

from repro.core.errors import InvalidParameterError

_ROUTE_DIGEST_BYTES = 8


def route_key(key: bytes, num_shards: int) -> int:
    """Map ``key`` to a shard id in ``[0, num_shards)`` deterministically."""
    if num_shards == 1:
        return 0
    digest = hashlib.blake2b(key, digest_size=_ROUTE_DIGEST_BYTES).digest()
    return int.from_bytes(digest, "big") % num_shards


class ShardRouter:
    """Stable hash partitioner assigning keys to ``num_shards`` shards."""

    def __init__(self, num_shards: int):
        if num_shards <= 0:
            raise InvalidParameterError("num_shards must be positive")
        self.num_shards = num_shards

    def shard_of(self, key: bytes) -> int:
        """The shard id owning ``key``."""
        return route_key(key, self.num_shards)

    def partition(self, keys: Iterable[bytes]) -> List[List[bytes]]:
        """Split ``keys`` into per-shard lists (index = shard id)."""
        buckets: List[List[bytes]] = [[] for _ in range(self.num_shards)]
        for key in keys:
            buckets[self.shard_of(key)].append(key)
        return buckets

    def __repr__(self) -> str:
        return f"ShardRouter(num_shards={self.num_shards})"
