"""The sync engine: frontier transfer plus per-branch head settlement.

One call to :func:`sync_service` is one **anti-entropy session** between
a local :class:`~repro.service.VersionedKVService` and a peer behind a
:class:`~repro.sync.source.SyncSource`.  Per branch the session
classifies the two heads by content digest and ancestry:

=====================  ====================================================
heads                   action
=====================  ====================================================
equal digests           nothing (``in_sync``)
peer lacks the branch   push our frontier, CAS-create it there
we lack the branch      pull their frontier, CAS-create it here
ours in their ancestry  pull their frontier, fast-forward our head
theirs in our ancestry  push our frontier, CAS-advance their head
neither                 pull theirs, three-way merge locally, push merged
=====================  ====================================================

**Frontier transfer.**  Both directions walk the Merkle structure top
down from the missing head's roots, probing the receiver per level and
pruning every subtree whose root digest the receiver holds, then land
the fetched levels deepest first.  That order preserves the invariant
all pruning relies on — *a held digest implies its whole subtree is
held* — and makes each landed level a durable resume checkpoint: an
interrupted session restarts from the frontier and never re-pays
bandwidth for subtrees that already landed.  Traffic is proportional to
the structural divergence, never the dataset.

**Trust.**  Every pulled node is re-hashed against the digest it was
requested under before its bytes are parsed or stored
(:class:`~repro.core.errors.SyncIntegrityError` otherwise), and head
publishes are compare-and-set against the digest observed when the
session opened (:class:`~repro.core.errors.SyncHeadMovedError` on a
lost race) — a lying peer cannot poison a store, and a concurrent
writer cannot be silently overwritten.

**Divergence.**  A diverged branch is settled by the same three-way
merge the branch API uses (:func:`repro.api.merge.three_way_roots`),
against the newest common ancestor found by matching the peer's
ancestry digests to local commits.  Conflicts are surfaced as
:class:`~repro.core.errors.MergeConflictError` unless the caller passes
a resolver; for replicas to *converge* under conflicting writes the
resolver must be deterministic and symmetric (the same winner regardless
of which replica runs the merge) — e.g. take the lexicographically
greater value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from repro.core.errors import (
    InvalidParameterError,
    MergeConflictError,
    SyncError,
    SyncIntegrityError,
)
from repro.core.version import UnknownBranchError
from repro.hashing.digest import Digest, default_hash_function
from repro.sync.source import BranchState, LocalSyncSource, RemoteSyncSource, SyncSource


@dataclass
class BranchSyncReport:
    """What one branch's sync did.

    ``action`` is one of ``"in_sync"``, ``"pulled"``, ``"pushed"``,
    ``"created_local"``, ``"created_remote"`` or ``"merged"``;
    ``fast_forward`` marks the pull/push cases where one head was simply
    an ancestor of the other.  Node/byte counters cover this branch's
    share of the session's transfer (subtrees already transferred for an
    earlier branch of the same session are not re-counted — or re-sent).
    """

    branch: str
    action: str
    nodes_pulled: int = 0
    nodes_pushed: int = 0
    bytes_pulled: int = 0
    bytes_pushed: int = 0
    conflicts_resolved: int = 0
    fast_forward: bool = False


@dataclass
class SyncReport:
    """The outcome of one sync session, one entry per branch visited."""

    branches: List[BranchSyncReport] = field(default_factory=list)

    @property
    def nodes_pulled(self) -> int:
        """Nodes landed locally across every branch."""
        return sum(report.nodes_pulled for report in self.branches)

    @property
    def nodes_pushed(self) -> int:
        """Nodes landed on the peer across every branch."""
        return sum(report.nodes_pushed for report in self.branches)

    @property
    def bytes_pulled(self) -> int:
        """Payload bytes (digest + node) pulled across every branch."""
        return sum(report.bytes_pulled for report in self.branches)

    @property
    def bytes_pushed(self) -> int:
        """Payload bytes (digest + node) pushed across every branch."""
        return sum(report.bytes_pushed for report in self.branches)

    @property
    def total_nodes(self) -> int:
        """Nodes moved in either direction."""
        return self.nodes_pulled + self.nodes_pushed

    @property
    def total_bytes(self) -> int:
        """Payload bytes moved in either direction."""
        return self.bytes_pulled + self.bytes_pushed


def as_sync_source(peer) -> SyncSource:
    """Coerce ``peer`` into a :class:`~repro.sync.source.SyncSource`.

    Accepts a source directly, a wire client (anything with the
    ``fetch_heads`` surface of
    :class:`~repro.server.client.RemoteRepository`), or an in-process
    repository/service.
    """
    if isinstance(peer, SyncSource):
        return peer
    if hasattr(peer, "fetch_heads"):
        return RemoteSyncSource(peer)
    return LocalSyncSource(peer)


class _TransferSession:
    """Per-session transfer state: frontier walks plus dedup across branches.

    Branches (and sync directions) share subtrees through the
    content-addressed store; the per-shard ``seen`` sets make sure a
    digest settled once in a session — held by the receiver or
    transferred just now — is never probed or shipped again.
    """

    def __init__(self, service, source: SyncSource):
        self.service = service
        self.source = source
        self._hash = default_hash_function()
        num_shards = service.num_shards
        self._pulled: List[Set[bytes]] = [set() for _ in range(num_shards)]
        self._pushed: List[Set[bytes]] = [set() for _ in range(num_shards)]

    # -- pull (peer -> local) ------------------------------------------------

    def pull_roots(self, roots: Sequence[Optional[Digest]]) -> Tuple[int, int]:
        """Land every node under ``roots`` this replica lacks; (nodes, bytes)."""
        nodes = payload = 0
        for shard_id, root in enumerate(roots):
            if root is None:
                continue
            shard_nodes, shard_bytes = self._pull_shard(shard_id, root)
            nodes += shard_nodes
            payload += shard_bytes
        return nodes, payload

    def _pull_shard(self, shard_id: int, root: Digest) -> Tuple[int, int]:
        levels = self._walk(
            shard_id, root, seen=self._pulled[shard_id],
            probe=lambda missing: self.service.shard_missing_digests(
                shard_id, missing),
            fetch=lambda missing: self.source.fetch_nodes(shard_id, missing),
            verify=True)
        # Deepest level first: children land (and flush) before any parent,
        # so every imported batch is a resume checkpoint that keeps the
        # held-digest-implies-held-subtree invariant true mid-transfer.
        for level in reversed(levels):
            self.service.shard_import_nodes(shard_id, level)
        return self._totals(levels)

    # -- push (local -> peer) ------------------------------------------------

    def push_roots(self, roots: Sequence[Optional[Digest]]) -> Tuple[int, int]:
        """Land every node under ``roots`` the peer lacks; (nodes, bytes)."""
        nodes = payload = 0
        for shard_id, root in enumerate(roots):
            if root is None:
                continue
            shard_nodes, shard_bytes = self._push_shard(shard_id, root)
            nodes += shard_nodes
            payload += shard_bytes
        return nodes, payload

    def _push_shard(self, shard_id: int, root: Digest) -> Tuple[int, int]:
        levels = self._walk(
            shard_id, root, seen=self._pushed[shard_id],
            probe=lambda missing: self.source.missing_digests(
                shard_id, missing),
            fetch=lambda missing: self.service.shard_fetch_nodes(
                shard_id, missing),
            verify=False)
        for level in reversed(levels):
            self.source.push_nodes(shard_id, level)
        return self._totals(levels)

    # -- the frontier walk ---------------------------------------------------

    def _walk(self, shard_id: int, root: Digest, *, seen: Set[bytes],
              probe, fetch, verify: bool) -> List[List[Tuple[Digest, bytes]]]:
        """Top-down frontier descent: fetch every level the receiver lacks.

        ``probe`` returns the subset of a level the receiver is missing
        (pruning whole subtrees at every held digest), ``fetch`` reads
        those nodes from the sender.  With ``verify`` the fetched bytes
        are re-hashed against their claimed digests *before* being parsed
        for children — the untrusted-peer path.
        """
        levels: List[List[Tuple[Digest, bytes]]] = []
        frontier: List[Digest] = [root]
        while frontier:
            fresh = [digest for digest in frontier if digest.raw not in seen]
            if not fresh:
                break
            missing = probe(fresh)
            seen.update(digest.raw for digest in fresh)
            if not missing:
                break
            nodes = fetch(missing)
            if len(nodes) != len(missing):
                raise SyncError(
                    f"sync peer answered {len(nodes)} of {len(missing)} "
                    f"requested nodes for shard {shard_id}")
            if verify:
                for digest, data in nodes:
                    if self._hash.hash(data) != digest:
                        raise SyncIntegrityError(digest)
            levels.append(nodes)
            frontier = self._children(nodes, verify=verify)
        return levels

    def _children(self, nodes: Sequence[Tuple[Digest, bytes]], *,
                  verify: bool) -> List[Digest]:
        """The next frontier level: unique children of ``nodes``, in order."""
        children: List[Digest] = []
        level_seen: Set[bytes] = set()
        for digest, data in nodes:
            try:
                parsed = self.service.child_digests(data)
            except Exception as exc:
                if verify:
                    # The bytes hashed correctly, so this is a malformed
                    # *node*, not a transport problem: refuse it.
                    raise SyncIntegrityError(
                        digest,
                        f"sync peer sent unparseable node for digest "
                        f"{digest!r}: {exc!r}") from exc
                raise
            for child in parsed:
                if child.raw not in level_seen:
                    level_seen.add(child.raw)
                    children.append(child)
        return children

    @staticmethod
    def _totals(levels: Sequence[Sequence[Tuple[Digest, bytes]]]) -> Tuple[int, int]:
        nodes = sum(len(level) for level in levels)
        payload = sum(len(digest.raw) + len(data)
                      for level in levels for digest, data in level)
        return nodes, payload


def sync_service(service, peer, branch: Optional[str] = None, *,
                 resolver=None, message: str = "") -> SyncReport:
    """Run one anti-entropy session between ``service`` and ``peer``.

    ``branch=None`` visits the union of both replicas' branches (sorted);
    naming a branch restricts the session to it.  ``resolver`` settles
    merge conflicts on diverged branches (see
    :data:`repro.api.merge.Resolver`); without one a conflicting
    divergence raises :class:`~repro.core.errors.MergeConflictError` and
    neither head moves.  ``message`` labels the commits the session
    journals.  Returns a :class:`SyncReport` with one entry per branch.
    """
    source = as_sync_source(peer)
    if source.num_shards() != service.num_shards:
        raise InvalidParameterError(
            f"cannot sync: local replica has {service.num_shards} shards, "
            f"peer has {source.num_shards()}")
    remote_states = source.branch_states()
    local_branches = set(service.branches())
    if branch is None:
        names = sorted(local_branches | set(remote_states))
    else:
        if branch not in local_branches and branch not in remote_states:
            raise UnknownBranchError(branch)
        names = [branch]
    session = _TransferSession(service, source)
    report = SyncReport()
    for name in names:
        report.branches.append(_sync_branch(
            session, name, remote_states.get(name), resolver, message))
    return report


def _sync_branch(session: _TransferSession, branch: str,
                 remote: Optional[BranchState], resolver,
                 message: str) -> BranchSyncReport:
    """Settle one branch (see the module docstring's case table)."""
    service, source = session.service, session.source
    report = BranchSyncReport(branch=branch, action="in_sync")
    local = (service.branch_head(branch)
             if service.has_branch(branch) else None)

    if remote is None:
        assert local is not None  # names come from the branch union
        report.action = "created_remote"
        report.nodes_pushed, report.bytes_pushed = session.push_roots(
            local.roots)
        source.publish_head(branch, local.roots, None,
                            message or f"sync: create {branch}")
        return report

    if local is None:
        report.action = "created_local"
        report.nodes_pulled, report.bytes_pulled = session.pull_roots(
            remote.roots)
        service.publish_roots(branch, remote.roots,
                              message=message or f"sync: create {branch}",
                              expected_digest=None)
        return report

    if local.digest == remote.digest:
        return report

    if local.digest in remote.ancestry:
        # The peer is strictly ahead: pull its delta, fast-forward here.
        report.action = "pulled"
        report.fast_forward = True
        report.nodes_pulled, report.bytes_pulled = session.pull_roots(
            remote.roots)
        service.publish_roots(branch, remote.roots,
                              message=message or f"sync: fast-forward {branch}",
                              expected_digest=local.digest)
        return report

    local_ancestry = service.ancestry_digests(branch)
    if remote.digest in local_ancestry:
        # We are strictly ahead: push our delta, CAS-advance the peer.
        report.action = "pushed"
        report.fast_forward = True
        report.nodes_pushed, report.bytes_pushed = session.push_roots(
            local.roots)
        source.publish_head(branch, local.roots, remote.digest,
                            message or f"sync: fast-forward {branch}")
        return report

    return _merge_diverged(session, branch, local, remote, resolver,
                           message, report)


def _merge_diverged(session: _TransferSession, branch: str, local,
                    remote: BranchState, resolver, message: str,
                    report: BranchSyncReport) -> BranchSyncReport:
    """Settle a diverged branch: pull theirs, merge locally, push merged.

    The base is the newest digest in the peer's ancestry chain that names
    a local commit (content-digest matching — no shared journal needed);
    replicas with no common history merge against the empty base.  The
    merge commit is journalled with the local head as its single parent
    (the peer's commits do not exist in this journal); convergence is a
    property of *content* — after the session both replicas' heads carry
    identical roots and digest.
    """
    # Imports deferred: repro.api pulls this package in through
    # Repository.sync, so a module-level import would cycle.
    from repro.api.branch import route_staged_ops
    from repro.api.merge import _resolve, three_way_roots

    service, source = session.service, session.source
    report.action = "merged"
    report.nodes_pulled, report.bytes_pulled = session.pull_roots(remote.roots)

    base = None
    for digest in remote.ancestry:
        base = service.commit_for_digest(digest)
        if base is not None:
            break
    base_roots = (base.roots if base is not None
                  else (None,) * service.num_shards)

    takes, conflicts = three_way_roots(
        service, base_roots, local.roots, remote.roots)
    if conflicts:
        if resolver is None:
            raise MergeConflictError(
                conflicts,
                f"sync of branch {branch!r} diverged with conflicts on "
                f"{len(conflicts)} key(s); pass resolver= to settle them "
                "(it must be deterministic and symmetric for replicas to "
                "converge)")
        for conflict in conflicts:
            resolution = _resolve(resolver, conflict)
            if resolution != conflict.ours:
                shard_id = service.shard_of(conflict.key)
                takes.setdefault(shard_id, {})[conflict.key] = resolution
            report.conflicts_resolved += 1

    flat_takes = {key: value for shard_takes in takes.values()
                  for key, value in shard_takes.items()}
    if flat_takes:
        puts_by_shard, removes_by_shard = route_staged_ops(service, flat_takes)
        merged = service.commit_update(
            branch, local.roots, puts_by_shard, removes_by_shard,
            message=message or f"sync: merge {branch}",
            parents=(local.version,))
        merged_roots = merged.roots
        merged_digest = merged.digest
    else:
        # Nothing exclusive to the peer survived the merge: the local
        # state *is* the merge result; only the peer needs to move.
        merged_roots = local.roots
        merged_digest = local.digest

    report.nodes_pushed, report.bytes_pushed = session.push_roots(merged_roots)
    if merged_digest != remote.digest:
        source.publish_head(branch, merged_roots, remote.digest,
                            message or f"sync: merge {branch}")
    return report
