"""The repository: named branches over one sharded, versioned store.

:class:`Repository` is the top of the public API.  It owns a
:class:`~repro.service.VersionedKVService` (or wraps one you already
have), names its branches, and hands out :class:`~repro.api.branch.Branch`
handles through which all reads and writes flow.  The design mirrors the
forked, immutable data model of the paper's motivating systems
(ForkBase/Noms): branches share every unmodified node through the
content-addressed store, so a fork copies only a tuple of root digests —
O(1) in the dataset size — and a merge is a structural three-way diff.

Backends
--------
``Repository.open()`` selects the storage backend:

* ``Repository.open()`` — in-memory shards (tests, notebooks);
* ``Repository.open("/data/repo")`` — the durable append-only segment
  engine with a fsynced commit journal; every branch head survives a
  crash (recovery restores *all* heads, not just the default branch's);
* ``Repository.open(store_factory=...)`` — any
  :class:`~repro.storage.store.NodeStore` per shard (e.g. a
  :class:`~repro.storage.segment.SegmentNodeStore` over a directory of
  your own).

Example
-------
>>> from repro.api import Repository
>>> with Repository.open() as repo:                # in-memory backend
...     main = repo.default_branch
...     main.put(b"alice", b"100")
...     _ = main.commit("initial balances")
...     audit = main.fork("audit")                 # O(1): copies roots only
...     audit.put(b"alice", b"150")
...     _ = audit.commit("audited balance")
...     main.get(b"alice")                         # fork is isolated
b'100'
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Union

from repro.core.diff import DiffResult
from repro.core.errors import InvalidParameterError
from repro.core.version import UnknownBranchError, VersionGraph
from repro.indexes.pos_tree import POSTree
from repro.query.definition import IndexDefinition
from repro.service.service import ServiceCommit, ServiceSnapshot, VersionedKVService
from repro.storage.store import NodeStore

from repro.api.branch import Branch
from repro.api.merge import MergeOutcome, Resolver, merge_branches


class Repository:
    """Named branches, three-way merges, and transactions over one store.

    Construct through :meth:`open` (which builds and owns the backing
    service) or :meth:`from_service` (which wraps a service you manage).
    All data access goes through :class:`Branch` handles obtained from
    :meth:`branch`, :meth:`create_branch` or :attr:`default_branch`.

    Thread safety: branch handles are cached and shared, commits on one
    branch serialize on that branch's lock, and cross-branch work runs in
    parallel (the underlying service entry points are thread-safe).
    """

    def __init__(self, service: VersionedKVService, *, owns_service: bool = True):
        """Wrap ``service``; prefer :meth:`open`/:meth:`from_service`."""
        self._service = service
        self._owns_service = owns_service
        self._branches: Dict[str, Branch] = {}
        self._lock = threading.Lock()

    # -- construction ------------------------------------------------------

    @classmethod
    def open(cls, directory: Optional[str] = None, *,
             index_factory: Callable[[NodeStore], object] = POSTree,
             num_shards: int = 4,
             store_factory: Optional[Callable[[], NodeStore]] = None,
             cache_bytes: int = 16 * 1024 * 1024,
             retain_versions: Optional[int] = None,
             default_branch: str = "main",
             **service_kwargs) -> "Repository":
        """Open a repository over memory, files, or the durable engine.

        Parameters
        ----------
        directory:
            ``None`` for in-memory shards; a path for the durable
            append-only segment backend (crash recovery restores every
            branch head).  Mutually exclusive with ``store_factory``.
        index_factory:
            Index class (or factory) used per shard —
            :class:`~repro.indexes.pos_tree.POSTree` by default; any
            :class:`~repro.core.interfaces.SIRIIndex` works (MPT, MBT, ...).
        num_shards / cache_bytes / retain_versions / service_kwargs:
            Forwarded to :class:`~repro.service.VersionedKVService`.
        store_factory:
            Builds one custom :class:`~repro.storage.store.NodeStore` per
            shard (e.g. ``SegmentNodeStore`` over a directory of your own).
        default_branch:
            Name of the branch :attr:`default_branch` returns.
        """
        service = VersionedKVService(
            index_factory,
            num_shards=num_shards,
            store_factory=store_factory,
            cache_bytes=cache_bytes,
            directory=directory,
            retain_versions=retain_versions,
            default_branch=default_branch,
            **service_kwargs,
        )
        return cls(service, owns_service=True)

    @classmethod
    def from_service(cls, service: VersionedKVService, *,
                     owns_service: bool = False) -> "Repository":
        """Wrap an existing service (its flat API keeps working alongside).

        With ``owns_service=False`` (default) :meth:`close` leaves the
        service open — you manage its lifecycle.
        """
        return cls(service, owns_service=owns_service)

    # -- lifecycle ---------------------------------------------------------

    @property
    def service(self) -> VersionedKVService:
        """The backing service (the deprecated flat surface wraps this)."""
        return self._service

    @property
    def is_open(self) -> bool:
        """Whether the backing service is accepting operations."""
        return self._service.is_open

    def close(self) -> None:
        """Close the backing service (if owned); staged branch writes drop.

        Committed branch heads are durable (directory backend) or parked
        (in-memory backend); *staged-but-uncommitted* branch operations
        are discarded, exactly like a transaction that never committed.
        """
        with self._lock:
            for branch in self._branches.values():
                branch.discard()
        if self._owns_service:
            self._service.close()

    def __enter__(self) -> "Repository":
        """Context-manager entry; reopens an owned, closed service."""
        if self._owns_service:
            self._service.open()
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: always :meth:`close`, even on error paths."""
        self.close()

    # -- branches ----------------------------------------------------------

    @property
    def default_branch(self) -> Branch:
        """The branch flat writes and new forks default to (``main``)."""
        return self._get_branch(self._service.default_branch, create=True)

    def branch(self, name: str) -> Branch:
        """The existing branch ``name`` (:class:`UnknownBranchError` if absent)."""
        return self._get_branch(name, create=False)

    def _get_branch(self, name: str, create: bool) -> Branch:
        with self._lock:
            branch = self._branches.get(name)
            if branch is None:
                if not create and not self._service.has_branch(name):
                    raise UnknownBranchError(name)
                branch = Branch(self, name)
                self._branches[name] = branch
            return branch

    def create_branch(self, name: str, from_branch: Optional[str] = None) -> Branch:
        """Fork a new branch off ``from_branch`` (default branch if omitted).

        The fork is O(1): it journals one commit carrying the *same* shard
        roots as the source head (so the new head survives crashes and the
        commit DAG records where the fork happened) — no tree node is
        copied, ever.  Returns the new :class:`Branch`.
        """
        if from_branch is None:
            from_branch = self._service.default_branch
        with self._lock:
            if name in self._branches or self._service.has_branch(name):
                raise InvalidParameterError(f"branch {name!r} already exists")
            source_head = (self._service.branch_head(from_branch)
                           if self._service.has_branch(from_branch) else None)
            if source_head is None and from_branch != self._service.default_branch:
                raise UnknownBranchError(from_branch)
            roots = (source_head.roots if source_head is not None
                     else (None,) * self._service.num_shards)
            parents = (source_head.version,) if source_head is not None else ()
            self._service.commit_roots(
                name, roots, message=f"fork of {from_branch}", parents=parents)
            branch = Branch(self, name)
            self._branches[name] = branch
            return branch

    def branches(self) -> List[str]:
        """Every branch name, sorted (committed heads plus the default)."""
        names = set(self._service.branches())
        names.add(self._service.default_branch)
        with self._lock:
            names.update(self._branches.keys())
        return sorted(names)

    def import_data(self, items, branch: Optional[str] = None,
                    message: str = "bulk import") -> Optional[ServiceCommit]:
        """Bulk-import ``items`` into a branch as one journalled commit.

        ``items`` is a mapping or iterable of ``(key, value)`` pairs;
        ``branch`` defaults to the repository's default branch and is
        created on the fly when it does not exist yet (its first commit
        is the import).  Per shard, the records are applied as a single
        batched update — the bottom-up bulk builders when the branch is
        empty — so importing N records costs O(N) node writes and exactly
        one journal append.  Returns the new head commit (see
        :meth:`Branch.load`).
        """
        name = branch if branch is not None else self._service.default_branch
        return self._get_branch(name, create=True).load(items, message=message)

    # -- the query layer: secondary indexes and change feeds -----------------

    def register_index(self, definition: Union[IndexDefinition, str],
                       extractor=None) -> IndexDefinition:
        """Register a secondary index over every branch of this repository.

        Pass an :class:`~repro.query.definition.IndexDefinition`, or a
        name plus extractor (``register_index("author", by_author)``) to
        build one inline.  Existing content is bulk-indexed on the spot;
        from then on every commit maintains the index's posting trees
        incrementally from its own delta and journals their roots next to
        the primary roots — queries (:meth:`Branch.lookup`,
        :meth:`Branch.range`), forks, merges, crash recovery and garbage
        collection all follow the commits.

        Definitions are code, not data: a fresh process re-registers its
        indexes after opening (commits journalled while registered stay
        queryable through their recorded roots either way).  Returns the
        registered definition.
        """
        if not isinstance(definition, IndexDefinition):
            definition = IndexDefinition(definition, extractor)
        elif extractor is not None:
            raise InvalidParameterError(
                "pass either an IndexDefinition or (name, extractor), not both")
        self._service.register_index(definition)
        return definition

    def indexes(self) -> Dict[str, IndexDefinition]:
        """The registered secondary indexes, by name."""
        return self._service.index_definitions()

    def subscribe(self, branch: Optional[str] = None, *,
                  from_commit: Optional[int] = None,
                  filter=None):
        """A change feed over a branch's commit history.

        Returns a :class:`~repro.query.feed.Subscription` replaying the
        branch's first-parent chain as ordered key-level change events
        (one per changed key per commit, computed by structural diff),
        starting after ``from_commit`` (``None`` = from the branch's
        beginning).  ``filter`` narrows events to matching keys: a
        ``bytes``/``str`` prefix, or any callable ``key -> bool``.
        Consume with :meth:`~repro.query.feed.Subscription.poll` (or
        iterate); the cursor is explicit and resumable, so a reader can
        stop, restart — in a new process, or over the wire — and continue
        exactly-once from where it left off.
        """
        # Imported lazily: repro.query.feed types against this module's
        # classes in its annotations, so a module-level import would cycle.
        from repro.query.feed import Subscription
        name = branch if branch is not None else self._service.default_branch
        return Subscription(self, name, from_commit=from_commit, filter=filter)

    # -- history and merging -----------------------------------------------

    @property
    def commits(self) -> List[ServiceCommit]:
        """Every commit on every branch, oldest first (global versions)."""
        return self._service.commits

    def log(self, branch: Optional[str] = None) -> Iterator[ServiceCommit]:
        """Walk a branch's first-parent history, newest commit first."""
        name = branch if branch is not None else self._service.default_branch
        return self._service.log(name)

    def merge_base(self, ours: str, theirs: str) -> Optional[ServiceCommit]:
        """The lowest common ancestor of two branch heads (``None`` if disjoint)."""
        return self._service.merge_base(ours, theirs)

    def merge(self, ours: Union[str, Branch], theirs: Union[str, Branch],
              message: str = "", resolver: Optional[Resolver] = None) -> MergeOutcome:
        """Three-way merge branch ``theirs`` into branch ``ours``.

        See :func:`repro.api.merge.merge_branches` for the full semantics
        (lowest-common-ancestor base, deterministic conflict detection,
        pluggable resolution).
        """
        ours_branch = ours if isinstance(ours, Branch) else self.branch(ours)
        theirs_branch = theirs if isinstance(theirs, Branch) else self.branch(theirs)
        return merge_branches(self, ours_branch, theirs_branch,
                              message=message, resolver=resolver)

    def sync(self, remote, branch: Optional[str] = None, *,
             resolver: Optional[Resolver] = None, message: str = ""):
        """Anti-entropy sync with another replica; returns a ``SyncReport``.

        ``remote`` is the other replica in any of its forms: another
        :class:`Repository` (or bare service) in this process, a
        :class:`~repro.server.client.RemoteRepository` talking to a wire
        server, or a prepared :class:`~repro.sync.SyncSource`.  Per
        branch the session transfers only the nodes on the structural
        frontier — subtrees the receiver already holds are pruned by
        digest, so traffic scales with the divergence, not the dataset —
        then fast-forwards whichever head is behind, or three-way merges
        a true divergence (conflicts surface as
        :class:`~repro.core.errors.MergeConflictError` unless
        ``resolver`` settles them; a deterministic, symmetric resolver
        makes concurrently-written replicas converge).

        ``branch=None`` syncs the union of both replicas' branches.
        Nodes always land before any head moves and every landed batch
        is durable, so an interrupted sync resumes from the frontier
        without re-paying for transferred subtrees.  See ``docs/SYNC.md``.
        """
        # Imported lazily: repro.sync reaches back into repro.api for the
        # three-way merge, so a module-level import would cycle.
        from repro.sync.session import sync_service
        return sync_service(self._service, remote, branch,
                            resolver=resolver, message=message)

    def diff(self, left: Union[str, Branch, int, ServiceCommit],
             right: Union[str, Branch, int, ServiceCommit]) -> DiffResult:
        """Structural diff between two branches/commits (ordered by key)."""
        return self._snapshot_of(left).diff(self._snapshot_of(right))

    def snapshot(self, ref: Union[str, Branch, int, ServiceCommit]) -> ServiceSnapshot:
        """An immutable cross-shard view of a branch head or a commit."""
        return self._snapshot_of(ref)

    def _snapshot_of(self, ref) -> ServiceSnapshot:
        if isinstance(ref, Branch):
            return ref.snapshot()
        if isinstance(ref, str):
            return self._get_branch(ref, create=False).snapshot()
        return self._service.snapshot(ref)

    # -- maintenance -------------------------------------------------------

    def collect_garbage(self):
        """Reclaim expired interior versions; every branch head stays live."""
        return self._service.collect_garbage()

    def storage_bytes(self) -> int:
        """Physical bytes across all shard stores (shared nodes once)."""
        return self._service.storage_bytes()

    def metrics(self, include_records: bool = False):
        """The backing service's counters (see :meth:`VersionedKVService.metrics`)."""
        return self._service.metrics(include_records=include_records)

    def __repr__(self) -> str:
        return (f"Repository(branches={self.branches()}, "
                f"commits={len(self._service.commits)}, "
                f"shards={self._service.num_shards})")
