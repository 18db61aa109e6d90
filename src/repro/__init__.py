"""repro — reproduction of "Analysis of Indexing Structures for Immutable Data".

This library implements and benchmarks the index structures analysed in
the SIGMOD 2020 paper by Yue et al.:

* :class:`~repro.indexes.mpt.MerklePatriciaTrie` (MPT),
* :class:`~repro.indexes.mbt.MerkleBucketTree` (MBT),
* :class:`~repro.indexes.pos_tree.POSTree` (POS-Tree),
* :class:`~repro.indexes.mvmbt.MVMBTree` (the MVMB+-Tree baseline),

all built on a shared content-addressed, copy-on-write node store, plus
the SIRI framework utilities (deduplication metrics, diff/merge, Merkle
proofs, property checkers), the paper's workload generators (YCSB-like,
Wikipedia-like, Ethereum-like), a mini Forkbase-style versioned storage
engine with a Noms-style Prolly Tree for the system comparison, a
benchmark harness regenerating every figure and table of the evaluation,
and a network front door — :class:`RepositoryServer` plus the pooled
:class:`RemoteRepository` client (``docs/SERVER.md``) — serving the
repository over a length-prefixed binary wire protocol, and a query
layer (:mod:`repro.query`): versioned secondary indexes maintained in
the same commit as the primary data plus resumable exactly-once change
feeds (``docs/QUERY.md``).

The public surface — the repository API
---------------------------------------
Applications program against :class:`Repository`, :class:`Branch` and
:class:`Transaction` (:mod:`repro.api`): named branches over a sharded,
optionally durable store, O(1) forks, lowest-common-ancestor three-way
merges with deterministic conflict detection, and atomically-committed
transactions.  The full tour lives in ``docs/API.md``.

    from repro import Repository

    with Repository.open() as repo:              # or .open("/data/dir")
        main = repo.default_branch
        main.put(b"alice", b"100")
        main.commit("initial balances")
        audit = main.fork("audit")               # copies roots only
        audit.put(b"alice", b"95")
        audit.commit("correction")
        repo.merge("main", "audit")              # three-way merge
        assert main.get(b"alice") == b"95"

The index structures stay directly usable for experiments::

    from repro import InMemoryNodeStore, POSTree

    store = InMemoryNodeStore()
    tree = POSTree(store)
    v1 = tree.from_items({b"alice": b"100", b"bob": b"250"})
    v2 = v1.put(b"carol", b"75")
    assert v1[b"alice"] == b"100"          # old versions stay readable
    assert v2.root_digest != v1.root_digest
    proof = v2.prove(b"carol")
    assert proof.verify(v2.root_digest)     # tamper-evident lookups
"""

import warnings as _warnings

from repro.api import (
    Branch,
    MergeConflict,
    MergeOutcome,
    Repository,
    Transaction,
    merge_branches,
)
from repro.core.diff import diff_snapshots, merge_snapshots, three_way_merge
from repro.core.errors import (
    CorruptNodeError,
    ImmutableWriteError,
    MergeConflictError,
    NodeNotFoundError,
    ProofVerificationError,
    ProtocolError,
    RemoteServerError,
    ReproError,
    ServerBusyError,
    SyncError,
    SyncHeadMovedError,
    SyncIntegrityError,
    TransactionClosedError,
    TransactionConflictError,
)
from repro.core.interfaces import IndexSnapshot, SIRIIndex, WriteBatch
from repro.core.metrics import (
    StorageBreakdown,
    deduplication_ratio,
    node_sharing_ratio,
    storage_breakdown,
)
from repro.core.properties import check_siri_properties
from repro.core.proof import MerkleProof
from repro.core.version import Commit, UnknownBranchError, VersionGraph
from repro.server import RemoteRepository, RepositoryServer
from repro.service import (
    ServiceCommit,
    ServiceMetrics,
    ServiceSnapshot,
)
from repro.hashing.digest import Digest
from repro.query import (
    ChangeEvent,
    FeedCursor,
    IndexDefinition,
    MaterializedCountView,
    Subscription,
)
from repro.indexes import (
    ALL_INDEX_CLASSES,
    MVMBTree,
    MerkleBucketTree,
    MerklePatriciaTrie,
    POSTree,
)
from repro.storage import (
    CachingNodeStore,
    GarbageCollector,
    InMemoryNodeStore,
    MeteredNodeStore,
    RefCountingNodeStore,
    SegmentNodeStore,
)
from repro.sync import (
    BranchSyncReport,
    LocalSyncSource,
    RemoteSyncSource,
    SyncReport,
    SyncSource,
)

__version__ = "2.0.0"

#: Deprecated top-level names: accessing them still works but warns,
#: pointing at the repository-API replacement.  The implementing modules
#: (``repro.service`` and friends) stay warning-free — the service remains
#: the documented engine *under* the repository.
_DEPRECATED_ALIASES = {
    "VersionedKVService": (
        "repro.service", "VersionedKVService",
        "repro.Repository (Repository.open() wraps the service; "
        "Repository.from_service() adapts an existing instance)"),
}


def __getattr__(name):
    """PEP 562 hook resolving deprecated aliases with a DeprecationWarning."""
    alias = _DEPRECATED_ALIASES.get(name)
    if alias is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module_name, attribute, replacement = alias
    _warnings.warn(
        f"repro.{name} is deprecated as a top-level entry point; "
        f"use {replacement} instead",
        DeprecationWarning,
        stacklevel=2,
    )
    import importlib

    return getattr(importlib.import_module(module_name), attribute)


__all__ = [
    "__version__",
    # the repository API — the public surface
    "Repository",
    "Branch",
    "Transaction",
    "MergeConflict",
    "MergeOutcome",
    "merge_branches",
    # errors
    "ReproError",
    "NodeNotFoundError",
    "CorruptNodeError",
    "MergeConflictError",
    "ProofVerificationError",
    "ImmutableWriteError",
    "TransactionConflictError",
    "TransactionClosedError",
    "UnknownBranchError",
    "ProtocolError",
    "ServerBusyError",
    "RemoteServerError",
    "SyncError",
    "SyncIntegrityError",
    "SyncHeadMovedError",
    # core
    "SIRIIndex",
    "IndexSnapshot",
    "WriteBatch",
    "MerkleProof",
    "Digest",
    "VersionGraph",
    "Commit",
    "diff_snapshots",
    "merge_snapshots",
    "three_way_merge",
    "deduplication_ratio",
    "node_sharing_ratio",
    "storage_breakdown",
    "StorageBreakdown",
    "check_siri_properties",
    # indexes
    "MerklePatriciaTrie",
    "MerkleBucketTree",
    "POSTree",
    "MVMBTree",
    "ALL_INDEX_CLASSES",
    # storage
    "InMemoryNodeStore",
    "SegmentNodeStore",
    "CachingNodeStore",
    "MeteredNodeStore",
    "RefCountingNodeStore",
    "GarbageCollector",
    # service layer (the engine under the repository)
    "ServiceSnapshot",
    "ServiceCommit",
    "ServiceMetrics",
    # query layer (secondary indexes and change feeds)
    "IndexDefinition",
    "Subscription",
    "ChangeEvent",
    "FeedCursor",
    "MaterializedCountView",
    # network front door
    "RepositoryServer",
    "RemoteRepository",
    # replication
    "SyncSource",
    "LocalSyncSource",
    "RemoteSyncSource",
    "SyncReport",
    "BranchSyncReport",
    # deprecated aliases (access warns, see _DEPRECATED_ALIASES)
    "VersionedKVService",
]
