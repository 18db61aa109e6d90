"""Spans recorded from outside ``src/``: the per-layer half of the ledger.

Every span comes from code in this directory wrapped *around* a call into
a layer of the program:

* ``api.*``      — a proxy around each ``Branch`` / ``Repository`` call;
* ``wire.*``     — a proxy around each ``RemoteRepository`` call;
* ``indexes.*``  — a subclass of the index class (public ``SIRIIndex``
  methods only), injected through ``index_factory(store)``;
* ``storage.*``  — a ``NodeStore`` delegate around the store handed to
  ``index_factory`` and around its ``backing``; ``os.fsync`` and
  ``SegmentNodeStore.flush`` wrapped in the benchmark process;
* ``hashing.*``  — a ``HashFunction`` subclass installed on those stores.

A span is ``(id, parent id, name, start ns, end ns, n)``; spans of one
client operation share the id of their root span.  Self time of a span is
its duration minus the duration of its children, so the self times of a
tree add up to its root exactly and :func:`ledger` can check itself
against the wall clock (``ledger.coverage``).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

from repro.hashing.digest import HashFunction
from repro.storage.segment import SegmentNodeStore
from repro.storage.store import NodeStore

from registry import LEDGER as LAYERS

Span = Tuple[int, int, str, int, int, int]

#: First component of a span name -> ledger layer.  The ``api`` proxies sit
#: above Branch + service + engine, which have no seam between them that
#: the benchmark could wrap, so their self time is one lump: ``service``.
LAYER_OF = {"api": "service", "wire": "server", "indexes": "indexes",
            "storage": "storage", "hashing": "hashing"}


class _OpenSpans(threading.local):
    """Per thread: the ids of the spans it has open, innermost last."""

    def __init__(self) -> None:
        self.stack: List[int] = []


class Tracer:
    """Collects spans in memory; safe to use from several threads."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._next_id = itertools.count().__next__
        self._open = _OpenSpans()

    def begin(self, name: str) -> Tuple[int, str, int]:
        """Open a span under the calling thread's innermost open span."""
        span_id = self._next_id()
        self._open.stack.append(span_id)
        return span_id, name, perf_counter_ns()

    def end(self, token: Tuple[int, str, int], n: int = 0) -> None:
        """Close the span ``token``; ``n`` is a byte or item count."""
        ended = perf_counter_ns()
        stack = self._open.stack
        stack.pop()
        self.spans.append((token[0], stack[-1] if stack else -1,
                           token[1], token[2], ended, n))

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` with a span named ``name`` around every call."""
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            token = begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                end(token)
        return traced

    def wrap_generator(self, name: str, function: Callable) -> Callable:
        """Like :meth:`wrap` for a generator function: one span per resume,
        so time the consumer spends between items is not charged to it."""
        begin, end = self.begin, self.end

        def traced(*args, **kwargs) -> Iterator:
            generator = function(*args, **kwargs)
            while True:
                token = begin(name)
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    end(token)
                yield item
        return traced

    def mark(self) -> int:
        """Position in the span list: spans recorded from now on start here."""
        return len(self.spans)


# ---------------------------------------------------------------------------
# Proxies installed around the layers
# ---------------------------------------------------------------------------

class TimedHash(HashFunction):
    """The store's hash function with a span around every digest."""

    def __init__(self, inner: HashFunction, tracer: Tracer):
        super().__init__(inner.name, inner.digest_size_override)
        self._tracer = tracer

    def hash(self, data: bytes):
        token = self._tracer.begin("hashing.hash")
        try:
            return super().hash(data)
        finally:
            self._tracer.end(token, len(data))

    def hash_many(self, parts: Iterable[bytes]):
        token = self._tracer.begin("hashing.hash_many")
        try:
            return super().hash_many(parts)
        finally:
            self._tracer.end(token)


class TracedStore(NodeStore):
    """A ``NodeStore`` that delegates to ``inner`` with a span per call.

    ``NodeStore.put``/``get`` (the entry points the indexes use) run here
    unchanged, so hashing shows as a child span of its own and the
    primitive underneath is timed as ``<label>.put`` / ``<label>.get``.
    """

    def __init__(self, inner: NodeStore, tracer: Tracer, label: str):
        super().__init__(hash_function=TimedHash(inner.hash_function, tracer),
                         verify_on_read=inner.verify_on_read)
        self.inner = inner
        self._tracer = tracer
        self._get = label + ".get"
        self._put = label + ".put"

    def put_bytes(self, digest, data: bytes) -> bool:
        token = self._tracer.begin(self._put)
        try:
            return self.inner.put_bytes(digest, data)
        finally:
            self._tracer.end(token, len(data))

    def get_bytes(self, digest) -> bytes:
        token = self._tracer.begin(self._get)
        data = b""
        try:
            data = self.inner.get_bytes(digest)
            return data
        finally:
            self._tracer.end(token, len(data))

    def contains(self, digest) -> bool:
        return self.inner.contains(digest)

    def digests(self):
        return self.inner.digests()

    def __len__(self) -> int:
        return len(self.inner)

    def total_bytes(self) -> int:
        return self.inner.total_bytes()

    def __getattr__(self, name: str):
        # flush(), delete(), cache counters ...: whatever else the concrete
        # store offers is passed through untimed.
        return getattr(self.inner, name)


def trace_store(store: NodeStore, tracer: Tracer) -> NodeStore:
    """Wrap the store ``index_factory`` was handed, and its backing store.

    With a cache in front (``CachingNodeStore``) the outer delegate times
    the cache and a second one, slipped in as ``cache.backing``, times
    what a miss costs underneath (segment files or the in-memory dict).
    """
    backing = getattr(store, "backing", None)
    if isinstance(backing, NodeStore):
        kind = "segment" if isinstance(backing, SegmentNodeStore) else "memory"
        store.backing = TracedStore(backing, tracer, "storage." + kind)
        return TracedStore(store, tracer, "storage.cache")
    kind = "segment" if isinstance(store, SegmentNodeStore) else "memory"
    return TracedStore(store, tracer, "storage." + kind)


_INDEX_CALLS = ("lookup", "write", "write_counted", "bulk_build", "node_digests",
                "prove", "lookup_depth", "height", "count")
_INDEX_GENERATORS = ("iterate", "iterate_range", "iterate_diff")


def traced_index_factory(index_class: type, tracer: Tracer, family: str,
                         **index_kwargs) -> Callable[[NodeStore], object]:
    """An ``index_factory`` building a traced subclass of ``index_class``.

    Only the public ``SIRIIndex`` surface is overridden; nested public
    calls (``write`` -> ``write_counted``) simply nest as spans.
    """
    prefix = f"indexes.{family}."
    namespace = {}
    for name in _INDEX_CALLS:
        if hasattr(index_class, name):
            namespace[name] = tracer.wrap(prefix + name, getattr(index_class, name))
    for name in _INDEX_GENERATORS:
        if hasattr(index_class, name):
            namespace[name] = tracer.wrap_generator(prefix + name, getattr(index_class, name))
    traced_class = type("Traced" + index_class.__name__, (index_class,), namespace)

    def factory(store: NodeStore):
        return traced_class(trace_store(store, tracer), **index_kwargs)
    return factory


class SpanProxy:
    """``target`` with a ``<prefix>.<method>`` span around every method
    call: ``wire.*`` around a ``RemoteRepository``, ``api.*`` around a
    ``Branch`` (below) and, in the benchmark's server process, around the
    service and the executor the server executes against — which gives
    the server side the boundary the in-process workloads have."""

    def __init__(self, target, tracer: Tracer, prefix: str) -> None:
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_tracer", tracer)
        object.__setattr__(self, "_prefix", prefix + ".")

    def __getattr__(self, name: str):
        value = getattr(self._target, name)
        if callable(value) and not name.startswith("__"):
            return self._tracer.wrap(self._prefix + name, value)
        return value

    def __setattr__(self, name: str, value) -> None:
        setattr(self._target, name, value)


class TracedBranch(SpanProxy):
    """``Branch`` behind the ``api.*`` proxy; forks come back traced as
    well, and a traced branch passed as an argument is unwrapped."""

    def __init__(self, branch, tracer: Tracer):
        super().__init__(branch, tracer, "api")

    def fork(self, name: str) -> "TracedBranch":
        token = self._tracer.begin("api.fork")
        try:
            return TracedBranch(self._target.fork(name), self._tracer)
        finally:
            self._tracer.end(token)

    def merge(self, theirs, **kwargs):
        token = self._tracer.begin("api.merge")
        try:
            return self._target.merge(getattr(theirs, "_target", theirs), **kwargs)
        finally:
            self._tracer.end(token)

    def diff(self, other):
        token = self._tracer.begin("api.diff")
        try:
            return self._target.diff(getattr(other, "_target", other))
        finally:
            self._tracer.end(token)


class process_patches:
    """While active, ``os.fsync`` and ``SegmentNodeStore.flush`` record
    spans in this process.  ``storage.fsync.<kind>`` names what was
    synced: a segment file, the MANIFEST journal or a directory."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer
        self._fsync = os.fsync
        self._flush = SegmentNodeStore.flush

    @staticmethod
    def _kind(fd: int) -> str:
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            return "other"
        if target.endswith(".jsonl"):
            return "manifest"
        return "dir" if os.path.isdir(target) else "segment"

    def __enter__(self) -> "process_patches":
        tracer, real_fsync, real_flush = self._tracer, self._fsync, self._flush

        def fsync(fd):
            token = tracer.begin("storage.fsync." + self._kind(
                fd if isinstance(fd, int) else fd.fileno()))
            try:
                return real_fsync(fd)
            finally:
                tracer.end(token)

        def flush(store):
            token = tracer.begin("storage.segment.flush")
            written = 0
            try:
                written = real_flush(store)
                return written
            finally:
                tracer.end(token, written or 0)

        os.fsync = fsync
        SegmentNodeStore.flush = flush
        return self

    def __exit__(self, *exc_info) -> None:
        os.fsync = self._fsync
        SegmentNodeStore.flush = self._flush


# ---------------------------------------------------------------------------
# Reading the spans
# ---------------------------------------------------------------------------

def root_ids(spans: List[Span]) -> Dict[int, int]:
    """span id -> id of the root span of its tree (the client operation)."""
    parent_of = {span[0]: span[1] for span in spans}
    roots: Dict[int, int] = {}
    for span_id in parent_of:
        chain = []
        current = span_id
        while current not in roots and parent_of.get(current, -1) != -1:
            chain.append(current)
            current = parent_of[current]
        root = roots.get(current, current)
        roots[current] = root
        for member in chain:
            roots[member] = root
    return roots


def dump(spans: List[Span], path: str) -> None:
    """Write ``spans`` (the timed phase of a traced run) as JSON lines."""
    roots = root_ids(spans)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for span_id, parent, name, start, ended, n in spans:
            handle.write(json.dumps({
                "id": span_id, "parent": parent, "op": roots[span_id],
                "name": name, "start_ns": start, "end_ns": ended, "n": n,
            }) + "\n")


def self_times(spans: List[Span]) -> Dict[int, int]:
    """span id -> duration minus the duration of its direct children."""
    own = {span[0]: span[4] - span[3] for span in spans}
    for span_id, parent, _name, start, ended, _n in spans:
        if parent in own:
            own[parent] -= ended - start
    return own


def layer_self_ns(spans: List[Span]) -> Dict[str, int]:
    """Self time summed per ledger layer."""
    own = self_times(spans)
    totals: Dict[str, int] = defaultdict(int)
    for span_id, _parent, name, _start, _ended, _n in spans:
        totals[LAYER_OF[name.split(".", 1)[0]]] += own[span_id]
    return totals


def union_ns(spans: Iterable[Span]) -> int:
    """Length of the union of the spans' intervals."""
    total = 0
    reach = None
    for start, ended in sorted((span[3], span[4]) for span in spans):
        if reach is None or start > reach:
            total += ended - start
            reach = ended
        elif ended > reach:
            total += ended - reach
            reach = ended
    return total


def server_self_ns(spans: List[Span]) -> Dict[str, int]:
    """Per-layer self time of a server process, additive in wall time.

    A request runs on one server thread under an ``api.*`` span.  When
    the executor fans a commit out to its pool, the pool threads' index
    spans are separate trees that run *while* that ``api`` span waits, and
    in parallel with each other: added up as they are they would count
    the same wall time up to once per thread, on top of the wait.  They
    are scaled down to the time at least one of them was running, and
    that time is taken off the waiting layer's (``service``) self time.
    """
    totals = layer_self_ns(spans)
    fanned = [span for span in spans if span[1] == -1 and not span[2].startswith("api.")]
    if fanned:
        summed, union = duration_ns(fanned), union_ns(fanned)
        inside = layer_self_ns(fanned + descendants(spans, fanned))
        for layer, value in inside.items():
            totals[layer] -= round(value * (1.0 - union / summed))
        totals["service"] -= union
    return dict(totals)


def by_name(spans: List[Span], prefix: str) -> List[Span]:
    """Spans whose name is ``prefix`` or starts with ``prefix.``."""
    dotted = prefix + "."
    return [s for s in spans if s[2] == prefix or s[2].startswith(dotted)]


def descendants(spans: List[Span], roots: Iterable[Span]) -> List[Span]:
    """Every span below any of ``roots`` (the roots themselves excluded)."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        children[span[1]].append(span)
    found: List[Span] = []
    frontier = [root[0] for root in roots]
    while frontier:
        below = children.get(frontier.pop(), ())
        found.extend(below)
        frontier.extend(span[0] for span in below)
    return found


def duration_ns(spans: Iterable[Span]) -> int:
    """Summed duration of ``spans``."""
    return sum(span[4] - span[3] for span in spans)


def top_level(spans: List[Span], prefix: str) -> List[Span]:
    """Spans under ``prefix`` whose parent is not under ``prefix``: the
    outermost call into that layer (``write``, not the ``write_counted``
    it forwards to)."""
    chosen = by_name(spans, prefix)
    inner = {span[0] for span in chosen}
    return [span for span in chosen if span[1] not in inner]
