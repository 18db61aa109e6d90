"""Server-side observability: per-op latency and admission-queue depths.

One :class:`ServerMetrics` instance lives on each
:class:`~repro.server.server.RepositoryServer`.  Admission workers call
the ``record_*`` hooks from both the asyncio loop thread and dispatch
threads, so every mutation takes the internal lock; readers get
consistent point-in-time copies via :meth:`queue_counters` /
:meth:`snapshot`.

The vocabulary deliberately reuses the core metrics types —
:class:`~repro.core.metrics.QueueCounters` for the bounded queues and
:class:`~repro.analysis.histogram.LatencyRecorder` for per-op service
latency — so server reports read like the cache/contention/GC reports
elsewhere in the codebase, and the backpressure invariant the tests
assert (queues drain to zero, ``admitted == completed``) is stated on
the same counters the benchmarks consume.
"""

from __future__ import annotations

import threading
from typing import Dict, List

from repro.analysis.histogram import LatencyRecorder
from repro.core.metrics import QueueCounters


class ServerMetrics:
    """Thread-safe accumulator for one server's lifetime counters."""

    def __init__(self, num_queues: int):
        self._lock = threading.Lock()
        self._queues = [QueueCounters() for _ in range(num_queues)]
        self._op_latency: Dict[str, LatencyRecorder] = {}
        #: Connections accepted over the server's lifetime.
        self.connections_opened = 0
        #: Connections that have finished (closed by either side).
        self.connections_closed = 0
        #: Malformed frames answered with a ``protocol`` error frame.
        self.protocol_errors = 0
        #: Responses that failed to send (encode over the frame limit,
        #: unexpected transport failure) without killing their worker.
        self.send_errors = 0
        #: Nodes shipped to sync peers via ``FETCH_NODES`` (count / bytes).
        self.sync_nodes_sent = 0
        self.sync_bytes_sent = 0
        #: Nodes landed from sync peers via ``PUSH_NODES`` (count / bytes).
        self.sync_nodes_received = 0
        self.sync_bytes_received = 0

    # -- mutation hooks (called by the server) -------------------------------

    def record_connection_opened(self) -> None:
        """Count one accepted connection."""
        with self._lock:
            self.connections_opened += 1

    def record_connection_closed(self) -> None:
        """Count one finished connection."""
        with self._lock:
            self.connections_closed += 1

    def record_protocol_error(self) -> None:
        """Count one malformed frame."""
        with self._lock:
            self.protocol_errors += 1

    def record_send_error(self) -> None:
        """Count one response that could not be sent as encoded."""
        with self._lock:
            self.send_errors += 1

    def record_sync_sent(self, nodes: int, payload_bytes: int) -> None:
        """Count one ``FETCH_NODES`` answer shipped to a sync peer."""
        with self._lock:
            self.sync_nodes_sent += nodes
            self.sync_bytes_sent += payload_bytes

    def record_sync_received(self, nodes: int, payload_bytes: int) -> None:
        """Count one ``PUSH_NODES`` batch landed from a sync peer."""
        with self._lock:
            self.sync_nodes_received += nodes
            self.sync_bytes_received += payload_bytes

    def record_admitted(self, queue: int) -> None:
        """A request entered queue ``queue``; depth rises."""
        with self._lock:
            counters = self._queues[queue]
            counters.admitted += 1
            counters.depth += 1
            counters.peak_depth = max(counters.peak_depth, counters.depth)

    def record_rejected(self, queue: int) -> None:
        """A request was refused with BUSY because queue ``queue`` was full."""
        with self._lock:
            self._queues[queue].rejected_busy += 1

    def record_completed(self, queue: int, op_name: str, seconds: float) -> None:
        """A request from queue ``queue`` finished after ``seconds``."""
        with self._lock:
            counters = self._queues[queue]
            counters.completed += 1
            counters.depth -= 1
            recorder = self._op_latency.get(op_name)
            if recorder is None:
                recorder = self._op_latency[op_name] = LatencyRecorder()
            recorder.record(seconds)

    # -- readers -------------------------------------------------------------

    def queue_counters(self) -> List[QueueCounters]:
        """Point-in-time copies of every queue's counters."""
        with self._lock:
            return [counters.copy() for counters in self._queues]

    def total_queue_counters(self) -> QueueCounters:
        """All queues merged into one :class:`QueueCounters`."""
        merged = QueueCounters()
        for counters in self.queue_counters():
            merged = merged.merge(counters)
        return merged

    def snapshot(self) -> Dict[str, object]:
        """A serialisable report: connections, queues, per-op latency."""
        with self._lock:
            queues = [counters.copy() for counters in self._queues]
            latency = {name: recorder.summary()
                       for name, recorder in self._op_latency.items()}
            report: Dict[str, object] = {
                "connections_opened": self.connections_opened,
                "connections_closed": self.connections_closed,
                "protocol_errors": self.protocol_errors,
                "send_errors": self.send_errors,
                "sync_nodes_sent": self.sync_nodes_sent,
                "sync_bytes_sent": self.sync_bytes_sent,
                "sync_nodes_received": self.sync_nodes_received,
                "sync_bytes_received": self.sync_bytes_received,
            }
        report["queues"] = [
            {
                "admitted": q.admitted,
                "completed": q.completed,
                "rejected_busy": q.rejected_busy,
                "depth": q.depth,
                "peak_depth": q.peak_depth,
                "rejection_ratio": q.rejection_ratio,
            }
            for q in queues
        ]
        report["op_latency"] = latency
        return report
