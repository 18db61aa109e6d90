"""Network front door: wire protocol, asyncio server, and pooled client.

This package turns the in-process service stack into an actual service
(ROADMAP open item 1): :mod:`repro.server.protocol` defines a
length-prefixed binary wire format over all repository operations
(including ``prove``, so remote clients can verify answers against a
commit root they trust); :mod:`repro.server.server` runs an asyncio
front door that admits requests into bounded per-shard queues whose
handlers call the :class:`~repro.service.VersionedKVService` directly,
rejecting with ``BUSY`` frames under overload; :mod:`repro.server.client` provides
:class:`~repro.server.client.RemoteRepository`, a pooled, pipelining
client mirroring the local :class:`~repro.api.Repository` surface; and
:mod:`repro.server.metrics` surfaces per-op latency histograms and queue
depths.  See ``docs/SERVER.md`` for the frame layout, the error-frame
table, and the backpressure invariants.
"""

from repro.server.client import RemoteRepository
from repro.server.metrics import ServerMetrics
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    CommitInfo,
    FrameDecoder,
    Op,
    Request,
    Response,
    Status,
    WireProof,
    decode_request,
    decode_response,
    encode_frame,
    encode_request,
    encode_response,
)
from repro.server.server import RepositoryServer, ServerThread

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "CommitInfo",
    "FrameDecoder",
    "Op",
    "RemoteRepository",
    "RepositoryServer",
    "Request",
    "Response",
    "ServerMetrics",
    "ServerThread",
    "Status",
    "WireProof",
    "decode_request",
    "decode_response",
    "encode_frame",
    "encode_request",
    "encode_response",
]
