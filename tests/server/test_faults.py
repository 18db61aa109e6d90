"""Fault injection against a live server: torn frames, dead clients, shard errors.

The server's failure contract (docs/SERVER.md):

* A client that vanishes mid-frame costs the server nothing — the
  partial frame is dropped and the listener keeps serving.
* A frame that parses as a frame but not as a request is answered with a
  ``protocol`` error frame, then the connection is closed (no trusted
  resync point exists); other connections are unaffected.
* An *operation* failure (here: a shard read blowing up inside the
  service) is answered with an error frame carrying the mapped code,
  and the same connection keeps working — errors are per-request, not
  per-connection.

The torn-frame loop mirrors the kill-point style of the storage torn-
write tests: every byte boundary of a valid framed request is a cut
point, and each cut must leave the server fully serviceable.
"""

from __future__ import annotations

import socket
import time

import pytest

from tests.server.conftest import make_service, wait_drained

from repro.core.errors import RemoteServerError
from repro.server import protocol
from repro.server.client import RemoteRepository
from repro.server.protocol import Op, Request, Status
from repro.server.server import RepositoryServer, ServerThread


def _connect(address):
    sock = socket.create_connection(address, timeout=10)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _framed_get(key: bytes = b"k", request_id: int = 1) -> bytes:
    return protocol.encode_frame(protocol.encode_request(
        Request(op=Op.GET, request_id=request_id, key=key)))


def _recv_response(sock) -> protocol.Response:
    decoder = protocol.FrameDecoder()
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        frames = decoder.feed(chunk)
        if frames:
            return protocol.decode_response(frames[0])


def test_disconnect_mid_request_leaves_server_alive(live_server, client):
    client.put(b"k", b"v")
    frame = _framed_get()
    for cut in (1, 3, len(frame) // 2, len(frame) - 1):
        sock = _connect(live_server.address)
        sock.sendall(frame[:cut])
        sock.close()
    # The listener is still fine and serves complete requests.
    assert client.get(b"k") == b"v"


def test_torn_frame_at_every_byte_boundary(live_server, client):
    """Kill-point sweep: a client dying at any offset never wedges the server."""
    client.put(b"torn", b"value")
    frame = _framed_get(b"torn")
    for cut in range(len(frame)):
        sock = _connect(live_server.address)
        if cut:
            sock.sendall(frame[:cut])
        sock.close()
    assert client.get(b"torn") == b"value"
    # Every torn connection was retired; none left a queue entry behind.
    total = wait_drained(live_server)
    assert total.depth == 0
    assert total.admitted == total.completed


def test_garbage_body_gets_protocol_error_then_close(live_server, client):
    # A framed body with an unknown opcode: framing holds, decoding fails.
    bad_body = bytes([protocol.PROTOCOL_VERSION, 222]) + (77).to_bytes(4, "big")
    sock = _connect(live_server.address)
    sock.sendall(protocol.encode_frame(bad_body))
    response = _recv_response(sock)
    assert response.status is Status.ERROR
    assert response.error_code == "protocol"
    assert response.request_id == 77  # best-effort id echo from the header
    # The server hangs up after an undecodable frame...
    assert sock.recv(65536) == b""
    sock.close()
    # ...but fresh connections (and pooled ones) are unaffected.
    client.ping()
    assert live_server.metrics.protocol_errors >= 1


def test_unframeable_stream_gets_protocol_error_then_close(live_server, client):
    # A declared length beyond the server's frame limit.
    sock = _connect(live_server.address)
    sock.sendall((live_server.max_frame_bytes + 1).to_bytes(4, "big"))
    response = _recv_response(sock)
    assert response.status is Status.ERROR
    assert response.error_code == "protocol"
    assert sock.recv(65536) == b""
    sock.close()
    client.ping()


def test_shard_error_surfaces_as_error_frame_connection_usable(
        live_server, client, monkeypatch):
    client.put_many([(b"a", b"1"), (b"b", b"2")])
    client.commit("seed")

    def boom(*args, **kwargs):
        raise RuntimeError("injected shard failure")

    # GET_MANY reads key by key; a failing shard read must come back as
    # ShardExecutionError -> "shard_execution" error frame.
    monkeypatch.setattr(live_server.service, "get", boom)
    with pytest.raises(RemoteServerError) as excinfo:
        client.get_many([b"a", b"b"])
    assert excinfo.value.code == "shard_execution"
    assert "injected shard failure" in str(excinfo.value)

    # The error was per-request: the same pooled connection keeps working.
    monkeypatch.undo()
    assert client.get_many([b"a", b"b"]) == [b"1", b"2"]
    client.ping()


def test_error_frames_do_not_leak_queue_depth(live_server, client, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(live_server.service, "get", boom)
    for _ in range(5):
        with pytest.raises(RemoteServerError):
            client.get_many([b"a", b"b"])
    monkeypatch.undo()
    total = wait_drained(live_server)
    assert total.depth == 0
    assert total.admitted == total.completed


def test_oversized_response_degrades_to_error_frame_not_dead_worker():
    """A response over the frame limit must not kill the queue worker.

    Regression: an unbounded SCAN whose result exceeded
    ``max_frame_bytes`` used to raise out of the worker coroutine,
    permanently wedging that queue (later requests hung, shutdown
    deadlocked).  It must instead answer ``response_too_large`` and keep
    both the worker and the connection serviceable.
    """
    server = RepositoryServer(make_service(), max_frame_bytes=2048)
    with ServerThread(server) as (host, port):
        with RemoteRepository(host, port) as remote:
            value = b"x" * 64
            for base in range(0, 100, 10):  # batches small enough to frame
                remote.put_many([(b"big:%03d" % i, value)
                                 for i in range(base, base + 10)])
            with pytest.raises(RemoteServerError) as excinfo:
                remote.scan()  # ~7.5 KB of records > the 2 KiB limit
            assert excinfo.value.code == "response_too_large"
            # The control-queue worker survived: the same connection
            # still serves scans that fit, commits, and single gets.
            assert len(remote.scan(limit=3)) == 3
            remote.commit("still alive")
            assert remote.get(b"big:007") == value
        assert server.metrics.send_errors >= 1
        total = wait_drained(server)
        assert total.depth == 0
        assert total.admitted == total.completed
    # Reaching here means shutdown's queue.join() did not deadlock.


def test_valid_frames_before_corruption_are_answered(live_server, client):
    """Pipelined requests completed before corrupt bytes still get answers."""
    client.put(b"pre", b"vx")
    good = _framed_get(b"pre", request_id=9)
    corrupt = (live_server.max_frame_bytes + 1).to_bytes(4, "big")
    sock = _connect(live_server.address)
    sock.sendall(good + corrupt)
    decoder = protocol.FrameDecoder()
    responses = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            break
        responses.extend(protocol.decode_response(f)
                         for f in decoder.feed(chunk))
    sock.close()
    assert [r.request_id for r in responses] == [9, 0]
    answered, error = responses
    assert answered.status is Status.OK
    assert answered.value == b"vx"
    assert error.status is Status.ERROR
    assert error.error_code == "protocol"


def test_pool_exhaustion_raises_descriptive_timeout(live_server):
    host, port = live_server.address
    with RemoteRepository(host, port, pool_size=1, timeout=0.2,
                          retries=0) as remote:
        pipe = remote.pipeline()  # holds the pool's only connection
        try:
            with pytest.raises(TimeoutError, match="pool exhausted"):
                remote.ping()
        finally:
            pipe.close()
        remote.ping()  # the returned connection serves again


def test_pipeline_failure_fails_all_outstanding_handles(live_server, monkeypatch):
    host, port = live_server.address
    real_get = live_server.service.get

    # Delay only the second request's answer so its response cannot have
    # been received (and buffered client-side) before the socket is cut.
    def slow_get(key, *args, **kwargs):
        if key == b"slow":
            time.sleep(0.5)
        return real_get(key, *args, **kwargs)

    monkeypatch.setattr(live_server.service, "get", slow_get)
    with RemoteRepository(host, port) as remote:
        remote.put(b"p", b"q")
        pipe = remote.pipeline()
        first = pipe.get(b"p")
        second = pipe.get(b"slow")
        assert first.result() == b"q"
        # Sever the pipeline's socket out from under it.
        pipe._connection.sock.close()
        with pytest.raises((ConnectionError, OSError)):
            second.result()
        # The pool discards the broken connection; new requests still work.
        pipe._client._release(pipe._connection, broken=True)
        assert remote.get(b"p") == b"q"
