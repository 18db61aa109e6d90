"""Wire-codec property tests: round-trip identity and fuzz resilience.

Two families of guarantees:

* **Round-trip identity** — one hypothesis test whose strategies are
  derived from the per-op schema (``tests/server/wire_schema.py``), so
  all 18 ops × 2 directions survive ``encode → decode`` unchanged; the
  checked-in ``golden_frames.json`` (written by the hand-unrolled codec
  this one replaced) pins the bytes themselves.
* **Encoder range checks** — every integer field refuses a value it
  cannot hold with :class:`~repro.core.errors.ProtocolError`.
* **Decoder hardening** — arbitrary bytes, truncations of valid frames
  at *every* byte boundary, oversized declared lengths and trailing
  garbage all raise the typed
  :class:`~repro.core.errors.ProtocolError` — never another exception,
  never an over-read, never a hang.  The 10k-frame fuzzer here is the
  in-process half of the acceptance criterion; ``bench_server.py`` runs
  the same generator against a live socket.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ProtocolError
from repro.server import protocol
from repro.server.protocol import (
    FrameDecoder,
    Op,
    Request,
    Response,
    Status,
    decode_request,
    decode_response,
    encode_frame,
    encode_request,
    encode_response,
)
from tests.server import wire_schema

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_frames.json")

#: ``(name, message)``: a request and an OK response per op and mode, an
#: ERROR and a BUSY response — derived from the schema.
SAMPLES = wire_schema.sample_messages()


def _codec(message):
    """The ``(encode, decode)`` pair for a message's direction."""
    if isinstance(message, Request):
        return encode_request, decode_request
    return encode_response, decode_response


# ---------------------------------------------------------------------------
# Round trips: every op, both directions, generated from the schema
# ---------------------------------------------------------------------------

@settings(max_examples=600)
@given(message=wire_schema.requests() | wire_schema.responses())
def test_every_message_roundtrips(message):
    encode, decode = _codec(message)
    assert decode(encode(message)) == message


@given(code=st.text(max_size=32), text=st.text(max_size=32),
       status=st.sampled_from([Status.ERROR, Status.BUSY]),
       op=st.sampled_from(list(Op)))
def test_error_response_roundtrip(code, text, status, op):
    out = decode_response(encode_response(Response(
        status=status, op=op, request_id=7,
        error_code=code, error_message=text)))
    assert (out.status, out.op, out.error_code, out.error_message) == \
        (status, op, code, text)


def test_unset_attributes_encode_as_empty():
    """``None`` in a required bytes/str/list attribute is written as empty."""
    assert decode_request(encode_request(Request(op=Op.GET))).key == b""
    assert decode_request(encode_request(Request(op=Op.GET_MANY))).keys == []
    assert decode_request(encode_request(Request(op=Op.BRANCH_HEAD))).branch == ""


# ---------------------------------------------------------------------------
# Golden frames: the bytes the hand-unrolled codec wrote, kept forever
# ---------------------------------------------------------------------------

def _golden_frames():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)["frames"]


def test_golden_frames_cover_every_sample():
    assert [frame["name"] for frame in _golden_frames()] == \
        [name for name, _ in SAMPLES]


@pytest.mark.parametrize("frame", _golden_frames(), ids=lambda frame: frame["name"])
def test_golden_frame_bytes_and_decoding(frame):
    message = dict(SAMPLES)[frame["name"]]
    # A mismatch here means the *sample* drifted, not the codec.
    assert wire_schema.describe(message) == frame["message"]
    encode, decode = _codec(message)
    assert encode(message).hex() == frame["hex"]
    assert decode(bytes.fromhex(frame["hex"])) == message


# ---------------------------------------------------------------------------
# One definition per op
# ---------------------------------------------------------------------------

def test_every_op_has_one_request_row_one_response_row_and_one_handler():
    from repro.server.server import HANDLERS
    assert list(protocol.SCHEMA) == list(Op) == list(HANDLERS)
    with pytest.raises(AssertionError, match="two schema rows"):
        protocol._one_row_per_op([(op, (), ()) for op in Op] + [(Op.GET, (), ())])
    with pytest.raises(AssertionError, match="without a schema row"):
        protocol._one_row_per_op([(Op.GET, (), ())])


# ---------------------------------------------------------------------------
# Encoder range checks
# ---------------------------------------------------------------------------

def _with_one_integer_replaced(field, value, replacement):
    """Copies of ``value``, each with one integer slot set to ``replacement(bits)``."""
    if field.kind in ("u32", "u64"):
        yield replacement(int(field.kind[1:]))
    elif field.kind == "opt":
        inner = field.parts[0]
        yield from _with_one_integer_replaced(
            inner, wire_schema.sample(inner) if value is None else value, replacement)
    elif field.kind in ("list", "tuple"):
        parts = field.parts * len(value) if field.kind == "list" else field.parts
        for position, (part, item) in enumerate(zip(parts, value)):
            for changed in _with_one_integer_replaced(part, item, replacement):
                yield type(value)([*value[:position], changed, *value[position + 1:]])
    elif field.kind == "record":
        for name, member in field.parts:
            for changed in _with_one_integer_replaced(
                    member, getattr(value, name), replacement):
                yield dataclasses.replace(value, **{name: changed})


def _integer_variants(message, replacement):
    """``message`` with each integer it carries (header and payload,
    nested ones included) replaced in turn."""
    for attribute, field in [("request_id", protocol.U32)] + wire_schema.fields_of(message):
        for changed in _with_one_integer_replaced(
                field, getattr(message, attribute), replacement):
            yield dataclasses.replace(message, **{attribute: changed})


OK_SAMPLES = [(name, message) for name, message in SAMPLES
              if getattr(message, "status", Status.OK) is Status.OK]


@pytest.mark.parametrize("name,message", OK_SAMPLES, ids=[name for name, _ in OK_SAMPLES])
def test_out_of_range_integers_raise_protocol_error(name, message):
    """No integer field wraps around or leaks ``OverflowError``."""
    encode, decode = _codec(message)
    for too_far in (lambda bits: -1, lambda bits: 2**bits):
        for variant in _integer_variants(message, too_far):
            with pytest.raises(ProtocolError):
                encode(variant)
    for variant in _integer_variants(message, lambda bits: 2**bits - 1):
        assert decode(encode(variant)) == variant


def test_integer_variants_reach_nested_integers():
    commit = dict(OK_SAMPLES)["response/COMMIT"]
    variants = list(_integer_variants(commit, lambda bits: -1))
    # request_id, commit.version and the two sampled parents.
    assert len(variants) == 4
    assert [v.commit.parents for v in variants[2:]] == [(-1, 0), (2**40 + 5, -1)]


def test_writer_u8_refuses_to_truncate():
    with pytest.raises(ProtocolError):
        protocol._Writer().u8(300)


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------

def test_frame_decoder_reassembles_split_frames():
    bodies = [encode_request(Request(op=Op.GET, request_id=i, key=bytes([i])))
              for i in range(5)]
    stream = b"".join(encode_frame(b) for b in bodies)
    decoder = FrameDecoder()
    out = []
    for i in range(0, len(stream), 3):  # drip-feed 3 bytes at a time
        out.extend(decoder.feed(stream[i:i + 3]))
    assert out == bodies
    assert decoder.buffered_bytes == 0


def test_frame_too_large_rejected_before_buffering():
    decoder = FrameDecoder(max_frame_bytes=1024)
    with pytest.raises(ProtocolError):
        decoder.feed((1 << 20).to_bytes(4, "big"))


def test_frame_below_header_size_rejected():
    with pytest.raises(ProtocolError):
        FrameDecoder().feed((2).to_bytes(4, "big") + b"xx")


def test_encode_frame_enforces_limit():
    with pytest.raises(ProtocolError):
        encode_frame(b"x" * 100, max_frame_bytes=10)


def test_frames_completed_before_corruption_are_retrievable():
    """A corrupt length field must not discard already-parsed frames."""
    bodies = [encode_request(Request(op=Op.PING, request_id=i))
              for i in range(3)]
    stream = b"".join(encode_frame(b) for b in bodies)
    corrupt = (1).to_bytes(4, "big")  # below the message-header minimum
    decoder = FrameDecoder()
    with pytest.raises(ProtocolError):
        decoder.feed(stream + corrupt)
    assert decoder.take_completed() == bodies
    # take_completed drains: a second call yields nothing.
    assert decoder.take_completed() == []


def test_take_completed_empty_after_normal_feed():
    decoder = FrameDecoder()
    body = encode_request(Request(op=Op.PING, request_id=1))
    assert decoder.feed(encode_frame(body)) == [body]
    assert decoder.take_completed() == []


# ---------------------------------------------------------------------------
# Decoder hardening
# ---------------------------------------------------------------------------

def _sample_bodies():
    """One valid encoded body per message shape (requests, responses)."""
    bodies = ([], [])
    for _name, message in SAMPLES:
        bodies[isinstance(message, Response)].append(_codec(message)[0](message))
    return bodies


def test_every_truncation_raises_protocol_error():
    """Cutting any valid body at any byte boundary must raise, not crash."""
    req_bodies, resp_bodies = _sample_bodies()
    for body in req_bodies:
        for cut in range(len(body)):
            with pytest.raises(ProtocolError):
                decode_request(body[:cut])
    for body in resp_bodies:
        for cut in range(len(body)):
            with pytest.raises(ProtocolError):
                decode_response(body[:cut])


def test_trailing_garbage_raises():
    body = encode_request(Request(op=Op.GET, request_id=1, key=b"k"))
    with pytest.raises(ProtocolError):
        decode_request(body + b"\x00")


def test_unknown_opcode_and_version_raise():
    with pytest.raises(ProtocolError):
        decode_request(bytes([protocol.PROTOCOL_VERSION, 250]) + b"\x00" * 4)
    with pytest.raises(ProtocolError):
        decode_request(bytes([99, int(Op.PING)]) + b"\x00" * 4)


def test_hostile_count_field_rejected_without_allocation():
    # GET_MANY with a count claiming 2**32-1 keys in a tiny payload.
    body = bytes([protocol.PROTOCOL_VERSION, int(Op.GET_MANY)])
    body += (1).to_bytes(4, "big") + (0xFFFFFFFF).to_bytes(4, "big")
    with pytest.raises(ProtocolError):
        decode_request(body)


def _mutate(body: bytes, rng: random.Random) -> bytes:
    """One random corruption: bit flip, truncation, insertion, or deletion."""
    choice = rng.randrange(4)
    raw = bytearray(body)
    if choice == 0 and raw:
        raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
    elif choice == 1:
        del raw[rng.randrange(len(raw) + 1):]
    elif choice == 2:
        pos = rng.randrange(len(raw) + 1)
        raw[pos:pos] = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 5)))
    elif raw:
        pos = rng.randrange(len(raw))
        del raw[pos:pos + rng.randrange(1, 5)]
    return bytes(raw)


def test_fuzz_10k_frames_decode_or_protocol_error():
    """≥10k random and mutated bodies: decode cleanly or raise the typed error.

    This is the acceptance-criterion fuzzer.  Any other exception type
    (or an over-read past the body) fails the test immediately.
    """
    rng = random.Random(0xF0CACC1A)
    req_bodies, resp_bodies = _sample_bodies()
    survived = 0
    for i in range(10_000):
        if i % 2 == 0:
            body = bytes(rng.randrange(256)
                         for _ in range(rng.randrange(0, 128)))
        else:
            pool = req_bodies if i % 4 == 1 else resp_bodies
            body = _mutate(pool[rng.randrange(len(pool))], rng)
        for decode in (decode_request, decode_response):
            try:
                decode(body)
            except ProtocolError:
                pass
        survived += 1
    assert survived == 10_000


@settings(max_examples=200)
@given(data=st.binary(max_size=256))
def test_hypothesis_fuzz_decoders(data):
    """Hypothesis-driven variant of the fuzzer (shrinks on failure)."""
    for decode in (decode_request, decode_response):
        try:
            decode(data)
        except ProtocolError:
            pass


@given(data=st.binary(max_size=64))
def test_fuzzed_stream_never_over_reads_framer(data):
    decoder = FrameDecoder(max_frame_bytes=1024)
    try:
        frames = decoder.feed(data)
    except ProtocolError:
        return
    consumed = sum(len(f) + protocol.LENGTH_PREFIX_BYTES for f in frames)
    assert consumed + decoder.buffered_bytes == len(data)
