"""The wire protocol: length-prefixed binary framing and op codecs.

Every message on a server connection is one *frame*::

    +----------------+---------------------------------------------+
    | length u32 BE  | body (exactly `length` bytes)               |
    +----------------+---------------------------------------------+

Request body::

    version u8 | op u8 | request_id u32 | op-specific payload

Response body::

    version u8 | status u8 | op u8 | request_id u32 | payload

``request_id`` is chosen by the client and echoed verbatim, so a client
may pipeline many requests on one connection and match responses that
complete out of order.  ``status`` is :data:`Status.OK`,
:data:`Status.ERROR` (payload: error code + message strings) or
:data:`Status.BUSY` (the admission queue was full — backpressure, see
``docs/SERVER.md``).

Integers are big-endian and unsigned; byte strings and UTF-8 strings are
``u32`` length-prefixed; optional values carry a one-byte presence flag.
The codec's hard contract — enforced by the fuzz suite in
``tests/server/test_protocol.py`` — is that *arbitrary* input bytes
either decode to a valid message or raise
:class:`~repro.core.errors.ProtocolError`: never another exception type,
never a read past the frame, never acceptance of trailing garbage, and
never an allocation driven by an unvalidated length field.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.errors import ProtocolError
from repro.core.proof import MerkleProof, ProofStep

#: Protocol version byte carried by every frame; a server answering a
#: frame with a different version responds with an error frame.
PROTOCOL_VERSION = 1

#: Hard upper bound on one frame's body, bounding decoder allocations.
MAX_FRAME_BYTES = 32 * 1024 * 1024

#: Bytes of the frame length prefix.
LENGTH_PREFIX_BYTES = 4

#: Smallest legal body: version + op + request_id (a request header).
_MIN_BODY_BYTES = 6


class Op(IntEnum):
    """Operation codes carried by request frames (echoed in responses)."""

    PING = 1
    GET = 2
    GET_MANY = 3
    PUT_MANY = 4
    REMOVE_MANY = 5
    SCAN = 6
    DIFF = 7
    COMMIT = 8
    SNAPSHOT = 9
    BRANCHES = 10
    BRANCH_CREATE = 11
    BRANCH_HEAD = 12
    PROVE = 13
    FETCH_HEADS = 14
    FETCH_NODES = 15
    PUSH_NODES = 16
    SUBSCRIBE = 17
    POLL_FEED = 18


class Status(IntEnum):
    """Response status byte."""

    OK = 0
    ERROR = 1
    BUSY = 2


# ---------------------------------------------------------------------------
# Primitive writer / reader
# ---------------------------------------------------------------------------

class _Writer:
    """Accumulates the primitive encodings (all integers big-endian).

    An integer that does not fit its field raises
    :class:`ProtocolError` — the encoder never wraps a value around or
    leaks ``OverflowError`` to its caller.
    """

    __slots__ = ("_parts",)

    def __init__(self):
        self._parts: List[bytes] = []

    def _uint(self, value: int, size: int) -> None:
        try:
            self._parts.append(value.to_bytes(size, "big"))
        except (OverflowError, AttributeError, TypeError):
            raise ProtocolError(
                f"{value!r} does not fit an unsigned {8 * size}-bit "
                "integer field") from None

    def u8(self, value: int) -> None:
        self._uint(value, 1)

    def u32(self, value: int) -> None:
        self._uint(value, 4)

    def u64(self, value: int) -> None:
        self._uint(value, 8)

    def f64(self, value: float) -> None:
        self._parts.append(struct.pack(">d", value))

    def flag(self, value: bool) -> None:
        self._parts.append(b"\x01" if value else b"\x00")

    def bytes_(self, value: bytes) -> None:
        self.u32(len(value))
        self._parts.append(bytes(value))

    def str_(self, value: str) -> None:
        self.bytes_(value.encode("utf-8"))

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class _Reader:
    """Bounds-checked decoder over one frame body.

    Every primitive read validates that the requested bytes exist inside
    the frame before touching them, so a malicious length field can make
    decoding *fail* (:class:`ProtocolError`) but never over-read or
    allocate beyond the frame it was handed.
    """

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def _take(self, count: int) -> bytes:
        if count < 0 or count > self.remaining:
            raise ProtocolError(
                f"truncated payload: need {count} byte(s) at offset "
                f"{self._pos}, have {self.remaining}")
        chunk = self._data[self._pos:self._pos + count]
        self._pos += count
        return chunk

    def u8(self) -> int:
        return self._take(1)[0]

    def u32(self) -> int:
        return int.from_bytes(self._take(4), "big")

    def u64(self) -> int:
        return int.from_bytes(self._take(8), "big")

    def f64(self) -> float:
        return struct.unpack(">d", self._take(8))[0]

    def flag(self) -> bool:
        flag = self.u8()
        if flag not in (0, 1):
            raise ProtocolError(f"invalid flag byte: {flag}")
        return bool(flag)

    def bytes_(self) -> bytes:
        length = self.u32()
        return self._take(length)

    def str_(self) -> str:
        raw = self.bytes_()
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"invalid UTF-8 string field: {exc}") from None

    def count(self, min_item_bytes: int) -> int:
        """Read a list length, rejecting counts the frame cannot hold."""
        value = self.u32()
        if value * min_item_bytes > self.remaining:
            raise ProtocolError(
                f"list count {value} exceeds remaining payload "
                f"({self.remaining} byte(s))")
        return value

    def expect_end(self) -> None:
        if self.remaining:
            raise ProtocolError(
                f"{self.remaining} trailing byte(s) after payload")


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------

@dataclass
class Request:
    """One decoded client request (field usage depends on :attr:`op`)."""

    op: Op
    request_id: int = 0
    #: GET / PROVE: the single key.
    key: Optional[bytes] = None
    #: GET_MANY / REMOVE_MANY: the key list.
    keys: Optional[List[bytes]] = None
    #: PUT_MANY: the (key, value) pairs.
    items: Optional[List[Tuple[bytes, bytes]]] = None
    #: GET/GET_MANY/SCAN/SNAPSHOT/PROVE version selector, DIFF left side
    #: (``None`` = latest state).
    version: Optional[int] = None
    #: DIFF right side (``None`` = latest state).
    right_version: Optional[int] = None
    #: COMMIT message.
    message: str = ""
    #: BRANCH_CREATE / BRANCH_HEAD: the branch name.
    branch: Optional[str] = None
    #: BRANCH_CREATE: source branch (``None`` = the default branch).
    from_branch: Optional[str] = None
    #: SCAN bounds: start inclusive, stop exclusive, prefix filter.
    start: Optional[bytes] = None
    stop: Optional[bytes] = None
    prefix: Optional[bytes] = None
    #: SCAN: maximum records returned (0 = unlimited).
    limit: int = 0
    #: FETCH_NODES / PUSH_NODES (node mode): the target shard.
    shard_id: int = 0
    #: FETCH_NODES: True = answer only which digests the server lacks
    #: (a frontier-pruning probe), False = return the node bytes.
    missing_only: bool = False
    #: FETCH_NODES: the requested node digests.
    digests: Optional[List[bytes]] = None
    #: PUSH_NODES: True = head-publish mode (branch/roots/expected are
    #: used), False = node-transfer mode (shard_id/items are used).
    publish: bool = False
    #: PUSH_NODES (publish mode): per-shard root digests of the new head.
    roots: Optional[List[Optional[bytes]]] = None
    #: PUSH_NODES (publish mode): compare-and-set guard — the digest the
    #: branch head must still have (``None`` = branch must not exist).
    expected: Optional[bytes] = None
    #: POLL_FEED: raw diff entries already consumed from the commit after
    #: the cursor version (``version`` doubles as the cursor version and,
    #: for SUBSCRIBE, as the optional starting commit).
    feed_offset: int = 0


@dataclass
class CommitInfo:
    """Wire form of a :class:`~repro.service.ServiceCommit`."""

    version: int
    digest: bytes
    branch: str
    parents: Tuple[int, ...]
    timestamp: float
    message: str
    #: Per-shard root digests (``None`` = empty shard), the client-side
    #: anchor for verifying :class:`WireProof` answers.
    roots: Tuple[Optional[bytes], ...]


@dataclass
class WireProof:
    """Wire form of a :class:`~repro.core.proof.MerkleProof` answer.

    Carries everything a client needs to check the answer without
    trusting the server's value: the proof path, the shard that owns the
    key, and that shard's root digest in the version the proof was built
    against (``root`` is ``None`` for an empty shard, whose only honest
    answer is absence).
    """

    key: bytes
    value: Optional[bytes]
    index_name: str
    shard_id: int
    root: Optional[bytes]
    steps: List[Tuple[int, bytes]] = field(default_factory=list)

    def to_merkle_proof(self) -> MerkleProof:
        """Rebuild the structure-agnostic :class:`MerkleProof`."""
        return MerkleProof(
            self.key, self.value,
            [ProofStep(node_bytes, level) for level, node_bytes in self.steps],
            index_name=self.index_name)

    def verify(self) -> bool:
        """Verify the proof path against the carried shard root.

        Returns True when the proof checks out; raises
        :class:`~repro.core.errors.ProofVerificationError` when any link
        fails.  An absence answer from an empty shard (``root is None``,
        no steps) is vacuously valid — there is nothing to hash — but a
        claimed *value* without a root to anchor it is rejected.
        """
        from repro.core.errors import ProofVerificationError
        from repro.hashing.digest import Digest

        if self.root is None:
            if self.value is not None or self.steps:
                raise ProofVerificationError(
                    "proof claims a value/path but carries no shard root")
            return True
        return self.to_merkle_proof().verify(Digest(self.root))


@dataclass
class WireBranchHead:
    """Wire form of one branch head in a ``FETCH_HEADS`` answer.

    Carries what a sync peer needs to classify the branch relationship
    without further round trips: the head's content digest, its per-shard
    roots (the frontier entry points) and a bounded first-parent chain of
    ancestor content digests (for cross-replica common-base discovery —
    see ``docs/SYNC.md``).
    """

    branch: str
    digest: bytes
    roots: Tuple[Optional[bytes], ...]
    ancestry: Tuple[bytes, ...]


@dataclass
class Response:
    """One decoded server response (field usage depends on :attr:`op`)."""

    status: Status
    op: Op
    request_id: int = 0
    #: GET: the value (``None`` = key absent).
    value: Optional[bytes] = None
    #: GET_MANY: one optional value per requested key, in request order.
    values: Optional[List[Optional[bytes]]] = None
    #: SCAN: the (key, value) records, ascending keys.
    items: Optional[List[Tuple[bytes, bytes]]] = None
    #: SCAN: True when ``limit`` cut the result short.
    truncated: bool = False
    #: PUT_MANY / REMOVE_MANY: operations applied.
    ack_count: int = 0
    #: DIFF: (key, left value, right value) entries, ascending keys.
    diff_entries: Optional[List[Tuple[bytes, Optional[bytes], Optional[bytes]]]] = None
    #: COMMIT / SNAPSHOT / BRANCH_CREATE / BRANCH_HEAD: the commit record.
    commit: Optional[CommitInfo] = None
    #: BRANCHES: sorted branch names.
    branches: Optional[List[str]] = None
    #: PROVE: the proof answer.
    proof: Optional[WireProof] = None
    #: FETCH_HEADS: every branch head (plus the shard count in
    #: :attr:`num_shards`, so a peer can reject a shard-count mismatch).
    heads: Optional[List[WireBranchHead]] = None
    #: FETCH_HEADS: the serving repository's shard count.
    num_shards: int = 0
    #: FETCH_NODES (missing_only): the digests the server lacks.
    digests: Optional[List[bytes]] = None
    #: FETCH_NODES: echo of the request's missing_only flag;
    #: PUSH_NODES: echo of the request's publish flag.
    mode_flag: bool = False
    #: POLL_FEED: change events as (version, commit digest, key, old
    #: value, new value) tuples, in feed order.
    events: Optional[List[Tuple[int, bytes, bytes,
                                Optional[bytes], Optional[bytes]]]] = None
    #: SUBSCRIBE / POLL_FEED: the (resumable) cursor after this answer.
    cursor_version: Optional[int] = None
    cursor_offset: int = 0
    #: POLL_FEED: True when the cursor reached the branch head.
    up_to_date: bool = False
    #: ERROR / BUSY: machine-readable code and human-readable message.
    error_code: str = ""
    error_message: str = ""


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------

def encode_frame(body: bytes, max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Wrap a message body in the length-prefixed frame."""
    if len(body) > max_frame_bytes:
        raise ProtocolError(
            f"frame body of {len(body)} bytes exceeds the "
            f"{max_frame_bytes}-byte limit")
    return len(body).to_bytes(LENGTH_PREFIX_BYTES, "big") + body


class FrameDecoder:
    """Incremental frame splitter for a byte stream.

    Feed arbitrary chunks; complete frame bodies come back in order.
    Never buffers more than one frame beyond the declared length, and
    rejects declared lengths outside ``[_MIN_BODY_BYTES, max_frame_bytes]``
    before allocating anything — an attacker-controlled length field can
    therefore cost at most ``max_frame_bytes`` of memory.

    When a chunk completes some valid frames *and then* hits a corrupt
    length field, :meth:`feed` raises — but the frames completed before
    the corruption are not lost: they are held on the decoder and
    returned by :meth:`take_completed`, so a server can still answer the
    valid pipelined requests before reporting the error and hanging up.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES):
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()
        self._completed: List[bytes] = []

    def feed(self, data: bytes) -> List[bytes]:
        """Append ``data``; return every frame body completed by it.

        On a corrupt length field this raises :class:`ProtocolError`;
        frames completed earlier in the stream remain retrievable via
        :meth:`take_completed`.
        """
        self._buffer.extend(data)
        frames = self._completed
        self._completed = []
        while True:
            if len(self._buffer) < LENGTH_PREFIX_BYTES:
                return frames
            length = int.from_bytes(self._buffer[:LENGTH_PREFIX_BYTES], "big")
            if length > self.max_frame_bytes:
                self._completed = frames
                raise ProtocolError(
                    f"declared frame length {length} exceeds the "
                    f"{self.max_frame_bytes}-byte limit")
            if length < _MIN_BODY_BYTES:
                self._completed = frames
                raise ProtocolError(
                    f"declared frame length {length} is below the "
                    f"{_MIN_BODY_BYTES}-byte message header")
            if len(self._buffer) < LENGTH_PREFIX_BYTES + length:
                return frames
            frames.append(bytes(
                self._buffer[LENGTH_PREFIX_BYTES:LENGTH_PREFIX_BYTES + length]))
            del self._buffer[:LENGTH_PREFIX_BYTES + length]

    def take_completed(self) -> List[bytes]:
        """Frames parsed before a :meth:`feed` error (cleared on return)."""
        frames, self._completed = self._completed, []
        return frames

    @property
    def buffered_bytes(self) -> int:
        """Bytes of the partial frame currently buffered."""
        return len(self._buffer)


def peek_request_id(body: bytes) -> int:
    """Best-effort request id from a (possibly malformed) request body.

    Used by the server to address an error frame at the request that
    failed to decode; returns 0 when even the header is unreadable.
    """
    if len(body) >= _MIN_BODY_BYTES:
        return int.from_bytes(body[2:6], "big")
    return 0


# ---------------------------------------------------------------------------
# Field combinators
# ---------------------------------------------------------------------------

class Field(NamedTuple):
    """One wire type: a value's encoding, built up by the combinators below.

    ``write(writer, value)`` and ``read(reader)`` are inverses over
    :class:`_Writer`/:class:`_Reader`.  ``min_bytes`` is the smallest
    encoding — the per-item bound :func:`list_of` hands to
    ``_Reader.count``, so a hostile count is refused before anything is
    allocated.  ``empty`` is what a message attribute left at ``None``
    is written as.  ``kind``, ``parts`` (the fields it is built from)
    and ``builds`` (the container or record class ``read`` returns)
    describe the type to tools: the test generators and the payload
    table in ``docs/SERVER.md`` are derived from them.
    """

    kind: str
    write: Callable[[_Writer, Any], None]
    read: Callable[[_Reader], Any]
    min_bytes: int
    empty: Any = None
    parts: Tuple = ()
    builds: Optional[type] = None


U32 = Field("u32", _Writer.u32, _Reader.u32, 4, 0)
U64 = Field("u64", _Writer.u64, _Reader.u64, 8, 0)
F64 = Field("f64", _Writer.f64, _Reader.f64, 8, 0.0)
FLAG = Field("flag", _Writer.flag, _Reader.flag, 1, False)
BYTES = Field("bytes", _Writer.bytes_, _Reader.bytes_, 4, b"")
STR = Field("str", _Writer.str_, _Reader.str_, 4, "")


def opt(item: Field) -> Field:
    """``item`` behind a one-byte presence flag (``None`` = absent)."""
    def write(writer: _Writer, value: Any) -> None:
        writer.flag(value is not None)
        if value is not None:
            item.write(writer, value)

    def read(reader: _Reader) -> Any:
        return item.read(reader) if reader.flag() else None

    return Field("opt", write, read, 1, None, (item,))


def list_of(item: Field, container: type = list) -> Field:
    """A ``u32`` count, then that many ``item``s (decoded into ``container``)."""
    def write(writer: _Writer, values: Sequence) -> None:
        writer.u32(len(values))
        for value in values:
            item.write(writer, value)

    def read(reader: _Reader) -> Any:
        items = [item.read(reader) for _ in range(reader.count(item.min_bytes))]
        return items if container is list else container(items)

    return Field("list", write, read, 4, container(), (item,), container)


def tuple_of(*items: Field) -> Field:
    """A fixed-arity tuple: each item's encoding, in order."""
    def write(writer: _Writer, values: Sequence) -> None:
        if len(values) != len(items):
            raise ProtocolError(
                f"expected a {len(items)}-tuple, got {len(values)} value(s)")
        for item, value in zip(items, values):
            item.write(writer, value)

    def read(reader: _Reader) -> Tuple:
        return tuple([item.read(reader) for item in items])

    return Field("tuple", write, read,
                 sum(item.min_bytes for item in items), None, items)


def record(cls: type, *members: Tuple[str, Field]) -> Field:
    """A ``cls`` record: its named members' encodings, in order."""
    def write(writer: _Writer, value: Any) -> None:
        if value is None:
            raise ProtocolError(f"the payload requires a {cls.__name__}")
        for name, member in members:
            member.write(writer, getattr(value, name))

    def read(reader: _Reader) -> Any:
        return cls(*[member.read(reader) for _, member in members])

    return Field("record", write, read,
                 sum(member.min_bytes for _, member in members), None,
                 members, cls)


class Modes(NamedTuple):
    """A two-mode payload: the boolean attribute it is paired with is
    written first as a flag, then the row of the mode it selects."""

    when_true: "Row"
    when_false: "Row"


#: One message payload: ``(attribute name, Field or Modes)`` pairs in
#: wire order, read from / assigned to a :class:`Request` or
#: :class:`Response`.
Row = Tuple[Tuple[str, Union[Field, Modes]], ...]


def _write_row(writer: _Writer, message: Any, row: Row) -> None:
    for name, field_ in row:
        value = getattr(message, name)
        if isinstance(field_, Modes):
            writer.flag(value)
            _write_row(writer, message,
                       field_.when_true if value else field_.when_false)
        else:
            field_.write(writer, field_.empty if value is None else value)


def _read_row(reader: _Reader, message: Any, row: Row) -> None:
    for name, field_ in row:
        if isinstance(field_, Modes):
            value = reader.flag()
            setattr(message, name, value)
            _read_row(reader, message,
                      field_.when_true if value else field_.when_false)
        else:
            setattr(message, name, field_.read(reader))


# ---------------------------------------------------------------------------
# The per-op schema
# ---------------------------------------------------------------------------

_OPT_BYTES = opt(BYTES)
_OPT_U64 = opt(U64)
_KEYS = list_of(BYTES)
_PAIRS = list_of(tuple_of(BYTES, BYTES))
_ROOTS = list_of(_OPT_BYTES, tuple)
_VERSION = ("version", _OPT_U64)

_COMMIT = ("commit", record(
    CommitInfo, ("version", U64), ("digest", BYTES), ("branch", STR),
    ("parents", list_of(U64, tuple)), ("timestamp", F64), ("message", STR),
    ("roots", _ROOTS)))
_PROOF = record(
    WireProof, ("key", BYTES), ("value", _OPT_BYTES), ("index_name", STR),
    ("shard_id", U32), ("root", _OPT_BYTES),
    ("steps", list_of(tuple_of(U32, BYTES))))
_HEAD = record(
    WireBranchHead, ("branch", STR), ("digest", BYTES), ("roots", _ROOTS),
    ("ancestry", list_of(BYTES, tuple)))
_CURSOR: Row = (("cursor_version", _OPT_U64), ("cursor_offset", U32))


class OpSchema(NamedTuple):
    """The wire payloads of one op: its request row and its OK-response row."""

    request: Row
    response: Row


def _one_row_per_op(rows: Sequence[Tuple[Op, Row, Row]]) -> Dict[Op, OpSchema]:
    """Index the rows by op; a repeated or a missing op fails the import."""
    schema: Dict[Op, OpSchema] = {}
    for op, request, response in rows:
        if op in schema:
            raise AssertionError(f"{op.name} has two schema rows")
        schema[op] = OpSchema(request, response)
    missing = [op.name for op in Op if op not in schema]
    if missing:
        raise AssertionError(f"ops without a schema row: {missing}")
    return schema


#: The one definition of every op's payload.  All four codec functions
#: below walk it, the server derives its dispatch table from it
#: (:mod:`repro.server.server`), and so do the codec tests' generators
#: and the payload table of ``docs/SERVER.md``.  To add an op see
#: "Adding an op" there.
SCHEMA: Dict[Op, OpSchema] = _one_row_per_op((
    (Op.PING, (), ()),
    (Op.GET, (("key", BYTES), _VERSION), (("value", _OPT_BYTES),)),
    (Op.GET_MANY, (("keys", _KEYS), _VERSION),
     (("values", list_of(_OPT_BYTES)),)),
    (Op.PUT_MANY, (("items", _PAIRS),), (("ack_count", U32),)),
    (Op.REMOVE_MANY, (("keys", _KEYS),), (("ack_count", U32),)),
    (Op.SCAN,
     (("start", _OPT_BYTES), ("stop", _OPT_BYTES), ("prefix", _OPT_BYTES),
      ("limit", U32), _VERSION),
     (("items", _PAIRS), ("truncated", FLAG))),
    (Op.DIFF, (_VERSION, ("right_version", _OPT_U64)),
     (("diff_entries", list_of(tuple_of(BYTES, _OPT_BYTES, _OPT_BYTES))),)),
    (Op.COMMIT, (("message", STR),), (_COMMIT,)),
    (Op.SNAPSHOT, (_VERSION,), (_COMMIT,)),
    (Op.BRANCHES, (), (("branches", list_of(STR)),)),
    (Op.BRANCH_CREATE, (("branch", STR), ("from_branch", opt(STR))),
     (_COMMIT,)),
    (Op.BRANCH_HEAD, (("branch", STR),), (_COMMIT,)),
    (Op.PROVE, (("key", BYTES), _VERSION), (("proof", _PROOF),)),
    (Op.FETCH_HEADS, (), (("num_shards", U32), ("heads", list_of(_HEAD)))),
    (Op.FETCH_NODES,
     (("shard_id", U32), ("missing_only", FLAG), ("digests", _KEYS)),
     (("mode_flag", Modes(when_true=(("digests", _KEYS),),
                          when_false=(("items", _PAIRS),))),)),
    (Op.PUSH_NODES,
     (("publish", Modes(
         when_true=(("branch", STR), ("roots", list_of(_OPT_BYTES)),
                    ("expected", _OPT_BYTES), ("message", STR)),
         when_false=(("shard_id", U32), ("items", _PAIRS)))),),
     (("mode_flag", Modes(when_true=(_COMMIT,),
                          when_false=(("ack_count", U32),))),)),
    (Op.SUBSCRIBE, (("branch", STR), _VERSION), _CURSOR),
    (Op.POLL_FEED,
     (("branch", STR), _VERSION, ("feed_offset", U32), ("limit", U32),
      ("prefix", _OPT_BYTES)),
     (("events", list_of(tuple_of(U64, BYTES, BYTES, _OPT_BYTES, _OPT_BYTES))),
      *_CURSOR, ("up_to_date", FLAG))),
))

#: Payload of an ``ERROR`` or ``BUSY`` response, whatever the op.
_FAILURE: Row = (("error_code", STR), ("error_message", STR))


# ---------------------------------------------------------------------------
# The codec
# ---------------------------------------------------------------------------

def _read_header(reader: _Reader) -> None:
    version = reader.u8()
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version} "
            f"(expected {PROTOCOL_VERSION})")


def _read_enum(reader: _Reader, enum: type, what: str) -> Any:
    value = reader.u8()
    try:
        return enum(value)
    except ValueError:
        raise ProtocolError(f"unknown {what}: {value}") from None


def _schema_of(op: Op) -> OpSchema:
    try:
        return SCHEMA[op]
    except KeyError:
        raise ProtocolError(f"cannot encode unknown op: {op!r}") from None


def encode_request(request: Request) -> bytes:
    """Encode a request body (pass through :func:`encode_frame` to send)."""
    writer = _Writer()
    writer.u8(PROTOCOL_VERSION)
    writer.u8(request.op)
    writer.u32(request.request_id)
    _write_row(writer, request, _schema_of(request.op).request)
    return writer.getvalue()


def decode_request(body: bytes) -> Request:
    """Decode one request body; raises :class:`ProtocolError` on any flaw."""
    reader = _Reader(body)
    _read_header(reader)
    op = _read_enum(reader, Op, "opcode")
    request = Request(op=op, request_id=reader.u32())
    _read_row(reader, request, SCHEMA[op].request)
    reader.expect_end()
    return request


def encode_response(response: Response) -> bytes:
    """Encode a response body (pass through :func:`encode_frame` to send)."""
    writer = _Writer()
    writer.u8(PROTOCOL_VERSION)
    writer.u8(response.status)
    writer.u8(response.op)
    writer.u32(response.request_id)
    _write_row(writer, response, _schema_of(response.op).response
               if response.status is Status.OK else _FAILURE)
    return writer.getvalue()


def decode_response(body: bytes) -> Response:
    """Decode one response body; raises :class:`ProtocolError` on any flaw."""
    reader = _Reader(body)
    _read_header(reader)
    status = _read_enum(reader, Status, "status byte")
    op = _read_enum(reader, Op, "opcode")
    response = Response(status=status, op=op, request_id=reader.u32())
    _read_row(reader, response,
              SCHEMA[op].response if status is Status.OK else _FAILURE)
    reader.expect_end()
    return response
