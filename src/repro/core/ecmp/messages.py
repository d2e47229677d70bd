"""ECMP wire messages and codecs.

"ECMP consists of three messages: CountQuery(channel, countId,
timeout), Count(channel, countId, count, [K(S,E)]),
CountResponse(channel, countId, status)" (§3).

Wire sizes are load-bearing for the §5.3 bandwidth analysis: "Without
authentication, approximately 92 16-byte Count messages fit in a
1480-byte maximum-sized TCP segment on Ethernet." Our ``Count`` packs
to exactly 16 bytes unauthenticated (24 with the 8-byte key), and
``CountQuery`` to 16 (28 with proactive-curve parameters). The field
layout within those sizes is this implementation's choice; the paper
pins only the totals.

§5.3's segment-packing arithmetic presumes the TCP-mode session
coalesces many small messages into one segment. :class:`EcmpBatch` is
the explicit on-wire form of that: a ``MSG_BATCH`` frame with a 4-byte
header followed by the records back to back, each one ordinary encoded
message (keys and proactive extensions included). A record carries no
length prefix: its type and flag bytes fix its length (Count 16 B, 24
keyed; CountQuery 16 B, 28 proactive; CountResponse 12 B), so 92
unauthenticated Counts fill a 1480-byte segment as in §5.3. Decoding is
strict — an unknown record type, a trailing partial record or trailing
bytes are a :class:`CodecError`, never a silent truncation — so a
TCP-stream reassembly bug cannot masquerade as a short batch. See
``docs/ecmp-wire.md``.

The codec is *zero-copy*: a batch encodes into one preallocated
``bytearray`` via precompiled ``Struct.pack_into`` at running offsets
(no per-record ``bytes`` concatenation), and decode reads fields with
``unpack_from`` over ``memoryview`` slices — the only per-record copies
on decode are the 7 channel bytes, which find the interned ``Channel``
with one dict probe, and the 8 key bytes an authenticated Count must
own. The three message classes are immutable tuples the decoder builds
without re-validating what it has just read; what each layer needs to
know about a class is one row of ``MESSAGE_TYPES``. Its
specification is the plain concatenating codec in
``tests/oracles/codec.py``: ``tests/properties/test_codec_equivalence.py``
pins the two equal on frames, parses, and every strictness error.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Callable, NamedTuple, Sequence, Union

from repro.core.channel import channel_from_wire, wire_channel
from repro.core.ecmp.countids import COUNT_ID_MAX, check_count_id
from repro.core.keys import KEY_BYTES, ChannelKey
from repro.core.proactive import ToleranceCurve
from repro.errors import ChannelError, CodecError, ProtocolError

#: Unauthenticated Count wire size (92 fit in one 1480-byte segment).
COUNT_WIRE_BYTES = 16
#: CountQuery wire size without proactive parameters.
QUERY_WIRE_BYTES = 16
#: CountResponse wire size.
RESPONSE_WIRE_BYTES = 12

_TYPE_QUERY = 0x01
_TYPE_COUNT = 0x02
_TYPE_RESPONSE = 0x03
_TYPE_BATCH = 0x10

#: Public wire-type id of a coalesced frame (``docs/ecmp-wire.md``).
MSG_BATCH = _TYPE_BATCH

_FLAG_KEY = 0x01
_FLAG_PROACTIVE = 0x02

#: Batch frame header: type(1) flags(1) record-count(2).
_BATCH_HEAD = struct.Struct("!BBH")

#: Fixed batch-frame overhead, used by the §5.3 packing arithmetic in
#: ``repro.costmodel.maintenance``; records add only their own bytes.
BATCH_HEADER_BYTES = _BATCH_HEAD.size

#: Records a single frame may carry (record-count is a uint16).
MAX_BATCH_RECORDS = 0xFFFF

#: Largest request id a join Count can carry and its verdict echo: the
#: CountResponse status byte keeps its low three bits for the status and
#: gives the upper five to the id (0 = no request), and the Count's
#: request byte is held to the same range so every id can be echoed.
MAX_REQUEST_ID = 0x1F
_STATUS_BITS = 3
_STATUS_MASK = (1 << _STATUS_BITS) - 1

#: type(1) flags(1) countId(2) channel(7: source(4) dest-suffix(3), as
#: ``Channel.wire`` carries them) ... per-type tail
_HEAD = struct.Struct("!BBH7s")
_COUNT_TAIL = struct.Struct("!IB")  # count(4) request-id(1)
_QUERY_TAIL = struct.Struct("!IB")  # timeout-ms(4) reserved(1)
_RESPONSE_TAIL = struct.Struct("!B")  # request-id(5 bits) status(3 bits)
_PROACTIVE_EXT = struct.Struct("!fff")  # e_max alpha tau

#: Record type -> (length, the flag bit that extends it, extension
#: length): how :func:`decode_batch` finds where a record ends. A flag
#: bit the type does not define adds nothing here; the record's own
#: decode refuses it.
_RECORD_SHAPE = {
    _TYPE_COUNT: (_HEAD.size + _COUNT_TAIL.size, _FLAG_KEY, KEY_BYTES),
    _TYPE_QUERY: (_HEAD.size + _QUERY_TAIL.size, _FLAG_PROACTIVE, _PROACTIVE_EXT.size),
    _TYPE_RESPONSE: (_HEAD.size + _RESPONSE_TAIL.size, 0, 0),
}

#: What the decoder builds the (immutable tuple) messages with: it has
#: proved every range from the bytes, so it skips the public
#: constructors' checks. Immutability is what lets the wire edge's
#: encode-once cache key on a message's identity.
_tuple_new = tuple.__new__


class CountStatus(Enum):
    """CountResponse statuses: a router "can either acknowledge or
    reject a Count message ... indicating an unsupported count or an
    invalid authenticator" (§3.1). ``OPEN`` grants a join on a channel
    whose source installed no key: the key the join presented, if any,
    is not the channel's and is not learned. 5-7 stay undefined."""

    OK = 0
    UNSUPPORTED_COUNT = 1
    INVALID_AUTHENTICATOR = 2
    NO_SUCH_CHANNEL = 3
    OPEN = 4


_STATUS_OF = {status.value: status for status in CountStatus}


def _check_request_id(request_id: int) -> None:
    if not 0 <= request_id <= MAX_REQUEST_ID:
        raise CodecError(f"request id {request_id} not in 0..{MAX_REQUEST_ID}")


class CountQuery(namedtuple("CountQuery", "channel count_id timeout proactive")):
    """Solicits Count replies down the distribution tree.

    ``timeout`` is in seconds; it is decremented hop-by-hop so children
    time out before their parents (§3.1). When ``proactive`` (a
    :class:`ToleranceCurve`) is set the query doubles as the §6 request
    that routers maintain this count proactively with the given
    tolerance curve.
    """

    __slots__ = ()

    def __new__(cls, channel, count_id, timeout, proactive=None):
        if not 0 < count_id <= COUNT_ID_MAX:
            check_count_id(count_id)
        if timeout < 0:
            raise CodecError(f"negative timeout {timeout}")
        return _tuple_new(cls, (channel, count_id, timeout, proactive))

    def wire_size(self) -> int:
        return QUERY_WIRE_BYTES + (_PROACTIVE_EXT.size if self.proactive else 0)


class Count(namedtuple("Count", "channel count_id count key request_id")):
    """A count report; doubles as subscribe (non-zero) / unsubscribe
    (zero) when ``count_id`` is ``subscriberId``. ``key`` carries
    K(S,E) for authenticated channels. A non-zero ``request_id`` asks
    for a verdict: the ``CountResponse`` that answers this Count echoes
    it, so the sender pairs verdicts with joins by id, not by order."""

    __slots__ = ()

    def __new__(cls, channel, count_id, count, key=None, request_id=0):
        if not 0 < count_id <= COUNT_ID_MAX:
            check_count_id(count_id)
        if not 0 <= count <= 0xFFFFFFFF:
            raise CodecError(f"count {count} not a uint32")
        if not 0 <= request_id <= MAX_REQUEST_ID:
            _check_request_id(request_id)
        return _tuple_new(cls, (channel, count_id, count, key, request_id))

    def wire_size(self) -> int:
        return COUNT_WIRE_BYTES + (KEY_BYTES if self.key else 0)


class CountResponse(namedtuple("CountResponse", "channel count_id status request_id")):
    """Acknowledges or rejects a Count (auth results, unsupported ids).
    ``request_id`` echoes the answered Count's (0 when it carried none)."""

    __slots__ = ()

    def __new__(cls, channel, count_id, status, request_id=0):
        if not 0 < count_id <= COUNT_ID_MAX:
            check_count_id(count_id)
        if not 0 <= request_id <= MAX_REQUEST_ID:
            _check_request_id(request_id)
        return _tuple_new(cls, (channel, count_id, status, request_id))

    def wire_size(self) -> int:
        return RESPONSE_WIRE_BYTES


EcmpMessage = Union[CountQuery, Count, CountResponse]


@dataclass(frozen=True)
class EcmpBatch:
    """A coalesced frame of ECMP messages for one TCP-mode neighbor.

    Records are ordinary messages in send order; the frame exists so a
    flush of N dirty channels costs one wire send instead of N. Batches
    never nest.
    """

    messages: tuple

    def __post_init__(self) -> None:
        if not self.messages:
            raise CodecError("empty batch")
        if len(self.messages) > MAX_BATCH_RECORDS:
            raise CodecError(f"batch of {len(self.messages)} records overflows uint16")
        for message in self.messages:
            if isinstance(message, EcmpBatch):
                raise CodecError("batches cannot nest")

    def wire_size(self) -> int:
        return BATCH_HEADER_BYTES + sum(m.wire_size() for m in self.messages)

    def __len__(self) -> int:
        return len(self.messages)


# The writer half of the zero-copy path, one packer per message class:
# precompiled structs pack straight into the shared buffer at ``offset``
# and return the end offset, no intermediate bytes.


def _pack_count(message: Count, buf: bytearray, offset: int) -> int:
    channel, count_id, count, key, request_id = message
    _HEAD.pack_into(
        buf, offset, _TYPE_COUNT, _FLAG_KEY if key else 0, count_id, channel.wire
    )
    offset += _HEAD.size
    _COUNT_TAIL.pack_into(buf, offset, count, request_id)
    offset += _COUNT_TAIL.size
    if key:
        buf[offset : offset + KEY_BYTES] = key.value
        offset += KEY_BYTES
    return offset


def _pack_query(message: CountQuery, buf: bytearray, offset: int) -> int:
    channel, count_id, timeout, curve = message
    timeout_ms = int(round(timeout * 1000))
    if timeout_ms > 0xFFFFFFFF:
        raise CodecError(f"timeout {timeout}s unencodable")
    _HEAD.pack_into(
        buf, offset, _TYPE_QUERY, _FLAG_PROACTIVE if curve else 0, count_id, channel.wire
    )
    offset += _HEAD.size
    _QUERY_TAIL.pack_into(buf, offset, timeout_ms, 0)
    offset += _QUERY_TAIL.size
    if curve:
        _PROACTIVE_EXT.pack_into(buf, offset, curve.e_max, curve.alpha, curve.tau)
        offset += _PROACTIVE_EXT.size
    return offset


def _pack_response(message: CountResponse, buf: bytearray, offset: int) -> int:
    channel, count_id, status, request_id = message
    _HEAD.pack_into(buf, offset, _TYPE_RESPONSE, 0, count_id, channel.wire)
    offset += _HEAD.size
    _RESPONSE_TAIL.pack_into(buf, offset, request_id << _STATUS_BITS | status.value)
    return offset + _RESPONSE_TAIL.size


class MessageType(NamedTuple):
    """One row of the message type table: what the wire edge, the codec
    and the accounting each need to know about one message class, found
    with one probe instead of an ``isinstance`` chain per layer."""

    #: Names the handling span (``ecmp.<kind>``).
    kind: str
    #: ``handler(agent)`` is the bound method a received one goes to,
    #: the agent's or one of its components'.
    handler: Callable[[object], Callable[[EcmpMessage, str], None]]
    #: The agent's per-type tallies.
    rx_stat: str
    tx_stat: str
    #: ``pack(message, buf, offset) -> end offset``.
    pack: Callable[[EcmpMessage, bytearray, int], int]


#: Message class -> its row.
MESSAGE_TYPES = {
    Count: MessageType(
        "count", attrgetter("_handle_count"), "counts_rx", "tx_count", _pack_count
    ),
    CountQuery: MessageType(
        "query", attrgetter("_handle_query"), "queries_rx", "tx_countquery", _pack_query
    ),
    CountResponse: MessageType(
        "response",
        attrgetter("verdicts.on_response"),
        "responses_rx",
        "tx_countresponse",
        _pack_response,
    ),
}


def encode_message(message: EcmpMessage) -> bytes:
    """Serialize any ECMP message to its wire form."""
    row = MESSAGE_TYPES.get(type(message))
    if row is None:
        if isinstance(message, EcmpBatch):
            return encode_batch(message.messages)
        raise CodecError(f"not an ECMP message: {message!r}")
    buf = bytearray(message.wire_size())
    row.pack(message, buf, 0)
    return bytes(buf)


def decode_message(data) -> Union[EcmpMessage, EcmpBatch]:
    """Parse a wire buffer back into a message object.

    Strict: the buffer must be exactly one message, and one message has
    exactly one encoding. A short buffer, trailing bytes beyond the
    message's declared shape, a flag bit its type does not define or a
    reserved byte that is not zero raise :class:`CodecError` — a framing
    layer that mis-slices a TCP stream must fail loudly, not deliver a
    plausible prefix. :class:`CodecError` is the only error out of the
    codec: a well-framed message with an impossible field value raises
    it too.

    Accepts ``bytes`` or a ``memoryview`` (how :func:`decode_batch`
    hands in record windows without copying): fields are read in place
    with ``unpack_from``; only the 7 channel bytes (the intern table's
    key) and an authenticated Count's 8 key bytes are copied out of the
    buffer.
    """
    try:
        size = len(data)
        if size < _HEAD.size:
            raise CodecError(f"ECMP message truncated: {size} bytes")
        msg_type, flags, count_id, wire = _HEAD.unpack_from(data, 0)
        if msg_type == _TYPE_BATCH:
            return EcmpBatch(messages=tuple(decode_batch(data)))
        channel = wire_channel(wire) or channel_from_wire(wire)
        body_len = size - _HEAD.size

        if msg_type == _TYPE_COUNT:
            if flags & ~_FLAG_KEY:
                raise CodecError(f"undefined flag bits {flags & ~_FLAG_KEY:#04x} on Count")
            expected = _COUNT_TAIL.size + (KEY_BYTES if flags else 0)
            if body_len < expected:
                raise CodecError("Count body truncated")
            if body_len > expected:
                raise CodecError(f"{body_len - expected} trailing bytes after Count")
            count, request_id = _COUNT_TAIL.unpack_from(data, _HEAD.size)
            key = None
            if flags:
                key_offset = _HEAD.size + _COUNT_TAIL.size
                key = ChannelKey(bytes(data[key_offset : key_offset + KEY_BYTES]))
            # What the constructor would refuse: countId 0 and an id no
            # verdict could echo (the count is a uint32 by its field).
            if not count_id:
                check_count_id(count_id)
            if request_id > MAX_REQUEST_ID:
                _check_request_id(request_id)
            return _tuple_new(Count, (channel, count_id, count, key, request_id))

        if msg_type == _TYPE_QUERY:
            if flags & ~_FLAG_PROACTIVE:
                raise CodecError(
                    f"undefined flag bits {flags & ~_FLAG_PROACTIVE:#04x} on CountQuery"
                )
            expected = _QUERY_TAIL.size + (_PROACTIVE_EXT.size if flags else 0)
            if body_len < expected:
                raise CodecError("CountQuery body truncated")
            if body_len > expected:
                raise CodecError(f"{body_len - expected} trailing bytes after CountQuery")
            timeout_ms, reserved = _QUERY_TAIL.unpack_from(data, _HEAD.size)
            if reserved:
                raise CodecError(f"CountQuery reserved byte is {reserved:#04x}, not zero")
            proactive = None
            if flags:
                e_max, alpha, tau = _PROACTIVE_EXT.unpack_from(
                    data, _HEAD.size + _QUERY_TAIL.size
                )
                proactive = ToleranceCurve(e_max=e_max, alpha=alpha, tau=tau)
            if not count_id:
                check_count_id(count_id)
            # An unsigned millisecond count cannot be a negative timeout.
            return _tuple_new(
                CountQuery, (channel, count_id, timeout_ms / 1000.0, proactive)
            )

        if msg_type == _TYPE_RESPONSE:
            if flags:
                raise CodecError(f"undefined flag bits {flags:#04x} on CountResponse")
            if body_len < _RESPONSE_TAIL.size:
                raise CodecError("CountResponse body truncated")
            if body_len > _RESPONSE_TAIL.size:
                raise CodecError(
                    f"{body_len - _RESPONSE_TAIL.size} trailing bytes after CountResponse"
                )
            tail = data[_HEAD.size]
            status = _STATUS_OF.get(tail & _STATUS_MASK)
            if status is None:
                raise CodecError(f"unknown CountResponse status {tail & _STATUS_MASK}")
            if not count_id:
                check_count_id(count_id)
            # Five bits of the byte: the id is in range by construction.
            return _tuple_new(
                CountResponse, (channel, count_id, status, tail >> _STATUS_BITS)
            )

        raise CodecError(f"unknown ECMP message type {msg_type:#x}")
    except (ChannelError, ProtocolError) as exc:
        # Well framed, but a field value no message can carry (countId
        # 0, a multicast source, a zero tolerance curve): said in the
        # message constructors' own error types.
        raise CodecError(f"invalid field value: {exc}") from exc


def encode_batch(messages: Sequence[EcmpMessage]) -> bytes:
    """Serialize ``messages`` into one ``MSG_BATCH`` frame.

    Frame layout: ``type(1)=0x10 flags(1)=0 record_count(2)`` followed
    by ``record_count`` encoded messages back to back, with no framing
    between them.

    The frame is sized up front from ``wire_size()`` and every record
    packs straight into one preallocated ``bytearray`` — a flush of N
    coalesced messages costs one allocation, not N+1 intermediate
    ``bytes`` objects and a join.
    """
    if not messages:
        raise CodecError("cannot encode an empty batch")
    if len(messages) > MAX_BATCH_RECORDS:
        raise CodecError(f"batch of {len(messages)} records overflows uint16")
    total = _BATCH_HEAD.size
    packers = []
    for message in messages:
        row = MESSAGE_TYPES.get(type(message))
        if row is None:
            if isinstance(message, EcmpBatch):
                raise CodecError("batches cannot nest")
            raise CodecError(f"not an ECMP message: {message!r}")
        packers.append(row.pack)
        total += message.wire_size()
    buf = bytearray(total)
    _BATCH_HEAD.pack_into(buf, 0, _TYPE_BATCH, 0, len(messages))
    offset = _BATCH_HEAD.size
    for message, pack in zip(messages, packers):
        offset = pack(message, buf, offset)
    return bytes(buf)


def decode_batch(data) -> list:
    """Parse a ``MSG_BATCH`` frame back into its message list.

    Round-trip safe for every record type (keyed Counts, proactive
    CountQuery extensions). Each record's length follows from its type
    byte and, for Count and CountQuery, the flag bit that adds the key
    or the proactive extension. Raises :class:`CodecError` on a wrong
    type byte, a flag byte that is not zero, a record count that
    disagrees with the payload, an unknown record type, a trailing
    partial record, trailing bytes after the final record, or a record
    that is itself a batch (batches never nest).

    Records are handed to :func:`decode_message` as ``memoryview``
    windows over the frame — no per-record ``bytes`` copy.
    """
    size = len(data)
    if size < _BATCH_HEAD.size:
        raise CodecError(f"batch header truncated: {size} bytes")
    msg_type, flags, record_count = _BATCH_HEAD.unpack_from(data, 0)
    if msg_type != _TYPE_BATCH:
        raise CodecError(f"not a batch frame (type {msg_type:#x})")
    if flags:
        raise CodecError(f"undefined flag bits {flags:#04x} on a batch frame")
    if record_count == 0:
        raise CodecError("batch declares zero records")
    view = data if isinstance(data, memoryview) else memoryview(data)
    offset = _BATCH_HEAD.size
    messages = []
    for index in range(record_count):
        remain = size - offset
        if not remain:
            raise CodecError(f"batch declares {record_count} records, holds {index}")
        record_type = data[offset]
        shape = _RECORD_SHAPE.get(record_type)
        if shape is None:
            if record_type == _TYPE_BATCH:
                raise CodecError("batches cannot nest")
            raise CodecError(
                f"batch record {index}: unknown ECMP message type {record_type:#x}"
            )
        length, extended_by, extension = shape
        if remain > 1 and data[offset + 1] & extended_by:
            length += extension
        if remain < length:
            raise CodecError(
                f"batch record {index} truncated: needs {length} bytes, "
                f"{remain} remain"
            )
        messages.append(decode_message(view[offset : offset + length]))
        offset += length
    if offset != size:
        raise CodecError(f"{size - offset} trailing bytes after batch records")
    return messages
