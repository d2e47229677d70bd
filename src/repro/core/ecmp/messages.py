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
header and a 2-byte length prefix per record, each record being one
ordinary encoded message (keys and proactive extensions included).
Decoding is strict — a trailing partial record is a :class:`CodecError`,
never a silent truncation — so a TCP-stream reassembly bug cannot
masquerade as a short batch. See ``docs/ecmp-wire.md``.

The codec is *zero-copy*: a batch encodes into one preallocated
``bytearray`` via precompiled ``Struct.pack_into`` at running offsets
(no per-record ``bytes`` concatenation), and decode reads fields with
``unpack_from`` over ``memoryview`` slices — the only per-record copy
on decode is the 8 key bytes an authenticated Count must own. Its
specification is the plain concatenating codec in
``tests/oracles/codec.py``: ``tests/properties/test_codec_equivalence.py``
pins the two equal on frames, parses, and every strictness error.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

from repro.core.channel import Channel
from repro.core.ecmp.countids import check_count_id
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
#: Per-record length prefix inside a batch frame.
_RECORD_LEN = struct.Struct("!H")

#: Fixed batch-frame overhead and per-record framing cost, used by the
#: §5.3 packing arithmetic in ``repro.costmodel.maintenance``.
BATCH_HEADER_BYTES = _BATCH_HEAD.size
RECORD_FRAME_BYTES = _RECORD_LEN.size

#: Records a single frame may carry (record-count is a uint16).
MAX_BATCH_RECORDS = 0xFFFF

#: Largest request id a join Count can carry and its verdict echo: the
#: CountResponse status byte keeps its low three bits for the status and
#: gives the upper five to the id (0 = no request), and the Count's
#: request byte is held to the same range so every id can be echoed.
MAX_REQUEST_ID = 0x1F
_STATUS_BITS = 3
_STATUS_MASK = (1 << _STATUS_BITS) - 1

#: type(1) flags(1) countId(2) source(4) dest-suffix(3) ... per-type tail
_HEAD = struct.Struct("!BBHI3s")
_COUNT_TAIL = struct.Struct("!IB")  # count(4) request-id(1)
_QUERY_TAIL = struct.Struct("!IB")  # timeout-ms(4) reserved(1)
_RESPONSE_TAIL = struct.Struct("!B")  # request-id(5 bits) status(3 bits)
_PROACTIVE_EXT = struct.Struct("!fff")  # e_max alpha tau


class CountStatus(Enum):
    """CountResponse statuses: a router "can either acknowledge or
    reject a Count message ... indicating an unsupported count or an
    invalid authenticator" (§3.1)."""

    OK = 0
    UNSUPPORTED_COUNT = 1
    INVALID_AUTHENTICATOR = 2
    NO_SUCH_CHANNEL = 3


def _check_request_id(request_id: int) -> None:
    if not 0 <= request_id <= MAX_REQUEST_ID:
        raise CodecError(f"request id {request_id} not in 0..{MAX_REQUEST_ID}")


@dataclass(frozen=True)
class CountQuery:
    """Solicits Count replies down the distribution tree.

    ``timeout`` is in seconds; it is decremented hop-by-hop so children
    time out before their parents (§3.1). When ``proactive`` is set the
    query doubles as the §6 request that routers maintain this count
    proactively with the given tolerance curve.
    """

    channel: Channel
    count_id: int
    timeout: float
    proactive: Optional[ToleranceCurve] = None

    def __post_init__(self) -> None:
        check_count_id(self.count_id)
        if self.timeout < 0:
            raise CodecError(f"negative timeout {self.timeout}")

    def wire_size(self) -> int:
        return QUERY_WIRE_BYTES + (_PROACTIVE_EXT.size if self.proactive else 0)


@dataclass(frozen=True)
class Count:
    """A count report; doubles as subscribe (non-zero) / unsubscribe
    (zero) when ``count_id`` is ``subscriberId``. ``key`` carries
    K(S,E) for authenticated channels. A non-zero ``request_id`` asks
    for a verdict: the ``CountResponse`` that answers this Count echoes
    it, so the sender pairs verdicts with joins by id, not by order."""

    channel: Channel
    count_id: int
    count: int
    key: Optional[ChannelKey] = None
    request_id: int = 0

    def __post_init__(self) -> None:
        check_count_id(self.count_id)
        if not 0 <= self.count <= 0xFFFFFFFF:
            raise CodecError(f"count {self.count} not a uint32")
        _check_request_id(self.request_id)

    def wire_size(self) -> int:
        return COUNT_WIRE_BYTES + (KEY_BYTES if self.key else 0)


@dataclass(frozen=True)
class CountResponse:
    """Acknowledges or rejects a Count (auth results, unsupported ids).
    ``request_id`` echoes the answered Count's (0 when it carried none)."""

    channel: Channel
    count_id: int
    status: CountStatus
    request_id: int = 0

    def __post_init__(self) -> None:
        check_count_id(self.count_id)
        _check_request_id(self.request_id)

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
        return BATCH_HEADER_BYTES + sum(
            RECORD_FRAME_BYTES + m.wire_size() for m in self.messages
        )

    def __len__(self) -> int:
        return len(self.messages)


_MESSAGE_TYPES = (Count, CountQuery, CountResponse)


def _encode_into(message: EcmpMessage, buf: bytearray, offset: int) -> int:
    """Pack one message into ``buf`` at ``offset``; returns the end
    offset. The writer half of the zero-copy path: precompiled structs
    pack straight into the shared buffer, no intermediate bytes."""
    if isinstance(message, Count):
        flags = _FLAG_KEY if message.key else 0
        _HEAD.pack_into(
            buf,
            offset,
            _TYPE_COUNT,
            flags,
            message.count_id,
            message.channel.source,
            message.channel.suffix.to_bytes(3, "big"),
        )
        offset += _HEAD.size
        _COUNT_TAIL.pack_into(buf, offset, message.count, message.request_id)
        offset += _COUNT_TAIL.size
        if message.key:
            buf[offset : offset + KEY_BYTES] = message.key.value
            offset += KEY_BYTES
        return offset
    if isinstance(message, CountQuery):
        flags = _FLAG_PROACTIVE if message.proactive else 0
        timeout_ms = int(round(message.timeout * 1000))
        if timeout_ms > 0xFFFFFFFF:
            raise CodecError(f"timeout {message.timeout}s unencodable")
        _HEAD.pack_into(
            buf,
            offset,
            _TYPE_QUERY,
            flags,
            message.count_id,
            message.channel.source,
            message.channel.suffix.to_bytes(3, "big"),
        )
        offset += _HEAD.size
        _QUERY_TAIL.pack_into(buf, offset, timeout_ms, 0)
        offset += _QUERY_TAIL.size
        if message.proactive:
            curve = message.proactive
            _PROACTIVE_EXT.pack_into(buf, offset, curve.e_max, curve.alpha, curve.tau)
            offset += _PROACTIVE_EXT.size
        return offset
    if isinstance(message, CountResponse):
        _HEAD.pack_into(
            buf,
            offset,
            _TYPE_RESPONSE,
            0,
            message.count_id,
            message.channel.source,
            message.channel.suffix.to_bytes(3, "big"),
        )
        offset += _HEAD.size
        _RESPONSE_TAIL.pack_into(
            buf, offset, message.request_id << _STATUS_BITS | message.status.value
        )
        return offset + _RESPONSE_TAIL.size
    raise CodecError(f"not an ECMP message: {message!r}")


def encode_message(message: EcmpMessage) -> bytes:
    """Serialize any ECMP message to its wire form."""
    if isinstance(message, EcmpBatch):
        return encode_batch(message.messages)
    if not isinstance(message, _MESSAGE_TYPES):
        raise CodecError(f"not an ECMP message: {message!r}")
    buf = bytearray(message.wire_size())
    _encode_into(message, buf, 0)
    return bytes(buf)


def decode_message(data) -> Union[EcmpMessage, EcmpBatch]:
    """Parse a wire buffer back into a message object.

    Strict: the buffer must be exactly one message. A short buffer *or*
    trailing bytes beyond the message's declared shape raise
    :class:`CodecError` — a framing layer that mis-slices a TCP stream
    must fail loudly, not deliver a plausible prefix. :class:`CodecError`
    is the only error out of the codec: a well-framed message with an
    impossible field value raises it too.

    Accepts ``bytes`` or a ``memoryview`` (how :func:`decode_batch`
    hands in record windows without copying): fields are read in place
    with ``unpack_from``; only an authenticated Count's 8 key bytes
    are copied out of the buffer.
    """
    try:
        size = len(data)
        if size < _HEAD.size:
            raise CodecError(f"ECMP message truncated: {size} bytes")
        msg_type, flags, count_id, source, suffix_bytes = _HEAD.unpack_from(data, 0)
        if msg_type == _TYPE_BATCH:
            return EcmpBatch(messages=tuple(decode_batch(data)))
        channel = Channel.of(source, int.from_bytes(suffix_bytes, "big"))
        body_len = size - _HEAD.size

        if msg_type == _TYPE_COUNT:
            expected = _COUNT_TAIL.size + (KEY_BYTES if flags & _FLAG_KEY else 0)
            if body_len < expected:
                raise CodecError("Count body truncated")
            if body_len > expected:
                raise CodecError(f"{body_len - expected} trailing bytes after Count")
            count, request_id = _COUNT_TAIL.unpack_from(data, _HEAD.size)
            key = None
            if flags & _FLAG_KEY:
                key_offset = _HEAD.size + _COUNT_TAIL.size
                key = ChannelKey(bytes(data[key_offset : key_offset + KEY_BYTES]))
            return Count(
                channel=channel,
                count_id=count_id,
                count=count,
                key=key,
                request_id=request_id,
            )

        if msg_type == _TYPE_QUERY:
            expected = _QUERY_TAIL.size + (
                _PROACTIVE_EXT.size if flags & _FLAG_PROACTIVE else 0
            )
            if body_len < expected:
                raise CodecError("CountQuery body truncated")
            if body_len > expected:
                raise CodecError(f"{body_len - expected} trailing bytes after CountQuery")
            timeout_ms, _reserved = _QUERY_TAIL.unpack_from(data, _HEAD.size)
            proactive = None
            if flags & _FLAG_PROACTIVE:
                e_max, alpha, tau = _PROACTIVE_EXT.unpack_from(
                    data, _HEAD.size + _QUERY_TAIL.size
                )
                proactive = ToleranceCurve(e_max=e_max, alpha=alpha, tau=tau)
            return CountQuery(
                channel=channel,
                count_id=count_id,
                timeout=timeout_ms / 1000.0,
                proactive=proactive,
            )

        if msg_type == _TYPE_RESPONSE:
            if body_len < _RESPONSE_TAIL.size:
                raise CodecError("CountResponse body truncated")
            if body_len > _RESPONSE_TAIL.size:
                raise CodecError(
                    f"{body_len - _RESPONSE_TAIL.size} trailing bytes after CountResponse"
                )
            (tail,) = _RESPONSE_TAIL.unpack_from(data, _HEAD.size)
            status_value = tail & _STATUS_MASK
            try:
                status = CountStatus(status_value)
            except ValueError:
                raise CodecError(f"unknown CountResponse status {status_value}") from None
            return CountResponse(
                channel=channel,
                count_id=count_id,
                status=status,
                request_id=tail >> _STATUS_BITS,
            )

        raise CodecError(f"unknown ECMP message type {msg_type:#x}")
    except (ChannelError, ProtocolError) as exc:
        # Well framed, but a field value no message can carry (countId
        # 0, a multicast source, a zero tolerance curve): the message
        # constructors say so in their own error types.
        raise CodecError(f"invalid field value: {exc}") from exc


def encode_batch(messages: Sequence[EcmpMessage]) -> bytes:
    """Serialize ``messages`` into one ``MSG_BATCH`` frame.

    Frame layout: ``type(1)=0x10 flags(1)=0 record_count(2)`` followed
    by ``record_count`` records, each ``length(2) + encoded message``.

    The frame is sized up front from ``wire_size()`` and every record
    packs straight into one preallocated ``bytearray`` — a flush of N
    coalesced messages costs one allocation, not 2N+1 intermediate
    ``bytes`` objects and a join.
    """
    if not messages:
        raise CodecError("cannot encode an empty batch")
    if len(messages) > MAX_BATCH_RECORDS:
        raise CodecError(f"batch of {len(messages)} records overflows uint16")
    total = _BATCH_HEAD.size
    for message in messages:
        if isinstance(message, EcmpBatch):
            raise CodecError("batches cannot nest")
        if not isinstance(message, _MESSAGE_TYPES):
            raise CodecError(f"not an ECMP message: {message!r}")
        total += _RECORD_LEN.size + message.wire_size()
    buf = bytearray(total)
    _BATCH_HEAD.pack_into(buf, 0, _TYPE_BATCH, 0, len(messages))
    offset = _BATCH_HEAD.size
    for message in messages:
        start = offset + _RECORD_LEN.size
        end = _encode_into(message, buf, start)
        _RECORD_LEN.pack_into(buf, offset, end - start)
        offset = end
    return bytes(buf)


def decode_batch(data) -> list:
    """Parse a ``MSG_BATCH`` frame back into its message list.

    Round-trip safe for every record type (keyed Counts, proactive
    CountQuery extensions). Raises :class:`CodecError` on a wrong type
    byte, a record count that disagrees with the payload, a trailing
    partial record, trailing bytes after the final record, or a record
    that is itself a batch (batches never nest).

    Records are handed to :func:`decode_message` as ``memoryview``
    windows over the frame — no per-record ``bytes`` copy.
    """
    size = len(data)
    if size < _BATCH_HEAD.size:
        raise CodecError(f"batch header truncated: {size} bytes")
    msg_type, _flags, record_count = _BATCH_HEAD.unpack_from(data, 0)
    if msg_type != _TYPE_BATCH:
        raise CodecError(f"not a batch frame (type {msg_type:#x})")
    if record_count == 0:
        raise CodecError("batch declares zero records")
    view = data if isinstance(data, memoryview) else memoryview(data)
    offset = _BATCH_HEAD.size
    messages = []
    for index in range(record_count):
        if size - offset < _RECORD_LEN.size:
            raise CodecError(f"batch record {index} length prefix truncated")
        (length,) = _RECORD_LEN.unpack_from(data, offset)
        offset += _RECORD_LEN.size
        if size - offset < length:
            raise CodecError(
                f"batch record {index} truncated: declared {length} bytes, "
                f"{size - offset} remain"
            )
        if length and data[offset] == _TYPE_BATCH:
            raise CodecError("batches cannot nest")
        messages.append(decode_message(view[offset : offset + length]))
        offset += length
    if offset != size:
        raise CodecError(f"{size - offset} trailing bytes after batch records")
    return messages

