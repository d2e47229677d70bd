"""The concatenating ECMP codec: the wire format, spelled out.

One ``bytes`` object per field group, joined with ``+``; decode slices
copies out of the buffer. It states the layout of ``docs/ecmp-wire.md``
with its own format strings, so it shares no packing code with
``repro.core.ecmp.messages`` — only the message classes and the error
type. ``tests/properties/test_codec_equivalence.py`` holds the shipped
codec to it: same frames, same parses, same error for every corruption.
"""

from __future__ import annotations

import struct
from typing import Sequence

from repro.core.channel import Channel
from repro.core.ecmp.messages import (
    Count,
    CountQuery,
    CountResponse,
    CountStatus,
    EcmpBatch,
)
from repro.core.keys import ChannelKey
from repro.core.proactive import ToleranceCurve
from repro.errors import ChannelError, CodecError, ProtocolError

TYPE_QUERY, TYPE_COUNT, TYPE_RESPONSE, TYPE_BATCH = 0x01, 0x02, 0x03, 0x10
FLAG_KEY, FLAG_PROACTIVE = 0x01, 0x02
KEY_BYTES = 8

HEAD = "!BBHI3s"  # type flags countId source dest-suffix
HEAD_BYTES = struct.calcsize(HEAD)
COUNT_TAIL = "!IB"  # count request-id
QUERY_TAIL = "!IB"  # timeout-ms reserved
TAIL_BYTES = struct.calcsize(COUNT_TAIL)
RESPONSE_TAIL = "!B"  # request-id in the upper five bits, status in the lower three
PROACTIVE_EXT = "!fff"  # e_max alpha tau
PROACTIVE_BYTES = struct.calcsize(PROACTIVE_EXT)
BATCH_HEAD = "!BBH"  # type flags record-count
BATCH_HEAD_BYTES = struct.calcsize(BATCH_HEAD)
MAX_BATCH_RECORDS = 0xFFFF


def _head(msg_type: int, flags: int, count_id: int, channel: Channel) -> bytes:
    return struct.pack(
        HEAD, msg_type, flags, count_id, channel.source, channel.suffix.to_bytes(3, "big")
    )


def encode_message(message) -> bytes:
    if isinstance(message, Count):
        flags = FLAG_KEY if message.key else 0
        data = _head(TYPE_COUNT, flags, message.count_id, message.channel)
        data += struct.pack(COUNT_TAIL, message.count, message.request_id)
        if message.key:
            data += message.key.value
        return data
    if isinstance(message, CountQuery):
        flags = FLAG_PROACTIVE if message.proactive else 0
        timeout_ms = int(round(message.timeout * 1000))
        if timeout_ms > 0xFFFFFFFF:
            raise CodecError(f"timeout {message.timeout}s unencodable")
        data = _head(TYPE_QUERY, flags, message.count_id, message.channel)
        data += struct.pack(QUERY_TAIL, timeout_ms, 0)
        if message.proactive:
            curve = message.proactive
            data += struct.pack(PROACTIVE_EXT, curve.e_max, curve.alpha, curve.tau)
        return data
    if isinstance(message, CountResponse):
        data = _head(TYPE_RESPONSE, 0, message.count_id, message.channel)
        return data + struct.pack(
            RESPONSE_TAIL, message.request_id * 8 + message.status.value
        )
    if isinstance(message, EcmpBatch):
        return encode_batch(message.messages)
    raise CodecError(f"not an ECMP message: {message!r}")


def decode_message(data):
    try:
        return _decode_message(bytes(data))
    except (ChannelError, ProtocolError) as exc:
        # The message constructors' verdict on a field value (countId
        # 0, a multicast source, a zero tolerance curve).
        raise CodecError(f"invalid field value: {exc}") from exc


def _decode_message(data: bytes):
    if len(data) < HEAD_BYTES:
        raise CodecError(f"ECMP message truncated: {len(data)} bytes")
    msg_type, flags, count_id, source, suffix = struct.unpack(HEAD, data[:HEAD_BYTES])
    if msg_type == TYPE_BATCH:
        return EcmpBatch(messages=tuple(decode_batch(data)))
    channel = Channel.of(source, int.from_bytes(suffix, "big"))
    body = data[HEAD_BYTES:]

    if msg_type == TYPE_COUNT:
        if flags & ~FLAG_KEY:
            raise CodecError(f"undefined flag bits {flags & ~FLAG_KEY:#04x} on Count")
        expected = TAIL_BYTES + (KEY_BYTES if flags & FLAG_KEY else 0)
        if len(body) < expected:
            raise CodecError("Count body truncated")
        if len(body) > expected:
            raise CodecError(f"{len(body) - expected} trailing bytes after Count")
        count, request_id = struct.unpack(COUNT_TAIL, body[:TAIL_BYTES])
        key = ChannelKey(body[TAIL_BYTES:]) if flags & FLAG_KEY else None
        # An id above 31 could not be echoed: the constructor refuses it.
        return Count(
            channel=channel, count_id=count_id, count=count, key=key,
            request_id=request_id,
        )

    if msg_type == TYPE_QUERY:
        if flags & ~FLAG_PROACTIVE:
            raise CodecError(
                f"undefined flag bits {flags & ~FLAG_PROACTIVE:#04x} on CountQuery"
            )
        expected = TAIL_BYTES + (PROACTIVE_BYTES if flags & FLAG_PROACTIVE else 0)
        if len(body) < expected:
            raise CodecError("CountQuery body truncated")
        if len(body) > expected:
            raise CodecError(f"{len(body) - expected} trailing bytes after CountQuery")
        timeout_ms, reserved = struct.unpack(QUERY_TAIL, body[:TAIL_BYTES])
        if reserved != 0:
            raise CodecError(f"CountQuery reserved byte is {reserved:#04x}, not zero")
        proactive = None
        if flags & FLAG_PROACTIVE:
            e_max, alpha, tau = struct.unpack(PROACTIVE_EXT, body[TAIL_BYTES:])
            proactive = ToleranceCurve(e_max=e_max, alpha=alpha, tau=tau)
        return CountQuery(
            channel=channel,
            count_id=count_id,
            timeout=timeout_ms / 1000.0,
            proactive=proactive,
        )

    if msg_type == TYPE_RESPONSE:
        if flags != 0:
            raise CodecError(f"undefined flag bits {flags:#04x} on CountResponse")
        if len(body) < 1:
            raise CodecError("CountResponse body truncated")
        if len(body) > 1:
            raise CodecError(f"{len(body) - 1} trailing bytes after CountResponse")
        (tail,) = struct.unpack(RESPONSE_TAIL, body)
        request_id, status_value = divmod(tail, 8)
        try:
            status = CountStatus(status_value)
        except ValueError:
            raise CodecError(f"unknown CountResponse status {status_value}") from None
        return CountResponse(
            channel=channel, count_id=count_id, status=status, request_id=request_id
        )

    raise CodecError(f"unknown ECMP message type {msg_type:#x}")


def encode_batch(messages: Sequence) -> bytes:
    if not messages:
        raise CodecError("cannot encode an empty batch")
    if len(messages) > MAX_BATCH_RECORDS:
        raise CodecError(f"batch of {len(messages)} records overflows uint16")
    parts = [struct.pack(BATCH_HEAD, TYPE_BATCH, 0, len(messages))]
    for message in messages:
        if isinstance(message, EcmpBatch):
            raise CodecError("batches cannot nest")
        parts.append(encode_message(message))
    return b"".join(parts)


def record_length(msg_type: int, flags: int) -> int:
    """A batch record's length, read off its type and flag bytes: the
    flag bits a type defines decide its optional tail; bits it does not
    define are its decoder's to refuse."""
    if msg_type == TYPE_COUNT:
        return HEAD_BYTES + TAIL_BYTES + (KEY_BYTES if flags & FLAG_KEY else 0)
    if msg_type == TYPE_QUERY:
        return HEAD_BYTES + TAIL_BYTES + (
            PROACTIVE_BYTES if flags & FLAG_PROACTIVE else 0
        )
    return HEAD_BYTES + struct.calcsize(RESPONSE_TAIL)


def decode_batch(data) -> list:
    data = bytes(data)
    if len(data) < BATCH_HEAD_BYTES:
        raise CodecError(f"batch header truncated: {len(data)} bytes")
    msg_type, flags, record_count = struct.unpack(BATCH_HEAD, data[:BATCH_HEAD_BYTES])
    if msg_type != TYPE_BATCH:
        raise CodecError(f"not a batch frame (type {msg_type:#x})")
    if flags != 0:
        raise CodecError(f"undefined flag bits {flags:#04x} on a batch frame")
    if record_count == 0:
        raise CodecError("batch declares zero records")
    offset = BATCH_HEAD_BYTES
    messages = []
    for index in range(record_count):
        rest = data[offset:]
        if not rest:
            raise CodecError(f"batch declares {record_count} records, holds {index}")
        if rest[0] == TYPE_BATCH:
            raise CodecError("batches cannot nest")
        if rest[0] not in (TYPE_COUNT, TYPE_QUERY, TYPE_RESPONSE):
            raise CodecError(
                f"batch record {index}: unknown ECMP message type {rest[0]:#x}"
            )
        length = record_length(rest[0], rest[1] if len(rest) > 1 else 0)
        if len(rest) < length:
            raise CodecError(
                f"batch record {index} truncated: needs {length} bytes, "
                f"{len(rest)} remain"
            )
        messages.append(decode_message(rest[:length]))
        offset += length
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes after batch records")
    return messages
