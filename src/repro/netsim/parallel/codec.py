"""Serialization of :class:`~repro.netsim.packet.Packet` across the cut.

Packets crossing partition boundaries travel between partition workers
as bytes, so a sharded run exercises what a packet would carry and no
object is shared across the cut. The fixed fields pack into a small
struct header; the ``ecmp`` header — the message object the protocol
put on the packet, or the wire bytes a network already encoded — is
carried in the *real* ECMP wire format
(:func:`repro.core.ecmp.messages.encode_message`), so coalesced
TCP-mode batches cross the cut as genuine ``MSG_BATCH`` frames.
Everything else the struct layout cannot express (non-ECMP payloads,
encapsulated packets, a tracer's span context) falls back to pickle,
flagged so decode knows which path to take.

``created_at`` is preserved exactly — delivery-latency histograms are
part of the equivalence contract with the single-process oracle.

The frozen ``benchmarks/e2e`` probe times this codec
(``netsim.parallel.codec_frame_us``) on object messages.
"""

from __future__ import annotations

import pickle
import struct

from repro.core.ecmp.messages import decode_message, encode_message
from repro.errors import CodecError
from repro.netsim.packet import Packet

#: src(4) dst(4) ttl(2) flags(1) proto-len(1) size(4) created_at(8)
#: ecmp-len(4) extra-len(4)
_HEAD = struct.Struct("!IIHBBId II")

_FLAG_RELIABLE = 0x01
_FLAG_ECMP = 0x02
#: The ``ecmp`` header already held wire bytes; pass them through
#: instead of re-encoding.
_FLAG_ECMP_RAW = 0x04
_FLAG_EXTRA = 0x08


def encode_packet(packet: Packet) -> bytes:
    """Serialize ``packet`` (fields, headers, payload) to bytes."""
    flags = 0
    headers = dict(packet.headers)
    if headers.pop("reliable", False):
        flags |= _FLAG_RELIABLE
    ecmp_bytes = b""
    message = headers.pop("ecmp", None)
    if message is not None:
        flags |= _FLAG_ECMP
        if isinstance(message, (bytes, bytearray)):
            flags |= _FLAG_ECMP_RAW
            ecmp_bytes = bytes(message)
        else:
            ecmp_bytes = encode_message(message)
    extra = b""
    if headers or packet.payload is not None:
        flags |= _FLAG_EXTRA
        extra = pickle.dumps((headers, packet.payload), protocol=pickle.HIGHEST_PROTOCOL)
    proto = packet.proto.encode("ascii")
    if len(proto) > 0xFF:
        raise CodecError(f"proto label too long: {packet.proto!r}")
    head = _HEAD.pack(
        packet.src,
        packet.dst,
        packet.ttl,
        flags,
        len(proto),
        packet.size,
        packet.created_at,
        len(ecmp_bytes),
        len(extra),
    )
    return head + proto + ecmp_bytes + extra


def decode_packet(data: bytes) -> Packet:
    """Parse bytes from :func:`encode_packet` back into a packet.

    Strict like the ECMP codec: short buffers and trailing bytes are a
    :class:`CodecError`, never a silent truncation.
    """
    if len(data) < _HEAD.size:
        raise CodecError(f"packet truncated: {len(data)} bytes")
    (
        src, dst, ttl, flags, proto_len, size, created_at, ecmp_len, extra_len,
    ) = _HEAD.unpack(data[: _HEAD.size])
    expected = _HEAD.size + proto_len + ecmp_len + extra_len
    if len(data) != expected:
        raise CodecError(f"packet framing: {len(data)} bytes, expected {expected}")
    at = _HEAD.size
    proto = data[at : at + proto_len].decode("ascii")
    at += proto_len
    headers: dict = {}
    payload = None
    if flags & _FLAG_ECMP:
        raw = data[at : at + ecmp_len]
        headers["ecmp"] = bytes(raw) if flags & _FLAG_ECMP_RAW else decode_message(raw)
    at += ecmp_len
    if flags & _FLAG_EXTRA:
        extra_headers, payload = pickle.loads(data[at : at + extra_len])
        headers.update(extra_headers)
    if flags & _FLAG_RELIABLE:
        headers["reliable"] = True
    return Packet(
        src=src,
        dst=dst,
        proto=proto,
        payload=payload,
        size=size,
        ttl=ttl,
        headers=headers,
        created_at=created_at,
    )
