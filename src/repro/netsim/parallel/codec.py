"""Serialization of :class:`~repro.netsim.packet.Packet` across the cut.

Packets crossing partition boundaries travel between worker processes
as bytes. The fixed fields pack into a small struct header; the
``ecmp`` header — the message object the protocol put on the packet —
is serialized with the *real* ECMP wire codec
(:func:`repro.core.ecmp.messages.encode_message`), so coalesced
TCP-mode batches cross the cut as genuine ``MSG_BATCH`` frames and the
sharded simulator exercises the same encode/decode paths as a
``wire_format=True`` run. Tracer span contexts (the ``spanctx`` header
instrumented runs put on every control message) travel in a compact
struct block — kind(1) count(2), then per entry present(1) +
trace_id(8) span_id(8) — so cross-shard trace stitching costs 17 bytes
per context instead of a pickle blob, and the wire format stays
inspectable. Everything else the struct layout cannot express
(non-ECMP payloads, encapsulated packets) falls back to pickle,
flagged so decode knows which path to take.

``created_at`` is preserved exactly — delivery-latency histograms are
part of the equivalence contract with the single-process oracle.

The second half of this module is the *frame* codec the sync protocol
itself rides on: horizon grants, coalesced sync reports (exports +
counters + optional telemetry in one frame), and the control frames
(ready/result/exit/error). Grants and reports are packed structs —
zero pickle on the hot loop; pickle survives only in the off-hot-path
result frame and the optional telemetry blob a report can carry.
"""

from __future__ import annotations

import pickle
import struct
from typing import Optional

from repro.core.ecmp.messages import decode_message, encode_message
from repro.errors import CodecError
from repro.netsim.packet import Packet
from repro.obs.hooks import SPAN_HEADER
from repro.obs.tracing import SpanContext

#: src(4) dst(4) ttl(2) flags(1) proto-len(1) size(4) created_at(8)
#: ecmp-len(4) extra-len(4) span-len(2)
_HEAD = struct.Struct("!IIHBBId IIH")

_FLAG_RELIABLE = 0x01
_FLAG_ECMP = 0x02
#: The ``ecmp`` header already held wire bytes (a ``wire_format=True``
#: network); pass them through instead of re-encoding.
_FLAG_ECMP_RAW = 0x04
_FLAG_EXTRA = 0x08
#: A trace context (or an aligned list of them, for batch frames) rides
#: in the compact span block instead of the pickle fallback.
_FLAG_SPANCTX = 0x10

#: One span-block entry body: trace_id(8) span_id(8). Shard-namespaced
#: ids (see :func:`repro.obs.tracing.shard_id_base`) fit u64 comfortably.
_SPAN_CTX = struct.Struct("!QQ")
_SPAN_BLOCK_HEAD = struct.Struct("!BH")  # kind(1) count(2)
_SPANCTX_SINGLE = 1
_SPANCTX_LIST = 2


def _encode_spanctx(value) -> bytes:
    """Compact encoding of the ``spanctx`` header: a single
    :class:`SpanContext` or a list of optional contexts aligned with a
    batch frame's records (None entries marked absent)."""
    if isinstance(value, SpanContext):
        kind, entries = _SPANCTX_SINGLE, [value]
    else:
        kind, entries = _SPANCTX_LIST, list(value)
    parts = [_SPAN_BLOCK_HEAD.pack(kind, len(entries))]
    for ctx in entries:
        if ctx is None:
            parts.append(b"\x00")
        else:
            parts.append(b"\x01" + _SPAN_CTX.pack(ctx.trace_id, ctx.span_id))
    return b"".join(parts)


def _decode_spanctx(data: bytes):
    if len(data) < _SPAN_BLOCK_HEAD.size:
        raise CodecError(f"span block truncated: {len(data)} bytes")
    kind, count = _SPAN_BLOCK_HEAD.unpack(data[: _SPAN_BLOCK_HEAD.size])
    if kind not in (_SPANCTX_SINGLE, _SPANCTX_LIST):
        raise CodecError(f"unknown span block kind {kind}")
    at = _SPAN_BLOCK_HEAD.size
    entries = []
    for _ in range(count):
        if at >= len(data):
            raise CodecError("span block truncated mid-entry")
        present = data[at]
        at += 1
        if present:
            if at + _SPAN_CTX.size > len(data):
                raise CodecError("span block truncated mid-context")
            trace_id, span_id = _SPAN_CTX.unpack(data[at : at + _SPAN_CTX.size])
            at += _SPAN_CTX.size
            entries.append(SpanContext(trace_id, span_id))
        else:
            entries.append(None)
    if at != len(data):
        raise CodecError(f"span block framing: {len(data)} bytes, expected {at}")
    if kind == _SPANCTX_SINGLE:
        if len(entries) != 1 or entries[0] is None:
            raise CodecError("single span block must carry exactly one context")
        return entries[0]
    return entries


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
    span_bytes = b""
    spanctx = headers.pop(SPAN_HEADER, None)
    if spanctx is not None:
        flags |= _FLAG_SPANCTX
        span_bytes = _encode_spanctx(spanctx)
        if len(span_bytes) > 0xFFFF:
            raise CodecError(f"span block too large: {len(span_bytes)} bytes")
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
        len(span_bytes),
    )
    return head + proto + ecmp_bytes + extra + span_bytes


def decode_packet(data: bytes) -> Packet:
    """Parse bytes from :func:`encode_packet` back into a packet.

    Strict like the ECMP codec: short buffers and trailing bytes are a
    :class:`CodecError`, never a silent truncation.
    """
    if len(data) < _HEAD.size:
        raise CodecError(f"packet truncated: {len(data)} bytes")
    (
        src, dst, ttl, flags, proto_len, size, created_at,
        ecmp_len, extra_len, span_len,
    ) = _HEAD.unpack(data[: _HEAD.size])
    expected = _HEAD.size + proto_len + ecmp_len + extra_len + span_len
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
    at += extra_len
    if flags & _FLAG_SPANCTX:
        headers[SPAN_HEADER] = _decode_spanctx(data[at : at + span_len])
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


# -- sync-protocol frames ---------------------------------------------------
#
# Every coordinator/worker message is one length-delimited frame (the
# transport adds the length): a kind byte, then a kind-specific packed
# body. Export records travel inside grant frames (imports) and report
# frames (exports) in the exact 7-tuple shape the worker uses
# internally: (arrival, src_rank, export_seq, dst_rank, node_name,
# iface_index, packet_bytes).

FRAME_READY = 0x01
FRAME_GRANT = 0x02
FRAME_REPORT = 0x03
FRAME_RESULT_REQ = 0x04
FRAME_RESULT = 0x05
FRAME_EXIT = 0x06
FRAME_ERROR = 0x07

#: Grant flags.
GRANT_FINAL = 0x01
#: The grant is an eager one-window round (the PR-7 baseline protocol):
#: the worker runs exactly one window to the single rung and reports.
GRANT_EAGER = 0x02

#: Report flags.
REPORT_FINALIZED = 0x01
REPORT_STALLED = 0x02
REPORT_TELEMETRY = 0x04

#: arrival(8) src_rank(2) export_seq(4) dst_rank(2) iface(2)
#: name-len(2) data-len(4)
_EXPORT_HEAD = struct.Struct("!dHIHHHI")
#: flags(1) rung-count(2) import-count(4)
_GRANT_HEAD = struct.Struct("!BHI")
#: flags(1) windows(4) dispatched(8) next-time-count(1) export-count(4)
#: telemetry-len(4)
_REPORT_HEAD = struct.Struct("!BIQBI I")
#: next_time(8) ops_scheduled(4)
_READY_BODY = struct.Struct("!dI")


def _encode_exports(records: list[tuple]) -> bytes:
    parts = []
    for arrival, src_rank, seq, dst_rank, node_name, iface, data in records:
        name = node_name.encode("ascii")
        parts.append(
            _EXPORT_HEAD.pack(
                arrival, src_rank, seq, dst_rank, iface, len(name), len(data)
            )
        )
        parts.append(name)
        parts.append(data)
    return b"".join(parts)


def _decode_exports(data: bytes, at: int, count: int) -> tuple[list[tuple], int]:
    records = []
    head = _EXPORT_HEAD
    for _ in range(count):
        if at + head.size > len(data):
            raise CodecError("export record truncated")
        arrival, src_rank, seq, dst_rank, iface, name_len, data_len = (
            head.unpack_from(data, at)
        )
        at += head.size
        if at + name_len + data_len > len(data):
            raise CodecError("export record body truncated")
        name = data[at : at + name_len].decode("ascii")
        at += name_len
        packet = data[at : at + data_len]
        at += data_len
        records.append((arrival, src_rank, seq, dst_rank, name, iface, packet))
    return records, at


def encode_ready(next_time: float, ops_scheduled: int) -> bytes:
    return bytes([FRAME_READY]) + _READY_BODY.pack(next_time, ops_scheduled)


def encode_grant(
    ladder: list[float], imports: list[tuple], final: bool, eager: bool
) -> bytes:
    flags = (GRANT_FINAL if final else 0) | (GRANT_EAGER if eager else 0)
    head = _GRANT_HEAD.pack(flags, len(ladder), len(imports))
    rungs = struct.pack(f"!{len(ladder)}d", *ladder)
    return bytes([FRAME_GRANT]) + head + rungs + _encode_exports(imports)


def encode_report(
    next_times: list[float],
    windows: int,
    dispatched: int,
    exports: list[tuple],
    finalized: bool,
    stalled: bool,
    telemetry: Optional[bytes] = None,
) -> bytes:
    flags = (
        (REPORT_FINALIZED if finalized else 0)
        | (REPORT_STALLED if stalled else 0)
        | (REPORT_TELEMETRY if telemetry is not None else 0)
    )
    blob = telemetry or b""
    head = _REPORT_HEAD.pack(
        flags, windows, dispatched, len(next_times), len(exports), len(blob)
    )
    times = struct.pack(f"!{len(next_times)}d", *next_times)
    return (
        bytes([FRAME_REPORT]) + head + times + _encode_exports(exports) + blob
    )


def encode_result(payload: object) -> bytes:
    return bytes([FRAME_RESULT]) + pickle.dumps(
        payload, protocol=pickle.HIGHEST_PROTOCOL
    )


def encode_error(message: str) -> bytes:
    return bytes([FRAME_ERROR]) + message.encode("utf-8", "replace")


#: The two body-less control frames, prebuilt.
RESULT_REQ_FRAME = bytes([FRAME_RESULT_REQ])
EXIT_FRAME = bytes([FRAME_EXIT])


def decode_frame(frame: bytes):
    """Parse one frame into ``(kind, body)``.

    Bodies by kind: READY ``(next_time, ops_scheduled)``; GRANT
    ``(ladder, imports, final, eager)``; REPORT ``(next_times,
    windows, dispatched, exports, finalized, stalled, telemetry)``
    with ``telemetry`` already unpickled (or None); RESULT the
    unpickled payload; ERROR the message string; RESULT_REQ/EXIT
    ``None``. Strict framing: trailing bytes raise
    :class:`CodecError`.
    """
    if not frame:
        raise CodecError("empty frame")
    kind = frame[0]
    body = frame[1:]
    if kind == FRAME_READY:
        if len(body) != _READY_BODY.size:
            raise CodecError(f"ready frame framing: {len(body)} bytes")
        return kind, _READY_BODY.unpack(body)
    if kind == FRAME_GRANT:
        if len(body) < _GRANT_HEAD.size:
            raise CodecError(f"grant frame truncated: {len(body)} bytes")
        flags, rung_count, import_count = _GRANT_HEAD.unpack_from(body, 0)
        at = _GRANT_HEAD.size
        if at + 8 * rung_count > len(body):
            raise CodecError("grant ladder truncated")
        ladder = list(struct.unpack_from(f"!{rung_count}d", body, at))
        at += 8 * rung_count
        imports, at = _decode_exports(body, at, import_count)
        if at != len(body):
            raise CodecError(
                f"grant framing: {len(body)} bytes, expected {at}"
            )
        return kind, (
            ladder, imports, bool(flags & GRANT_FINAL), bool(flags & GRANT_EAGER)
        )
    if kind == FRAME_REPORT:
        if len(body) < _REPORT_HEAD.size:
            raise CodecError(f"report frame truncated: {len(body)} bytes")
        flags, windows, dispatched, time_count, export_count, blob_len = (
            _REPORT_HEAD.unpack_from(body, 0)
        )
        at = _REPORT_HEAD.size
        if at + 8 * time_count > len(body):
            raise CodecError("report times truncated")
        next_times = list(struct.unpack_from(f"!{time_count}d", body, at))
        at += 8 * time_count
        exports, at = _decode_exports(body, at, export_count)
        telemetry = None
        if flags & REPORT_TELEMETRY:
            if at + blob_len != len(body):
                raise CodecError("report telemetry blob framing")
            telemetry = pickle.loads(body[at : at + blob_len])
            at += blob_len
        if at != len(body):
            raise CodecError(
                f"report framing: {len(body)} bytes, expected {at}"
            )
        return kind, (
            next_times,
            windows,
            dispatched,
            exports,
            bool(flags & REPORT_FINALIZED),
            bool(flags & REPORT_STALLED),
            telemetry,
        )
    if kind == FRAME_RESULT:
        return kind, pickle.loads(body)
    if kind == FRAME_ERROR:
        return kind, body.decode("utf-8", "replace")
    if kind in (FRAME_RESULT_REQ, FRAME_EXIT):
        if body:
            raise CodecError(f"control frame {kind:#x} carries {len(body)} bytes")
        return kind, None
    raise CodecError(f"unknown frame kind {kind:#x}")
