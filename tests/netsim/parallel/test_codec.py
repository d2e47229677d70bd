"""Tests for cross-partition packet serialization
(:mod:`repro.netsim.parallel.codec`)."""

import pytest

from repro.core.channel import Channel
from repro.core.ecmp.messages import Count, CountQuery, EcmpBatch
from repro.errors import CodecError
from repro.netsim.packet import Packet
from repro.netsim.parallel.codec import decode_packet, encode_packet
from repro.obs.hooks import SPAN_HEADER
from repro.obs.tracing import SpanContext

CHANNEL = Channel(source=0x0A000001, group=0xE8000005)


def roundtrip(packet: Packet) -> Packet:
    return decode_packet(encode_packet(packet))


class TestRoundTrip:
    def test_plain_fields(self):
        packet = Packet(
            src=0x0A000001, dst=0xE8000005, proto="data",
            size=1356, ttl=17, created_at=1.25,
        )
        out = roundtrip(packet)
        assert (out.src, out.dst, out.proto) == (packet.src, packet.dst, "data")
        assert (out.size, out.ttl) == (1356, 17)
        assert out.created_at == 1.25
        assert out.payload is None and out.headers == {}

    def test_ecmp_message_uses_wire_codec(self):
        message = Count(channel=CHANNEL, count_id=1, count=7)
        packet = Packet(
            src=1 << 24, dst=2 << 24, proto="ecmp",
            headers={"ecmp": message, "reliable": True},
        )
        out = roundtrip(packet)
        assert out.headers["ecmp"] == message
        assert out.headers["reliable"] is True

    def test_ecmp_batch_crosses_as_msg_batch(self):
        batch = EcmpBatch(messages=(
            Count(channel=CHANNEL, count_id=1, count=3),
            CountQuery(channel=CHANNEL, count_id=2, timeout=1.5),
        ))
        packet = Packet(src=1, dst=2, proto="ecmp", headers={"ecmp": batch})
        out = roundtrip(packet)
        assert out.headers["ecmp"] == batch

    def test_raw_wire_bytes_pass_through(self):
        # wire_format=True networks carry pre-encoded bytes; the codec
        # must not re-encode or decode them.
        raw = b"\x01\x02\x03\x04opaque"
        packet = Packet(src=1, dst=2, proto="ecmp", headers={"ecmp": raw})
        out = roundtrip(packet)
        assert out.headers["ecmp"] == raw
        assert isinstance(out.headers["ecmp"], bytes)

    def test_extra_headers_and_payload_fall_back_to_pickle(self):
        inner = Packet(src=9, dst=8, proto="data", size=100)
        packet = Packet(
            src=1, dst=2, proto="ipip", payload=inner,
            headers={"span": ("trace", 42), "hops": 3},
        )
        out = roundtrip(packet)
        assert out.headers["span"] == ("trace", 42)
        assert out.headers["hops"] == 3
        assert out.payload.src == 9 and out.payload.proto == "data"


class TestSpanContext:
    """Trace contexts an instrumented run puts on control messages
    cross the cut in the pickle fallback, intact."""

    def test_single_context_roundtrips(self):
        ctx = SpanContext(trace_id=7, span_id=9)
        packet = Packet(
            src=1, dst=2, proto="ecmp",
            headers={"ecmp": Count(channel=CHANNEL, count_id=1, count=1),
                     SPAN_HEADER: ctx},
        )
        out = roundtrip(packet)
        assert out.headers[SPAN_HEADER] == ctx
        assert isinstance(out.headers[SPAN_HEADER], SpanContext)

    def test_batch_context_list_with_absences(self):
        contexts = [
            SpanContext(trace_id=1, span_id=2),
            None,
            SpanContext(trace_id=3, span_id=4),
        ]
        packet = Packet(
            src=1, dst=2, proto="ecmp",
            headers={"ecmp": Count(channel=CHANNEL, count_id=1, count=1),
                     SPAN_HEADER: contexts},
        )
        out = roundtrip(packet)
        assert out.headers[SPAN_HEADER] == contexts


class TestStrictness:
    def test_truncated_header_rejected(self):
        with pytest.raises(CodecError, match="truncated"):
            decode_packet(b"\x00\x01")

    def test_trailing_bytes_rejected(self):
        data = encode_packet(Packet(src=1, dst=2))
        with pytest.raises(CodecError, match="framing"):
            decode_packet(data + b"\x00")

    def test_short_body_rejected(self):
        data = encode_packet(Packet(src=1, dst=2, proto="data"))
        with pytest.raises(CodecError, match="framing"):
            decode_packet(data[:-1])

    def test_overlong_proto_rejected(self):
        packet = Packet(src=1, dst=2, proto="x" * 300)
        with pytest.raises(CodecError, match="proto label"):
            encode_packet(packet)

    def test_encode_does_not_mutate_headers(self):
        headers = {"ecmp": Count(channel=CHANNEL, count_id=1, count=1),
                   "reliable": True}
        packet = Packet(src=1, dst=2, proto="ecmp", headers=headers)
        encode_packet(packet)
        assert set(packet.headers) == {"ecmp", "reliable"}
