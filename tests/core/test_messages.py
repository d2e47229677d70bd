"""Unit tests for ECMP message codecs and wire sizes."""

import pytest

from repro.core.channel import Channel
from repro.core.ecmp.messages import (
    BATCH_HEADER_BYTES,
    COUNT_WIRE_BYTES,
    MAX_BATCH_RECORDS,
    MAX_REQUEST_ID,
    MSG_BATCH,
    Count,
    CountQuery,
    CountResponse,
    CountStatus,
    EcmpBatch,
    decode_batch,
    decode_message,
    encode_batch,
    encode_message,
)
from repro.core.ecmp.countids import SUBSCRIBER_ID
from repro.core.keys import make_key
from repro.core.proactive import ToleranceCurve
from repro.errors import CodecError
from repro.inet.addr import parse_address
from repro.inet.headers import ETHERNET_TCP_SEGMENT

CH = Channel.of(parse_address("10.0.0.1"), 0xABCDEF)


class TestWireSizes:
    def test_unauthenticated_count_is_16_bytes(self):
        """§5.3: "92 16-byte Count messages fit in a 1480-byte ...
        segment"."""
        message = Count(channel=CH, count_id=SUBSCRIBER_ID, count=5)
        assert message.wire_size() == COUNT_WIRE_BYTES == 16
        assert len(encode_message(message)) == 16
        assert ETHERNET_TCP_SEGMENT == 1480
        assert ETHERNET_TCP_SEGMENT // COUNT_WIRE_BYTES == 92

    def test_authenticated_count_adds_8_bytes(self):
        message = Count(channel=CH, count_id=SUBSCRIBER_ID, count=1, key=make_key(CH))
        assert message.wire_size() == 24
        assert len(encode_message(message)) == 24

    def test_query_sizes(self):
        plain = CountQuery(channel=CH, count_id=SUBSCRIBER_ID, timeout=5.0)
        assert len(encode_message(plain)) == plain.wire_size() == 16
        proactive = CountQuery(
            channel=CH, count_id=SUBSCRIBER_ID, timeout=5.0,
            proactive=ToleranceCurve(),
        )
        assert len(encode_message(proactive)) == proactive.wire_size() == 28

    def test_response_size(self):
        message = CountResponse(channel=CH, count_id=SUBSCRIBER_ID, status=CountStatus.OK)
        assert len(encode_message(message)) == message.wire_size() == 12

    def test_a_request_id_costs_no_bytes(self):
        # It rides in the Count's formerly reserved byte and in the
        # spare bits of the CountResponse's status byte.
        for message, size in (
            (Count(CH, SUBSCRIBER_ID, 1, request_id=MAX_REQUEST_ID), 16),
            (Count(CH, SUBSCRIBER_ID, 1, make_key(CH), MAX_REQUEST_ID), 24),
            (CountResponse(CH, SUBSCRIBER_ID, CountStatus.OK, MAX_REQUEST_ID), 12),
        ):
            assert len(encode_message(message)) == message.wire_size() == size


class TestRoundTrips:
    def test_count_round_trip(self):
        message = Count(channel=CH, count_id=0x4001, count=123456)
        assert decode_message(encode_message(message)) == message

    def test_count_with_key_round_trip(self):
        message = Count(channel=CH, count_id=SUBSCRIBER_ID, count=1, key=make_key(CH))
        assert decode_message(encode_message(message)) == message

    def test_query_round_trip_with_ms_precision(self):
        message = CountQuery(channel=CH, count_id=SUBSCRIBER_ID, timeout=2.5)
        parsed = decode_message(encode_message(message))
        assert parsed.timeout == 2.5

    def test_query_proactive_round_trip(self):
        curve = ToleranceCurve(e_max=0.25, alpha=3.0, tau=60.0)
        message = CountQuery(channel=CH, count_id=SUBSCRIBER_ID, timeout=1.0, proactive=curve)
        parsed = decode_message(encode_message(message))
        assert parsed.proactive.alpha == pytest.approx(3.0)
        assert parsed.proactive.tau == pytest.approx(60.0)

    def test_response_round_trip_all_statuses(self):
        for status in CountStatus:
            message = CountResponse(channel=CH, count_id=SUBSCRIBER_ID, status=status)
            assert decode_message(encode_message(message)) == message

    def test_request_id_round_trips_and_is_echoable(self):
        for request_id in (0, 1, 17, MAX_REQUEST_ID):
            join = Count(CH, SUBSCRIBER_ID, 2, make_key(CH), request_id)
            assert decode_message(encode_message(join)) == join
            assert encode_message(join)[15] == request_id
            for status in CountStatus:
                verdict = CountResponse(CH, SUBSCRIBER_ID, status, request_id)
                assert decode_message(encode_message(verdict)) == verdict
                assert encode_message(verdict)[11] == request_id << 3 | status.value
        # Without an id the frames are what they were before ids existed.
        assert encode_message(Count(CH, SUBSCRIBER_ID, 2))[15] == 0
        assert encode_message(
            CountResponse(CH, SUBSCRIBER_ID, CountStatus.NO_SUCH_CHANNEL)
        )[11] == CountStatus.NO_SUCH_CHANNEL.value


class TestValidation:
    def test_negative_timeout_rejected(self):
        with pytest.raises(CodecError):
            CountQuery(channel=CH, count_id=SUBSCRIBER_ID, timeout=-1.0)

    def test_count_range_enforced(self):
        with pytest.raises(CodecError):
            Count(channel=CH, count_id=SUBSCRIBER_ID, count=1 << 32)

    def test_request_id_range_enforced(self):
        for bad in (-1, MAX_REQUEST_ID + 1, 255):
            with pytest.raises(CodecError, match="request id"):
                Count(CH, SUBSCRIBER_ID, 1, request_id=bad)
            with pytest.raises(CodecError, match="request id"):
                CountResponse(CH, SUBSCRIBER_ID, CountStatus.OK, bad)

    def test_request_id_no_verdict_could_echo_rejected_on_decode(self):
        data = bytearray(encode_message(Count(CH, SUBSCRIBER_ID, 1)))
        data[15] = MAX_REQUEST_ID + 1
        with pytest.raises(CodecError, match="request id 32"):
            decode_message(bytes(data))

    def test_truncated_buffers_rejected(self):
        data = encode_message(Count(channel=CH, count_id=SUBSCRIBER_ID, count=1))
        for cut in (0, 5, 11, 15):
            with pytest.raises(CodecError):
                decode_message(data[:cut])

    def test_unknown_type_rejected(self):
        data = bytearray(encode_message(Count(channel=CH, count_id=SUBSCRIBER_ID, count=1)))
        data[0] = 0x7F
        with pytest.raises(CodecError):
            decode_message(bytes(data))

    def test_truncated_key_rejected(self):
        data = encode_message(
            Count(channel=CH, count_id=SUBSCRIBER_ID, count=1, key=make_key(CH))
        )
        with pytest.raises(CodecError):
            decode_message(data[:-4])

    def test_unknown_status_rejected(self):
        data = bytearray(encode_message(
            CountResponse(channel=CH, count_id=SUBSCRIBER_ID, status=CountStatus.OK)
        ))
        data[-1] = 0xEE
        with pytest.raises(CodecError):
            decode_message(bytes(data))

    def test_not_a_message_rejected(self):
        with pytest.raises(CodecError):
            encode_message("hello")

    def test_trailing_bytes_rejected_per_type(self):
        """Strict decode: a mis-sliced stream that appends bytes to any
        message type must fail loudly, never deliver a plausible prefix."""
        for message in (
            Count(channel=CH, count_id=SUBSCRIBER_ID, count=1),
            Count(channel=CH, count_id=SUBSCRIBER_ID, count=1, key=make_key(CH)),
            CountQuery(channel=CH, count_id=SUBSCRIBER_ID, timeout=5.0),
            CountQuery(
                channel=CH, count_id=SUBSCRIBER_ID, timeout=5.0,
                proactive=ToleranceCurve(),
            ),
            CountResponse(channel=CH, count_id=SUBSCRIBER_ID, status=CountStatus.OK),
        ):
            with pytest.raises(CodecError):
                decode_message(encode_message(message) + b"\x00")


MIXED_BATCH = (
    Count(channel=CH, count_id=SUBSCRIBER_ID, count=3),
    Count(channel=CH, count_id=SUBSCRIBER_ID, count=1, key=make_key(CH)),
    CountQuery(channel=CH, count_id=0x4001, timeout=2.5),
    CountQuery(
        channel=CH, count_id=SUBSCRIBER_ID, timeout=1.0,
        # float32-exact curve parameters so equality round-trips.
        proactive=ToleranceCurve(e_max=0.25, alpha=4.0, tau=64.0),
    ),
    CountResponse(channel=CH, count_id=SUBSCRIBER_ID, status=CountStatus.OK),
)


class TestBatchCodec:
    def test_mixed_batch_round_trip(self):
        data = encode_batch(MIXED_BATCH)
        assert decode_batch(data) == list(MIXED_BATCH)

    def test_batch_type_byte_and_header(self):
        data = encode_batch(MIXED_BATCH)
        assert data[0] == MSG_BATCH
        assert int.from_bytes(data[2:4], "big") == len(MIXED_BATCH)

    def test_wire_size_matches_encoding(self):
        batch = EcmpBatch(messages=MIXED_BATCH)
        data = encode_message(batch)
        assert len(data) == batch.wire_size()
        # No per-record framing: the header, then the records.
        assert batch.wire_size() == BATCH_HEADER_BYTES + sum(
            m.wire_size() for m in MIXED_BATCH
        )
        assert data[BATCH_HEADER_BYTES:] == b"".join(
            encode_message(m) for m in MIXED_BATCH
        )

    def test_92_counts_frame_in_one_segment(self):
        """§5.3's packing holds for the frame itself: 92 unauthenticated
        Counts and the 4-byte header fit a 1480-byte segment, 93 do
        not."""
        count = Count(channel=CH, count_id=SUBSCRIBER_ID, count=1)
        assert len(encode_batch([count] * 92)) == 4 + 92 * 16 <= ETHERNET_TCP_SEGMENT
        assert len(encode_batch([count] * 93)) > ETHERNET_TCP_SEGMENT

    def test_decode_message_dispatches_batch(self):
        parsed = decode_message(encode_batch(MIXED_BATCH))
        assert isinstance(parsed, EcmpBatch)
        assert parsed.messages == MIXED_BATCH
        assert len(parsed) == len(MIXED_BATCH)

    def test_singleton_batch_round_trips(self):
        single = (Count(channel=CH, count_id=SUBSCRIBER_ID, count=7),)
        assert decode_batch(encode_batch(single)) == list(single)


class TestBatchStrictness:
    def test_empty_batch_rejected(self):
        with pytest.raises(CodecError):
            EcmpBatch(messages=())
        with pytest.raises(CodecError):
            encode_batch([])

    def test_nested_batch_rejected(self):
        inner = EcmpBatch(messages=MIXED_BATCH[:1])
        with pytest.raises(CodecError):
            EcmpBatch(messages=(inner,))
        with pytest.raises(CodecError):
            encode_batch([inner])

    def test_record_count_overflow_rejected(self):
        count = Count(channel=CH, count_id=SUBSCRIBER_ID, count=1)
        with pytest.raises(CodecError):
            EcmpBatch(messages=(count,) * (MAX_BATCH_RECORDS + 1))
        with pytest.raises(CodecError):
            encode_batch([count] * (MAX_BATCH_RECORDS + 1))

    def test_truncated_header_rejected(self):
        data = encode_batch(MIXED_BATCH)
        for cut in range(BATCH_HEADER_BYTES):
            with pytest.raises(CodecError):
                decode_batch(data[:cut])

    def test_wrong_type_byte_rejected(self):
        data = bytearray(encode_batch(MIXED_BATCH))
        data[0] = 0x02
        with pytest.raises(CodecError):
            decode_batch(bytes(data))

    def test_zero_record_count_rejected(self):
        import struct

        with pytest.raises(CodecError):
            decode_batch(struct.pack("!BBH", MSG_BATCH, 0, 0))

    def test_trailing_partial_record_rejected(self):
        """Regression: a frame cut anywhere after its header
        (mid-record or between records) is a CodecError, never a
        silently shorter batch."""
        data = encode_batch(MIXED_BATCH)
        for cut in range(BATCH_HEADER_BYTES, len(data)):
            with pytest.raises(CodecError):
                decode_batch(data[:cut])

    def test_record_count_disagreeing_with_payload_rejected(self):
        # Declare one more record than the payload carries.
        data = bytearray(encode_batch(MIXED_BATCH))
        data[2:4] = (len(MIXED_BATCH) + 1).to_bytes(2, "big")
        with pytest.raises(CodecError):
            decode_batch(bytes(data))

    def test_trailing_bytes_after_records_rejected(self):
        with pytest.raises(CodecError):
            decode_batch(encode_batch(MIXED_BATCH) + b"\x00")

    def test_unknown_record_type_rejected(self):
        # No length prefix to skip it by: a type byte the codec does not
        # know leaves the record's end unknown, so the frame is refused.
        data = bytearray(encode_batch(MIXED_BATCH))
        data[BATCH_HEADER_BYTES] = 0x04
        with pytest.raises(CodecError, match="batch record 0: unknown ECMP message type 0x4"):
            decode_batch(bytes(data))

    def test_flag_bits_set_each_record_length(self):
        """A record's length is read off its type and flag bytes: clear
        the key flag of a keyed Count and its 8 key bytes become the
        start of the next record, which here makes no sense."""
        data = bytearray(encode_batch(MIXED_BATCH))
        keyed = BATCH_HEADER_BYTES + MIXED_BATCH[0].wire_size()
        assert data[keyed + 1] == 0x01
        data[keyed + 1] = 0
        with pytest.raises(CodecError):
            decode_batch(bytes(data))
