"""Property-based codec tests: every wire format round-trips for all
valid field values, and never crashes on truncation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.channel import Channel
from repro.core.ecmp.countids import COUNT_ID_MAX
from repro.core.ecmp.messages import (
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
from repro.core.keys import KEY_BYTES, ChannelKey
from repro.core.proactive import ToleranceCurve
from repro.errors import CodecError
from repro.inet.addr import format_address, parse_address
from repro.routing.fib import FibEntry

unicast_addresses = st.integers(min_value=0, max_value=0xDFFFFFFF).filter(
    lambda a: a < 0xE0000000
)
channels = st.builds(
    Channel.of,
    source=unicast_addresses,
    suffix=st.integers(min_value=0, max_value=(1 << 24) - 1),
)
count_ids = st.integers(min_value=1, max_value=COUNT_ID_MAX)
keys = st.one_of(
    st.none(), st.binary(min_size=KEY_BYTES, max_size=KEY_BYTES).map(ChannelKey)
)


class TestEcmpMessages:
    @given(
        channel=channels,
        count_id=count_ids,
        count=st.integers(min_value=0, max_value=0xFFFFFFFF),
        key=keys,
    )
    def test_count_round_trip(self, channel, count_id, count, key):
        message = Count(channel=channel, count_id=count_id, count=count, key=key)
        assert decode_message(encode_message(message)) == message

    @given(
        channel=channels,
        count_id=count_ids,
        timeout_ms=st.integers(min_value=0, max_value=10_000_000),
    )
    def test_query_round_trip(self, channel, count_id, timeout_ms):
        message = CountQuery(channel=channel, count_id=count_id, timeout=timeout_ms / 1000)
        parsed = decode_message(encode_message(message))
        assert parsed.channel == message.channel
        assert abs(parsed.timeout - message.timeout) < 1e-9

    @given(channel=channels, count_id=count_ids, status=st.sampled_from(CountStatus))
    def test_response_round_trip(self, channel, count_id, status):
        message = CountResponse(channel=channel, count_id=count_id, status=status)
        assert decode_message(encode_message(message)) == message

    @given(
        channel=channels,
        e_max=st.floats(min_value=0.01, max_value=8.0),
        alpha=st.floats(min_value=0.1, max_value=32.0),
        tau=st.floats(min_value=1.0, max_value=10_000.0),
    )
    def test_proactive_query_round_trip(self, channel, e_max, alpha, tau):
        curve = ToleranceCurve(e_max=e_max, alpha=alpha, tau=tau)
        message = CountQuery(channel=channel, count_id=1, timeout=1.0, proactive=curve)
        parsed = decode_message(encode_message(message))
        # float32 on the wire: compare at that precision.
        assert abs(parsed.proactive.alpha - alpha) <= abs(alpha) * 1e-6
        assert abs(parsed.proactive.tau - tau) <= abs(tau) * 1e-6

    @given(
        channel=channels,
        count=st.integers(min_value=0, max_value=0xFFFFFFFF),
        cut=st.integers(min_value=0, max_value=15),
    )
    def test_truncation_never_crashes_uncontrolled(self, channel, count, cut):
        data = encode_message(Count(channel=channel, count_id=1, count=count))
        try:
            decode_message(data[:cut])
        except CodecError:
            pass  # the only acceptable failure mode


#: Messages whose dataclass equality survives the wire exactly: Counts
#: (keyed and not), integer-millisecond CountQueries, and every
#: CountResponse status. Proactive curves are float32 on the wire, so
#: they are fuzzed separately above and excluded here.
exact_messages = st.one_of(
    st.builds(
        Count,
        channel=channels,
        count_id=count_ids,
        count=st.integers(min_value=0, max_value=0xFFFFFFFF),
        key=keys,
        request_id=st.integers(min_value=0, max_value=31),
    ),
    st.builds(
        CountQuery,
        channel=channels,
        count_id=count_ids,
        timeout=st.integers(min_value=0, max_value=10_000_000).map(
            lambda ms: ms / 1000
        ),
    ),
    st.builds(
        CountResponse,
        channel=channels,
        count_id=count_ids,
        status=st.sampled_from(CountStatus),
        request_id=st.integers(min_value=0, max_value=31),
    ),
)
batches = st.lists(exact_messages, min_size=1, max_size=12)


class TestBatchFrames:
    @given(messages=batches)
    def test_batch_round_trip(self, messages):
        assert decode_batch(encode_batch(messages)) == messages

    @given(messages=batches)
    def test_batch_round_trips_through_decode_message(self, messages):
        parsed = decode_message(encode_message(EcmpBatch(messages=tuple(messages))))
        assert isinstance(parsed, EcmpBatch)
        assert list(parsed.messages) == messages

    @given(messages=batches, data=st.data())
    def test_any_truncation_is_a_codec_error(self, messages, data):
        """Every strict prefix of a batch frame fails decoding with
        CodecError — never an uncontrolled crash, never a silently
        shorter batch."""
        encoded = encode_batch(messages)
        cut = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
        try:
            decode_batch(encoded[:cut])
        except CodecError:
            return
        raise AssertionError(f"prefix of {cut}/{len(encoded)} bytes decoded")

    @given(messages=batches, trailer=st.binary(min_size=1, max_size=8))
    def test_trailing_garbage_is_a_codec_error(self, messages, trailer):
        encoded = encode_batch(messages)
        try:
            decode_batch(encoded + trailer)
        except CodecError:
            return
        raise AssertionError("trailing bytes after the final record decoded")

    @given(message=exact_messages, cut=st.data())
    def test_single_message_truncation_controlled(self, message, cut):
        """The satellite fix generalized: every message type now rejects
        both short buffers and trailing bytes."""
        encoded = encode_message(message)
        offset = cut.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
        try:
            decode_message(encoded[:offset])
        except CodecError:
            pass
        else:
            raise AssertionError("truncated message decoded")
        with_sloppy_tail = encoded + b"\x00"
        try:
            decode_message(with_sloppy_tail)
        except CodecError:
            pass
        else:
            raise AssertionError("message with trailing byte decoded")


class TestAddressAndFib:
    @given(address=st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_address_round_trip(self, address):
        assert parse_address(format_address(address)) == address

    @given(
        source=st.integers(min_value=0, max_value=0xFFFFFFFF),
        suffix=st.integers(min_value=0, max_value=(1 << 24) - 1),
        iif=st.integers(min_value=0, max_value=31),
        outgoing=st.integers(min_value=0, max_value=0xFFFFFFFF),
    )
    def test_fib_entry_round_trip(self, source, suffix, iif, outgoing):
        entry = FibEntry(
            source=source, dest_suffix=suffix, incoming_interface=iif, outgoing=outgoing
        )
        packed = entry.pack()
        assert len(packed) == 12
        assert FibEntry.unpack(packed) == entry

    @given(indexes=st.sets(st.integers(min_value=0, max_value=31)))
    def test_fib_bitmap_matches_set_model(self, indexes):
        entry = FibEntry(source=1, dest_suffix=1, incoming_interface=0)
        for index in indexes:
            entry.add_outgoing(index)
        assert entry.outgoing_interfaces() == tuple(sorted(indexes))
        assert entry.fanout() == len(indexes)
        for index in list(indexes)[: len(indexes) // 2]:
            entry.remove_outgoing(index)
            indexes.discard(index)
        assert entry.outgoing_interfaces() == tuple(sorted(indexes))
