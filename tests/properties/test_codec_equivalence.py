"""Property tests: the shipped zero-copy codec is byte-identical to
the concatenating reference codec in ``tests/oracles/codec.py`` — same
frames out, same objects and same error messages back in, for every
message shape and every corruption.

The shipped codec (``pack_into`` over one preallocated bytearray on
encode, ``unpack_from`` over memoryview windows on decode) must be
observationally indistinguishable from the plain statement of the wire
format; every case calls both and compares.
"""

import math
import struct

from hypothesis import given
from hypothesis import strategies as st

from repro.core.channel import Channel
from repro.core.ecmp.countids import COUNT_ID_MAX
from repro.core.ecmp.messages import (
    Count,
    CountQuery,
    CountResponse,
    CountStatus,
    EcmpBatch,
    MAX_REQUEST_ID,
    MSG_BATCH,
    decode_batch,
    decode_message,
    encode_batch,
    encode_message,
)
from repro.core.keys import KEY_BYTES, ChannelKey
from repro.core.proactive import ToleranceCurve
from repro.errors import ReproError
from tests.oracles import codec as oracle

unicast_addresses = st.integers(min_value=0, max_value=0xDFFFFFFF)
channels = st.builds(
    Channel.of,
    source=unicast_addresses,
    suffix=st.integers(min_value=0, max_value=(1 << 24) - 1),
)
count_ids = st.integers(min_value=1, max_value=COUNT_ID_MAX)
keys = st.one_of(
    st.none(), st.binary(min_size=KEY_BYTES, max_size=KEY_BYTES).map(ChannelKey)
)
curves = st.one_of(
    st.none(),
    st.builds(
        # width=32: the wire carries float32, so float32-exact inputs
        # round-trip bit-identically.
        ToleranceCurve,
        e_max=st.floats(min_value=0.015625, max_value=8.0, width=32),
        alpha=st.floats(min_value=0.125, max_value=32.0, width=32),
        tau=st.floats(min_value=1.0, max_value=8192.0, width=32),
    ),
)
request_ids = st.integers(min_value=0, max_value=MAX_REQUEST_ID)
counts = st.builds(
    Count,
    channel=channels,
    count_id=count_ids,
    count=st.integers(min_value=0, max_value=0xFFFFFFFF),
    key=keys,
    request_id=request_ids,
)
queries = st.builds(
    CountQuery,
    channel=channels,
    count_id=count_ids,
    timeout=st.integers(min_value=0, max_value=0xFFFFF).map(lambda ms: ms / 1000.0),
    proactive=curves,
)
responses = st.builds(
    CountResponse,
    channel=channels,
    count_id=count_ids,
    status=st.sampled_from(CountStatus),
    request_id=request_ids,
)
messages = st.one_of(counts, queries, responses)


def outcome(fn, *args):
    """Result or (error-type, message) — for comparing error paths.

    Catches every library error, not just ``CodecError``: corrupt
    bytes can surface as e.g. ``CountIdError`` from a message
    constructor, and the codec and its oracle must agree on *which*
    error and its text, whatever the class.
    """
    try:
        return ("ok", fn(*args))
    except ReproError as exc:
        return ("err", type(exc).__name__, str(exc))


def agreed(shipped, reference, *args):
    """The outcome of one call, which both codecs must share."""
    result = outcome(shipped, *args)
    assert result == outcome(reference, *args)
    return result


class TestEncodeEquivalence:
    @given(message=messages)
    def test_single_frames_byte_identical(self, message):
        assert encode_message(message) == oracle.encode_message(message)

    @given(batch=st.lists(messages, min_size=1, max_size=8))
    def test_batch_frames_byte_identical(self, batch):
        assert encode_batch(batch) == oracle.encode_batch(batch)

    def test_empty_batch_same_error(self):
        assert agreed(encode_batch, oracle.encode_batch, [])[0] == "err"

    def test_non_message_same_error(self):
        assert agreed(encode_message, oracle.encode_message, "nope")[0] == "err"

    @given(message=queries)
    def test_unencodable_timeout_same_error(self, message):
        bad = CountQuery(
            channel=message.channel,
            count_id=message.count_id,
            timeout=2**33,
            proactive=message.proactive,
        )
        assert agreed(encode_message, oracle.encode_message, bad)[0] == "err"


class TestDecodeEquivalence:
    @given(message=messages)
    def test_round_trips_agree(self, message):
        frame = encode_message(message)
        assert decode_message(frame) == oracle.decode_message(frame)
        assert decode_message(frame) == message

    @given(batch=st.lists(messages, min_size=1, max_size=6))
    def test_batch_round_trips_agree(self, batch):
        frame = encode_batch(batch)
        assert decode_batch(frame) == oracle.decode_batch(frame)
        assert decode_batch(frame) == batch

    @given(message=messages, cut=st.integers(min_value=0, max_value=60))
    def test_truncations_raise_identical_errors(self, message, cut):
        frame = encode_message(message)
        mutated = frame[: max(len(frame) - cut, 0)]
        agreed(decode_message, oracle.decode_message, mutated)

    @given(message=messages, tail=st.binary(min_size=1, max_size=8))
    def test_trailing_bytes_raise_identical_errors(self, message, tail):
        mutated = encode_message(message) + tail
        assert agreed(decode_message, oracle.decode_message, mutated)[0] == "err"

    @given(
        batch=st.lists(messages, min_size=1, max_size=4),
        cut=st.integers(min_value=1, max_value=40),
        tail=st.binary(max_size=4),
    )
    def test_corrupted_batches_raise_identical_errors(self, batch, cut, tail):
        frame = encode_batch(batch)
        for mutated in (frame[: max(len(frame) - cut, 0)], frame + tail):
            agreed(decode_batch, oracle.decode_batch, mutated)

    @given(byte=st.integers(min_value=0, max_value=255))
    def test_unknown_type_bytes_raise_identical_errors(self, byte):
        frame = bytes([byte]) + bytes(11)
        agreed(decode_message, oracle.decode_message, frame)

    @given(
        message=st.one_of(counts, responses),
        byte=st.integers(min_value=0, max_value=255),
    )
    def test_every_request_byte_decodes_or_fails_identically(self, message, byte):
        # The Count's request byte and the CountResponse's id/status
        # byte, every value: an id no verdict could echo (above 31) and
        # a status nobody defined (low bits 4-7) are errors in both.
        frame = bytearray(encode_message(message))
        frame[15 if isinstance(message, Count) else 11] = byte
        result = agreed(decode_message, oracle.decode_message, bytes(frame))
        if isinstance(message, Count):
            assert (result[0] == "ok") == (byte <= MAX_REQUEST_ID)
        else:
            assert (result[0] == "ok") == (byte & 7 < len(CountStatus))
        if result[0] == "ok":
            assert result[1].request_id == (byte if isinstance(message, Count) else byte >> 3)
            assert encode_message(result[1]) == bytes(frame)

    @given(
        message=messages,
        field=st.sampled_from(("count_id", "source", "curve")),
        in_batch=st.booleans(),
    )
    def test_impossible_field_values_raise_identical_codec_errors(
        self, message, field, in_batch
    ):
        # Well framed, but countId 0 / a class-D source / an all-zero
        # tolerance curve: the constructors' own errors leave both
        # codecs as CodecError, with the same text.
        if field == "curve":
            frame = bytearray(
                b"\x01\x02" + encode_message(message)[2:11] + bytes(5 + 12)
            )
            frame[2:4] = b"\x00\x01"
        else:
            frame = bytearray(encode_message(message))
            if field == "count_id":
                frame[2:4] = b"\x00\x00"
            else:
                frame[4:8] = (0xE0000001).to_bytes(4, "big")
        frame = bytes(frame)
        if in_batch:
            frame = bytes([MSG_BATCH]) + b"\x00\x00\x01" + frame
        kind, error, text = agreed(decode_message, oracle.decode_message, frame)
        assert (kind, error) == ("err", "CodecError")
        assert text.startswith("invalid field value: ")

    @given(message=messages)
    def test_fast_decode_accepts_memoryview(self, message):
        frame = encode_message(message)
        assert decode_message(memoryview(frame)) == message
        assert oracle.decode_message(memoryview(frame)) == message


keyed_counts = st.builds(
    Count,
    channel=channels,
    count_id=count_ids,
    count=st.integers(min_value=0, max_value=0xFFFFFFFF),
    key=keys.filter(bool),
    request_id=request_ids,
)
proactive_queries = queries.filter(lambda query: query.proactive is not None)
#: Records of every length a frame can hold: 16 (plain Count and
#: CountQuery), 24 (keyed Count), 28 (proactive CountQuery), 12
#: (CountResponse).
mixed_frames = st.lists(
    st.one_of(keyed_counts, proactive_queries, responses, messages),
    min_size=1,
    max_size=6,
)


class TestSingleByteMutations:
    """A batch record has no length prefix: where it ends follows from
    its type and flag bytes, so one flipped byte can move every boundary
    after it. Whatever a single-byte overwrite of a valid frame makes,
    both codecs read it the same way: as messages that encode back to
    exactly those bytes (one message, one encoding), or as the same
    :class:`CodecError` — never a shorter list, never another
    exception."""

    @given(
        batch=mixed_frames,
        at=st.integers(min_value=0),
        byte=st.integers(min_value=0, max_value=255),
    )
    def test_overwrite_decodes_canonically_or_raises_codec_error(
        self, batch, at, byte
    ):
        mutated = bytearray(encode_batch(batch))
        mutated[at % len(mutated)] = byte
        mutated = bytes(mutated)
        for decode, reference, encode in (
            (decode_batch, oracle.decode_batch, encode_batch),
            (decode_message, oracle.decode_message, encode_message),
        ):
            result = agreed(decode, reference, mutated)
            if result[0] == "ok":
                assert encode(result[1]) == mutated
            else:
                assert result[1] == "CodecError"

    @given(batch=mixed_frames, at=st.integers(min_value=0))
    def test_flag_flip_moves_the_boundary_in_both_codecs(self, batch, at):
        # The byte that sets a record's length: the key / proactive bit
        # of one Count or CountQuery toggled.
        frame = bytearray(encode_batch(batch))
        offsets = [4]
        for message in batch[:-1]:
            offsets.append(offsets[-1] + message.wire_size())
        sized = [o for o, m in zip(offsets, batch) if type(m) is not CountResponse]
        if not sized:
            return
        offset = sized[at % len(sized)]
        frame[offset + 1] ^= 0x01 if frame[offset] == 0x02 else 0x02
        result = agreed(decode_batch, oracle.decode_batch, bytes(frame))
        if result[0] == "ok":
            assert encode_batch(result[1]) == bytes(frame)


class TestNestedBatch:
    def test_nested_batch_same_error(self):
        inner = Count(channel=Channel.of(1, 1), count_id=1, count=1)
        nested = [EcmpBatch(messages=(inner,))]
        assert agreed(encode_batch, oracle.encode_batch, nested) == (
            "err",
            "CodecError",
            "batches cannot nest",
        )

    @given(
        batch=st.lists(messages, min_size=1, max_size=4),
        at=st.integers(min_value=0, max_value=4),
        inner=st.binary(max_size=12),
    )
    def test_nested_record_same_decode_error(self, batch, at, inner):
        # A record whose first byte says MSG_BATCH, spliced in at any
        # position and whatever follows that byte: the frame the
        # encoders refuse to build, hand-made.
        frame = bytearray(encode_batch(batch))
        offset = 4 + sum(m.wire_size() for m in batch[:at])
        frame[offset:offset] = bytes([MSG_BATCH]) + inner
        frame[2:4] = (len(batch) + 1).to_bytes(2, "big")
        for shipped, reference in (
            (decode_batch, oracle.decode_batch),
            (decode_message, oracle.decode_message),
        ):
            assert agreed(shipped, reference, bytes(frame)) == (
                "err",
                "CodecError",
                "batches cannot nest",
            )


class TestDecoderSideConstructor:
    """The decoder builds a message as a bare tuple, without the public
    constructor: what it has read off the wire is in range by its field
    width, and the few values a field can hold but no message can carry
    it refuses itself. Every frame here is one the public constructors
    would refuse to build; the decoder must refuse it with the error the
    constructor (through the oracle, which calls it) gives."""

    @staticmethod
    def refused_publicly(build) -> str:
        try:
            build()
        except ReproError as exc:
            return str(exc)
        raise AssertionError("the public constructor accepted it")

    def check(self, frame: bytes, build) -> None:
        text = self.refused_publicly(build)
        for wrapped in (frame, bytes([MSG_BATCH]) + b"\x00\x00\x01" + frame):
            kind, error, said = agreed(decode_message, oracle.decode_message, wrapped)
            assert (kind, error) == ("err", "CodecError")
            assert text in said

    @given(message=messages)
    def test_count_id_zero(self, message):
        frame = bytearray(encode_message(message))
        frame[2:4] = b"\x00\x00"
        self.check(bytes(frame), lambda: type(message)(message.channel, 0, *message[2:]))

    @given(message=counts, request_id=st.integers(MAX_REQUEST_ID + 1, 255))
    def test_request_id_no_verdict_could_echo(self, message, request_id):
        frame = bytearray(encode_message(message))
        frame[15] = request_id
        self.check(bytes(frame), lambda: Count(*message[:4], request_id))

    @given(message=messages, source=st.integers(0xE0000000, 0xFFFFFFFF))
    def test_multicast_source(self, message, source):
        frame = bytearray(encode_message(message))
        frame[4:8] = source.to_bytes(4, "big")
        self.check(bytes(frame), lambda: Channel(source, message.channel.group))

    @given(
        message=queries,
        zeroed=st.sampled_from((0, 1, 2)),
        bad=st.sampled_from((0.0, -1.0, math.nan)),
    )
    def test_zero_tolerance_curve(self, message, zeroed, bad):
        # NaN as well: it is not > 0, and as a curve it would compare
        # unequal to itself after a round trip.
        values = [0.5, 4.0, 120.0]
        values[zeroed] = bad
        frame = bytearray(encode_message(message._replace(proactive=ToleranceCurve())))
        frame[16:28] = struct.pack("!fff", *values)
        self.check(bytes(frame), lambda: ToleranceCurve(*values))
