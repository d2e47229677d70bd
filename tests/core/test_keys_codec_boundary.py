"""Channel-key authentication at the codec boundary.

The §3.5 key rides inside the keyed ``Count`` wire record, so the
authentication edge cases live where the codec meets :mod:`repro.core.
keys`: a truncated key must fail framing (never yield a short
``ChannelKey``), extra key bytes must fail strictness (never be
silently absorbed into the authenticator), and a syntactically valid
but *forged* key must cross the real wire intact and be rejected by
the upstream validator with ``INVALID_AUTHENTICATOR`` — exercised
end-to-end, where every hop encodes and parses real bytes. Every case
runs against the shipped codec and the reference codec alike (the
``codec`` fixture in ``tests/conftest.py``): the framing cases call it
directly, the end-to-end cases run a whole network on it.
"""

import pytest

from repro.core.channel import Channel
from repro.core.ecmp import protocol
from repro.core.ecmp.countids import SUBSCRIBER_ID
from repro.core.ecmp.messages import KEY_BYTES, Count
from repro.core.keys import ChannelKey, make_key
from repro.core.network import ExpressNetwork
from repro.errors import AuthError, CodecError
from repro.inet.addr import parse_address
from repro.netsim.topology import TopologyBuilder

CH = Channel.of(parse_address("10.9.0.1"), 7)


def keyed_count(codec, key: ChannelKey) -> bytes:
    return codec.encode_message(
        Count(channel=CH, count_id=SUBSCRIBER_ID, count=3, key=key)
    )


class TestKeyFraming:
    def test_keyed_count_round_trips_key_bytes(self, codec):
        key = make_key(CH)
        decoded = codec.decode_message(keyed_count(codec, key))
        assert decoded.key == key
        assert isinstance(decoded.key.value, bytes)
        assert len(decoded.key.value) == KEY_BYTES

    @pytest.mark.parametrize("missing", [1, KEY_BYTES - 1, KEY_BYTES])
    def test_truncated_key_fails_framing(self, codec, missing):
        # Chop bytes off the authenticator: the KEY flag promises 8 key
        # bytes, so a short buffer is a framing error — it must never
        # surface as a short ChannelKey (whose constructor would raise
        # AuthError) or as a keyless Count.
        frame = keyed_count(codec, make_key(CH))
        with pytest.raises(CodecError, match="Count body truncated"):
            codec.decode_message(frame[:-missing])

    def test_extra_key_bytes_fail_strictness(self, codec):
        # A forger padding the authenticator field must fail framing,
        # not have the surplus silently ignored.
        frame = keyed_count(codec, make_key(CH)) + b"\x00"
        with pytest.raises(CodecError, match="trailing bytes after Count"):
            codec.decode_message(frame)

    def test_truncated_key_inside_batch_names_the_record(self, codec):
        frame = bytearray(codec.encode_batch([
            Count(channel=CH, count_id=SUBSCRIBER_ID, count=1),
            Count(channel=CH, count_id=SUBSCRIBER_ID, count=2, key=make_key(CH)),
        ]))
        # Shorten the final record's declared payload: the per-record
        # length prefix now promises more than the frame holds.
        with pytest.raises(CodecError, match="batch record 1 truncated"):
            codec.decode_batch(bytes(frame[:-2]))

    def test_forged_key_crosses_codec_intact(self, codec):
        # A wrong-but-well-formed key is not the codec's business: it
        # must arrive byte-identical for the key cache to reject.
        forged = ChannelKey(b"badbadba")
        decoded = codec.decode_message(keyed_count(codec, forged))
        assert decoded.key == forged
        assert decoded.key != make_key(CH)

    def test_short_key_cannot_be_constructed(self):
        # The AuthError backstop: even code bypassing the codec cannot
        # materialize an undersized authenticator.
        with pytest.raises(AuthError, match="must be 8 bytes"):
            ChannelKey(b"\x01" * (KEY_BYTES - 1))
        with pytest.raises(AuthError):
            ChannelKey(b"\x01" * (KEY_BYTES + 1))


class TestForgedKeyOverWire:
    @pytest.fixture
    def wire_net(self, codec, monkeypatch):
        # Every hop encodes and parses with ``codec``: set at the two
        # names the agent calls (a no-op for the shipped codec).
        monkeypatch.setattr(protocol, "encode_message", codec.encode_message)
        monkeypatch.setattr(protocol, "decode_message", codec.decode_message)
        topo = TopologyBuilder.isp(
            n_transit=3, stubs_per_transit=2, hosts_per_stub=2
        )
        net = ExpressNetwork(topo)
        net.run(until=0.01)
        return net

    def _keyed_channel(self, net):
        src = net.source("h0_0_0")
        ch = src.allocate_channel()
        key = make_key(ch)
        src.channel_key(ch, key)
        return src, ch, key

    def test_forged_key_denied_end_to_end(self, wire_net):
        net = wire_net
        src, ch, key = self._keyed_channel(net)
        statuses = []
        handle = net.host("h1_0_0").subscribe(
            ch,
            key=ChannelKey(b"badbadba"),
            on_status=lambda h: statuses.append(h.status),
        )
        net.settle()
        # The forged authenticator survived encode/decode at every hop
        # and was rejected upstream: INVALID_AUTHENTICATOR, no tree.
        assert handle.status == "denied"
        assert "denied" in statuses
        assert net.nodes_on_tree(ch) == set()

    def test_valid_key_accepted_end_to_end(self, wire_net):
        net = wire_net
        src, ch, key = self._keyed_channel(net)
        got = []
        handle = net.host("h1_0_0").subscribe(ch, key=key, on_data=got.append)
        net.settle()
        assert handle.status == "active"
        src.send(ch)
        net.settle()
        assert len(got) == 1
