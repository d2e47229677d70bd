"""Integration tests: subcast (§2.1).

"The source can also subcast a packet to a subset of the subscribers by
relaying it through an internal node in the multicast distribution
tree. ... the source unicasts an encapsulated packet to an 'on-channel'
router, addressing the encapsulated packet to the channel."
"""

import pytest

from repro.core.subcast import build_subcast_packet
from repro.errors import ChannelError
from repro.netsim.packet import IP_HEADER_BYTES, Packet
from tests.conftest import make_channel


class TestSubcastPacket:
    def test_structure(self, isp_net):
        net = isp_net
        src, ch = make_channel(net, "h0_0_0")
        relay = net.topo.node("t1").address
        packet = build_subcast_packet(ch, relay, payload="x", size=500)
        assert packet.proto == "ipip"
        assert packet.dst == relay
        assert packet.size == 500 + IP_HEADER_BYTES
        inner = packet.decapsulate()
        assert inner.src == ch.source and inner.dst == ch.group

    def test_relay_must_not_be_source(self, isp_net):
        net = isp_net
        src, ch = make_channel(net, "h0_0_0")
        with pytest.raises(ChannelError):
            build_subcast_packet(ch, ch.source)


class TestSubcastDelivery:
    def test_reaches_only_relay_subtree(self, isp_net):
        """Subscribers below the relay router get the packet; those on
        other branches do not."""
        net = isp_net
        src, ch = make_channel(net, "h0_0_0")
        below, beside = [], []
        # h1_* subscribers sit under t1; h2_* under t2.
        net.host("h1_0_0").subscribe(ch, on_data=below.append)
        net.host("h1_1_0").subscribe(ch, on_data=below.append)
        net.host("h2_0_0").subscribe(ch, on_data=beside.append)
        net.settle()
        assert src.subcast(ch, relay_router="t1")
        net.settle()
        assert len(below) == 2
        assert beside == []
        assert net.forwarders["t1"].stats.get("subcast_relayed") == 1

    def test_subcast_to_off_tree_router_dropped(self, isp_net):
        net = isp_net
        src, ch = make_channel(net, "h0_0_0")
        net.host("h1_0_0").subscribe(ch)
        net.settle()
        # t2 carries no state for this channel.
        assert "t2" not in net.nodes_on_tree(ch)
        src.subcast(ch, relay_router="t2")
        net.settle()
        assert net.forwarders["t2"].stats.get("subcast_off_tree_drops") == 1

    def test_only_source_may_subcast(self, isp_net):
        """§7.1: unlike RMTP's SUBTREE_CAST, "only the channel source
        can subcast on a channel, preserving the single-source
        property"."""
        net = isp_net
        src, ch = make_channel(net, "h0_0_0")
        got = []
        net.host("h1_0_0").subscribe(ch, on_data=got.append)
        net.settle()
        # A rogue builds the same encapsulation but its outer source
        # address is its own.
        relay = net.topo.node("t1")
        inner = Packet(src=ch.source, dst=ch.group, proto="data", size=100)
        forged = inner.encapsulate(
            outer_src=net.host("h2_0_0").address, outer_dst=relay.address
        )
        net.forwarders["h2_0_0"].emit_unicast(forged)
        net.settle()
        assert got == []
        assert net.forwarders["t1"].stats.get("subcast_auth_drops") == 1

    def test_malformed_decap_dropped(self, isp_net):
        net = isp_net
        relay = net.topo.node("t1")
        bogus = Packet(
            src=net.host("h0_0_0").address,
            dst=relay.address,
            proto="ipip",
            payload=b"not-a-packet",
        )
        net.forwarders["h0_0_0"].emit_unicast(bogus)
        net.settle()
        assert net.forwarders["t1"].stats.get("bad_decap_drops") == 1
