"""GroupNetwork facade edge cases across all three protocols."""

import pytest

from repro.errors import ProtocolError
from repro.groupmodel import GroupNetwork
from repro.inet.addr import parse_address
from repro.netsim.topology import TopologyBuilder

G = parse_address("224.42.42.42")


def build(protocol):
    topo = TopologyBuilder.isp(n_transit=3, stubs_per_transit=2, hosts_per_stub=2)
    kwargs = {"rp": "t1"} if protocol in ("pim", "cbt") else {}
    return GroupNetwork(topo, protocol=protocol, **kwargs)


@pytest.mark.parametrize("protocol", ["pim", "cbt", "dvmrp"])
class TestLeaveRejoin:
    def test_leave_then_rejoin_restores_delivery(self, protocol):
        net = build(protocol)
        net.join("h1_0_0", G)
        net.settle()
        net.send("h0_0_0", G)
        net.settle()
        assert net.delivered("h1_0_0", G) == 1
        net.leave("h1_0_0", G)
        net.settle()
        net.send("h0_0_0", G)
        net.settle()
        assert net.delivered("h1_0_0", G) == 1  # nothing new while left
        net.join("h2_1_1", G)  # unrelated member keeps/rebuilds the tree
        net.join("h1_0_0", G)
        net.settle(2.0)
        net.send("h0_0_0", G)
        net.settle(2.0)
        assert net.delivered("h1_0_0", G) == 2

    def test_leave_without_join_is_noop(self, protocol):
        net = build(protocol)
        net.leave("h1_0_0", G)  # must not raise
        net.settle()

    def test_join_invalid_group_rejected(self, protocol):
        net = build(protocol)
        with pytest.raises(ProtocolError):
            net.join("h1_0_0", parse_address("10.0.0.1"))


@pytest.mark.parametrize("protocol", ["pim", "cbt", "dvmrp"])
class TestMultiGroup:
    def test_two_groups_independent(self, protocol):
        net = build(protocol)
        G2 = parse_address("224.42.42.43")
        net.join("h1_0_0", G)
        net.join("h2_0_0", G2)
        net.settle()
        net.send("h0_0_0", G)
        net.settle(2.0)
        assert net.delivered("h1_0_0", G) == 1
        assert net.delivered("h2_0_0", G2) == 0
        net.send("h0_0_0", G2)
        net.settle(2.0)
        assert net.delivered("h2_0_0", G2) == 1
        assert net.delivered("h1_0_0", G) == 1


class TestHostValidation:
    def test_unknown_host_is_refused_like_express(self):
        """Both facades validate ``hosts=`` through one call."""
        from repro.core.network import ExpressNetwork
        from repro.errors import TopologyError

        for facade, kwargs in (
            (GroupNetwork, {"protocol": "dvmrp"}),
            (GroupNetwork, {"protocol": "pim", "rp": "t1"}),
            (ExpressNetwork, {}),
        ):
            topo = TopologyBuilder.isp(n_transit=3, stubs_per_transit=2, hosts_per_stub=2)
            with pytest.raises(TopologyError, match="nope"):
                facade(topo, hosts=["h0_0_0", "nope"], **kwargs)


class _TtlRecorder:
    """Sits in front of an agent and notes each packet's TTL."""

    def __init__(self, inner):
        self.inner = inner
        self.ttls = []

    def handle_packet(self, packet, ifindex):
        self.ttls.append(packet.ttl)
        self.inner.handle_packet(packet, ifindex)


class TestUnicastTransitTtl:
    """Every stack loses one TTL per transit router and none at
    origination: from ``e0_0`` through ``t0`` to ``t2`` a unicast packet
    arrives with 63."""

    @pytest.mark.parametrize("protocol", ["pim", "cbt"])
    def test_register_and_tunnel_lose_one_ttl_at_t0(self, protocol):
        topo = TopologyBuilder.isp(n_transit=4, stubs_per_transit=2, hosts_per_stub=2)
        net = GroupNetwork(topo, protocol=protocol, rp="t2")
        net.join("h1_0_0", G)
        net.settle()
        agents = topo.node("t2").agents
        recorder = agents["ipip"] = _TtlRecorder(agents["ipip"])
        net.send("h0_0_0", G)  # e0_0 registers / tunnels to t2 via t0
        net.settle()
        assert net.routing.path("e0_0", "t2") == ["e0_0", "t0", "t2"]
        assert recorder.ttls == [63]
        assert net.delivered("h1_0_0", G) == 1

    def test_express_unicast_over_the_same_path(self):
        from repro.core.network import ExpressNetwork
        from repro.netsim.packet import Packet

        topo = TopologyBuilder.isp(n_transit=4, stubs_per_transit=2, hosts_per_stub=2)
        net = ExpressNetwork(topo)
        got = []
        net.forwarders["t2"].on_unicast_delivery(got.append)
        packet = Packet(src=topo.node("e0_0").address, dst=topo.node("t2").address)
        assert net.forwarders["e0_0"].emit_unicast(packet)
        net.run(until=1.0)
        assert [p.ttl for p in got] == [63]
