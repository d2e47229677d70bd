"""Integration tests: wire-format operation, neighbor discovery, and
keepalive liveness (§3.3)."""

import pytest

from repro import ExpressNetwork, TopologyBuilder
from repro.core.ecmp.protocol import DISCOVERY_CHANNEL, EcmpAgent
from tests.conftest import make_channel


@pytest.fixture
def wire_net():
    topo = TopologyBuilder.isp(n_transit=3, stubs_per_transit=2, hosts_per_stub=2)
    net = ExpressNetwork(topo, wire_format=True)
    net.run(until=0.01)
    return net


class TestWireFormat:
    def test_subscription_over_real_bytes(self, wire_net):
        """The full join/deliver/count flow works when every ECMP
        message is serialized and parsed at each hop."""
        net = wire_net
        src, ch = make_channel(net, "h0_0_0")
        got = []
        net.host("h1_0_0").subscribe(ch, on_data=got.append)
        net.settle()
        src.send(ch)
        net.settle()
        assert len(got) == 1
        result = src.count_query(ch, timeout=5.0)
        net.settle(6.0)
        assert result.count == 1

    def test_auth_over_real_bytes(self, wire_net):
        from repro import make_key
        from repro.core.keys import ChannelKey

        net = wire_net
        src, ch = make_channel(net, "h0_0_0")
        key = make_key(ch)
        src.channel_key(ch, key)
        good = net.host("h1_0_0").subscribe(ch, key=key)
        bad = net.host("h2_0_0").subscribe(ch, key=ChannelKey(b"badbadba"))
        net.settle()
        assert good.status == "active"
        assert bad.status == "denied"

    def test_wire_and_object_modes_build_same_tree(self):
        def tree_for(wire_format):
            topo = TopologyBuilder.isp(n_transit=3, stubs_per_transit=2, hosts_per_stub=2)
            net = ExpressNetwork(topo, wire_format=wire_format)
            net.run(until=0.01)
            src, ch = make_channel(net, "h0_0_0")
            for member in ("h1_0_0", "h2_1_1"):
                net.host(member).subscribe(ch)
            net.settle()
            return net.tree_edges(ch)

        assert tree_for(True) == tree_for(False)

    def test_undecodable_bytes_counted(self, wire_net):
        from repro.netsim.packet import Packet

        net = wire_net
        hub = net.topo.node("t0")
        agent = net.ecmp_agents["t0"]
        garbage = Packet(
            src=net.topo.node("t1").address,
            dst=hub.address,
            proto="ecmp",
            payload=b"\xff\xfftruncated",
        )
        ifindex = hub.interface_to(net.topo.node("t1")).index
        agent.handle_packet(garbage, ifindex)
        assert agent.stats.get("undecodable_messages") == 1


class TestNeighborLiveness:
    def test_keepalive_probes_flow(self, isp_net):
        """§3.3: routers periodically probe neighbors with the reserved
        neighbors countId; replies refresh liveness."""
        net = isp_net
        net.run(until=EcmpAgent.KEEPALIVE_INTERVAL * 2 + 5)
        agent = net.ecmp_agents["t0"]
        assert agent.stats.get("keepalives_tx") > 0
        # Every physical neighbor has been heard from.
        for neighbor in net.topo.node("t0").neighbors():
            assert neighbor.name in agent.liveness.last_heard

    def test_discovery_channel_is_well_known(self):
        """Footnote 5: ECMP's own multicast uses a well-known localhost
        source and ECMP group."""
        from repro.inet.addr import format_address

        assert format_address(DISCOVERY_CHANNEL.source) == "127.0.0.1"
        assert format_address(DISCOVERY_CHANNEL.group) == "232.0.0.255"

    def test_silence_alone_does_not_fail_live_neighbor(self, isp_net):
        """A neighbor whose link is up is not declared dead just for
        being quiet between keepalives."""
        net = isp_net
        src, ch = make_channel(net, "h0_0_0")
        net.host("h1_0_0").subscribe(ch)
        net.settle()
        net.run(until=net.sim.now + EcmpAgent.KEEPALIVE_INTERVAL * 5)
        # The subscription survives long idle periods (TCP mode needs
        # no per-channel refresh — §3.2).
        assert net.ecmp_agents["h0_0_0"].subscriber_count_estimate(ch) == 1
        got = []
        net.ecmp_agents["h1_0_0"].subscriptions[ch].on_data = got.append
        src.send(ch)
        net.settle()
        assert len(got) == 1

    def test_tcp_mode_sends_no_per_channel_refresh(self, isp_net):
        """§5.3: "With TCP operation, it is not necessary to send a
        periodic refresh for long-lived channels." Control traffic over
        a long idle period is keepalives only — independent of the
        number of channels."""
        net = isp_net
        src = net.source("h0_0_0")
        channels = [src.allocate_channel() for _ in range(20)]
        for ch in channels:
            net.host("h1_0_0").subscribe(ch)
        net.settle()
        stats_before = net.control_stats_total()
        net.run(until=net.sim.now + 120)
        stats_after = net.control_stats_total()
        counts_sent = stats_after.get("tx_count", 0) - stats_before.get("tx_count", 0)
        keepalives = stats_after.get("keepalives_tx", 0) - stats_before.get(
            "keepalives_tx", 0
        )
        # Keepalive replies are Counts on the discovery channel; no
        # per-channel refresh means counts_sent tracks keepalives, not
        # 20 channels x refresh rounds.
        assert counts_sent <= keepalives + 5
        assert keepalives > 0
