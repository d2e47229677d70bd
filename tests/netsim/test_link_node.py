"""Unit tests for links, nodes, interfaces, and agent dispatch."""

import pytest

from repro.errors import SimulationError, TopologyError
from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.node import MAX_INTERFACES, Node, ProtocolAgent
from repro.netsim.packet import Packet
from repro.netsim.topology import TopologyBuilder
from repro.netsim.trace import PacketTrace
from tests.conftest import scan_interface_to


class Sink(ProtocolAgent):
    def __init__(self, node):
        super().__init__(node)
        self.received = []

    def handle_packet(self, packet, ifindex):
        self.received.append((packet, ifindex))


def wire_pair(delay=0.001, loss=0.0, bandwidth=1e9):
    sim = Simulator(seed=1)
    a = Node(sim, "a", 1)
    b = Node(sim, "b", 2)
    link = Link(sim, a.add_interface(), b.add_interface(), delay=delay, loss=loss, bandwidth=bandwidth)
    return sim, a, b, link


class TestLinkDelivery:
    def test_packet_arrives_after_delay(self):
        sim, a, b, link = wire_pair(delay=0.5, bandwidth=1e12)
        sink = Sink(b)
        b.register_agent("data", sink)
        a.send(Packet(src=1, dst=2, size=0), 0)
        sim.run()
        assert len(sink.received) == 1
        assert sim.now == pytest.approx(0.5)

    def test_serialization_delay_included(self):
        sim, a, b, link = wire_pair(delay=0.0, bandwidth=1000.0)
        sink = Sink(b)
        b.register_agent("data", sink)
        a.send(Packet(src=1, dst=2, size=500), 0)
        sim.run()
        assert sim.now == pytest.approx(0.5)  # 500 B / 1000 B/s

    def test_bidirectional(self):
        sim, a, b, link = wire_pair()
        sink = Sink(a)
        a.register_agent("data", sink)
        b.send(Packet(src=2, dst=1), 0)
        sim.run()
        assert len(sink.received) == 1

    def test_loss_drops_packets_deterministically(self):
        sim, a, b, link = wire_pair(loss=0.5)
        sink = Sink(b)
        b.register_agent("data", sink)
        for _ in range(100):
            a.send(Packet(src=1, dst=2), 0)
        sim.run()
        assert 0 < len(sink.received) < 100
        assert link.lost_packets == 100 - len(sink.received)

    def test_reliable_flag_bypasses_loss(self):
        sim, a, b, link = wire_pair(loss=0.9)
        sink = Sink(b)
        b.register_agent("data", sink)
        for _ in range(20):
            packet = Packet(src=1, dst=2)
            packet.headers["reliable"] = True
            a.send(packet, 0)
        sim.run()
        assert len(sink.received) == 20

    def test_down_link_drops(self):
        sim, a, b, link = wire_pair()
        sink = Sink(b)
        b.register_agent("data", sink)
        link.fail()
        assert not a.send(Packet(src=1, dst=2), 0)
        sim.run()
        assert sink.received == []

    def test_link_state_change_notifies_agents(self):
        sim, a, b, link = wire_pair()
        changes = []

        class Watcher(ProtocolAgent):
            def handle_packet(self, packet, ifindex):
                pass
            def on_link_change(self, ifindex, up):
                changes.append((self.node.name, ifindex, up))

        a.register_agent("x", Watcher(a))
        b.register_agent("x", Watcher(b))
        link.fail()
        link.recover()
        assert ("a", 0, False) in changes and ("b", 0, True) in changes

    def test_transmit_by_an_unattached_node_rejected(self):
        sim, a, b, link = wire_pair()
        with pytest.raises(TopologyError):
            link.transmit(Node(sim, "c", 3), Packet(src=3, dst=1))

    def test_validation(self):
        sim = Simulator()
        a, b = Node(sim, "a", 1), Node(sim, "b", 2)
        with pytest.raises(TopologyError):
            Link(sim, a.add_interface(), b.add_interface(), delay=-1)
        with pytest.raises(TopologyError):
            Link(sim, a.add_interface(), b.add_interface(), loss=1.0)
        with pytest.raises(TopologyError):
            Link(sim, a.add_interface(), b.add_interface(), bandwidth=0)


class TestNode:
    def test_interface_limit_is_32(self):
        sim = Simulator()
        node = Node(sim, "n", 1)
        for _ in range(MAX_INTERFACES):
            node.add_interface()
        with pytest.raises(TopologyError):
            node.add_interface()

    def test_agent_dispatch_by_proto(self):
        sim, a, b, link = wire_pair()
        data_sink, ecmp_sink = Sink(b), Sink(b)
        b.register_agent("data", data_sink)
        b.register_agent("ecmp", ecmp_sink)
        a.send(Packet(src=1, dst=2, proto="ecmp"), 0)
        sim.run()
        assert len(ecmp_sink.received) == 1 and not data_sink.received

    def test_wildcard_agent_catches_unknown(self):
        sim, a, b, link = wire_pair()
        catch_all = Sink(b)
        b.register_agent("*", catch_all)
        a.send(Packet(src=1, dst=2, proto="weird"), 0)
        sim.run()
        assert len(catch_all.received) == 1

    def test_unmatched_packets_counted(self):
        sim, a, b, link = wire_pair()
        a.send(Packet(src=1, dst=2, proto="weird"), 0)
        sim.run()
        assert b.unmatched_packets == 1

    def test_duplicate_agent_registration_rejected(self):
        sim = Simulator()
        node = Node(sim, "n", 1)
        node.register_agent("data", Sink(node))
        with pytest.raises(SimulationError):
            node.register_agent("data", Sink(node))

    def test_ttl_zero_packets_dropped(self):
        sim, a, b, link = wire_pair()
        sink = Sink(b)
        b.register_agent("data", sink)
        a.send(Packet(src=1, dst=2, ttl=0), 0)
        sim.run()
        assert sink.received == [] and b.dropped_packets == 1

    def test_send_to_missing_interface_raises(self):
        sim = Simulator()
        node = Node(sim, "n", 1)
        with pytest.raises(SimulationError):
            node.send(Packet(src=1, dst=2), 0)

    def test_a_hop_is_counted_on_the_link_and_in_node_metrics(self):
        """A hop's tallies have one owner each: the link counts what it
        carried, and an attached ``NodeMetrics`` what each end saw."""
        sim, a, b, link = wire_pair()
        b.register_agent("data", Sink(b))
        a.metrics, b.metrics = RecordingMetrics(), RecordingMetrics()
        a.send(Packet(src=1, dst=2, size=100), 0)
        sim.run()
        assert (link.tx_packets, link.lost_packets) == (1, 0)
        assert a.metrics.calls == [("tx", "data", 100)]
        assert b.metrics.calls == [("rx", "data", 100)]

    def test_an_interface_holds_no_tallies(self):
        """Interfaces are wiring only: a hop writes nothing to them."""
        sim, a, b, link = wire_pair()
        b.register_agent("data", Sink(b))
        before = [dict(vars(iface)) for iface in (a.interfaces[0], b.interfaces[0])]
        a.send(Packet(src=1, dst=2, size=100), 0)
        sim.run()
        after = [vars(iface) for iface in (a.interfaces[0], b.interfaces[0])]
        assert after == before
        assert set(before[0]) == {"node", "index", "link", "peer"}

    def test_neighbors_and_interface_to(self):
        sim, a, b, link = wire_pair()
        assert a.neighbors() == [b]
        assert a.interface_to(b).index == 0
        assert a.interface_to(a) is None


class RecordingMetrics:
    """Stands in for ``repro.obs.hooks.NodeMetrics``."""

    def __init__(self):
        self.calls = []

    def packet(self, direction, proto, size):
        self.calls.append((direction, proto, size))


class TestDropsLeaveTheSameMarks:
    """Every packet a node itself discards is counted in
    ``dropped_packets``, traced as a ``"drop"`` record whose detail says
    why, and metered — whichever of the three ways it died."""

    def observed(self, node):
        node.trace = PacketTrace()
        node.metrics = RecordingMetrics()
        return node.trace, node.metrics

    def drops(self, trace):
        return [
            (rec.node, rec.proto, rec.size, rec.detail)
            for rec in trace.filter(direction="drop")
        ]

    def test_ttl_expiry_is_traced_and_metered(self):
        sim, a, b, link = wire_pair()
        sink = Sink(b)
        b.register_agent("data", sink)
        trace, metrics = self.observed(b)
        a.send(Packet(src=1, dst=2, ttl=0, size=90), 0)
        sim.run()
        assert sink.received == [] and b.dropped_packets == 1
        assert self.drops(trace) == [("b", "data", 90, "ttl")]
        assert metrics.calls == [("rx", "data", 90), ("drop", "data", 90)]

    def test_send_to_a_node_that_is_not_a_neighbor_is_traced_and_metered(self):
        sim, a, b, link = wire_pair()
        stranger = Node(sim, "c", 3)
        trace, metrics = self.observed(a)
        assert not a.send_to_neighbor(Packet(src=1, dst=3, proto="ecmp", size=40), stranger)
        assert a.dropped_packets == 1
        assert self.drops(trace) == [("a", "ecmp", 40, "no-interface")]
        assert metrics.calls == [("drop", "ecmp", 40)]
        assert link.tx_packets == 0

    def test_link_down_drop_has_the_same_shape(self):
        sim, a, b, link = wire_pair()
        trace, metrics = self.observed(a)
        link.fail()
        assert not a.send(Packet(src=1, dst=2, size=70), 0)
        assert not a.send_to_neighbor(Packet(src=1, dst=2, size=71), b)
        assert a.dropped_packets == 2
        assert self.drops(trace) == [
            ("a", "data", 70, "link-down"),
            ("a", "data", 71, "link-down"),
        ]
        assert metrics.calls == [("drop", "data", 70), ("drop", "data", 71)]


class TestAdjacencyIndex:
    def assert_index_agrees(self, topo):
        nodes = list(topo.nodes.values())
        for node in nodes:
            for peer in nodes:
                assert node.interface_to(peer) is scan_interface_to(node, peer)
            for iface in node.interfaces:
                assert iface.peer is iface.link.other_end(node)
                assert iface.neighbor() is iface.peer

    def test_index_agrees_with_scan_across_failures(self):
        topo = TopologyBuilder.isp(8, 4, 4)
        self.assert_index_agrees(topo)
        for link in topo.links[::3]:
            link.fail()
        self.assert_index_agrees(topo)
        for link in topo.links:
            link.recover()
        self.assert_index_agrees(topo)

    def test_link_between_finds_every_link(self):
        topo = TopologyBuilder.isp(8, 4, 4)
        for link in topo.links:
            a, b = link.node_a.name, link.node_b.name
            assert topo.link_between(a, b) is link
            assert topo.link_between(b, a) is link
        assert topo.link_between("t0", "h7_3_3") is None

    def test_duplicate_link_refused(self):
        topo = TopologyBuilder.line(2)
        with pytest.raises(TopologyError):
            topo.add_link("n0", "n1")
        with pytest.raises(TopologyError):
            topo.add_link("n1", "n0")
        assert len(topo.links) == 1
        assert len(topo.node("n0").interfaces) == 1
