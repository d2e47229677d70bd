"""Integration tests: UDP-mode ECMP at the edge (§3.2-3.3).

"For UDP operation, the upstream router periodically multicasts a
CountQuery request, analogous to an IGMP query, causing all the UDP
neighbors to respond with Count messages ... A UDP neighbor
unsubscribes by sending a zero Count message, causing the upstream
router to decrement its sum and re-issue a CountQuery on that interface
(like IGMPv2). Unlike IGMPv2, but like the proposed IGMPv3, there is no
report suppression."
"""

import pytest

from repro import ExpressNetwork, NeighborMode, TopologyBuilder
from repro.core.ecmp.protocol import EcmpAgent
from tests.conftest import make_channel
from tests.oracles.refresh import reference_refresh_tick


@pytest.fixture
def edge_net():
    """Star with UDP mode between the hub router and its leaf hosts."""
    topo = TopologyBuilder.star(5)
    net = ExpressNetwork(
        topo, hosts=[f"leaf{i}" for i in range(5)], edge_udp=True
    )
    net.run(until=0.01)
    return net


class TestUdpMode:
    def test_subscription_works_over_udp(self, edge_net):
        net = edge_net
        src, ch = make_channel(net, "leaf0")
        got = []
        net.host("leaf1").subscribe(ch, on_data=got.append)
        net.settle()
        src.send(ch)
        net.settle()
        assert len(got) == 1

    def test_udp_records_flagged(self, edge_net):
        net = edge_net
        src, ch = make_channel(net, "leaf0")
        net.host("leaf1").subscribe(ch)
        net.settle()
        state = net.ecmp_agents["hub"].channels[ch]
        assert state.downstream["leaf1"].udp

    def test_periodic_general_query_refreshes_state(self, edge_net):
        net = edge_net
        src, ch = make_channel(net, "leaf0")
        net.host("leaf1").subscribe(ch)
        net.settle()
        state = net.ecmp_agents["hub"].channels[ch]
        stamp = state.downstream["leaf1"].updated_at
        # Run past a UDP query interval: the host's refresh bumps the
        # record timestamp.
        net.run(until=net.sim.now + EcmpAgent.UDP_QUERY_INTERVAL + 5)
        assert state.downstream["leaf1"].updated_at > stamp

    def test_soft_state_expires_for_silent_neighbor(self, edge_net):
        """A UDP neighbor that vanishes without a zero Count ages out
        after robustness x query-interval."""
        net = edge_net
        src, ch = make_channel(net, "leaf0")
        net.host("leaf1").subscribe(ch)
        net.settle()
        # Silence the host: wipe its state so it ignores queries, but
        # keep the link up (no TCP-style failure signal).
        leaf = net.ecmp_agents["leaf1"]
        leaf.subscriptions.clear()
        leaf.channels.clear()
        horizon = (EcmpAgent.UDP_ROBUSTNESS + 1) * EcmpAgent.UDP_QUERY_INTERVAL + 10
        net.run(until=net.sim.now + horizon)
        hub = net.ecmp_agents["hub"]
        assert hub.subscriber_count_estimate(ch) == 0
        assert hub.stats.get("udp_expirations") >= 1

    def test_a_record_refreshed_exactly_one_lease_before_a_tick_survives_it(
        self, edge_net
    ):
        """The lease boundary, as ``tests/oracles/refresh.py`` specifies
        it: a record expires once its last refresh is *more* than
        UDP_ROBUSTNESS x UDP_QUERY_INTERVAL old. Refreshed exactly that
        long before a tick, it survives the tick; the next tick expires
        it."""
        net = edge_net
        src, ch = make_channel(net, "leaf0")
        net.host("leaf1").subscribe(ch)
        net.settle()
        # Silence the host, so only the refresh below keeps the record.
        leaf = net.ecmp_agents["leaf1"]
        leaf.subscriptions.clear()
        leaf.channels.clear()
        hub = net.ecmp_agents["hub"]
        lease = EcmpAgent.UDP_ROBUSTNESS * EcmpAgent.UDP_QUERY_INTERVAL
        refreshed_at = 4.0
        net.run(until=refreshed_at)
        hub._apply_subscriber_count(ch, "leaf1", 1)  # a refresh: the same count
        tick_at = refreshed_at + lease
        assert tick_at - lease == refreshed_at  # the boundary, exact in floats
        net.run(until=tick_at)
        assert net.sim.now == tick_at
        assert reference_refresh_tick(hub, tick_at)[1] == set()
        hub.liveness.refresh_tick()
        assert hub.subscriber_count_estimate(ch) == 1
        net.run(until=tick_at + EcmpAgent.UDP_QUERY_INTERVAL)
        assert hub.subscriber_count_estimate(ch) == 0
        assert hub.stats["udp_expirations"] == 1

    def test_zero_count_triggers_requery(self, edge_net):
        net = edge_net
        src, ch = make_channel(net, "leaf0")
        net.host("leaf1").subscribe(ch)
        net.settle()
        queries_before = net.ecmp_agents["leaf1"].stats.get("queries_rx")
        net.host("leaf1").unsubscribe(ch)
        net.settle()
        # Hub re-issued a CountQuery toward the leaving interface.
        assert net.ecmp_agents["leaf1"].stats.get("queries_rx") > queries_before
        # The re-query's answer is a zero Count for a record already
        # gone: one join and one leave, and nothing else, at the hub.
        hub = net.ecmp_agents["hub"].stats
        assert (hub["subscribe_events"], hub["unsubscribe_events"]) == (1, 1)

    def test_leave_requery_is_channel_specific_with_full_timeout(self, edge_net):
        """The IGMPv2-style last-member re-query names the channel that
        was left and starts from the full query-interval budget."""
        net = edge_net
        src, ch = make_channel(net, "leaf0")
        net.host("leaf1").subscribe(ch)
        net.settle()

        leaf = net.ecmp_agents["leaf1"]
        seen = []
        original = leaf._handle_query

        def spy(query, from_name):
            seen.append(query)
            return original(query, from_name)

        leaf._handle_query = spy
        net.host("leaf1").unsubscribe(ch)
        net.settle()

        requeries = [q for q in seen if q.channel == ch]
        assert requeries, seen
        # The hub originates the re-query with the full query-interval
        # budget (decrements happen at forwarding routers, and the leaf
        # is one hop away).
        assert requeries[0].timeout == EcmpAgent.UDP_QUERY_INTERVAL

    def test_requery_restores_state_after_spurious_leave(self, edge_net):
        """The point of the IGMPv2-style re-query: a zero Count that
        does not reflect the interface's true membership (a stale or
        raced leave) is repaired — the re-query makes the still-
        subscribed neighbor re-report, and the branch comes back."""
        net = edge_net
        src, ch = make_channel(net, "leaf0")
        got = []
        net.host("leaf1").subscribe(ch, on_data=got.append)
        net.settle()
        hub = net.ecmp_agents["hub"]
        assert hub.subscriber_count_estimate(ch) == 1

        # Inject a spurious zero Count for leaf1's interface while
        # leaf1 is in fact still subscribed.
        hub._apply_subscriber_count(ch, "leaf1", 0)
        net.settle()

        # The re-query re-learned the subscriber and the tree healed:
        # the record is back and data still reaches leaf1.
        assert hub.subscriber_count_estimate(ch) == 1
        src.send(ch)
        net.settle()
        assert len(got) == 1

    def test_state_survives_one_missed_query_round(self, edge_net):
        """Robustness: soft state must outlive a single lost refresh —
        expiry requires UDP_ROBUSTNESS (=2) silent intervals."""
        net = edge_net
        src, ch = make_channel(net, "leaf0")
        net.host("leaf1").subscribe(ch)
        net.settle()
        leaf = net.ecmp_agents["leaf1"]
        hub = net.ecmp_agents["hub"]

        # Silence the leaf for a bit more than one query interval, then
        # restore it before the robustness horizon.
        saved_subs = dict(leaf.subscriptions)
        saved_channels = dict(leaf.channels)
        leaf.subscriptions.clear()
        leaf.channels.clear()
        net.run(until=net.sim.now + 1.5 * EcmpAgent.UDP_QUERY_INTERVAL)
        assert hub.subscriber_count_estimate(ch) == 1
        assert hub.stats.get("udp_expirations") == 0

        leaf.subscriptions.update(saved_subs)
        leaf.channels.update(saved_channels)
        net.run(until=net.sim.now + EcmpAgent.UDP_QUERY_INTERVAL + 5)
        # The next general-query round refreshed the record: no expiry.
        assert hub.subscriber_count_estimate(ch) == 1
        assert hub.stats.get("udp_expirations") == 0

    def test_hop_by_hop_timeout_decrement(self, line_net):
        """§3.1: each forwarding router shaves 2x the measured RTT to
        its parent off the query timeout before passing it on, so
        children report before their parents."""
        from repro.core.counting import TIMEOUT_RTT_MULTIPLE

        net = line_net
        src, ch = make_channel(net, "hsrc")
        net.host("hsub").subscribe(ch)
        net.settle()

        leaf = net.ecmp_agents["hsub"]
        seen = []
        original = leaf._handle_query

        def spy(query, from_name):
            seen.append(query)
            return original(query, from_name)

        leaf._handle_query = spy
        net.ecmp_agents["n0"].count_query(ch, count_id=0x4001, timeout=5.0)
        net.settle()

        forwarded = [q for q in seen if q.count_id == 0x4001]
        assert forwarded
        # n0 originates at 5.0s; n1 forwards after decrementing by
        # 2x its RTT to n0 (links are 1ms -> RTT 2ms -> 4ms off).
        expected = 5.0 - TIMEOUT_RTT_MULTIPLE * (2 * 0.001)
        assert forwarded[0].timeout == pytest.approx(expected, abs=1e-6)

    def test_no_report_suppression(self, edge_net):
        """Each UDP neighbor answers the general query itself."""
        net = edge_net
        src, ch = make_channel(net, "leaf0")
        for i in (1, 2, 3):
            net.host(f"leaf{i}").subscribe(ch)
        net.settle()
        hub = net.ecmp_agents["hub"]
        rx_before = hub.stats.get("counts_rx")
        net.run(until=net.sim.now + EcmpAgent.UDP_QUERY_INTERVAL + 5)
        # All three subscribers re-reported (plus possible churn noise).
        assert hub.stats.get("counts_rx") - rx_before >= 3

    def test_lossy_edge_recovers_via_refresh(self):
        """UDP state survives message loss: periodic refresh repairs a
        lost leave/join eventually."""
        topo = TopologyBuilder.star(3)
        for link in topo.links:
            link.loss = 0.3
        net = ExpressNetwork(topo, hosts=["leaf0", "leaf1", "leaf2"], edge_udp=True)
        net.run(until=0.01)
        src, ch = make_channel(net, "leaf0")
        got = []
        net.host("leaf1").subscribe(ch, on_data=got.append)
        # Several query cycles: even if the first join is lost, the
        # refresh re-announces it.
        net.run(until=net.sim.now + 3 * EcmpAgent.UDP_QUERY_INTERVAL)
        delivered = 0
        for _ in range(20):
            src.send(ch)
        net.settle()
        assert len(got) > 0
