"""Integration tests: failures and topology change (§3.2).

TCP-mode connection failure ("The associated count is subtracted from
the sum provided upstream if the connection fails"), re-homing after a
unicast route change ("it sends a current Count message to the new
upstream router and a zero Count message to the old upstream router"),
and reconnection ("On connection establishment, the downstream neighbor
sends an unsolicited Count message for each channel").
"""

import pytest

from repro import CountPropagation, ExpressNetwork, TopologyBuilder
from tests.conftest import assert_control_plane_at_rest, make_channel


@pytest.fixture
def redundant_net():
    """src - a - (b | c) - d - sub : two paths, b fast and c slow, so
    the tree prefers b and can re-home to c."""
    from repro.netsim.topology import Topology

    topo = Topology()
    for name in ("a", "b", "c", "d"):
        topo.add_node(name)
    topo.add_node("hsrc")
    topo.add_node("hsub")
    topo.add_link("hsrc", "a", delay=0.001)
    topo.add_link("a", "b", delay=0.001)
    topo.add_link("a", "c", delay=0.004)
    topo.add_link("b", "d", delay=0.001)
    topo.add_link("c", "d", delay=0.004)
    topo.add_link("d", "hsub", delay=0.001)
    net = ExpressNetwork(topo, hosts=["hsrc", "hsub"])
    net.run(until=0.01)
    return net


class TestLinkFailure:
    def test_downstream_failure_subtracts_count(self, star_net):
        net = star_net
        src, ch = make_channel(net, "leaf0")
        net.host("leaf1").subscribe(ch)
        net.host("leaf2").subscribe(ch)
        net.settle()
        hub = net.ecmp_agents["hub"]
        assert hub.subscriber_count_estimate(ch) == 2
        net.topo.link_between("hub", "leaf1").fail()
        net.settle()
        assert hub.subscriber_count_estimate(ch) == 1
        # FIB no longer points at the dead branch.
        entry = net.fibs["hub"].get(ch.source, ch.group)
        dead_if = net.topo.node("hub").interface_to(net.topo.node("leaf1")).index
        assert not entry.has_outgoing(dead_if)

    def test_total_branch_failure_prunes_to_source(self, redundant_net):
        net = redundant_net
        src, ch = make_channel(net, "hsrc")
        net.host("hsub").subscribe(ch)
        net.settle()
        net.topo.link_between("d", "hsub").fail()
        net.settle()
        # Entire tree torn down: the only subscriber is unreachable.
        assert net.fib_entries_total() == 0

    def test_reroute_after_tree_link_failure(self, redundant_net):
        """The tree re-homes through the redundant path and delivery
        resumes."""
        net = redundant_net
        src, ch = make_channel(net, "hsrc")
        got = []
        net.host("hsub").subscribe(ch, on_data=got.append)
        net.settle()
        assert "b" in net.nodes_on_tree(ch)  # fast path via b
        net.topo.link_between("a", "b").fail()
        net.settle(10.0)  # allow hysteresis + re-join
        src.send(ch)
        net.settle()
        assert len(got) == 1
        assert "c" in net.nodes_on_tree(ch)

    def test_zero_count_sent_to_old_upstream_on_reroute(self, redundant_net):
        """§3.2: re-homing unsubscribes from the old upstream."""
        net = redundant_net
        src, ch = make_channel(net, "hsrc")
        net.host("hsub").subscribe(ch)
        net.settle()
        # Fail the b-d link: d re-homes from b to c; b must lose state.
        net.topo.link_between("b", "d").fail()
        net.settle(10.0)
        assert "b" not in net.nodes_on_tree(ch)
        assert net.ecmp_agents["d"].channels[ch].upstream == "c"

    def test_recovery_rejoins_better_path(self, redundant_net):
        net = redundant_net
        src, ch = make_channel(net, "hsrc")
        got = []
        net.host("hsub").subscribe(ch, on_data=got.append)
        net.settle()
        link = net.topo.link_between("a", "b")
        link.fail()
        net.settle(10.0)
        link.recover()
        net.settle(10.0)
        # Back on the fast path (hysteresis long expired).
        assert net.ecmp_agents["d"].channels[ch].upstream == "b"
        src.send(ch)
        net.settle()
        assert len(got) == 1
        assert_control_plane_at_rest(net)

    def test_hysteresis_prevents_immediate_flap(self, redundant_net):
        """§3.2: "Hysteresis is applied to prevent route oscillation."
        A freshly re-homed channel does not instantly re-home again
        while the old path is still viable."""
        net = redundant_net
        src, ch = make_channel(net, "hsrc")
        net.host("hsub").subscribe(ch)
        net.settle()
        d_agent = net.ecmp_agents["d"]
        changes_before = d_agent.stats.get("upstream_changes")
        # Metric flap: make the c-path look better, then immediately
        # revert. Within the hysteresis window, d must not bounce.
        link_ab = net.topo.link_between("a", "b")
        link_ab.delay = 0.050
        net.routing.recompute()
        for agent in net.ecmp_agents.values():
            agent.reevaluate_upstreams()
        first_changes = d_agent.stats.get("upstream_changes")
        link_ab.delay = 0.001
        net.routing.recompute()
        for agent in net.ecmp_agents.values():
            agent.reevaluate_upstreams()
        # The switch back is deferred by hysteresis.
        assert d_agent.stats.get("upstream_changes") == first_changes
        net.settle(10.0)
        assert d_agent.channels[ch].upstream == "b"

    def test_partitioned_subscriber_rejoins_on_heal(self):
        """Regression: a subscriber cut off from the source (no
        alternate path) must re-join automatically when the partition
        heals — its local subscription intent survives the outage."""
        from repro import ExpressNetwork, TopologyBuilder

        topo = TopologyBuilder.line(2)
        topo.add_node("hsrc")
        topo.add_node("hsub")
        topo.add_link("hsrc", "n0")
        topo.add_link("hsub", "n1")
        net = ExpressNetwork(topo, hosts=["hsrc", "hsub"])
        net.run(until=0.01)
        src = net.source("hsrc")
        ch = src.allocate_channel()
        got = []
        net.host("hsub").subscribe(ch, on_data=got.append)
        net.settle()
        cut = net.topo.link_between("n0", "n1")
        cut.fail()
        net.settle(8.0)
        assert net.fib_entries_total() == 0  # no stale forwarding state
        cut.recover()
        net.settle(8.0)
        src.send(ch)
        net.settle()
        assert len(got) == 1

    def test_unsubscribe_during_partition_leaves_no_state(self):
        """Regression: unsubscribing while partitioned must not leave a
        zombie channel state (stale advertised count) behind."""
        from repro import ExpressNetwork, TopologyBuilder

        topo = TopologyBuilder.line(2)
        topo.add_node("hsrc")
        topo.add_node("hsub")
        topo.add_link("hsrc", "n0")
        topo.add_link("hsub", "n1")
        net = ExpressNetwork(topo, hosts=["hsrc", "hsub"])
        net.run(until=0.01)
        src = net.source("hsrc")
        ch = src.allocate_channel()
        net.host("hsub").subscribe(ch)
        net.settle()
        cut = net.topo.link_between("n0", "n1")
        cut.fail()
        net.settle(8.0)
        net.host("hsub").unsubscribe(ch)
        net.settle(2.0)
        cut.recover()
        net.settle(8.0)
        assert net.nodes_on_tree(ch) == set()
        assert net.fib_entries_total() == 0

    def test_subscriber_survives_failure_elsewhere(self, isp_net):
        net = isp_net
        src, ch = make_channel(net, "h0_0_0")
        got = []
        net.host("h1_0_0").subscribe(ch, on_data=got.append)
        net.settle()
        # Fail a link on an entirely different branch.
        net.topo.link_between("t2", "e2_0").fail()
        net.settle(10.0)
        src.send(ch)
        net.settle()
        assert len(got) == 1
