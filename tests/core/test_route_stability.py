"""Route-stability behaviour: hysteresis under metric flapping, and
re-homing onto newly provisioned links."""

import pytest

from repro import ExpressNetwork
from repro.core.ecmp.protocol import EcmpAgent
from repro.faults.monitor import FaultMonitor
from repro.netsim.topology import Topology
from tests.conftest import make_channel


def build_diamond(hysteresis=None):
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
    if hysteresis is not None:
        for agent in net.ecmp_agents.values():
            agent.HYSTERESIS = hysteresis
    net.run(until=0.01)
    return net


def flap(net, cycles):
    """Alternate the a-b link metric so the best path keeps changing."""
    link = net.topo.link_between("a", "b")
    for _ in range(cycles):
        link.delay = 0.050  # c-path now better
        net.routing.recompute()
        for agent in net.ecmp_agents.values():
            agent.reevaluate_upstreams()
        net.settle(0.2)
        link.delay = 0.001  # b-path better again
        net.routing.recompute()
        for agent in net.ecmp_agents.values():
            agent.reevaluate_upstreams()
        net.settle(0.2)


class TestHysteresis:
    def test_hysteresis_damps_route_flapping(self):
        """§3.2: "Hysteresis is applied to prevent route oscillation."
        Under a flapping metric, the damped router re-homes far fewer
        times than an undamped one."""
        def churn_count(hysteresis):
            net = build_diamond(hysteresis=hysteresis)
            src, ch = make_channel(net, "hsrc")
            net.host("hsub").subscribe(ch)
            net.settle()
            flap(net, cycles=6)
            return net.ecmp_agents["d"].stats.get("upstream_changes")

        damped = churn_count(hysteresis=60.0)
        undamped = churn_count(hysteresis=0.0)
        assert undamped >= 6
        assert damped <= 1

    def test_delivery_correct_throughout_flapping(self):
        net = build_diamond(hysteresis=5.0)
        src, ch = make_channel(net, "hsrc")
        got = []
        net.host("hsub").subscribe(ch, on_data=got.append)
        net.settle()
        flap(net, cycles=3)
        net.settle(10.0)
        src.send(ch)
        net.settle()
        assert len(got) == 1


class TestProvisioning:
    def test_new_link_adopted_after_recompute(self):
        """Provisioning a shortcut link mid-run: after the operator
        triggers an SPF recompute, trees re-home onto the better path
        (once hysteresis allows)."""
        net = build_diamond()
        src, ch = make_channel(net, "hsrc")
        got = []
        net.host("hsub").subscribe(ch, on_data=got.append)
        net.settle()
        assert "b" in net.nodes_on_tree(ch)
        # Provision a direct a-d link, much faster than either branch.
        net.topo.add_link("a", "d", delay=0.0001)
        net.routing.recompute()
        for agent in net.ecmp_agents.values():
            agent.reevaluate_upstreams()
        net.settle(10.0)  # hysteresis dwell
        for agent in net.ecmp_agents.values():
            agent.reevaluate_upstreams()
        net.settle(1.0)
        assert net.ecmp_agents["d"].channels[ch].upstream == "a"
        assert "b" not in net.nodes_on_tree(ch)
        src.send(ch)
        net.settle()
        assert len(got) == 1


def build_ring():
    """t0-t1-t2-t3-t0, the source behind t0 and subscribers behind t1
    and t2; the t3-t0 link is the slow one, so t2 routes via t1."""
    topo = Topology()
    for name in ("t0", "t1", "t2", "t3", "hsrc", "h1", "h2"):
        topo.add_node(name)
    for a, b, delay in (
        ("t0", "t1", 0.001), ("t1", "t2", 0.001), ("t2", "t3", 0.001),
        ("t3", "t0", 0.002), ("hsrc", "t0", 0.001), ("h1", "t1", 0.001),
        ("h2", "t2", 0.001),
    ):
        topo.add_link(a, b, delay=delay)
    net = ExpressNetwork(topo, hosts=["hsrc", "h1", "h2"], wire_format=True)
    net.start()
    net.run(until=0.01)
    return net


def two_node_loops(net, channel) -> list[str]:
    """Routers whose upstream for ``channel`` has them as its upstream."""
    looped = []
    for name, agent in net.ecmp_agents.items():
        state = agent.channels.get(channel)
        if state is None or state.upstream is None:
            continue
        parent = net.ecmp_agents[state.upstream].channels.get(channel)
        if parent is not None and parent.upstream == name:
            looped.append(name)
    return looped


class TestHysteresisNeverHoldsALoop:
    def test_a_ring_link_flap_inside_the_hold_leaves_no_rpf_loop(self):
        """A transit flap inside the hysteresis window of a fresh tree.
        When t0-t1 fails, t1's route to the source turns round through
        t2, and t2's new route avoids t1. t1 re-homes onto t2 at once
        (its old parent is down); t2's old parent t1 is up and was taken
        a second ago, so hysteresis used to hold t2 on it — t1 and t2
        each other's upstream for the whole five-second hold, the
        channel cut off below them. t2 now sees that t1's path runs
        through it and re-homes too; the heal leaves no loop either, and
        nothing is orphaned once the network settles."""
        net = build_ring()
        source, channel = make_channel(net, "hsrc")
        got = []
        net.host("h1").subscribe(channel)
        net.host("h2").subscribe(channel, on_data=got.append)
        net.run(until=1.0)
        assert net.ecmp_agents["t2"].channels[channel].upstream == "t1"
        link = net.topo.link_between("t0", "t1")
        link.fail()
        net.run(until=net.sim.now + 0.3)
        assert two_node_loops(net, channel) == []
        assert net.ecmp_agents["t2"].channels[channel].upstream == "t3"
        source.send(channel)
        net.run(until=net.sim.now + 0.2)
        assert len(got) == 1  # delivered around the ring during the flap
        link.recover()
        net.run(until=net.sim.now + 0.3)
        assert two_node_loops(net, channel) == []
        net.settle(2 * EcmpAgent.HYSTERESIS + EcmpAgent.KEEPALIVE_INTERVAL)
        assert FaultMonitor(net).orphaned_state() == 0
        source.send(channel)
        net.settle(1.0)
        assert len(got) == 2
