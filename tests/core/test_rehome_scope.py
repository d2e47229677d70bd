"""After a routing recompute only the agents that can re-home are
re-examined: those whose next hop toward a destination routing had
cached moved, and those holding a channel on hysteresis (§3.2: the new
routes may break the hold — the old parent gone, or routing back
through the holder).

The invariant, checked right after every recompute of seeded link-flap
and router-crash runs over an ISP and a random topology: every agent
left alone has each channel's upstream equal to routing's next hop
toward the source, or holds it on a hold that re-examining would keep.
"""

import random

import pytest

from repro import ExpressNetwork, TopologyBuilder
from repro.faults import FaultInjector, FaultPlan

#: Faults per run, and the span they are dealt over (seconds); flaps
#: and downtimes are shorter than the hysteresis hold, so holds are
#: taken and then broken by later faults.
FAULTS, SPAN = 40, 60.0


def isp_net(seed: int) -> ExpressNetwork:
    topo = TopologyBuilder.isp(n_transit=5, stubs_per_transit=2, hosts_per_stub=2, seed=seed)
    return ExpressNetwork(topo)


def random_net(seed: int) -> ExpressNetwork:
    topo = TopologyBuilder.random_connected(18, extra_edge_prob=0.15, seed=seed)
    rng = random.Random(seed)
    for k in range(10):
        topo.add_node(f"h{k}")
        topo.add_link(f"h{k}", f"n{rng.randrange(18)}", delay=0.001)
    return ExpressNetwork(topo)


def fault_plan(net: ExpressNetwork, seed: int, start: float) -> FaultPlan:
    """Seeded partitions/heals of router-router links and crash/restarts
    of routers, none overlapping on one link or router."""
    rng = random.Random(seed)
    routers = sorted(set(net.topo.nodes) - net.host_names)
    links = sorted(
        (link.node_a.name, link.node_b.name)
        for link in net.topo.links
        if link.node_a.name in routers and link.node_b.name in routers
    )
    plan = FaultPlan(seed)
    busy: dict[str, float] = {}
    for _ in range(FAULTS):
        at = start + rng.uniform(0.0, SPAN)
        length = rng.uniform(0.2, 4.0)
        if rng.random() < 0.75:
            a, b = links[rng.randrange(len(links))]
            keys = (a + "-" + b,)
        else:
            a = routers[rng.randrange(len(routers))]
            keys = [a] + [f"{x}-{y}" for x, y in links if a in (x, y)]
            b = None
        if any(busy.get(key, -1.0) >= at - 0.1 for key in keys):
            continue
        for key in keys:
            busy[key] = at + length
        if b is None:
            plan.crash_restart(at, a, downtime=length)
        else:
            plan.partition(at, a, b).heal(at + length, a, b)
    return plan


def kept_hold(agent, state) -> bool:
    """Whether re-examining would leave ``state`` on its old upstream
    (the hold test of ``_rehome_channels``, with a hold pending)."""
    old = state.upstream
    known = agent.sessions.neighbor(old) if old is not None else None
    source = agent.routing.topo.node_by_address(state.channel.source)
    return (
        agent._rehome_scheduled
        and known is not None
        and known.iface.up
        and agent.sim.now - state.upstream_changed_at < agent.HYSTERESIS
        and not agent._routes_through_me(old, source, {})
    )


def checked_run(net: ExpressNetwork, seed: int) -> dict[str, int]:
    net.run(until=0.01)
    rng = random.Random(seed)
    hosts = sorted(net.host_names)
    for source in rng.sample(hosts, 3):
        channel = net.source(source).allocate_channel()
        for member in rng.sample([h for h in hosts if h != source], 5):
            net.host(member).subscribe(channel)
    net.settle()

    examined: set[str] = set()
    for name, agent in net.ecmp_agents.items():
        reevaluate = agent.reevaluate_upstreams

        def noted(name=name, reevaluate=reevaluate):
            examined.add(name)
            reevaluate()

        agent.reevaluate_upstreams = noted
    tally = {"recomputes": 0, "skipped": 0, "held": 0}
    recompute = net._recompute_fired

    def recompute_and_check():
        examined.clear()
        recompute()
        tally["recomputes"] += 1
        tally["held"] += sum(
            agent._rehome_scheduled for agent in net.ecmp_agents.values()
        )
        for name, agent in net.ecmp_agents.items():
            if name in examined:
                continue
            tally["skipped"] += 1
            for channel, state in agent.channels.items():
                assert state.upstream == agent._upstream_name(channel) or kept_hold(
                    agent, state
                ), f"{name} left on {state.upstream} for {channel} at {net.sim.now}"

    net._recompute_fired = recompute_and_check
    injector = FaultInjector(net, fault_plan(net, seed, net.sim.now + 1.0))
    injector.arm()
    net.run(until=net.sim.now + SPAN + 20.0)
    return tally


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("build", [isp_net, random_net], ids=["isp", "random_connected"])
def test_agents_left_alone_after_a_recompute_have_nothing_to_rehome(build, seed):
    tally = checked_run(build(seed), seed)
    assert tally["recomputes"] > 20
    assert tally["skipped"] > 0  # the rule skipped someone...
    assert tally["held"] > 0  # ...and hysteresis holds were in play
