"""Property suite: composed link faults are undone.

Random valid plans of latency spikes, wire-mutation windows and
partition/heal pairs on the links of a live ``isp`` network, with
subscribers on the tree so the faults cross real control traffic.
Whatever the interleaving on one link (a spike inside a partition, a
mutation window across a heal, back-to-back spikes), once the last
window has closed every link is back to its base delay, carries no
mutator and is up.
"""

import random

import pytest

from repro import ExpressNetwork, TopologyBuilder
from repro.faults import FaultInjector, FaultPlan
from tests.conftest import make_channel

N_CASES = 12
N_OPS = 14


def random_plan(seed: int, links: list, start: float) -> tuple[FaultPlan, float]:
    """A valid plan of ``N_OPS`` link faults and the time its last
    window closes. Windows of one kind on one link follow each other;
    windows of different kinds on one link overlap freely."""
    rng = random.Random(seed)
    plan = FaultPlan(seed)
    free: dict[tuple, float] = {}
    last = start
    for _ in range(N_OPS):
        link = rng.choice(links)
        a, b = link.node_a.name, link.node_b.name
        kind = rng.choice(("latency_spike", "wire_mutate", "partition"))
        at = max(start, free.get((kind, link), start)) + rng.uniform(0.0, 2.0)
        duration = rng.uniform(0.1, 3.0)
        if kind == "latency_spike":
            plan.latency_spike(at, a, b, factor=rng.uniform(1.5, 20.0), duration=duration)
        elif kind == "wire_mutate":
            plan.wire_mutate(
                at, a, b, duration,
                drop=rng.uniform(0.0, 0.3),
                duplicate=rng.uniform(0.0, 0.5),
                reorder=rng.uniform(0.0, 0.5),
            )
        else:
            plan.partition(at, a, b).heal(at + duration, b, a)
        # Strictly after the end: a window touching the last one's end
        # overlaps it.
        free[(kind, link)] = at + duration + 0.001
        last = max(last, at + duration)
    return plan, last


@pytest.mark.parametrize("case", range(N_CASES))
def test_every_link_is_restored_after_the_last_window(case):
    topo = TopologyBuilder.isp(
        n_transit=3, stubs_per_transit=2, hosts_per_stub=1, seed=case
    )
    net = ExpressNetwork(topo)
    net.run(until=0.01)
    hosts = sorted(net.host_names)
    _, channel = make_channel(net, hosts[0])
    for name in hosts[1:]:
        net.host(name).subscribe(channel)
    net.settle()
    base = {link: link.delay for link in topo.links}
    plan, last = random_plan(case, list(topo.links), net.sim.now + 0.1)
    injector = FaultInjector(net, plan)
    injector.arm()
    net.run(until=last + 0.01)
    assert len(injector.fired) == len(plan)
    for link in topo.links:
        assert link.delay == base[link], link
        assert link.mutator is None, link
        assert link.up, link
