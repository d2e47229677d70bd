"""X8 — live delivery latency: EXPRESS vs running PIM-SM / CBT stacks.

X1 compares state, routers touched and mean delay stretch; this
benchmark reports the *per-member arrival times* behind such numbers —
the §3.6 claim that "with EXPRESS channels, multicast traffic only
travels along paths from the source to the subscribers" becomes a
wall-clock number, and PIM's shared-tree/SPT choice (§4.4) becomes a
measured latency/state tradeoff.

Arrival times come from the shared observability registry: both stacks
record into the same ``delivery_latency_seconds{protocol,node,channel}``
histogram family, so the comparison is read back from the metrics layer
rather than hand-rolled callbacks.
"""

import pytest
from conftest import report

from repro import ExpressNetwork, TopologyBuilder
from repro.groupmodel import GroupNetwork
from repro.inet.addr import parse_address
from repro.obs import Observability

GROUP = parse_address("224.88.0.1")
SOURCE = "h0_0_0"
MEMBERS = ["h1_0_0", "h1_1_1", "h2_0_0", "h3_1_0"]
RP = "t2"


def build_topo():
    return TopologyBuilder.isp(n_transit=4, stubs_per_transit=2, hosts_per_stub=2)


def registry_latencies(obs):
    """{node: first-delivery latency} from delivery_latency_seconds."""
    family = obs.registry.get("delivery_latency_seconds")
    if family is None:
        return {}
    node_index = family.labelnames.index("node")
    return {
        values[node_index]: child.samples[0]
        for values, child in family.children()
        if child.count
    }


def express_latencies():
    obs = Observability()
    net = ExpressNetwork(build_topo(), obs=obs)
    net.run(until=0.1)
    source = net.source(SOURCE)
    channel = source.allocate_channel()
    for member in MEMBERS:
        net.host(member).subscribe(channel)
    net.settle()
    source.send(channel)
    net.settle()
    return registry_latencies(obs)


def group_latencies(protocol, spt=False):
    obs = Observability()
    net = GroupNetwork(build_topo(), protocol=protocol, rp=RP, obs=obs)
    for member in MEMBERS:
        net.join(member, GROUP)
    net.settle()
    if spt:
        for member in MEMBERS:
            net.switch_to_spt(member, SOURCE, GROUP)
        net.settle()
    net.send(SOURCE, GROUP)
    net.settle()
    state = net.total_state()
    return registry_latencies(obs), state


def test_x8_live_latency(benchmark):
    express = benchmark.pedantic(express_latencies, rounds=1, iterations=1)
    pim_shared, pim_shared_state = group_latencies("pim")
    pim_spt, pim_spt_state = group_latencies("pim", spt=True)
    cbt, cbt_state = group_latencies("cbt")

    assert set(express) == set(pim_shared) == set(pim_spt) == set(cbt) == set(MEMBERS)
    worst = {
        "express": max(express.values()),
        "pim-shared": max(pim_shared.values()),
        "pim-spt": max(pim_spt.values()),
        "cbt": max(cbt.values()),
    }
    # EXPRESS is never slower than the RP detour...
    assert worst["express"] <= worst["pim-shared"] + 1e-9
    assert worst["express"] <= worst["cbt"] + 1e-9
    # ...and SPT switchover buys the shared tree's latency back with
    # extra state (§4.4's tradeoff, live).
    assert worst["pim-spt"] <= worst["pim-shared"] + 1e-9
    assert pim_spt_state > pim_shared_state

    def row(name, latencies, state):
        mean = sum(latencies.values()) / len(latencies)
        return (
            f"  {name:<12} {mean * 1000:>9.2f} ms {max(latencies.values()) * 1000:>9.2f} ms"
            f"   {state if state else '-':>6}"
        )

    report(
        "x8_live_latency",
        [
            "X8: measured delivery latency, one send to 4 members (live stacks)",
            f"    source={SOURCE}, RP/core={RP} (deliberately off-path)",
            "",
            "  stack             mean       worst    router-state",
            row("express", express, None),
            row("pim-shared", pim_shared, pim_shared_state),
            row("pim-spt", pim_spt, pim_spt_state),
            row("cbt", cbt, cbt_state),
            "",
            "  -> EXPRESS delivers at shortest-path latency with per-source",
            "     state; PIM buys that latency back only via (S,G) trees;",
            "     shared trees pay the RP/core detour in wall-clock time",
        ],
    )
