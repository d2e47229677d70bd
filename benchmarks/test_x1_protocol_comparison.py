"""X1 — protocol comparison: EXPRESS vs PIM-SM vs CBT vs DVMRP.

The paper's §3.6 claims, measured on one topology and group:

* "with EXPRESS channels, multicast traffic only travels along paths
  from the source to the subscribers. In contrast, with group multicast
  protocols, packets can traverse routes that are distant from the
  expected direct path ... either detouring via the rendezvous point or
  broadcasting throughout a domain."
* EXPRESS needs no rendezvous/core state, and flood-and-prune leaves
  state on every router.
* §4.4: PIM-SM's shared-tree/SPT choice is the same delay-state
  tradeoff EXPRESS exposes at the application layer.

Every number is measured on the shipped stacks: a live
:class:`GroupNetwork` per group-protocol row and a live
:class:`ExpressNetwork` for EXPRESS. The analytic trees of
``tests/oracles/trees.py`` are only the oracle they are held to
(``tests/properties/test_baseline_live_vs_model.py`` and the check
below).
"""

import sys
from collections import Counter
from pathlib import Path

import pytest
from conftest import report

from repro import ExpressNetwork, TopologyBuilder
from repro.groupmodel import GroupNetwork
from repro.inet.addr import parse_address

# The analytic trees are the oracle the live protocols are held to.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.oracles.trees import ExpressTreeModel  # noqa: E402

SOURCE = "h0_0_0"
MEMBERS = ["h1_0_0", "h1_1_1", "h2_0_0", "h2_1_0", "h3_1_1", "h0_1_0"]
RP = "t2"  # network-selected rendezvous/core, far from the source
GROUP = parse_address("224.1.0.1")


def build_topo():
    return TopologyBuilder.isp(n_transit=4, stubs_per_transit=2, hosts_per_stub=2)


def on_probe(sim, delays, copies, member):
    """An ``on_data`` callback noting ``member``'s first-delivery delay
    and counting the copies it gets."""

    def note(packet):
        delays.setdefault(member, sim.now - packet.created_at)
        copies[member] += 1

    return note


def copies_each(copies):
    """The copies of the probe each member got, if that is one number
    for all of them; else None."""
    counts = {copies[member] for member in MEMBERS}
    return counts.pop() if len(counts) == 1 else None


def mean_stretch(routing, delays):
    """Mean over members of first-delivery delay over the shortest-path
    delay. The probe packet has size 0, so no transmission time enters
    either side and the ratio is pure path delay (1.0 = direct)."""
    return sum(delays[m] / routing.distance(SOURCE, m) for m in MEMBERS) / len(MEMBERS)


def express_row():
    """(state, routers touched, stretch, copies each) of one live
    EXPRESS channel: each router holding the channel holds one entry."""
    net = ExpressNetwork(build_topo())
    net.run(until=0.1)
    source = net.source(SOURCE)
    channel = source.allocate_channel()
    delays, copies = {}, Counter()
    for member in MEMBERS:
        net.host(member).subscribe(
            channel, on_data=on_probe(net.sim, delays, copies, member)
        )
    net.settle()
    source.send(channel, size=0)
    net.settle()
    routers = net.nodes_on_tree(channel) - net.host_names
    return (
        len(routers), len(routers), mean_stretch(net.routing, delays), copies_each(copies)
    )


def group_row(protocol, spt=False):
    """(state, routers touched, stretch, copies each, router count) of
    one live group-model stack after the members join (and, with
    ``spt``, switch to the source tree) and the source sends one
    packet."""
    rp = None if protocol == "dvmrp" else RP
    net = GroupNetwork(build_topo(), protocol=protocol, rp=rp)
    delays, copies = {}, Counter()
    for member in MEMBERS:
        net.join(member, GROUP, on_data=on_probe(net.sim, delays, copies, member))
    net.settle()
    if spt:
        for member in MEMBERS:
            net.switch_to_spt(member, SOURCE, GROUP)
        net.settle()
    net.send(SOURCE, GROUP, size=0)
    net.settle()
    stretch = mean_stretch(net.routing, delays)
    touched = len(net.routers_touched())
    return net.total_state(), touched, stretch, copies_each(copies), len(net.routers)


def build():
    rows = {
        "express": express_row(),
        "pim-sm (shared)": group_row("pim"),
        "pim-sm (spt)": group_row("pim", spt=True),
        "cbt": group_row("cbt"),
        "dvmrp": group_row("dvmrp"),
    }
    n_routers = rows["dvmrp"][4]
    return n_routers, {name: row[:4] for name, row in rows.items()}


def test_x1_state_and_stretch(benchmark):
    n_routers, stats = benchmark.pedantic(build, rounds=1, iterations=1)

    express_state, express_touched, express_stretch, _ = stats["express"]
    # EXPRESS: stretch exactly 1 (source shortest paths).
    assert express_stretch == pytest.approx(1.0)
    # Shared trees detour; the RP shared tree has strictly worse stretch.
    assert stats["pim-sm (shared)"][2] > 1.0
    # SPT switchover restores stretch 1 but costs extra state.
    assert stats["pim-sm (spt)"][2] == pytest.approx(1.0)
    assert stats["pim-sm (spt)"][0] > stats["pim-sm (shared)"][0]
    # DVMRP touches every router in the domain; EXPRESS does not.
    assert stats["dvmrp"][1] == n_routers
    assert express_touched < stats["dvmrp"][1]
    # EXPRESS per-group state is no worse than PIM-SM with SPTs.
    assert express_state <= stats["pim-sm (spt)"][0]
    # Every member gets the probe exactly once, on every stack.
    assert {row[3] for row in stats.values()} == {1}

    rows = [
        "X1: one group, one source, 6 members on a 4-transit ISP topology",
        f"    source={SOURCE}, RP/core={RP}, {n_routers} routers",
        "    measured on the live stacks: state and routers touched count",
        "    routers only; stretch is first-delivery delay of a size-0",
        "    packet over the shortest-path delay; copies is how many",
        "    copies of that packet each member got",
        "",
        "  protocol          state   routers-touched   mean-stretch   copies",
    ]
    for name, (state, touched, stretch, copies) in stats.items():
        rows.append(
            f"  {name:<16} {state:>6}   {touched:>15}   {stretch:>12.2f}   {copies:>6}"
        )
    rows += [
        "",
        "  shape checks (all hold):",
        "   - EXPRESS stretch = 1.0; shared trees detour via the RP/core",
        "   - PIM-SM SPT switchover buys stretch 1.0 with extra (S,G) state",
        "   - DVMRP touches every router; EXPRESS only the tree",
        "   - every member gets exactly one copy, after the SPT switch too",
    ]
    report("x1_protocol_comparison", rows)


def test_x1_live_express_matches_model(benchmark):
    """The live ECMP implementation builds the same tree the analytic
    EXPRESS model predicts."""
    net = ExpressNetwork(build_topo())
    net.run(until=0.1)
    source = net.source(SOURCE)
    channel = source.allocate_channel()

    def subscribe_all():
        for member in MEMBERS:
            net.host(member).subscribe(channel)
        net.settle()
        return net.tree_edges(channel)

    live_edges = benchmark.pedantic(subscribe_all, rounds=1, iterations=1)
    model = ExpressTreeModel(net.topo, net.routing, source=SOURCE)
    for member in MEMBERS:
        model.join(member)

    assert {frozenset(edge) for edge in live_edges} == model.tree_edges()
    report(
        "x1_live_vs_model",
        [
            "X1 cross-check: live ECMP tree == analytic reverse-SPT model",
            f"  members: {len(MEMBERS)}, tree edges: {len(live_edges)} (identical sets)",
        ],
    )


def test_x1_off_path_traffic(benchmark):
    """Count data-plane transmissions per delivered packet: EXPRESS
    never sends a byte off the source->subscriber paths."""
    net = ExpressNetwork(build_topo())
    net.run(until=0.1)
    source = net.source(SOURCE)
    channel = source.allocate_channel()
    for member in MEMBERS:
        net.host(member).subscribe(channel)
    net.settle()

    def send_one():
        source.send(channel)
        net.settle()

    benchmark.pedantic(send_one, rounds=1, iterations=1)
    transmissions = sum(
        fwd.stats.get("multicast_forwarded") for fwd in net.forwarders.values()
    )  # includes the source's own emission (emit_local fans out too)
    tree_links = len(net.tree_edges(channel))

    assert transmissions == tree_links  # one transmission per tree link

    report(
        "x1_off_path_traffic",
        [
            "X1: data transmissions per multicast send",
            f"  tree links:           {tree_links}",
            f"  link transmissions:   {transmissions}",
            "  -> exactly one per tree link; zero off-path traffic",
            "  (DVMRP's first packet would traverse every link in the domain;",
            f"   this topology has {len(net.topo.links)} links)",
        ],
    )
