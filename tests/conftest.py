"""Shared fixtures: small EXPRESS networks in canonical shapes."""

from __future__ import annotations

import random

import pytest

from repro import Channel, ExpressNetwork, TopologyBuilder
from repro.core.ecmp import messages
from repro.core.network import SourceHandle
from tests.oracles import codec as oracle_codec


@pytest.fixture(params=[messages, oracle_codec], ids=["zero_copy", "legacy"])
def codec(request):
    """Both statements of the wire format, for frame-level cases that
    must hold for each: the shipped zero-copy codec and the
    concatenating reference codec (``tests/oracles/codec.py``). Either
    way the case calls ``codec.encode_batch`` etc. directly."""
    return request.param


@pytest.fixture
def line_net():
    """src -- r1 -- r2 -- sub : a 2-router line with a host each end."""
    topo = TopologyBuilder.line(2)  # n0 - n1
    topo.add_node("hsrc")
    topo.add_node("hsub")
    topo.add_link("hsrc", "n0", delay=0.001)
    topo.add_link("hsub", "n1", delay=0.001)
    net = ExpressNetwork(topo, hosts=["hsrc", "hsub"])
    net.run(until=0.01)
    return net


@pytest.fixture
def star_net():
    """One router, one source host, four subscriber hosts."""
    topo = TopologyBuilder.star(5)
    # leaf0 is the source; leaf1..4 subscribers.
    net = ExpressNetwork(topo, hosts=[f"leaf{i}" for i in range(5)])
    net.run(until=0.01)
    return net


@pytest.fixture
def isp_net():
    """A 3-transit ISP topology with 12 hosts."""
    topo = TopologyBuilder.isp(n_transit=3, stubs_per_transit=2, hosts_per_stub=2)
    net = ExpressNetwork(topo)
    net.run(until=0.01)
    return net


def flapping_isp_net() -> tuple[ExpressNetwork, list[SourceHandle]]:
    """A 40-node ISP network, three source hosts in different stubs,
    and six fail/recover link flaps one second apart from t = 0.5,
    rotating over two core links and one stub link (t2-t3 sits off the
    shortest paths to the t0-region source, so its flaps leave some
    cached routing trees clean). The workload the Dijkstra-saving and
    wire-reduction gates share: add channels and members, then run to
    t = 7."""
    topo = TopologyBuilder.isp(n_transit=4, stubs_per_transit=3, hosts_per_stub=2)
    net = ExpressNetwork(topo)
    hosts = sorted(net.host_names)
    sources = [net.source(hosts[i * (len(hosts) // 3)]) for i in range(3)]
    flapped = [
        topo.link_between("t0", "t1"),
        topo.link_between("t0", "e0_0"),
        topo.link_between("t2", "t3"),
    ]
    for k in range(6):
        link = flapped[k % 3]
        net.sim.schedule_at(0.5 + k, link.fail)
        net.sim.schedule_at(0.65 + k, link.recover)
    return net, sources


def census_isp() -> ExpressNetwork:
    """The 4-transit ISP network the censuses share (t0..t3 on a ring
    with a t0-t2 chord, two stubs per transit, two hosts per stub), up
    and with no channel on it yet."""
    topo = TopologyBuilder.isp(n_transit=4, stubs_per_transit=2, hosts_per_stub=2)
    net = ExpressNetwork(topo)
    net.run(until=0.01)
    return net


def settled_keyless_isp() -> tuple[ExpressNetwork, list[Channel]]:
    """``census_isp`` settled with eight keyless channels on it, four
    each from h1_0_0 (below t1) and h0_1_0 (below t0), each with three
    members dealt from a fixed seed. A t0-t1 flap re-homes the channels
    whose path crossed it; a t2 crash cuts t2's stubs off until it
    restarts."""
    net = census_isp()
    rng = random.Random(42)
    sources = ["h1_0_0", "h0_1_0"]
    others = sorted(net.host_names - set(sources))
    channels = []
    for name in sources:
        source = net.source(name)
        for _ in range(4):
            channel = source.allocate_channel()
            channels.append(channel)
            for member in rng.sample(others, 3):
                net.host(member).subscribe(channel)
    net.settle()
    return net, channels


def scan_interface_to(node, peer):
    """``node.interface_to(peer)`` as a walk over the interfaces: the
    reference the adjacency index (and everything resolved through it)
    is compared against."""
    for iface in node.interfaces:
        if iface.link is not None and iface.link.other_end(node) is peer:
            return iface
    return None


def silence_host(net: ExpressNetwork, host: str) -> None:
    """The host forgets its subscriptions without a leave and keeps its
    link: its edge router's soft state for it can only expire."""
    agent = net.ecmp_agents[host]
    agent.subscriptions.clear()
    agent.channels.clear()
    agent.verdicts.reset()  # for joins it no longer remembers making
    for source, dest in agent.fib.channels():
        agent.fib.remove(source, dest)


def make_channel(net: ExpressNetwork, source_host: str) -> tuple[SourceHandle, Channel]:
    """Allocate a fresh channel for ``source_host``."""
    handle = net.source(source_host)
    return handle, handle.allocate_channel()


def calendar_entries(sim) -> int:
    """Entries the shipped ``Simulator``'s calendar holds, live and
    not-yet-skipped cancelled ones, counted from the structure itself
    (the engine's own running total is ``sim.pending() + sim._cancelled``)."""
    bulk = sim._open_bulk
    return (
        len(sim._open) - sim._open_pos
        + (0 if bulk is None else bulk.size - bulk.pos)
        + sum(map(len, sim._buckets.values()))
        + sum(record.size for record in sim._bucket_meta.values())
    )


def assert_control_plane_at_rest(net: ExpressNetwork) -> None:
    """Nothing transient survives quiescence: call once ``net`` has
    settled (every verdict answered, every query resolved, every flush
    window closed). The first rows of ROADMAP item 1's
    ``check_invariants``: per agent, no tabled verdict entry or pending
    query, no neighbor session with a dirty-channel queue or a flush
    timer, no channel state without a downstream record (one a rollback
    emptied and did not collect), no emptied inner set left standing in the
    ``liveness.udp_channels`` index, and no verdict or proactive
    table left for a channel whose state was collected, no downstream
    record holding a count <= 0 (a zero Count drops the record), and no
    records below a silent upstream: a channel with an upstream and
    subscribers below it has told that upstream so (a rollback that
    took back the Count they stood on and sent nothing in its place
    leaves them on a tree nobody above holds)."""
    for name, agent in net.ecmp_agents.items():
        held = {
            "pending_verdicts": agent.verdicts.pending,
            "pending_queries": agent.counting.pending,
            "queued toward": [
                n.name for n in agent.sessions.table.values() if n.queue is not None
            ],
            "flush timers toward": [
                n.name
                for n in agent.sessions.table.values()
                if n.flush_event is not None
            ],
            "channel states nobody is below": [
                str(channel)
                for channel, state in agent.channels.items()
                if not state.downstream
            ],
            "records below a silent upstream": [
                str(channel)
                for channel, state in agent.channels.items()
                if state.upstream is not None
                and state.advertised == 0
                and state.total(validated_only=False) > 0
            ],
            "records holding a count <= 0": [
                f"{channel} <- {neighbor}"
                for channel, state in agent.channels.items()
                for neighbor, record in state.downstream.items()
                if record.count <= 0
            ],
            "empty udp_channels sets": [
                peer
                for peer, channels in agent.liveness.udp_channels.items()
                if not channels
            ],
            "tables of collected channels": [
                str(channel)
                for table in (
                    agent.verdicts.pending,
                    agent.counting.proactive,
                    agent.counting.proactive_values,
                )
                for channel in table
                if channel not in agent.channels
            ],
        }
        leftovers = {what: value for what, value in held.items() if value}
        assert not leftovers, f"{name} is not at rest: {leftovers}"
