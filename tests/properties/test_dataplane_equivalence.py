"""Property suite: the shipped per-hop data plane ≡ the plain one.

``Link.transmit`` / ``Node.send`` / ``Node.receive`` / ``Packet.copy``
/ ``ExpressForwarder.handle_packet`` + ``_fan_out`` /
``MulticastFib.lookup`` + ``egress`` ship as one short straight line
per hop: link ends resolved when the link is wired, one interface
tuple per distinct outgoing bitmap, the copy written out slot by slot.
The specification is the long way round in
``tests/oracles/dataplane.py``. Each case here is one seeded scenario
run twice in this process — once as shipped, once with the oracle
patched in *before the network is built* — and everything an observer
could see must agree: the full ``PacketTrace`` (every tx / rx / drop
with its time and detail), every interface, link, node, forwarder, FIB
and ECMP counter, every FIB row, ``sim.events_processed``, the
simulator RNG's final state (so the loss draw consumed it for exactly
the same packets), the wire mutator's tally, what a ``Link.capture``
hook saw, and each subscriber's ``(time, ttl, size, created_at, n)``
sequence — ``n`` numbers each distinct packet object in order of first
sight, so the runs must agree on which deliveries share one object —
plus the TTL of every retained packet *at the end of the run*, which a
relay that reused a delivered packet would have changed.

A scenario mixes, on one ISP-shaped network with UDP-mode edges:
lossy links that carry loss-exposed data and UDP-mode control beside
``reliable`` TCP-mode control; a ``WireMutator`` dropping, duplicating
and reordering every protocol on a transit link; a stub link failing
with packets in flight and recovering; packets emitted with a TTL too
small to arrive; a spoofed packet carrying the receiving router's own
address as source; channel packets arriving on the wrong interface
(iif drop) and for an unknown channel (no-match drop); subcast
IP-in-IP packets to on-tree and off-tree relays; host-to-host unicast;
a class-D packet outside 232/8 and an unknown protocol; a router that
subscribes (``on_data`` retaining the packet) while relaying to
subscribers further down; and joins and leaves throughout the stream,
so outgoing bitmaps change between packets. On both event cores: the
shipped one (``wheel``) and the heap oracle of
``tests/oracles/scheduler.py`` (``heap``).

Seeded ``random.Random`` (not hypothesis), as in the other property
suites. ``lookup_cache_hits`` is the one counter left out: it counts
egress tuples *not built*, which only the shipped table can say.
"""

import random
from functools import partial

import pytest

from repro import ExpressNetwork, TopologyBuilder
from repro.faults.wire import WireMutator
from repro.netsim.packet import Packet
from tests.conftest import assert_control_plane_at_rest
from tests.oracles import dataplane
from tests.oracles.scheduler import event_core

N_CASES = 2
STREAM_START = 0.3
STREAM_END = 4.2
INTERVAL = 0.02
REFRESH = 1.0  # UDP query interval: lost edge joins recover inside a case
#: Cases whose settled end is not at rest, and why — a finding for
#: ROADMAP item 1, not a tolerance of ``assert_control_plane_at_rest``.
NOT_AT_REST = {
    0: "the WireMutator on t0-t2 drops t2's TCP-mode join of 2.603 s (sent "
    "when the flapped link came back); TCP mode models no retransmission, "
    "so t0 never sees it and t2's VerdictEntry waits for a verdict forever",
}


def observe(case: int, scheduler: str) -> dict:
    """Build, drive and photograph one scenario."""
    rng = random.Random(0xDA7A + case)
    with event_core(scheduler):
        topo = TopologyBuilder.isp(
            n_transit=3, stubs_per_transit=2, hosts_per_stub=3, seed=case
        )
    trace = topo.attach_trace()
    net = ExpressNetwork(topo, edge_udp=True)
    for agent in net.ecmp_agents.values():
        agent.UDP_QUERY_INTERVAL = REFRESH
    sim = net.sim
    numbers: dict[int, int] = {}
    seen_packets: list[Packet] = []  # alive, so no id() is reused

    def number(packet: Packet) -> int:
        n = numbers.get(id(packet))
        if n is None:
            n = numbers[id(packet)] = len(seen_packets)
            seen_packets.append(packet)
        return n

    net.run(until=0.01)

    hosts = sorted(net.host_names)
    routers = sorted(set(net.ecmp_agents) - net.host_names)
    sources = [net.source(name) for name in hosts[:2]]
    channels = [source.allocate_channel() for source in sources for _ in range(2)]
    unjoined = sources[0].allocate_channel()
    owner = {ch: src for src in sources for ch in channels if ch.source == src.address}
    subscribers = hosts[2:]

    # Loss: two host links (UDP-mode control and data both exposed) and
    # one transit link (TCP-mode control exempt as ``reliable``, data
    # exposed): the draw must be taken for exactly the exposed packets.
    lossy = [
        topo.link_between(subscribers[0], topo.node(subscribers[0]).neighbors()[0].name),
        topo.link_between(subscribers[4], topo.node(subscribers[4]).neighbors()[0].name),
        topo.link_between("t0", "t1"),
    ]
    for link in lossy:
        link.loss = 0.15

    mutator = WireMutator(
        random.Random(case), drop=0.05, duplicate=0.08, reorder=0.15,
        start=1.0, end=3.0, only_proto=None,
    )
    mutator.install(topo.link_between("t0", "t2"))

    captured = []
    tapped_host = subscribers[7]
    tapped = topo.link_between(tapped_host, topo.node(tapped_host).neighbors()[0].name)

    def capture(link, sender, packet, arrival):
        # What the parallel proxy layer does with a cut link: note the
        # frame, deliver it at its exact arrival time.
        receiver = link.other_end(sender)
        captured.append(
            (sender.name, packet.proto, packet.size, packet.ttl, arrival,
             number(packet))
        )
        sim.schedule_at(
            arrival, partial(receiver.receive, packet, link.interface_of(receiver).index)
        )

    tapped.capture = capture

    deliveries: dict[str, list] = {}
    retained: dict[str, list] = {}

    def sink(name: str):
        seen = deliveries.setdefault(name, [])
        kept = retained.setdefault(name, [])

        def on_data(packet) -> None:
            seen.append(
                (sim.now, packet.ttl, packet.size, packet.created_at,
                 number(packet))
            )
            kept.append(packet)

        return on_data

    at = sim.schedule_at
    # A router on the way to most subscribers both delivers and relays.
    relay_router = "t1"
    at(0.05, partial(net.host(relay_router).subscribe, channels[0], on_data=sink(relay_router)))
    at(0.06, partial(net.host("e2_0").subscribe, channels[2], on_data=sink("e2_0")))
    for name in subscribers:
        for channel in rng.sample(channels, 2):
            joined = rng.uniform(0.05, 1.5)
            at(joined, partial(net.host(name).subscribe, channel, on_data=sink(name)))
            if rng.random() < 0.6:
                left = rng.uniform(joined + 0.3, STREAM_END)
                at(left, partial(net.host(name).unsubscribe, channel))
                if rng.random() < 0.5:
                    at(
                        rng.uniform(left + 0.1, STREAM_END),
                        partial(net.host(name).subscribe, channel, on_data=sink(name)),
                    )

    steps = int((STREAM_END - STREAM_START) / INTERVAL)
    for k in range(steps):
        for j, channel in enumerate(channels):
            at(
                STREAM_START + k * INTERVAL + j * 0.001,
                partial(owner[channel].send, channel, None, rng.choice((200, 1356))),
            )

    # A stub link fails with a packet in flight — half a millisecond
    # after the first data packet put on it from t=2.0, on a 2 ms link —
    # and recovers. The packet on the wire still arrives; what the
    # sender tries next is a link-down drop.
    flapped = topo.link_between("t2", "e2_0")
    flap = {"armed_at": 2.0, "failed_at": None}

    def trip(link, sender, packet):
        if flap["failed_at"] is None and sim.now >= flap["armed_at"] and packet.proto == "data":
            flap["failed_at"] = sim.now + 0.0005
            sim.schedule(0.0005, link.fail)
            sim.schedule(0.6, link.recover)
        return ((0.0, packet),)

    flapped.mutator = trip

    def inject(node_name: str, toward: str, **fields) -> None:
        node = topo.node(node_name)
        node.send(Packet(**fields), node.interface_to(topo.node(toward)).index)

    def emit(channel, ttl: int) -> None:
        net.forwarders[owner[channel].name].emit_local(
            Packet(
                src=channel.source, dst=channel.group, size=300, ttl=ttl,
                created_at=sim.now,
            )
        )

    edge = topo.node(subscribers[3]).neighbors()[0].name
    for _ in range(12):
        when = rng.uniform(1.6, STREAM_END)
        channel = rng.choice(channels)
        roll = rng.randrange(8)
        if roll == 0:  # dies of TTL a few hops in
            at(when, partial(emit, channel, rng.randint(1, 4)))
        elif roll == 1:  # spoofed: the receiving router's own address
            at(when, partial(
                inject, "t0", "t1", src=topo.node("t1").address, dst=channel.group,
            ))
        elif roll == 2:  # right channel, wrong interface
            at(when, partial(
                inject, subscribers[3], edge, src=channel.source, dst=channel.group,
            ))
        elif roll == 3:  # a channel nobody holds
            at(when, partial(
                inject, subscribers[3], edge,
                src=topo.node(subscribers[3]).address, dst=channel.group,
            ))
        elif roll == 4:  # subcast to an on-tree or off-tree relay
            at(when, partial(owner[channel].subcast, channel, rng.choice(routers), None, 500))
        elif roll == 5:  # host-to-host unicast across the core
            a, b = rng.sample(hosts, 2)
            at(when, partial(
                net.forwarders[a].emit_unicast,
                Packet(src=topo.node(a).address, dst=topo.node(b).address, size=80),
            ))
        elif roll == 6:  # class D outside 232/8
            at(when, partial(
                inject, subscribers[3], edge,
                src=topo.node(subscribers[3]).address, dst=0xE0000005,
            ))
        else:  # a protocol nobody speaks
            at(when, partial(
                inject, subscribers[3], edge, src=1, dst=2, proto="weird",
            ))
    # Every kind at least once, whatever the draws above chose.
    fixed = 1.7
    ch = channels[0]
    at(fixed, partial(emit, ch, 2))
    at(fixed + 0.01, partial(inject, "t0", "t1", src=topo.node("t1").address, dst=ch.group))
    at(fixed + 0.02, partial(inject, subscribers[3], edge, src=ch.source, dst=ch.group))
    at(fixed + 0.03, partial(
        inject, subscribers[3], edge, src=topo.node(subscribers[3]).address, dst=ch.group,
    ))
    at(fixed + 0.04, partial(owner[ch].subcast, ch, relay_router, None, 500))
    at(fixed + 0.05, partial(sources[0].subcast, unjoined, relay_router, None, 500))
    # Into the failed link while it is down: the sender's own drop.
    at(2.3, partial(inject, "e2_0", "t2", src=1, dst=2, proto="weird"))

    net.run(until=STREAM_END + 0.5)
    net.settle(3 * REFRESH)
    if case not in NOT_AT_REST:
        assert_control_plane_at_rest(net)

    return {
        "trace": [
            (r.time, r.node, r.direction, r.proto, r.size, r.detail)
            for r in trace.records
        ],
        "interfaces": {
            (name, iface.index): (
                iface.tx_packets, iface.tx_bytes, iface.rx_packets, iface.rx_bytes
            )
            for name, node in topo.nodes.items()
            for iface in node.interfaces
        },
        "links": [
            (
                link.node_a.name, link.node_b.name, link.tx_packets,
                link.lost_packets, link.ecmp_wire_packets, link.ecmp_wire_bytes,
            )
            for link in topo.links
        ],
        "nodes": {
            name: (node.dropped_packets, node.unmatched_packets)
            for name, node in topo.nodes.items()
        },
        "forwarders": {
            name: fwd.stats.as_dict() for name, fwd in net.forwarders.items()
        },
        "fibs": {
            name: (
                fib.lookups, fib.no_match_drops, fib.iif_drops,
                sorted(
                    (e.source, e.dest_suffix, e.incoming_interface, e.outgoing)
                    for e in fib
                ),
            )
            for name, fib in net.fibs.items()
        },
        "ecmp": net.control_stats_total(),
        "events": sim.events_processed,
        "rng": sim.rng.getstate(),
        "mutator": dict(mutator.stats),
        "failed_at": flap["failed_at"],
        "captured": captured,
        "deliveries": deliveries,
        "retained_at_end": {
            name: [(p.ttl, number(p)) for p in kept]
            for name, kept in retained.items()
        },
    }


@pytest.fixture(scope="module", params=["heap", "wheel"])
def runs(request):
    """``[(shipped, reference)]`` per case for one event core."""
    pairs = []
    for case in range(N_CASES):
        shipped = observe(case, request.param)
        with pytest.MonkeyPatch.context() as patch:
            dataplane.install(patch)
            reference = observe(case, request.param)
        pairs.append((shipped, reference))
    return pairs


def test_every_observable_agrees(runs):
    for shipped, reference in runs:
        assert shipped.keys() == reference.keys()
        # Named, not dumped: a failure lists what diverged rather than
        # printing two whole networks.
        diverged = [key for key in shipped if shipped[key] != reference[key]]
        assert not diverged, ", ".join(diverged)


def test_scenarios_reach_every_branch(runs):
    """A comparison of two runs in which nothing happened proves
    nothing: between them the cases took every path named above."""
    for shipped, _ in runs:
        drops = [detail for (_, _, direction, _, _, detail) in shipped["trace"]
                 if direction == "drop"]
        assert "ttl" in drops and "link-down" in drops
        failed_at = shipped["failed_at"]
        assert any(
            node == "e2_0" and direction == "rx" and proto == "data"
            and failed_at < time <= failed_at + 0.002
            for time, node, direction, proto, _, _ in shipped["trace"]
        ), "no packet was in flight when the link failed"
        stats: dict[str, int] = {}
        for bag in shipped["forwarders"].values():
            for key, value in bag.items():
                stats[key] = stats.get(key, 0) + value
        for key in (
            "self_spoof_drops", "subcast_relayed", "subcast_off_tree_drops",
            "fanout_inplace", "multicast_forwarded", "local_deliveries",
            "unicast_forwarded", "unicast_delivered",
        ):
            assert stats.get(key, 0) > 0, key
        assert sum(f[1] for f in shipped["fibs"].values()) > 0  # no-match
        assert sum(f[2] for f in shipped["fibs"].values()) > 0  # iif
        lost = {(a, b): n for a, b, _, n, _, _ in shipped["links"] if n}
        assert len(lost) == 3  # every lossy link drew and lost
        assert ("t0", "t1") in lost or ("t1", "t0") in lost
        assert all(shipped["mutator"][k] > 0 for k in ("dropped", "duplicated", "reordered"))
        assert any(proto == "data" for _, proto, *_ in shipped["captured"])
        assert any(proto == "ecmp" for _, proto, *_ in shipped["captured"])
        # The subscribed router relayed what it also kept: the retained
        # packets still read their delivery-time TTL.
        router_seen = shipped["deliveries"]["t1"]
        assert len(router_seen) > 50
        assert [ttl for ttl, _ in shipped["retained_at_end"]["t1"]] == [
            ttl for _, ttl, *_ in router_seen
        ]
        assert stats["multicast_forwarded"] > 5000


def test_copies_are_distinct_packets(runs):
    for shipped, _ in runs:
        numbers = [n for seen in shipped["deliveries"].values() for *_, n in seen]
        # Whatever reaches two places is two packets.
        assert len(numbers) == len(set(numbers))
        assert len(set(numbers)) > 1000
