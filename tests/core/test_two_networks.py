"""Two networks in one process do not see each other.

Each network below runs its own seeded churn — keyed and keyless joins
and leaves, a subscriber block, data — once alone and once interleaved
with the other, one ``sim.step()`` each by turns. Whatever a network
shares with another through module-level state (the channel intern
tables) must not change what it ends with: every
agent's channel table with the five fields of each downstream record,
its counters and key cache, every FIB row, the block counters and the
link counters read the same both ways.
"""

import random

from repro import ExpressNetwork, TopologyBuilder, make_key

END = 6.0


def build(seed: int) -> ExpressNetwork:
    """A small ISP with ``seed``'s churn scheduled on it."""
    rng = random.Random(seed)
    net = ExpressNetwork(
        TopologyBuilder.isp(n_transit=3, stubs_per_transit=2, hosts_per_stub=2, seed=seed)
    )
    net.run(until=0.01)
    hosts = sorted(net.host_names)
    source = net.source(hosts[0])
    channels = [source.allocate_channel() for _ in range(3)]
    keys = {channels[0]: make_key(channels[0])}
    source.channel_key(channels[0], keys[channels[0]])
    at = net.sim.schedule_at
    when = 0.05
    for _ in range(25):
        when += rng.uniform(0.01, 0.15)
        host = net.host(rng.choice(hosts[1:]))
        channel = rng.choice(channels)
        if rng.random() < 0.7:
            at(when, lambda h=host, c=channel, k=keys.get(channel): h.subscribe(c, key=k))
        else:
            at(when, lambda h=host, c=channel: h.unsubscribe(c))
    forged = make_key(channels[0], b"forged")
    at(1.0, lambda: net.host(hosts[-1]).subscribe(channels[0], key=forged))
    edge = rng.choice(sorted(n for n in net.topo.nodes if n.startswith("e")))
    block = net.subscriber_block(edge)
    at(0.4, lambda: block.join(channels[1], rng.randint(10, 900)))
    at(3.5, lambda: block.leave(channels[1], 5))
    for k in range(40):
        at(0.5 + 0.1 * k, lambda c=channels[k % 3]: source.send(c))
    return net


def run_to_end(*nets: ExpressNetwork) -> None:
    """Step the networks by turns, one event each, until none has an
    event left before ``END``."""
    live = list(nets)
    while live:
        for net in list(live):
            due = net.sim.peek_time()
            if due is None or due > END:
                live.remove(net)
            else:
                net.sim.step()


def photograph(net: ExpressNetwork) -> dict:
    channels = {
        (name, channel): (
            state.upstream,
            state.advertised,
            {
                peer: (r.count, r.validated, r.presented_key, r.updated_at, r.udp)
                for peer, r in state.downstream.items()
            },
        )
        for name, agent in net.ecmp_agents.items()
        for channel, state in agent.channels.items()
    }
    return {
        "channels": channels,
        "agent_stats": {n: a.stats.as_dict() for n, a in net.ecmp_agents.items()},
        "forwarder_stats": {n: f.stats.as_dict() for n, f in net.forwarders.items()},
        "keys": {
            name: (
                sorted((str(c), str(agent.keys.get(c))) for _, c in channels if agent.keys.knows(c)),
                agent.keys.local_accepts,
                agent.keys.local_denies,
            )
            for name, agent in net.ecmp_agents.items()
        },
        "fibs": {
            name: sorted(
                (e.source, e.dest_suffix, e.incoming_interface, e.outgoing) for e in fib
            )
            for name, fib in net.fibs.items()
        },
        "blocks": [
            (block.name, block.packets_seen, block.deliveries, block.bytes_delivered)
            for agent in net.ecmp_agents.values()
            for block in agent.blocks.values()
        ],
        "links": [
            (l.node_a.name, l.node_b.name, l.tx_packets, l.lost_packets,
             l.ecmp_wire_packets, l.ecmp_wire_bytes)
            for l in net.topo.links
        ],
    }


def test_interleaved_networks_end_as_they_end_alone():
    alone = []
    for seed in (5, 6):
        net = build(seed)
        run_to_end(net)
        alone.append(photograph(net))
    assert alone[0] != alone[1]
    for solo in alone:  # the churn reached what it is meant to reach
        assert any(deliveries for _, _, deliveries, _ in solo["blocks"])
        assert any(keys for keys, _, _ in solo["keys"].values())
        assert any(s.get("denied_subscriptions") for s in solo["agent_stats"].values())
        assert any(record[2] for _, _, records in solo["channels"].values()
                   for record in records.values())

    first, second = build(5), build(6)
    run_to_end(first, second)
    for net, solo in ((first, alone[0]), (second, alone[1])):
        together = photograph(net)
        diverged = [key for key in solo if solo[key] != together[key]]
        assert not diverged, ", ".join(diverged)
