"""Property test: batched send path ≡ unbatched send path.

The dirty-channel queue (last-writer-wins coalescing, urgency flushes,
the Nagle-style flush timer) must be *semantically invisible*: after
any join/leave workload settles, every agent's ChannelState table —
upstream choice, advertised count, per-neighbor downstream counts and
validation bits — must be byte-for-byte identical to a run of the same
workload on the reference send path of ``tests/oracles/sessions.py``,
the seed's one-packet-per-message behaviour.

Seeded ``random.Random`` instances (not hypothesis) keep the sequences
deterministic across runs and identical between the two networks being
compared, matching the idiom of ``test_routing_equivalence``.
"""

import random

import pytest

from repro import CountPropagation, ExpressNetwork, TopologyBuilder
from tests.oracles import sessions as sessions_oracle

N_SEQUENCES = 10
EVENTS_PER_SEQUENCE = 36
N_CHANNELS = 3
N_MERGING_SEQUENCES = 4


def snapshot(net: ExpressNetwork) -> dict:
    """Every agent's full channel table, in comparable form."""
    table = {}
    for name, agent in sorted(net.ecmp_agents.items()):
        for channel, state in agent.channels.items():
            downstream = {
                peer: (record.count, record.validated)
                for peer, record in state.downstream.items()
                if record.count > 0
            }
            table[(name, channel)] = (state.upstream, state.advertised, downstream)
    return table


def unbatched(drive, *args) -> dict:
    """``drive(*args)`` on the reference send path."""
    with pytest.MonkeyPatch.context() as patch:
        sessions_oracle.install(patch)
        return drive(*args)


def drive(
    seed: int,
    propagation: CountPropagation = CountPropagation.TREE_ONLY,
    max_gap: float = 0.12,
) -> dict:
    """Build the network, run one randomized workload (events at most
    ``max_gap`` apart), snapshot."""
    rng = random.Random(seed)
    topo = TopologyBuilder.isp(
        n_transit=3, stubs_per_transit=2, hosts_per_stub=2, seed=7
    )
    net = ExpressNetwork(topo, propagation=propagation)
    net.run(until=0.01)

    hosts = sorted(net.host_names)
    source = net.source(hosts[0])
    channels = [source.allocate_channel() for _ in range(N_CHANNELS)]
    subscribers = hosts[1:]

    when = 0.05
    for _ in range(EVENTS_PER_SEQUENCE):
        when += rng.uniform(0.002, max_gap)
        host = rng.choice(subscribers)
        channel = rng.choice(channels)
        if rng.random() < 0.65:
            net.sim.schedule_at(
                when, lambda h=host, c=channel: net.host(h).subscribe(c)
            )
        else:
            net.sim.schedule_at(
                when, lambda h=host, c=channel: net.host(h).unsubscribe(c)
            )
    net.run(until=when)
    net.settle(3.0)
    return snapshot(net)


@pytest.mark.parametrize("case", range(N_SEQUENCES))
def test_batched_state_tables_match_unbatched(case):
    seed = 0xBA7C + case
    assert drive(seed) == unbatched(drive, seed)


@pytest.mark.parametrize("case", range(N_MERGING_SEQUENCES))
def test_merged_count_updates_match_unbatched(case):
    """Under ON_CHANGE every count change travels upstream, and changes
    a few milliseconds apart land inside one hold-off, where two
    unpinned Counts for one channel merge (last writer wins): the
    upstream must end with the newer count."""
    args = (0x3E26 + case, CountPropagation.ON_CHANGE, 0.01)
    assert drive(*args) == unbatched(drive, *args)


def test_link_flap_state_tables_match_unbatched():
    """Deterministic churn case: a tree link fails and recovers mid-
    subscription (exercising the reconnect batch resend and the queue
    drop on session death), and the settled tables still match."""

    def drive_flap() -> dict:
        topo = TopologyBuilder.line(3)
        topo.add_node("hsrc")
        topo.add_node("hsub1")
        topo.add_node("hsub2")
        topo.add_link("hsrc", "n0", delay=0.001)
        topo.add_link("hsub1", "n2", delay=0.001)
        topo.add_link("hsub2", "n2", delay=0.001)
        net = ExpressNetwork(topo, hosts=["hsrc", "hsub1", "hsub2"])
        net.run(until=0.01)
        source = net.source("hsrc")
        channels = [source.allocate_channel() for _ in range(4)]
        for channel in channels:
            net.host("hsub1").subscribe(channel)
            net.host("hsub2").subscribe(channel)
        net.settle()
        link = net.topo.link_between("n1", "n2")
        link.fail()
        net.settle()
        link.recover()
        # Past hysteresis, so any deferred re-homing has fired.
        net.settle(6.0)
        return snapshot(net)

    assert drive_flap() == unbatched(drive_flap)
