"""Property suite: the refresh ring and the general-query reply ≡ the
full-table walk, at every tick.

``EcmpAgent`` never scans its channel table on a refresh tick: a tick
sends general queries from the ``udp_channels`` index and expires only
what the ``RefreshRing`` says is due. A general query is answered by
one walk of the table for the channels routed via the querier. The
specification is the walk in ``tests/oracles/refresh.py``. Each case
here drives one all-UDP network through a seeded schedule of joins,
leaves, hosts and a block that fall silent, link flaps that re-home
channels, and router crashes — and at **every** refresh tick of every router, and every
general query any node receives, evaluates the oracle on the agent's
table just before the shipped path runs and compares what the shipped
path then did: which neighbors it queried, which records it expired,
which channels it re-announced.

Seeded ``random.Random`` (not hypothesis), as in the other suites.
"""

import random
from collections import Counter
from contextlib import contextmanager

import pytest

from repro import ExpressNetwork, NeighborMode, TopologyBuilder
from repro.core.ecmp.countids import ALL_CHANNELS_ID
from repro.core.ecmp.liveness import Liveness
from repro.core.ecmp.messages import CountQuery
from repro.faults import FaultInjector, FaultPlan
from tests.conftest import assert_control_plane_at_rest, silence_host
from tests.oracles.refresh import reference_general_query, reference_refresh_tick

N_CASES = 4
N_OPS = 120
CHURN_SECONDS = 40.0
REFRESH = 2.0  # UDP query interval: leases lapse inside a case


def records_of(agent) -> set:
    return {
        (channel, name)
        for channel, state in agent.channels.items()
        for name in state.downstream
    }


#: The shipped tick, as the class defines it.
SHIPPED_TICK = Liveness.refresh_tick


@contextmanager
def watched_ticks():
    """Patch ``Liveness.refresh_tick`` on the class so that a watched
    agent's tick runs its watcher (a dict, agent -> watcher, yielded to
    :func:`watch`) and every other agent's runs as shipped."""
    watchers = {}

    def refresh_tick(liveness):
        watcher = watchers.get(liveness._agent)
        if watcher is None:
            SHIPPED_TICK(liveness)
        else:
            watcher()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Liveness, "refresh_tick", refresh_tick)
        yield watchers


def watch(agent, seen: Counter, watchers: dict) -> None:
    """Compare the agent's every refresh tick and general-query reply
    with the oracle's, for the rest of the run (across restarts: the
    tick's watcher is keyed by the agent and the reply's wrapper is an
    instance attribute, both of which ``lose_state`` leaves)."""
    liveness = agent.liveness
    shipped_reply = agent._handle_general_query
    where = agent.node.name

    def tick():
        now = agent.sim.now
        want_targets, want_expired = reference_refresh_tick(agent, now)
        before = records_of(agent)
        got_targets = []
        send = agent._send_message

        def spy(message, name, *args, **kwargs):
            if isinstance(message, CountQuery) and message.count_id == ALL_CHANNELS_ID:
                got_targets.append(name)
            return send(message, name, *args, **kwargs)

        agent._send_message = spy
        try:
            SHIPPED_TICK(liveness)
        finally:
            del agent._send_message
        assert got_targets == want_targets, f"{where} t={now:.3f}"
        assert before - records_of(agent) == want_expired, f"{where} t={now:.3f}"
        seen["ticks"] += 1
        seen["queries_sent"] += len(got_targets)
        seen["expired"] += len(want_expired)
        seen["block_expired"] += sum(name in agent.blocks for _, name in want_expired)

    def reply(from_name):
        want = reference_general_query(agent, from_name)
        got = []
        announce = agent._send_count_upstream

        def spy(state, *args, **kwargs):
            got.append(state.channel)
            return announce(state, *args, **kwargs)

        agent._send_count_upstream = spy
        try:
            shipped_reply(from_name)
        finally:
            del agent._send_count_upstream
        assert len(got) == len(want) and set(got) == want, (
            f"{where} <- {from_name} t={agent.sim.now:.3f}"
        )
        seen["replies"] += 1
        seen["reannounced"] += len(got)
        if agent.role == "router":
            seen["router_reannounced"] += len(got)

    watchers[agent] = tick
    agent._handle_general_query = reply


def drive(case: int, watchers: dict) -> tuple[ExpressNetwork, Counter]:
    rng = random.Random(0x5EF + case)
    topo = TopologyBuilder.isp(
        n_transit=4, stubs_per_transit=2, hosts_per_stub=3, seed=case
    )
    # UDP mode on every link, so routers hold soft state for routers:
    # a re-homed channel must be re-announced to its new parent from
    # the upstream index, or the parent expires it.
    net = ExpressNetwork(topo, default_mode=NeighborMode.UDP)
    seen: Counter = Counter()
    for agent in net.ecmp_agents.values():
        agent.UDP_QUERY_INTERVAL = REFRESH
        watch(agent, seen, watchers)
    net.run(until=0.01)
    sim = net.sim
    hosts = sorted(net.host_names)
    sources = [net.source(name) for name in hosts[:2]]
    subscribers = hosts[2:]
    channels = [source.allocate_channel() for source in sources for _ in range(3)]
    block = net.subscriber_block("e1_0", udp=True)
    routers = sorted(set(net.ecmp_agents) - net.host_names - {"e1_0"})
    victim = rng.choice(routers)
    steady = net.host_names | {victim}
    links = [
        link
        for link in net.topo.links
        if link.node_a.name not in steady and link.node_b.name not in steady
    ]

    start = sim.now + 0.05
    for _ in range(N_OPS):
        at = start + rng.uniform(0.0, CHURN_SECONDS)
        roll = rng.random()
        channel = rng.choice(channels)
        host = rng.choice(subscribers)
        if roll < 0.45:
            sim.schedule_at(at, lambda h=host, c=channel: net.host(h).subscribe(c))
        elif roll < 0.65:
            sim.schedule_at(at, lambda h=host, c=channel: net.host(h).unsubscribe(c))
        elif roll < 0.75:
            sim.schedule_at(at, lambda h=host: silence_host(net, h))
        elif roll < 0.85:
            n = rng.randint(1, 5)
            sim.schedule_at(at, lambda c=channel, n=n: block.join(c, n))
        else:
            link = rng.choice(links)
            down = rng.uniform(0.2, 7.0)  # some outlast the re-home hysteresis
            sim.schedule_at(at, link.fail)
            sim.schedule_at(at + down, link.recover)
    plan = FaultPlan(seed=case)
    plan.crash_restart(
        start + 0.5 * CHURN_SECONDS, victim, downtime=rng.uniform(0.5, 6.0)
    )
    # The block falls silent late in the run: its records expire.
    sim.schedule_at(start + 0.8 * CHURN_SECONDS, block.stop)
    FaultInjector(net, plan).arm()
    net.run(until=start + CHURN_SECONDS + 8.0)
    net.settle(3 * REFRESH + 12.0)
    for agent in net.ecmp_agents.values():
        seen["rehomes"] += agent.stats.get("upstream_changes")
        seen["crashes"] += agent.stats.get("state_losses")
    return net, seen


@pytest.fixture(scope="module")
def driven():
    with watched_ticks() as watchers:
        return [drive(case, watchers) for case in range(N_CASES)]


def test_every_tick_and_reply_matches_the_full_table_walk(driven):
    # drive() compared at every tick; a case that compared nothing
    # would have proven nothing.
    for _, seen in driven:
        assert seen["ticks"] > 200
        assert seen["replies"] > 200


@pytest.mark.parametrize("case", range(N_CASES))
def test_nothing_transient_survives_the_settled_end(driven, case):
    assert_control_plane_at_rest(driven[case][0])


def test_schedule_reaches_every_refresh_path(driven):
    """The cases, between them, expired host and block records, had
    routers answer general queries from the upstream index, and did so
    after re-homes and a crash."""
    totals: Counter = Counter()
    for _, seen in driven:
        totals.update(seen)
    for path in (
        "queries_sent",
        "expired",
        "block_expired",
        "reannounced",
        "router_reannounced",
        "rehomes",
        "crashes",
    ):
        assert totals[path] > 0, (path, totals)
