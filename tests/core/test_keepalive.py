"""Keepalives probe only silent neighbors, and only routers send them.

§3.3: "Each router periodically multicasts such a [neighbors]
CountQuery", and §3.2's TCP mode uses it as the connection keepalive,
which TCP sends only once a connection has been idle for the interval
(RFC 1122 §4.2.3.6). So a router's keepalive tick skips a neighbor it
heard — traffic, a probe or a reply — within the last
``KEEPALIVE_INTERVAL``, and a host answers probes but sends none. An
idle session's two ends then hear each other at least every two
intervals, inside the ``KEEPALIVE_MISSES`` horizon.

Every case runs on ``hsrc - n0 - n1 - hsub`` (two routers, a host on
each end) with the agents started at time 0, so the keepalive ticks
fall on whole multiples of the interval.
"""

from collections import Counter

from repro.core.ecmp.countids import NEIGHBORS_ID
from repro.core.ecmp.messages import Count, CountQuery
from repro.core.ecmp.protocol import EcmpAgent
from repro.faults import FaultInjector, FaultPlan

INTERVAL = EcmpAgent.KEEPALIVE_INTERVAL
MISSES = EcmpAgent.KEEPALIVE_MISSES

#: Every (router, neighbor) pair of the line.
ROUTER_SESSIONS = {("n0", "hsrc"), ("n0", "n1"), ("n1", "n0"), ("n1", "hsub")}


def keepalive_log(net) -> list[tuple[int, str, str, str]]:
    """Record every neighbors probe and reply sent from now on as
    (tick, sender, receiver, "probe" | "reply"), where tick is the
    keepalive tick the message belongs to (a reply leaves a link delay
    after its probe)."""
    log = []
    for name, agent in net.ecmp_agents.items():
        send = agent._send_message

        def send_and_log(message, neighbor, *args, send=send, name=name, **kwargs):
            if type(message) in (Count, CountQuery) and message.count_id == NEIGHBORS_ID:
                kind = "probe" if type(message) is CountQuery else "reply"
                log.append((round(net.sim.now / INTERVAL), name, neighbor, kind))
            send(message, neighbor, *args, **kwargs)

        agent._send_message = send_and_log
    return log


def probes(log, tick: int) -> set[tuple[str, str]]:
    return {(sender, to) for at, sender, to, kind in log if kind == "probe" and at == tick}


def test_a_session_that_carried_traffic_within_the_interval_gets_no_probe(line_net):
    net = line_net
    log = keepalive_log(net)
    channel = net.source("hsrc").allocate_channel()
    net.sim.schedule_at(INTERVAL - 5, lambda: net.host("hsub").subscribe(channel))
    net.run(until=INTERVAL + 1)
    # The join went hsub -> n1 -> n0 -> hsrc five seconds before the
    # tick: n1 heard hsub and n0 heard n1, so neither probes them; n0
    # never heard hsrc and n1 never heard n0.
    assert probes(log, 1) == {("n0", "hsrc"), ("n1", "n0")}


def test_an_idle_session_carries_one_probe_and_one_reply_every_other_interval(line_net):
    """Router-host sessions carry the router's probe and the host's
    reply; a router-router session carries that from each end (both
    ticks fire at the same instant, before either probe lands). The
    report line gives the probes and replies per idle link per 300 s."""
    net = line_net
    log = keepalive_log(net)
    window = 300.0
    net.run(until=window + 1)
    expected = [
        entry
        for tick in range(1, round(window / INTERVAL) + 1, 2)
        for router, peer in ROUTER_SESSIONS
        for entry in ((tick, router, peer, "probe"), (tick, peer, router, "reply"))
    ]
    assert sorted(log) == sorted(expected)
    per_link = {
        link: Counter(kind for _, sender, to, kind in log if {sender, to} == set(pair))
        for link, pair in (("router-host", ("n0", "hsrc")), ("router-router", ("n0", "n1")))
    }
    print(
        f"\nkeepalive census: per idle link per {window:.0f} s: "
        + ", ".join(
            f"{link} {tally['probe']} probes / {tally['reply']} replies"
            for link, tally in per_link.items()
        )
    )


def test_neither_end_of_an_idle_session_ages_past_the_miss_horizon(line_net):
    net = line_net
    worst = Counter()
    t = INTERVAL + 1.0
    while t < 12 * INTERVAL:
        net.run(until=t)
        for name, agent in net.ecmp_agents.items():
            for peer in net.topo.node(name).neighbors():
                age = net.sim.now - agent.liveness.last_heard[peer.name]
                worst[name, peer.name] = max(worst[name, peer.name], age)
        t += 1.0
    assert len(worst) == 6  # both ends of the three links
    # Two intervals and the round trip at most, against a horizon of
    # KEEPALIVE_MISSES intervals.
    assert max(worst.values()) <= 2 * INTERVAL + 1.0 < MISSES * INTERVAL


def test_a_host_sends_no_probe(line_net):
    net = line_net
    log = keepalive_log(net)
    net.run(until=4 * INTERVAL + 1)
    for host in ("hsrc", "hsub"):
        assert net.ecmp_agents[host].stats.get("keepalives_tx") == 0
        assert not [entry for entry in log if entry[1] == host and entry[3] == "probe"]
        # ...but answers its router's probes.
        assert [entry for entry in log if entry[1] == host and entry[3] == "reply"]


def test_never_heard_and_just_restarted_neighbors_are_probed_at_the_first_tick(line_net):
    net = line_net
    log = keepalive_log(net)
    net.run(until=INTERVAL + 1)
    assert probes(log, 1) == ROUTER_SESSIONS  # nobody has said a word yet
    # n1 crashes at 40 and is back at 40.5: it forgot whom it heard,
    # and its first tick, one interval on, probes both neighbors.
    injector = FaultInjector(net, FaultPlan().crash_restart(40.0, "n1", downtime=0.5))
    injector.arm()
    net.run(until=40.5 + INTERVAL + 0.5)
    assert len(injector.fired) == 2
    first = [(sender, to) for at, sender, to, kind in log if sender == "n1" and kind == "probe"]
    assert first[-2:] == [("n1", "n0"), ("n1", "hsub")]
    assert net.ecmp_agents["n1"].stats.get("keepalives_tx") == 4


def test_a_link_down_for_the_miss_horizon_fails_its_neighbor_through_the_tick(line_net):
    """A link that dies without a link event (nothing calls
    ``on_link_change``) is found by the tick once the neighbor has been
    silent for ``KEEPALIVE_MISSES`` intervals."""
    net = line_net
    channel = net.source("hsrc").allocate_channel()
    net.host("hsub").subscribe(channel)
    net.settle()
    n0 = net.ecmp_agents["n0"]
    assert "n1" in n0.channels[channel].downstream
    failed = []
    liveness = n0.liveness
    fail = liveness._neighbor_failed

    def fail_and_log(name):
        failed.append((net.sim.now, name))
        fail(name)

    liveness._neighbor_failed = fail_and_log
    net.topo.link_between("n0", "n1").up = False  # silently: no notification
    last = liveness.last_heard["n1"]
    net.run(until=(MISSES + 2) * INTERVAL)
    # The first tick past the horizon, no earlier.
    due = (int((last + MISSES * INTERVAL) // INTERVAL) + 1) * INTERVAL
    assert failed == [(due, "n1")]
    assert "n1" not in liveness.last_heard
    assert channel not in n0.channels or "n1" not in n0.channels[channel].downstream
