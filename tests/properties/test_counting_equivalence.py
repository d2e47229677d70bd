"""Property suite: the shipped CountQuery path ≡ the always-a-record one.

``Counting.on_query`` answers a query at a node with nobody to ask — a
leaf host, a router whose downstream records are LOCAL and blocks —
straight from its local contribution: no ``PendingQuery``, no set, no
closure, no timer. Its specification is §3.1 applied at every node
alike, in ``tests/oracles/counting.py``. Each case here is one seeded
scenario run twice in this process, once as shipped and once with the
oracle patched in, and everything an observer could see must agree:
every query's total, partial flag and reply instant, the order of every
callback and every wire send, ``sim.events_processed``, the bytes and
packets on every link, every agent's counters, and — with observability
on — every span with its parent, attributes and events.

A scenario is a random tree of routers under one source, hosts hung off
it at random, and on it: subscriber hosts with and without an
application responder for the voted countId; subscriber blocks at
routers (counted under ``SUBSCRIBER_ID`` only); a router that
subscribes itself; network-layer ids (``LINK_COUNT_ID``,
``TREE_SIZE_ID``) that stop at routers; a query restarted by a second
one for the same (channel, countId) while it is pending; a query
originated by a router in mid-tree; and one reply dropped on a host's
link, so one branch times out and the count comes back short.

Seeded ``random.Random`` (not hypothesis), as in the other whole-network
property suites.
"""

import random

import pytest

from repro import ExpressNetwork
from repro.core.ecmp.countids import LINK_COUNT_ID, SUBSCRIBER_ID, TREE_SIZE_ID
from repro.netsim.topology import Topology
from repro.obs import Observability
from tests.oracles import counting as oracle

N_CASES = 6
VOTE_ID = 0x4001
TIMEOUT = 1.0


def build(rng: random.Random, obs, wire_format: bool):
    topo = Topology()
    routers = [f"r{i}" for i in range(rng.randint(3, 7))]
    for i, name in enumerate(routers):
        topo.add_node(name)
        if i:
            topo.add_link(name, routers[rng.randrange(i)], delay=rng.choice((0.001, 0.003)))
    hosts = ["hsrc"] + [f"h{i}" for i in range(rng.randint(4, 9))]
    for i, name in enumerate(hosts):
        topo.add_node(name)
        topo.add_link(name, routers[0] if i == 0 else rng.choice(routers), delay=0.001)
    net = ExpressNetwork(topo, hosts=hosts, wire_format=wire_format, obs=obs)
    net.run(until=0.01)
    return net, routers, hosts[1:]


def observe(case: int, with_obs: bool, reference: bool) -> dict:
    """Build, drive and photograph one scenario."""
    rng = random.Random(0xC0DE + case)
    obs = Observability() if with_obs else None
    with pytest.MonkeyPatch.context() as patch:
        if reference:
            oracle.install(patch)
        net, routers, hosts = build(rng, obs, wire_format=bool(case % 2))
        sim = net.sim
        log: list = []
        for name, agent in net.ecmp_agents.items():
            transmit = agent.sessions.transmit

            def spy(message, neighbor, *args, _name=name, _transmit=transmit):
                log.append((sim.now, "tx", _name, neighbor.name, type(message).__name__))
                _transmit(message, neighbor, *args)

            agent.sessions.transmit = spy

        source = net.source("hsrc")
        channels = [source.allocate_channel() for _ in range(2)]
        for channel in channels:
            members = rng.sample(hosts, rng.randint(2, len(hosts)))
            for name in members:
                host = net.host(name)
                host.subscribe(channel)
                if rng.random() < 0.6:  # the rest have no answer to a vote
                    host.respond_to_count(channel, VOTE_ID, lambda v=rng.randrange(5): v)
            for router in rng.sample(routers, rng.randint(1, 2)):
                net.subscriber_block(router).join(channel, rng.randint(1, 40))
        net.ecmp_agents[rng.choice(routers)].new_subscription(channels[0])
        net.settle()

        # One reply lost on one subscriber's access link, a while in.
        loser = next(n for n in hosts if net.host(n).is_subscribed(channels[0]))
        drop_after = sim.now + 2.1
        dropped = []

        def lose_one(link, sender, packet):
            if sender.name == loser and sim.now > drop_after and not dropped:
                dropped.append(sim.now)
                return ()
            return ((0.0, packet),)

        net.topo.node(loser).interfaces[0].link.mutator = lose_one

        def ask(agent, label, channel, count_id):
            def answered(total, partial):
                log.append((sim.now, "answer", label, total, partial))

            agent.count_query(channel, count_id, TIMEOUT, answered)

        at = 0.0
        for channel in channels:
            for count_id in (SUBSCRIBER_ID, VOTE_ID, LINK_COUNT_ID, TREE_SIZE_ID):
                at += 0.2
                label = (channels.index(channel), count_id)
                sim.schedule(at, lambda a=(source.ecmp, label, channel, count_id): ask(*a))
        # Restarted while pending: both callers get the second's answer.
        at += 0.2
        for k in range(2):
            sim.schedule(
                at + 0.002 * k,
                lambda k=k: ask(source.ecmp, ("again", k), channels[1], VOTE_ID),
            )
        # From the middle of the tree, without the source.
        at += 0.2
        sim.schedule(
            at, lambda: ask(net.ecmp_agents[routers[-1]], "mid", channels[0], SUBSCRIBER_ID)
        )
        # After the drop window opens: one branch never answers.
        sim.schedule(2.2, lambda: ask(source.ecmp, "lossy", channels[0], SUBSCRIBER_ID))
        net.run(until=sim.now + 2.2 + TIMEOUT + 0.5)

        assert dropped, "the lossy query met no reply to lose"
        answers = [entry for entry in log if entry[1] == "answer"]
        assert len(answers) == 2 * 4 + 2 + 1 + 1
        # The branch timed out where it was asked, and its subtree's
        # total went upstream without it (best effort, §2.1).
        totals = {entry[2]: entry[3] for entry in answers}
        assert totals["lossy"] == totals[0, SUBSCRIBER_ID] - 1
        assert sum(a.stats["query_timeouts"] for a in net.ecmp_agents.values()) == 1
        assert not any(agent.counting.pending for agent in net.ecmp_agents.values())
        seen = {
            "log": log,
            "events": sim.events_processed,
            "links": [
                (link.tx_packets, link.ecmp_wire_packets, link.ecmp_wire_bytes)
                for link in net.topo.links
            ],
            "stats": {
                name: agent.stats.as_dict() for name, agent in net.ecmp_agents.items()
            },
        }
        if obs is not None:
            seen["spans"] = [span.to_record() for span in obs.tracer.spans]
            assert any(span.name == "ecmp.count_query" for span in obs.tracer.spans)
        return seen


@pytest.mark.parametrize("with_obs", [False, True], ids=["plain", "obs"])
@pytest.mark.parametrize("case", range(N_CASES))
def test_leaf_answers_equal_the_recorded_ones(case, with_obs):
    shipped = observe(case, with_obs, reference=False)
    reference = observe(case, with_obs, reference=True)
    for what in shipped:
        assert shipped[what] == reference[what], what


def supersede_at_a_leaf(reference: bool) -> list:
    """A vote pending at ``n1`` for its own caller is restarted by the
    source's after ``n1``'s only askable neighbor has left: the restarted
    query finds a leaf (a block and nothing else) that owes an answer to
    a local caller *and* a reply upstream, in that order."""
    with pytest.MonkeyPatch.context() as patch:
        if reference:
            oracle.install(patch)
        topo = Topology()
        for name in ("hsrc", "n0", "n1", "hsub"):
            topo.add_node(name)
        for a, b in (("hsrc", "n0"), ("n0", "n1"), ("n1", "hsub")):
            topo.add_link(a, b, delay=0.001)
        net = ExpressNetwork(topo, hosts=["hsrc", "hsub"])
        net.run(until=0.01)
        sim = net.sim
        source = net.source("hsrc")
        channel = source.allocate_channel()
        net.subscriber_block("n1").join(channel, 17)
        net.host("hsub").subscribe(channel)
        net.settle()
        n1 = net.ecmp_agents["n1"]
        n1.register_count_responder(channel, VOTE_ID, lambda: 5)
        log = []
        transmit = n1.sessions.transmit

        def spy(message, neighbor, *args):
            log.append((sim.now, "tx", neighbor.name, message))
            transmit(message, neighbor, *args)

        n1.sessions.transmit = spy
        # hsub's reply to n1's own query is lost; then hsub leaves (a
        # subscriber Count, which answers no vote).
        started = sim.now
        net.topo.link_between("n1", "hsub").mutator = (
            lambda link, sender, packet: ()
            if sender.name == "hsub" and sim.now < started + 0.05
            else ((0.0, packet),)
        )
        n1.count_query(
            channel, VOTE_ID, 5.0, lambda t, p: log.append((sim.now, "n1's caller", t, p))
        )
        sim.schedule(0.1, lambda: net.host("hsub").unsubscribe(channel))
        sim.schedule(
            0.2,
            lambda: source.count_query(
                channel, VOTE_ID, 5.0,
                callback=lambda t, p: log.append((sim.now, "source's caller", t, p)),
            ),
        )
        net.run(until=sim.now + 1.0)
        assert not n1.counting.pending
        return log


def test_a_leaf_that_owes_a_caller_and_a_reply_answers_the_caller_first():
    shipped = supersede_at_a_leaf(reference=False)
    assert shipped == supersede_at_a_leaf(reference=True)
    kinds = [entry[1] for entry in shipped]
    # The forwarded query, the leaf's two debts in order, the source's.
    assert kinds == ["tx", "n1's caller", "tx", "source's caller"]
    assert shipped[1][0] == shipped[2][0]  # one instant, so the order is the code's
    assert shipped[1][2:] == (5, False) and shipped[2][3].count == 5
    assert shipped[3][2:] == (5, False)
