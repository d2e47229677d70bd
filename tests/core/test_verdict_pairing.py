"""Verdicts are paired with joins by an echoed request id.

Each forwarded join carries a small id (``Count.request_id``) that its
``CountResponse`` echoes, and the waiting ``VerdictEntry`` is found by
``(channel, id)``. Pairing by arrival order — what these scenarios fail
under — crosses verdicts whenever a router answers a later join locally
while an earlier one is still upstream, and strands an entry whenever a
verdict is lost. Long link delays hold the races open for seconds, so the
scenarios do not depend on how fast a hop forwards.
"""

import pytest

from repro import ExpressNetwork, TopologyBuilder, make_key
from repro.core.ecmp.countids import SUBSCRIBER_ID
from repro.core.ecmp.messages import MAX_REQUEST_ID, Count, CountResponse, CountStatus
from repro.core.ecmp.protocol import EcmpAgent
from repro.core.keys import ChannelKey
from repro.faults.wire import WireMutator
from tests.conftest import assert_control_plane_at_rest

BAD_KEY = ChannelKey(b"cracked!")


def keyed_line(hosts: dict[str, str], slow: float = 1.0) -> tuple:
    """hsrc - n0 -(``slow`` s)- n1 - n2 with ``hosts`` (name -> router)
    attached, and one keyed channel from hsrc."""
    topo = TopologyBuilder.line(3)
    topo.link_between("n0", "n1").delay = slow
    topo.add_node("hsrc")
    topo.add_link("hsrc", "n0", delay=0.001)
    for name, router in hosts.items():
        topo.add_node(name)
        topo.add_link(name, router, delay=0.001)
    net = ExpressNetwork(topo, hosts=["hsrc", *hosts])
    net.run(until=0.01)
    source = net.source("hsrc")
    channel = source.allocate_channel()
    key = make_key(channel)
    source.channel_key(channel, key)
    return net, source, channel, key


@pytest.mark.parametrize("first", ["bad", "good"])
def test_upstream_learning_the_key_between_two_joins_crosses_no_verdict(first):
    """Finding 2 as ``test_day_in_the_life`` trips it once joins travel
    at propagation delay: n2 forwards two joins, one with a good key
    (hA) and one with a bad key (hB), and n1 learns the key from hC's
    verdict between them.

    Bad key first: n1 cannot judge it and sends it on, then accepts the
    good one on the spot — the OK reaches n2 most of a second before the
    denial, and pairing by position would hand each to the other's host.
    Good key first: hC's request is still upstream and asks about the
    same key, so the join waits on that answer instead of sending its
    own, and n2 knows the key by the time the bad one shows up."""
    net, source, channel, key = keyed_line({"hA": "n2", "hB": "n2", "hC": "n1"})
    start = net.sim.now
    got = {name: [] for name in ("hA", "hB", "hC")}
    handles = {}

    def join(name, presented):
        handles[name] = net.host(name).subscribe(
            channel, key=presented, on_data=got[name].append
        )

    early, late = ("hB", "hA") if first == "bad" else ("hA", "hB")
    presents = {"hA": key, "hB": BAD_KEY}
    net.sim.schedule_at(start, lambda: join("hC", key))
    net.sim.schedule_at(start + 1.5, lambda: join(early, presents[early]))
    net.sim.schedule_at(start + 2.7, lambda: join(late, presents[late]))
    n1, n2 = net.ecmp_agents["n1"], net.ecmp_agents["n2"]
    net.run(until=start + 1.9)
    assert handles[early].status == "pending"
    assert len(n1.pending_verdicts[channel]) == (2 if first == "bad" else 1)
    net.run(until=start + 2.65)
    assert n1.keys.knows(channel)
    if first == "bad":
        assert not n2.keys.knows(channel)
        assert len(n2.pending_verdicts[channel]) == 1  # hB's, still upstream
        net.run(until=start + 3.0)
        assert handles["hA"].status == "active"
        assert handles["hB"].status == "pending"
    else:
        assert handles["hA"].status == "active" and n2.keys.knows(channel)
    net.run(until=start + 6.0)
    assert handles["hA"].status == "active"
    assert handles["hB"].status == "denied"
    assert handles["hC"].status == "active"
    assert set(n2.channels[channel].downstream) == {"hA"}
    assert n2.keys.get(channel) == key
    source.send(channel)
    net.settle(3.0)
    assert (len(got["hA"]), len(got["hB"]), len(got["hC"])) == (1, 0, 1)
    assert_control_plane_at_rest(net)


def test_a_join_that_shared_a_verdict_keeps_the_cached_key():
    """With real wire bytes every hop decodes its own copy of a key.
    hA's join reaches n1 while hC's, presenting the same key, is still
    upstream, so it shares hC's verdict; n1 then caches hC's copy, and
    the record it keeps for n2 holds that object rather than the copy
    hA's join brought — as every record validated against a cache
    does."""
    net, source, channel, key = keyed_line({"hA": "n2", "hC": "n1"})
    start = net.sim.now
    net.host("hC").subscribe(channel, key=key)
    net.sim.schedule_at(start + 1.5, lambda: net.host("hA").subscribe(channel, key=key))
    net.run(until=start + 1.9)
    n1 = net.ecmp_agents["n1"]
    (entry,) = n1.pending_verdicts[channel].values()
    assert [sharer.neighbor for sharer in entry.sharers] == ["n2"]
    net.settle(4.0)
    held = 0
    for name, agent in net.ecmp_agents.items():
        state = agent.channels.get(channel)
        cached = agent.keys.get(channel)
        for neighbor, record in state.downstream.items() if state else ():
            if record.presented_key is not None and cached is not None:
                assert record.presented_key is cached, (name, neighbor)
                held += 1
    assert held >= 4  # n0, n1 (twice), n2 hold a validated keyed record
    assert_control_plane_at_rest(net)


@pytest.mark.parametrize("gap", [0.02, 0.3, 1.0, 1.9])
@pytest.mark.parametrize("neighbor_stays", [False, True])
def test_leave_racing_a_keyed_verdict_leaves_nothing_behind(gap, neighbor_stays):
    """Finding 1's sequence: a host leaves a keyed channel while that
    join's verdict is still in flight (2 s here) and at once joins
    another keyed channel with a good key. The second join is accepted,
    and no record or entry of the first survives anywhere — with the
    edge router's state for the first channel torn down by the leave,
    or kept alive by a neighbour on the same router."""
    net, source, first, first_key = keyed_line({"hA": "n2", "hB": "n2"})
    second = source.allocate_channel()
    second_key = make_key(second)
    source.channel_key(second, second_key)
    host = net.host("hA")
    start = net.sim.now
    if neighbor_stays:
        neighbour = net.host("hB").subscribe(first, key=first_key)
    abandoned = host.subscribe(first, key=first_key)
    net.run(until=start + gap)
    assert abandoned.status == "pending"
    host.unsubscribe(first)
    wanted = host.subscribe(second, key=second_key)
    net.settle(6.0)
    assert wanted.status == "active"
    members = {"hB"} if neighbor_stays else set()
    for name in ("n0", "n1", "n2"):
        state = net.ecmp_agents[name].channels.get(first)
        assert (state is not None) == neighbor_stays, name
    assert set(net.ecmp_agents["n2"].channels[second].downstream) == {"hA"}
    if neighbor_stays:
        assert neighbour.status == "active"
        assert set(net.ecmp_agents["n2"].channels[first].downstream) == members
    assert_control_plane_at_rest(net)


def test_a_verdict_lost_on_a_udp_link_is_repaired_by_the_next_refresh(monkeypatch):
    """``test_dataplane_equivalence.py`` case 1 under the new timing:
    the OK datagram toward a UDP-mode host is lost, and the host's next
    refresh — a Count for a record the router already holds — repeats
    the unanswered request id and is answered again."""
    monkeypatch.setattr(EcmpAgent, "UDP_QUERY_INTERVAL", 1.0)
    topo = TopologyBuilder.line(2)
    for name, router in (("hsrc", "n0"), ("hsub", "n1")):
        topo.add_node(name)
        topo.add_link(name, router, delay=0.001)
    net = ExpressNetwork(topo, hosts=["hsrc", "hsub"], edge_udp=True)
    net.run(until=0.01)
    source = net.source("hsrc")
    channel = source.allocate_channel()
    key = make_key(channel)
    source.channel_key(channel, key)
    start = net.sim.now
    handle = net.host("hsub").subscribe(channel, key=key)
    # The join is on the wire; everything n1 sends back for the next
    # half second is dropped, the verdict included.
    dropper = WireMutator(net.sim.rng, drop=1.0, start=start + 0.0015, end=start + 0.5)
    access = topo.link_between("hsub", "n1")
    dropper.install(access)
    net.run(until=start + 0.6)
    dropper.remove(access)
    host = net.ecmp_agents["hsub"]
    assert dropper.stats["dropped"] >= 1
    assert handle.status == "pending" and len(host.pending_verdicts[channel]) == 1
    record = net.ecmp_agents["n1"].channels[channel].downstream["hsub"]
    assert record.count == 1 and record.validated  # n1 did say yes
    answered = net.ecmp_agents["n1"].stats.get("tx_countresponse")
    net.run(until=start + 2.5)  # past n1's next general queries
    assert handle.status == "active"
    assert net.ecmp_agents["n1"].stats.get("tx_countresponse") == answered + 1
    assert_control_plane_at_rest(net)
    # Answered once more and no further: later refreshes carry no id.
    net.settle(3.0)
    assert net.ecmp_agents["n1"].stats.get("tx_countresponse") == answered + 1


def test_a_second_answer_to_a_settled_request_changes_nothing():
    """Duplicated verdicts (a repeated request answered twice, a frame
    duplicated on the wire) are idempotent: the id no longer names an
    entry, so neither an OK nor a denial is applied to anyone — where
    pairing by position would have handed a stray denial to whichever
    join came next, or torn down the newest keyless record."""
    net, source, channel, key = keyed_line({"hA": "n2", "hB": "n2"}, slow=0.001)
    keyed = net.host("hA").subscribe(channel, key=key)
    net.settle()
    assert keyed.status == "active"
    n2, host = net.ecmp_agents["n2"], net.ecmp_agents["hA"]

    def records():
        return {
            name: (r.count, r.validated)
            for name, r in n2.channels[channel].downstream.items()
        }

    before, sent = records(), n2.stats.get("msgs_tx")
    for status in (CountStatus.INVALID_AUTHENTICATOR, CountStatus.OK):
        stale = CountResponse(channel, SUBSCRIBER_ID, status, request_id=7)
        host._handle_response(stale, "n2")
        n2._handle_response(stale, "n1")
    assert keyed.status == "active" and channel in host.channels
    assert records() == before and n2.stats.get("msgs_tx") == sent
    assert_control_plane_at_rest(net)


def test_a_channel_with_every_request_id_in_flight_refuses_the_next_join():
    """The id space bounds the *different* keys one node can be asking
    about on one channel (joins presenting one key share an id, so an
    honest crowd needs one). A host presenting forged key after forged
    key fills n2's table for the channel; every Count after the last
    free id is undone and refused on the spot and counted, the first
    denial from upstream takes the forger's record and with it the
    channel's state and table, and nothing is left — a good key is then
    taken as usual."""
    net, source, channel, key = keyed_line({"hA": "n2", "hB": "n2"})
    n2, forger = net.ecmp_agents["n2"], net.ecmp_agents["hA"]
    flood = MAX_REQUEST_ID + 9
    for i in range(flood):
        forged = ChannelKey(i.to_bytes(8, "big"))
        forger._send_message(Count(channel, SUBSCRIBER_ID, 1, forged), "n2")
    net.settle(0.2)
    assert sorted(n2.pending_verdicts[channel]) == list(range(1, MAX_REQUEST_ID + 1))
    assert n2.stats.get("verdict_table_full") == flood - MAX_REQUEST_ID
    assert forger.stats.get("responses_rx") == flood - MAX_REQUEST_ID
    net.settle(6.0)
    assert forger.stats.get("responses_rx") == flood - MAX_REQUEST_ID + 1
    assert channel not in n2.channels
    assert_control_plane_at_rest(net)
    late = net.host("hB").subscribe(channel, key=key)
    net.settle(6.0)
    assert late.status == "active"
    assert_control_plane_at_rest(net)


def crowd_below_one_router(edges: int, per_edge: int) -> tuple:
    """hsrc - n0 -(1 s)- n1 with ``edges`` edge routers below n1 and
    ``per_edge`` hosts on each; one keyed channel from hsrc."""
    topo = TopologyBuilder.line(2)
    topo.link_between("n0", "n1").delay = 1.0
    topo.add_node("hsrc")
    topo.add_link("hsrc", "n0", delay=0.001)
    hosts = []
    for e in range(edges):
        topo.add_node(f"e{e}")
        topo.add_link(f"e{e}", "n1", delay=0.001)
        for h in range(per_edge):
            hosts.append(f"h{e}_{h}")
            topo.add_node(hosts[-1])
            topo.add_link(hosts[-1], f"e{e}", delay=0.001)
    net = ExpressNetwork(topo, hosts=["hsrc", *hosts])
    net.run(until=0.01)
    source = net.source("hsrc")
    channel = source.allocate_channel()
    key = make_key(channel)
    source.channel_key(channel, key)
    return net, source, channel, key, hosts


@pytest.mark.parametrize("forgers", [0, 1, 2])
def test_a_flash_crowd_presenting_one_key_takes_one_request_id(forgers):
    """The authenticated live event: far more hosts than there are
    request ids join one keyed channel in one instant, below one transit
    router that cannot judge the key. Joins presenting a key that is
    already being asked about wait on that answer, so the crowd holds
    one id at every router however large it is, and every good key is
    accepted — with one forger per edge router presenting one bad key,
    or each their own, those cost an id apiece and are refused."""
    net, source, channel, key, hosts = crowd_below_one_router(edges=4, per_edge=10)
    assert len(hosts) > MAX_REQUEST_ID
    bad = {
        name: BAD_KEY if forgers == 1 else ChannelKey(name.encode().ljust(8, b"!"))
        for name in hosts
        if forgers and name.endswith("_3")
    }
    got = {name: [] for name in hosts}
    handles = {
        name: net.host(name).subscribe(
            channel, key=bad.get(name, key), on_data=got[name].append
        )
        for name in hosts
    }
    net.run(until=net.sim.now + 0.5)
    n1 = net.ecmp_agents["n1"]
    in_flight = {0: 1, 1: 2, 2: 1 + len(bad)}[forgers]
    assert len(n1.pending_verdicts[channel]) == in_flight
    assert len(net.ecmp_agents["e0"].pending_verdicts[channel]) == (2 if forgers else 1)
    assert all(handle.status == "pending" for handle in handles.values())
    net.settle(6.0)
    for name, handle in handles.items():
        assert handle.status == ("denied" if name in bad else "active"), name
    assert not any(a.stats.get("verdict_table_full") for a in net.ecmp_agents.values())
    source.send(channel)
    net.settle(3.0)
    assert {name for name, packets in got.items() if packets} == set(hosts) - set(bad)
    assert_control_plane_at_rest(net)


def test_a_denial_lost_on_a_udp_link_is_repaired_by_the_next_refresh(monkeypatch):
    """The lost-verdict repair when the verdict was a no: the router
    rolled the join back and dropped the host's record, and the host —
    kept on the router's refresh list by a second channel — repeats the
    request, is refused again, and undoes exactly what the join did:
    the count it advertised goes back to zero and the state is
    collected, not left standing on nothing."""
    monkeypatch.setattr(EcmpAgent, "UDP_QUERY_INTERVAL", 1.0)
    topo = TopologyBuilder.line(2)
    for name, router in (("hsrc", "n0"), ("hsub", "n1")):
        topo.add_node(name)
        topo.add_link(name, router, delay=0.001)
    net = ExpressNetwork(topo, hosts=["hsrc", "hsub"], edge_udp=True)
    net.run(until=0.01)
    source = net.source("hsrc")
    open_channel = source.allocate_channel()
    channel = source.allocate_channel()
    source.channel_key(channel, make_key(channel))
    keeps_the_refresh_coming = net.host("hsub").subscribe(open_channel)
    net.settle()
    start = net.sim.now
    handle = net.host("hsub").subscribe(channel, key=BAD_KEY)
    dropper = WireMutator(net.sim.rng, drop=1.0, start=start + 0.0015, end=start + 0.5)
    access = topo.link_between("hsub", "n1")
    dropper.install(access)
    net.run(until=start + 0.6)
    dropper.remove(access)
    host, n1 = net.ecmp_agents["hsub"], net.ecmp_agents["n1"]
    assert dropper.stats["dropped"] >= 1
    assert handle.status == "pending" and len(host.pending_verdicts[channel]) == 1
    assert channel not in n1.channels  # n1 did say no, and undid the join
    net.run(until=start + 2.5)  # past n1's next general queries
    assert handle.status == "denied"
    assert channel not in host.channels and channel not in n1.channels
    assert keeps_the_refresh_coming.status == "active"
    assert_control_plane_at_rest(net)


@pytest.mark.parametrize("first", ["bad", "good"])
def test_a_rehome_with_a_good_and_a_bad_verdict_in_flight(first):
    """n2 hangs below n0 by two one-second paths and prefers the one
    through ``a``. Two hosts join a keyed channel, one key good and one
    bad, and the link to ``a`` fails with both verdicts in flight. n2
    replays the joins at ``b``, each Count adding its own join's share
    to the total, so the denial takes back the denied join and nothing
    else: the good key is accepted *and gets data*, and nothing is left
    behind. (Replayed as two Counts of the full total, a bad key tabled
    first would own all of it at ``b``, and its denial would take the
    record, the state and the good key's entry with it.)"""
    topo = TopologyBuilder.line(1)  # n0
    for name, peer, delay in (
        ("hsrc", "n0", 0.001),
        ("a", "n0", 1.0),
        ("b", "n0", 1.0),
        ("n2", "a", 0.001),
        ("hA", "n2", 0.001),
        ("hB", "n2", 0.001),
    ):
        topo.add_node(name)
        topo.add_link(name, peer, delay=delay)
    topo.add_link("n2", "b", delay=0.002)
    net = ExpressNetwork(topo, hosts=["hsrc", "hA", "hB"])
    net.run(until=0.01)
    source = net.source("hsrc")
    channel = source.allocate_channel()
    key = make_key(channel)
    source.channel_key(channel, key)
    got = {"hA": [], "hB": []}
    presents = {"hA": key, "hB": BAD_KEY}
    handles = {
        name: net.host(name).subscribe(
            channel, key=presents[name], on_data=got[name].append
        )
        for name in (("hB", "hA") if first == "bad" else ("hA", "hB"))
    }
    net.run(until=net.sim.now + 0.5)
    n2 = net.ecmp_agents["n2"]
    assert n2.channels[channel].upstream == "a"
    assert len(n2.pending_verdicts[channel]) == 2
    topo.link_between("n2", "a").fail()
    net.run(until=net.sim.now + 0.1)
    assert n2.channels[channel].upstream == "b"
    assert len(n2.pending_verdicts[channel]) == 2  # asked again, at b
    net.settle(8.0)
    assert handles["hA"].status == "active"
    assert handles["hB"].status == "denied"
    source.send(channel)
    net.settle(3.0)
    assert (len(got["hA"]), len(got["hB"])) == (1, 0)
    assert set(n2.channels[channel].downstream) == {"hA"}
    assert_control_plane_at_rest(net)


def test_a_replay_raises_the_total_by_each_join_a_repeat_changes_nothing():
    """What ``_reannounce`` sends, and what it leaves in the entries.
    n2 holds a subscriber who joined before the source installed the
    key (so no router learned it) and two keyed joins in flight. A
    refresh goes to an upstream that has n2's record: every request is
    repeated with the total it knows, and the entries keep the deltas
    they were tabled with — the upstream subtracts those, and so must
    n2. A replay goes to one that has nothing: the settled part first,
    under no id, then each join on top of it, the entries re-noting the
    deltas the new upstream will see."""
    net, source, _, _ = keyed_line({"hA": "n2", "hB": "n2", "hV": "n2"})
    n2 = net.ecmp_agents["n2"]
    channel = source.allocate_channel()
    net.host("hV").subscribe(channel)
    net.settle(6.0)
    key = make_key(channel)
    source.channel_key(channel, key)
    net.host("hB").subscribe(channel, key=BAD_KEY)
    net.host("hA").subscribe(channel, key=key)
    net.run(until=net.sim.now + 0.5)
    state = n2.channels[channel]
    table = n2.pending_verdicts[channel]
    (bad_id, bad), (good_id, good) = table.items()
    deltas = lambda: [(e.prior_advertised, e.sent_count) for e in (bad, good)]
    assert deltas() == [(1, 2), (2, 3)] and state.advertised == 3
    sent = []
    n2._send_message = lambda message, neighbor, **_: sent.append(
        (message.count, message.key, message.request_id)
    )
    n2._reannounce(state)
    assert sent == [(3, BAD_KEY, bad_id), (3, key, good_id)]
    assert deltas() == [(1, 2), (2, 3)] and state.advertised == 3
    del sent[:]
    n2._reannounce(state, fresh=True)
    assert sent == [(1, None, 0), (2, BAD_KEY, bad_id), (3, key, good_id)]
    assert deltas() == [(1, 2), (2, 3)] and state.advertised == 3
    # With the bad key's host gone its join stands on nothing, and its
    # Count still goes (the verdict is owed) but adds nothing.
    n2._drop_record(state, "hB")
    del sent[:]
    n2._reannounce(state, fresh=True)
    assert sent == [(1, None, 0), (1, BAD_KEY, bad_id), (2, key, good_id)]
    assert deltas() == [(1, 1), (1, 2)] and state.advertised == 2
