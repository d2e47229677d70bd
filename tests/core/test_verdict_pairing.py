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
from repro.core.ecmp.verdicts import Verdicts
from repro.core.keys import ChannelKey
from repro.faults import FaultInjector, FaultMonitor, FaultPlan
from repro.faults.wire import WireMutator
from tests.conftest import assert_control_plane_at_rest, settled_keyless_isp

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
    assert len(n1.verdicts.pending[channel]) == (2 if first == "bad" else 1)
    net.run(until=start + 2.65)
    assert n1.keys.knows(channel)
    if first == "bad":
        assert not n2.keys.knows(channel)
        assert len(n2.verdicts.pending[channel]) == 1  # hB's, still upstream
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
    (entry,) = n1.verdicts.pending[channel].values()
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
    assert handle.status == "pending" and len(host.verdicts.pending[channel]) == 1
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
        host.verdicts.on_response(stale, "n2")
        n2.verdicts.on_response(stale, "n1")
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
    assert sorted(n2.verdicts.pending[channel]) == list(range(1, MAX_REQUEST_ID + 1))
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
    assert len(n1.verdicts.pending[channel]) == in_flight
    assert len(net.ecmp_agents["e0"].verdicts.pending[channel]) == (2 if forgers else 1)
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
    assert handle.status == "pending" and len(host.verdicts.pending[channel]) == 1
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
    assert len(n2.verdicts.pending[channel]) == 2
    topo.link_between("n2", "a").fail()
    net.run(until=net.sim.now + 0.1)
    assert n2.channels[channel].upstream == "b"
    assert len(n2.verdicts.pending[channel]) == 2  # asked again, at b
    net.settle(8.0)
    assert handles["hA"].status == "active"
    assert handles["hB"].status == "denied"
    source.send(channel)
    net.settle(3.0)
    assert (len(got["hA"]), len(got["hB"])) == (1, 0)
    assert set(n2.channels[channel].downstream) == {"hA"}
    assert_control_plane_at_rest(net)


def test_a_replay_raises_the_total_by_each_join_a_repeat_changes_nothing():
    """What ``Verdicts.reannounce`` sends, and what it leaves in the entries.
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
    table = n2.verdicts.pending[channel]
    (bad_id, bad), (good_id, good) = table.items()
    deltas = lambda: [e.sent_delta for e in (bad, good)]
    assert deltas() == [2 - 1, 3 - 2] and state.advertised == 3
    sent = []
    n2._send_message = lambda message, neighbor, **_: sent.append(
        (message.count, message.key, message.request_id)
    )
    n2.verdicts.reannounce(state)
    assert sent == [(3, BAD_KEY, bad_id), (3, key, good_id)]
    assert deltas() == [2 - 1, 3 - 2] and state.advertised == 3
    del sent[:]
    n2.verdicts.reannounce(state, fresh=True)
    assert sent == [(1, None, 0), (2, BAD_KEY, bad_id), (3, key, good_id)]
    assert deltas() == [2 - 1, 3 - 2] and state.advertised == 3
    # With the bad key's host gone its join stands on nothing, and its
    # Count still goes (the verdict is owed) but adds nothing.
    n2._drop_record(state, "hB")
    del sent[:]
    n2.verdicts.reannounce(state, fresh=True)
    assert sent == [(1, None, 0), (1, BAD_KEY, bad_id), (2, key, good_id)]
    assert deltas() == [1 - 1, 2 - 1] and state.advertised == 2


# ---------------------------------------------------------------------------
# keyless replays under id 0: untabled, and answered only when refused
# ---------------------------------------------------------------------------


def open_line_then_keyed() -> tuple:
    """hsrc - n0 - n1 - n2 - hV: hV joins an open channel, and once
    that has settled the source installs a key — so no router knows it,
    and every record on the path is keyless."""
    topo = TopologyBuilder.line(3)
    for name, router in (("hsrc", "n0"), ("hV", "n2")):
        topo.add_node(name)
        topo.add_link(name, router, delay=0.001)
    net = ExpressNetwork(topo, hosts=["hsrc", "hV"])
    net.run(until=0.01)
    source = net.source("hsrc")
    channel = source.allocate_channel()
    handle = net.host("hV").subscribe(channel)
    net.settle()
    source.channel_key(channel, make_key(channel))
    return net, channel, handle


def denials(net) -> dict[str, int]:
    return {
        name: agent.stats.get("denied_subscriptions")
        for name, agent in net.ecmp_agents.items()
        if agent.stats.get("denied_subscriptions")
    }


def test_a_denial_under_id_0_is_counted_at_every_hop_it_tears_down():
    """n1 refuses n2's record under id 0, as it refuses a replay no
    entry waits on. n2 holds no entry for it: it tears down the keyless
    record the refused Count stood on and counts the denial, as a
    matched denial or a local refusal would, and so does hV below it."""
    net, channel, handle = open_line_then_keyed()
    refusal = CountResponse(channel, SUBSCRIBER_ID, CountStatus.INVALID_AUTHENTICATOR)
    net.ecmp_agents["n1"]._send_message(refusal, "n2")
    net.settle()
    assert handle.status == "denied"
    assert denials(net) == {"n2": 1, "hV": 1}
    assert not any(channel in agent.channels for agent in net.ecmp_agents.values())
    assert_control_plane_at_rest(net)


def record_verdict_traffic(net, monkeypatch) -> tuple[list, list]:
    """Wrap every agent's send and the class's ``forward_join``: the
    returned lists fill with the CountResponses sent under id 0, and
    with the ``(node, channel)`` of every join forwarded with an entry."""
    under_id_0, tabled = [], []
    for name, agent in net.ecmp_agents.items():

        def send(message, neighbor, *args, _send=agent._send_message, _name=name, **kwargs):
            if type(message) is CountResponse and message.request_id == 0:
                under_id_0.append((_name, neighbor, message.status.name))
            _send(message, neighbor, *args, **kwargs)

        agent._send_message = send
    forward_join = Verdicts.forward_join

    def forward_and_note(self, state, count, key, entry):
        if entry is not None:
            tabled.append((self._agent.node.name, state.channel))
        forward_join(self, state, count, key, entry)

    monkeypatch.setattr(Verdicts, "forward_join", forward_and_note)
    return under_id_0, tabled


def test_a_transit_flap_replays_its_joins_untabled_and_unanswered(monkeypatch):
    """(a) A t0-t1 flap in a settled keyless network re-homes the
    channels whose path crossed it, there and back after the
    hysteresis. Every replay goes upstream under id 0: no router tables
    an entry for one, nobody sends a CountResponse under id 0, and every
    member still gets the next packet."""
    net, channels = settled_keyless_isp()
    under_id_0, tabled = record_verdict_traffic(net, monkeypatch)
    upstreams = {
        (name, channel): state.upstream
        for name, agent in net.ecmp_agents.items()
        for channel, state in agent.channels.items()
    }
    link = net.topo.link_between("t0", "t1")
    link.fail()
    net.settle(0.5)
    assert any(  # the flap moved trees
        net.ecmp_agents[name].channels[channel].upstream != upstream
        for (name, channel), upstream in upstreams.items()
    )
    assert (tabled, under_id_0) == ([], [])
    link.recover()
    net.settle(2 * EcmpAgent.HYSTERESIS + 1.0)
    assert (tabled, under_id_0) == ([], [])
    assert all(net.ecmp_agents[n].channels[c].upstream == u for (n, c), u in upstreams.items())
    assert_control_plane_at_rest(net)
    members = {
        (name, channel): handle
        for name, agent in net.ecmp_agents.items()
        for channel, handle in agent.subscriptions.items()
    }
    assert len(members) == 3 * len(channels)
    for channel in channels:
        net.source(net.topo.node_by_address(channel.source).name).send(channel)
    net.settle()
    assert all(handle.packets_received == 1 for handle in members.values())


def two_parents() -> tuple:
    """n2 hangs below n0 through ``a`` and, once that link fails,
    through ``b``; hsrc sources one channel at n0, and hV sits on n2."""
    topo = TopologyBuilder.line(1)  # n0
    for name, peer, delay in (
        ("hsrc", "n0", 0.001),
        ("a", "n0", 0.001),
        ("b", "n0", 0.001),
        ("n2", "a", 0.001),
        ("hV", "n2", 0.001),
    ):
        topo.add_node(name)
        topo.add_link(name, peer, delay=delay)
    topo.add_link("n2", "b", delay=0.002)
    net = ExpressNetwork(topo, hosts=["hsrc", "hV"])
    net.run(until=0.01)
    source = net.source("hsrc")
    return net, source, source.allocate_channel()


def test_a_keyed_rehome_is_answered_under_the_id_its_new_parent_asked_with(monkeypatch):
    """n2 learned the key from hV's verdict, and its replay at ``b``
    presents it under id 0. b cannot judge the key and asks n0 under an
    id of its own; n0 knows it and says yes. b learns the key and keeps
    the OK: n2 waits on nothing, so no CountResponse goes out under id 0."""
    net, source, channel = two_parents()
    key = make_key(channel)
    source.channel_key(channel, key)
    handle = net.host("hV").subscribe(channel, key=key)
    net.settle()
    assert handle.status == "active" and net.ecmp_agents["n2"].keys.knows(channel)
    under_id_0, tabled = record_verdict_traffic(net, monkeypatch)
    net.topo.link_between("n2", "a").fail()
    net.settle(3.0)
    assert ("b", channel) in tabled and under_id_0 == []
    assert net.ecmp_agents["b"].keys.get(channel) == key
    source.send(channel)
    net.settle()
    assert handle.packets_received == 1
    assert_control_plane_at_rest(net)


def test_a_keyless_rehome_refused_above_a_parent_without_the_key():
    """(b) hV joined n2's channel while it was open; the source then
    installed a key, which no router knows. When n2's link to ``a``
    fails its keyless replay goes on under id 0 through b and n0, which
    lack the key, to the source, which refuses it. No entry stood for it
    anywhere, so each hop tears down the keyless record the replay stood
    on, counts the denial and passes it down; nothing is left, and
    nothing is orphaned."""
    net, source, channel = two_parents()
    handle = net.host("hV").subscribe(channel)
    net.settle()
    source.channel_key(channel, make_key(channel))
    topo = net.topo
    n2 = net.ecmp_agents["n2"]
    assert n2.channels[channel].upstream == "a" and handle.status == "active"
    topo.link_between("n2", "a").fail()
    net.settle(0.002)
    assert n2.channels[channel].upstream == "b"
    assert not n2.verdicts.pending  # the replay waits on nothing
    net.settle(3.0)
    assert handle.status == "denied"
    assert denials(net) == {"hsrc": 1, "n0": 1, "b": 1, "n2": 1, "hV": 1}
    assert not any(channel in agent.channels for agent in net.ecmp_agents.values())
    assert FaultMonitor(net).orphaned_state() == 0
    assert_control_plane_at_rest(net)


def test_a_refused_replay_takes_the_keyless_records_absorbed_beside_it():
    """(c) n1 restarts empty below n0, one second away, and its two
    children replay their keyless records on a channel keyed since they
    joined: the first replay n1 forwards under id 0, the second it
    absorbs into the tree it now thinks it is on. The source refuses the
    one Count, and that refusal is the verdict on both: each child is
    told, every host is denied, and n1 holds nothing on the channel."""
    topo = TopologyBuilder.line(2)  # n0 - n1
    topo.link_between("n0", "n1").delay = 1.0
    for name, peer in (("hsrc", "n0"), ("c1", "n1"), ("c2", "n1"), ("hA", "c1"), ("hB", "c2")):
        topo.add_node(name)
        topo.add_link(name, peer, delay=0.001)
    net = ExpressNetwork(topo, hosts=["hsrc", "hA", "hB"])
    net.run(until=0.01)
    source = net.source("hsrc")
    channel = source.allocate_channel()
    handles = [net.host(name).subscribe(channel) for name in ("hA", "hB")]
    net.settle(3.0)
    source.channel_key(channel, make_key(channel))
    start = net.sim.now
    FaultInjector(net, FaultPlan().crash_restart(start + 0.1, "n1", downtime=0.5)).arm()
    net.run(until=start + 0.7)
    n1 = net.ecmp_agents["n1"]
    state = n1.channels[channel]
    assert sorted(state.downstream) == ["c1", "c2"] and state.advertised == 1
    assert not n1.verdicts.pending
    net.settle(6.0)
    assert [handle.status for handle in handles] == ["denied", "denied"]
    assert {name: denials(net).get(name) for name in ("n1", "c1", "c2", "hA", "hB")} == {
        "n1": 2, "c1": 1, "c2": 1, "hA": 1, "hB": 1
    }
    assert not any(channel in agent.channels for agent in net.ecmp_agents.values())
    assert FaultMonitor(net).orphaned_state() == 0
    assert_control_plane_at_rest(net)


def open_line(hosts: dict[str, str]) -> tuple:
    """hsrc - n0 - n1 - n2 with ``hosts`` (name -> router) attached, and
    the source's handle: every channel on it stays open."""
    topo = TopologyBuilder.line(3)
    for name, router in (("hsrc", "n0"), *hosts.items()):
        topo.add_node(name)
        topo.add_link(name, router, delay=0.001)
    net = ExpressNetwork(topo, hosts=["hsrc", *hosts])
    net.run(until=0.01)
    return net, net.source("hsrc")


def test_a_reconnect_dump_replays_its_joins_untabled_and_unanswered(monkeypatch):
    """The n0-n1 session drops and comes back inside one instant, before
    routing recomputes: n1 keeps its upstream, and n0, which dropped
    n1's records with the session, gets them back from n1's reconnect
    dump (§3.2). The dump replays each join under id 0: no router
    tables an entry for one, nobody answers one, and the counts and the
    packets are back."""
    net, source = open_line({"hV": "n2"})
    channels = [source.allocate_channel() for _ in range(3)]
    handles = [net.host("hV").subscribe(channel) for channel in channels]
    net.settle()
    under_id_0, tabled = record_verdict_traffic(net, monkeypatch)
    n0, n1 = net.ecmp_agents["n0"], net.ecmp_agents["n1"]
    link = net.topo.link_between("n0", "n1")
    link.fail()
    link.recover()
    net.settle()
    assert n1.stats["resync_counts"] == len(channels)
    assert (tabled, under_id_0) == ([], [])
    assert all(n0.subscriber_count_estimate(channel) == 1 for channel in channels)
    for channel in channels:
        source.send(channel)
    net.settle()
    assert [handle.packets_received for handle in handles] == [1, 1, 1]
    assert_control_plane_at_rest(net)


def record_responses(net) -> list:
    """Wrap every agent's send: the returned list fills with the
    ``(node, neighbor, status, request id)`` of every CountResponse."""
    sent = []
    for name, agent in net.ecmp_agents.items():

        def send(message, neighbor, *args, _send=agent._send_message, _name=name, **kwargs):
            if type(message) is CountResponse:
                sent.append((_name, neighbor, message.status.name, message.request_id))
            _send(message, neighbor, *args, **kwargs)

        agent._send_message = send
    return sent


def test_a_keyless_local_join_is_tabled_nowhere_and_answered_nowhere(monkeypatch):
    """Nobody waits on a host's keyless subscription: its handle is
    active when ``subscribe`` returns. hV tables nothing, and neither
    does any router its join passes: the join goes up to the source
    under id 0, and no CountResponse comes down."""
    net, source = open_line({"hV": "n2"})
    channel = source.allocate_channel()
    _, tabled = record_verdict_traffic(net, monkeypatch)
    responses = record_responses(net)
    handle = net.host("hV").subscribe(channel)
    assert handle.status == "active"
    net.settle()
    assert (tabled, responses) == ([], [])
    assert all(channel in net.ecmp_agents[name].channels for name in ("hV", "n2", "n1", "n0"))
    source.send(channel)
    net.settle()
    assert (handle.status, handle.packets_received) == ("active", 1)
    assert_control_plane_at_rest(net)


def test_a_keyed_local_join_is_tabled_and_answered_under_its_ids_at_every_hop(monkeypatch):
    """A keyed subscription is waited on: hV tables its LOCAL join, and
    every router that forwards it (none knows the key) tables it under
    an id of its own, so each verdict comes back under the id its hop
    asked with — never under 0 — and hV's handle goes active on the
    relayed OK."""
    net, source = open_line({"hV": "n2"})
    channel = source.allocate_channel()
    key = make_key(channel)
    source.channel_key(channel, key)
    under_id_0, tabled = record_verdict_traffic(net, monkeypatch)
    responses = record_responses(net)
    handle = net.host("hV").subscribe(channel, key=key)
    assert handle.status == "pending"
    net.settle()
    assert tabled == [(name, channel) for name in ("hV", "n2", "n1", "n0")]
    assert under_id_0 == []
    hops = [("hsrc", "n0"), ("n0", "n1"), ("n1", "n2"), ("n2", "hV")]
    assert [(node, below, status) for node, below, status, _ in responses] == [
        (node, below, "OK") for node, below in hops
    ]
    assert all(request_id for *_, request_id in responses)
    assert handle.status == "active"
    assert not any(agent.verdicts.pending for agent in net.ecmp_agents.values())
    assert_control_plane_at_rest(net)


def test_a_stray_ok_under_id_0_confirms_no_join_in_flight():
    """n1 forwards hA's join with a bad key over the slow link under an
    id of its own. An OK under id 0 reaches n1 while that join is still
    upstream: it matches no entry, so hA's record at n2 and n2's at n1
    stay unvalidated and n1's entry waits on. The source's refusal,
    under the id n1 asked with, then denies hA."""
    net, source, channel, key = keyed_line({"hA": "n2"})
    start = net.sim.now
    handle = net.host("hA").subscribe(channel, key=BAD_KEY)
    net.run(until=start + 0.1)  # at n1, not yet over the slow link
    n1, n2 = net.ecmp_agents["n1"], net.ecmp_agents["n2"]
    assert len(n1.verdicts.pending[channel]) == 1
    stray = CountResponse(channel, SUBSCRIBER_ID, CountStatus.OK)
    net.ecmp_agents["n0"]._send_message(stray, "n1")
    net.run(until=start + 1.5)  # the stray is in; the verdict is not
    assert len(n1.verdicts.pending[channel]) == 1
    assert not n1.channels[channel].downstream["n2"].validated
    assert not n2.channels[channel].downstream["hA"].validated
    assert handle.status == "pending"
    net.settle(3.0)
    assert handle.status == "denied"
    assert not any(channel in agent.channels for agent in net.ecmp_agents.values())
    assert_control_plane_at_rest(net)


def test_a_denial_under_id_0_spares_the_keyed_records_beside_it():
    """hV joined n2's channel while it was open, hW once the source had
    installed the key, presenting it. A refusal under id 0 stood on no
    keyed record: n2 tears down hV's keyless record alone and counts one
    denial, and hW keeps its subscription and its packets."""
    net, source = open_line({"hV": "n2", "hW": "n2"})
    channel = source.allocate_channel()
    keyless = net.host("hV").subscribe(channel)
    net.settle()
    key = make_key(channel)
    source.channel_key(channel, key)
    keyed = net.host("hW").subscribe(channel, key=key)
    net.settle()
    assert (keyless.status, keyed.status) == ("active", "active")
    refusal = CountResponse(channel, SUBSCRIBER_ID, CountStatus.INVALID_AUTHENTICATOR)
    net.ecmp_agents["n1"]._send_message(refusal, "n2")
    net.settle()
    assert (keyless.status, keyed.status) == ("denied", "active")
    assert denials(net) == {"n2": 1, "hV": 1}
    assert list(net.ecmp_agents["n2"].channels[channel].downstream) == ["hW"]
    source.send(channel)
    net.settle()
    assert keyed.packets_received == 1
    assert_control_plane_at_rest(net)


def test_a_denial_from_below_tears_nothing_down():
    """Only a node's upstream judges its joins: a refusal under id 0
    that n2 hears from hV, below it, matches nothing and changes
    nothing, and hV keeps its subscription."""
    net, channel, handle = open_line_then_keyed()
    refusal = CountResponse(channel, SUBSCRIBER_ID, CountStatus.INVALID_AUTHENTICATOR)
    net.ecmp_agents["hV"]._send_message(refusal, "n2")
    net.settle()
    assert handle.status == "active"
    assert denials(net) == {}
    assert list(net.ecmp_agents["n2"].channels[channel].downstream) == ["hV"]
    assert_control_plane_at_rest(net)


# ---------------------------------------------------------------------------
# keyless joins beside a verdict in flight (§3.5)
# ---------------------------------------------------------------------------


def test_a_keyless_join_waits_on_the_keyed_verdict_in_flight_and_is_refused():
    """(a) ha joins the keyed channel with the good key, and hb joins
    keyless 1 ms later, while ha's verdict is still upstream of n2. n2
    cannot tell whether the channel is keyed, so it does not let hb on
    at once: hb's record waits on ha's verdict, unvalidated. The OK
    teaches n2 the key, and hb is refused under id 0 — its handle turns
    denied once, having received nothing — while ha is active."""
    net, source, channel, key = keyed_line({"ha": "n2", "hb": "n2"})
    start = net.sim.now
    told = []
    good = net.host("ha").subscribe(channel, key=key)
    net.run(until=start + 0.001)
    keyless = net.host("hb").subscribe(channel, on_status=lambda h: told.append(h.status))
    net.run(until=start + 0.1)
    n2 = net.ecmp_agents["n2"]
    assert not n2.channels[channel].downstream["hb"].validated
    assert keyless.status == "active" and told == []
    net.settle(3.0)
    assert (good.status, keyless.status, told) == ("active", "denied", ["denied"])
    assert denials(net) == {"n2": 1, "hb": 1}
    assert list(n2.channels[channel].downstream) == ["ha"]
    source.send(channel)
    net.settle(2.0)  # over the slow link
    assert (good.packets_received, keyless.packets_received) == (1, 0)
    assert_control_plane_at_rest(net)


@pytest.mark.parametrize("first", ["forged", "genuine"])
def test_a_keyless_join_beside_two_keys_in_flight_is_refused_in_either_order(first):
    """hF presents a forged key and hK the channel's, in either order,
    and hL joins keyless at n2 while both are upstream. hL waits on the
    first key asked about; if that one is refused, it waits on the other
    rather than riding the tree past a key still unchecked — so the OK
    refuses it whichever verdict comes first."""
    net, source, channel, key = keyed_line({"hF": "n2", "hK": "n2", "hL": "n2"})
    start = net.sim.now
    joins = [("hF", BAD_KEY), ("hK", key)]
    handles = {}
    for name, presented in joins if first == "forged" else joins[::-1]:
        handles[name] = net.host(name).subscribe(channel, key=presented)
        net.run(until=net.sim.now + 0.01)
    handles["hL"] = net.host("hL").subscribe(channel)
    net.run(until=start + 0.1)
    assert len(net.ecmp_agents["n2"].verdicts.pending[channel]) == 2
    net.settle(5.0)
    source.send(channel)
    net.settle(2.0)  # over the slow link
    assert {name: (h.status, h.packets_received) for name, h in handles.items()} == {
        "hF": ("denied", 0), "hK": ("active", 1), "hL": ("denied", 0)
    }
    assert_control_plane_at_rest(net)


def test_a_keyless_join_refused_when_the_key_was_learned_beside_its_verdict():
    """hL waits at n2 on hF's forged key. hK's join, presenting the
    channel's key behind it, shares hX's request at n1, whose OK comes
    back first: n2 learns the key before hF's refusal arrives. hL is
    then settled as a keyless join arriving now would be — refused."""
    net, source, channel, key = keyed_line({"hX": "n1", "hF": "n2", "hK": "n2", "hL": "n2"})
    start = net.sim.now
    handles = {"hX": net.host("hX").subscribe(channel, key=key)}
    net.run(until=start + 0.5)  # hX's join is on the slow link
    for name, presented in (("hF", BAD_KEY), ("hK", key), ("hL", None)):
        handles[name] = net.host(name).subscribe(channel, key=presented)
        net.run(until=net.sim.now + 0.01)
    n2 = net.ecmp_agents["n2"]
    net.run(until=start + 2.2)  # hX's OK is back, the forged key's refusal is not
    assert n2.keys.knows(channel) and handles["hL"].status == "active"
    net.settle(5.0)
    source.send(channel)
    net.settle(2.0)
    assert {name: (h.status, h.packets_received) for name, h in handles.items()} == {
        "hX": ("active", 1), "hF": ("denied", 0), "hK": ("active", 1), "hL": ("denied", 0)
    }
    assert_control_plane_at_rest(net)


def slow_uplink(hosts: tuple[str, ...]) -> tuple:
    """hsrc - n0 -(1 s)- n1 with ``hosts`` on n1, and one channel from
    hsrc that the source has keyed: neither router knows the key."""
    topo = TopologyBuilder.line(2)  # n0 - n1
    topo.link_between("n0", "n1").delay = 1.0
    for name, router in (("hsrc", "n0"), *((host, "n1") for host in hosts)):
        topo.add_node(name)
        topo.add_link(name, router, delay=0.001)
    net = ExpressNetwork(topo, hosts=["hsrc", *hosts])
    net.run(until=0.01)
    source = net.source("hsrc")
    channel = source.allocate_channel()
    source.channel_key(channel, make_key(channel))
    return net, source, channel


def test_a_keyless_join_beside_a_refused_key_is_asked_upstream_and_refused():
    """(b) c2 presents a bad key, and c1 joins keyless 0.1 s later while
    c2's join is on the 1 s link. c1's join waits on that verdict; the
    refusal takes c2's join back, leaving n1 with c1's record and
    nothing upstream, so n1 asks about c1's join under id 0 — and the
    source refuses it too. Both hosts are denied, and nothing is left:
    not a record below an upstream that holds nothing of it."""
    net, source, channel = slow_uplink(("c1", "c2"))
    start = net.sim.now
    forged = net.host("c2").subscribe(channel, key=BAD_KEY)
    net.run(until=start + 0.1)
    keyless = net.host("c1").subscribe(channel)
    net.run(until=start + 0.2)
    assert not net.ecmp_agents["n1"].channels[channel].downstream["c1"].validated
    net.settle(6.0)
    assert (forged.status, keyless.status) == ("denied", "denied")
    # The source and n0 refuse twice: c2's key, then c1's keyless join.
    assert denials(net) == {"hsrc": 2, "n0": 2, "n1": 2, "c1": 1, "c2": 1}
    assert not any(channel in agent.channels for agent in net.ecmp_agents.values())
    assert FaultMonitor(net).orphaned_state() == 0
    assert_control_plane_at_rest(net)


def test_a_refused_keyless_block_join_takes_the_host_absorbed_beside_it():
    """A keyless block join at n1 is on the 1 s link when c1 joins
    keyless beside it, and n1 absorbs c1 into the tree it is joining.
    The source refuses the one Count under id 0: n1 drops both keyless
    records — the block's members go to 0 — c1 is denied, and n1's
    state is collected."""
    net, source, channel = slow_uplink(("c1",))
    block = net.subscriber_block("n1")
    start = net.sim.now
    assert block.join(channel, 50) == 50
    net.run(until=start + 0.1)
    keyless = net.host("c1").subscribe(channel)
    net.run(until=start + 0.2)
    n1 = net.ecmp_agents["n1"]
    assert n1.channels[channel].downstream["c1"].validated
    assert not n1.verdicts.pending
    net.settle(6.0)
    assert keyless.status == "denied"
    assert block.members.get(channel, 0) == 0
    assert {name: denials(net).get(name) for name in ("n0", "n1", "c1")} == {
        "n0": 1, "n1": 2, "c1": 1
    }
    assert not any(channel in agent.channels for agent in net.ecmp_agents.values())
    assert FaultMonitor(net).orphaned_state() == 0
    assert_control_plane_at_rest(net)


def test_a_made_up_key_on_an_open_channel_is_granted_open_and_taught_nowhere():
    """ha presents a made-up key on a channel whose source installed
    none, and hb joins keyless beside it while that join is upstream.
    The source grants the key OPEN: no router learns it, so the channel
    stays open — hb, which waited on the verdict, is admitted with ha,
    and both get the next packet."""
    net, source = open_line({"ha": "n2", "hb": "n2"})
    net.topo.link_between("n0", "n1").delay = 1.0
    channel = source.allocate_channel()
    responses = record_responses(net)
    made_up = net.host("ha").subscribe(channel, key=ChannelKey(b"madeup!!"))
    net.run(until=net.sim.now + 0.001)
    keyless = net.host("hb").subscribe(channel)
    net.run(until=net.sim.now + 0.1)  # at n2 while ha's join is upstream
    assert not net.ecmp_agents["n2"].channels[channel].downstream["hb"].validated
    net.settle(3.0)
    assert (made_up.status, keyless.status) == ("active", "active")
    assert not any(agent.keys.knows(channel) for agent in net.ecmp_agents.values())
    assert {status for *_, status, _ in responses} == {"OPEN"}
    assert denials(net) == {}
    source.send(channel)
    net.settle(2.0)  # over the slow link
    assert (made_up.packets_received, keyless.packets_received) == (1, 1)
    assert_control_plane_at_rest(net)


def test_a_refused_keyless_chain_still_sends_each_refuser_a_zero(monkeypatch):
    """Test (b)'s chain, counted: after the refusal under id 0, n0, n1
    and c1 each send the upstream that refused them a zero Count. An
    answer under id 0 cannot say whether the refuser still holds this
    node's record — ``test_a_denial_under_id_0_is_counted_at_every_hop_it_tears_down``
    refuses from an upstream that does, and only the zero clears it —
    so the zero stays: three Counts, and nothing orphaned."""
    net, source, channel = slow_uplink(("c1", "c2"))
    zeros = []
    for name, agent in net.ecmp_agents.items():

        def send(message, neighbor, *args, _send=agent._send_message, _name=name, **kwargs):
            if type(message) is Count and message.channel == channel and message.count == 0:
                zeros.append((_name, neighbor))
            _send(message, neighbor, *args, **kwargs)

        agent._send_message = send
    start = net.sim.now
    net.host("c2").subscribe(channel, key=BAD_KEY)
    net.run(until=start + 0.1)
    net.host("c1").subscribe(channel)
    net.settle(6.0)
    assert sorted(zeros) == [("c1", "n1"), ("n0", "hsrc"), ("n1", "n0")]
    assert FaultMonitor(net).orphaned_state() == 0
    assert_control_plane_at_rest(net)
