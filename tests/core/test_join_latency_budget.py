"""A latency budget for the join path, in simulated time.

*subscribe → tree built → first packet delivered* is the path a user of
EXPRESS feels, and on an idle network it should cost propagation and
serialization and nothing else: a TCP-mode session sends when it is
idle and coalesces only when it is busy. These gates are sums of link
latencies (``delay + size / bandwidth``, added in the order the
simulator adds them), so they are properties of the code, not of the
host, and repeat to the last bit. A constant paid per hop — the 50 ms
trailing-edge flush timer this replaces, or any timer put back on the
idle path — fails all three: restored by hand, the join reaches the
first router of the line after 0.051 s where 0.001 s is due, the ISP
joiners wait 0.053–0.183 s for a packet against bounds of 0.012–0.036 s,
and the keyed verdict takes 0.532 s where 0.032 s is due.
"""

from repro import ExpressNetwork, TopologyBuilder, make_key
from repro.core.ecmp.messages import COUNT_WIRE_BYTES, RESPONSE_WIRE_BYTES
from repro.core.ecmp.protocol import IP_OVERHEAD
from repro.core.keys import KEY_BYTES
from repro.core.network import MPEG2_PACKET_BYTES
from tests.conftest import assert_control_plane_at_rest

JOIN = IP_OVERHEAD + COUNT_WIRE_BYTES
KEYED_JOIN = JOIN + KEY_BYTES
VERDICT = IP_OVERHEAD + RESPONSE_WIRE_BYTES
DATA = MPEG2_PACKET_BYTES
INTERVAL = 0.01  # the 100 packet/s source


def after(start: float, links, size: int) -> float:
    """When a ``size``-byte packet sent at ``start`` and relayed at once
    by every node on the way has crossed ``links``."""
    at = start
    for link in links:
        at = at + (link.delay + size / link.bandwidth)
    return at


def path_links(net, names: list[str]) -> list:
    return [net.topo.link_between(a, b) for a, b in zip(names, names[1:])]


def rpf_path(net, host: str, source: str) -> list[str]:
    """Node names from ``host`` to ``source`` along unicast routing."""
    names = [host]
    while names[-1] != source:
        names.append(net.routing.next_hop(names[-1], source))
    return names


def test_a_join_reaches_hop_k_after_exactly_the_links_before_it():
    routers = 6
    topo = TopologyBuilder.line(routers, delay=0.003)
    topo.add_node("hsrc")
    topo.add_node("hsub")
    topo.add_link("hsrc", "n0", delay=0.001)
    topo.add_link("hsub", f"n{routers - 1}", delay=0.001)
    net = ExpressNetwork(topo, hosts=["hsrc", "hsub"])
    net.run(until=0.01)
    channel = net.source("hsrc").allocate_channel()
    start = net.sim.now
    net.host("hsub").subscribe(channel)
    net.settle()
    path = ["hsub"] + [f"n{i}" for i in reversed(range(routers))] + ["hsrc"]
    links = path_links(net, path)
    for k, name in enumerate(path[1:], start=1):
        # A node's state for the channel is created by the join's arrival,
        # which stamps its upstream as taken then (nothing re-homes on a
        # line).
        reached = net.ecmp_agents[name].channels[channel].upstream_changed_at
        assert reached == after(start, links[:k], JOIN), (k, name)
    assert_control_plane_at_rest(net)


def test_first_packet_within_a_round_trip_to_the_tree_plus_one_interval():
    topo = TopologyBuilder.isp(n_transit=4, stubs_per_transit=2, hosts_per_stub=2)
    net = ExpressNetwork(topo)
    net.run(until=0.01)
    hosts = sorted(net.host_names)
    source = net.source(hosts[0])
    channel = source.allocate_channel()
    for k in range(400):
        net.sim.schedule(INTERVAL * k, lambda: source.send(channel))
    joined = {}
    first = {}
    bounds = {}

    def join(name: str) -> None:
        path = rpf_path(net, name, hosts[0])
        # The nearest node already on the tree: the join stops there
        # and the stream comes back down the same links.
        hops = next(
            k for k, node in enumerate(path) if channel in net.ecmp_agents[node].channels
            or node == hosts[0]
        )
        links = path_links(net, path[: hops + 1])
        now = net.sim.now
        bounds[name] = after(after(now, links, JOIN), reversed(links), DATA) - now + INTERVAL
        joined[name] = now
        net.host(name).subscribe(
            channel, on_data=lambda packet: first.setdefault(name, net.sim.now)
        )

    # A quarter second apart and off the packet grid: each join meets a
    # quiescent control plane and a tree the earlier ones have grown.
    joiners = hosts[1:]
    for k, name in enumerate(joiners):
        net.sim.schedule(0.0537 + 0.25 * k, lambda name=name: join(name))
    net.run(until=net.sim.now + 4.0)
    assert set(first) == set(joiners)
    waited = {name: first[name] - joined[name] for name in joiners}
    late = {n: (waited[n], bounds[n]) for n in joiners if waited[n] > bounds[n] + 1e-12}
    assert not late, late
    # Both ends of the range are exercised: a neighbour on the same
    # edge router (one hop to the tree) and the first join of a far stub.
    assert min(bounds.values()) < 0.0125 < 0.03 < max(bounds.values())


def test_keyed_verdict_within_a_round_trip_to_the_source():
    topo = TopologyBuilder.isp(n_transit=4, stubs_per_transit=2, hosts_per_stub=2)
    net = ExpressNetwork(topo)
    net.run(until=0.01)
    hosts = sorted(net.host_names)
    source = net.source(hosts[0])
    channel = source.allocate_channel()
    key = make_key(channel)
    source.channel_key(channel, key)
    subscriber = hosts[-1]
    links = path_links(net, rpf_path(net, subscriber, hosts[0]))
    assert len(links) >= 5  # across the core: the far side of the ring
    start = net.sim.now
    settled = []
    handle = net.host(subscriber).subscribe(
        channel, key=key, on_status=lambda h: settled.append(net.sim.now)
    )
    net.settle()
    # Nobody on the way knows the key, so the source answers: the keyed
    # Count up every link, the verdict back down them.
    assert handle.status == "active"
    assert settled == [after(after(start, links, KEYED_JOIN), reversed(links), VERDICT)]
    assert_control_plane_at_rest(net)
