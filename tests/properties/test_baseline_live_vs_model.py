"""Property suite: the live group-model agents ≡ the analytic trees.

``repro.groupmodel`` runs PIM-SM, CBT and DVMRP as packet-level agents;
``tests/oracles/trees.py`` derives the same protocols' trees from
unicast routing alone. On random topologies, host attachments, RPs and
memberships, for PIM on the shared tree, PIM after every member's
switch to the source tree, CBT and DVMRP, after the members join and
the source sends one zero-size packet:

* the routers the live stack touches, and the state entries it holds,
  equal the model's with the member and source hosts left out (the
  models count every node; the live agents run on routers only);
* each member gets the packet exactly once — after the switch too,
  where a router on both trees would otherwise pass on both copies;
* each member's first delivery arrives after exactly the summed link
  delay along the model's ``delivery_path``, plus at most the
  transmission time of the 20-byte IP-in-IP header a register or core
  tunnel adds on each hop (the probe itself has size 0).

CBT's live agents call a sender "on-tree" when its first-hop router is
on the tree (``repro.groupmodel.cbt``); the model takes the sender
node itself, so for such a sender the model's path is asked for from
that router.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.groupmodel import GroupNetwork
from repro.inet.addr import parse_address
from repro.netsim.link import DEFAULT_BANDWIDTH
from repro.netsim.topology import TopologyBuilder
from tests.oracles.trees import CbtModel, DvmrpModel, PimSmModel

GROUP = parse_address("224.77.0.1")
N_HOSTS = 6
SOURCE = "host0"
#: Transmission time of one IP-in-IP header on one hop.
TUNNEL_HOP_S = 20 / DEFAULT_BANDWIDTH

SIM_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

VARIANTS = ("pim", "pim+spt", "cbt", "dvmrp")


@st.composite
def scenarios(draw):
    n_routers = draw(st.integers(min_value=3, max_value=12))
    router = st.integers(min_value=0, max_value=n_routers - 1)
    return (
        n_routers,
        draw(st.integers(min_value=0, max_value=1000)),
        draw(st.lists(router, min_size=N_HOSTS, max_size=N_HOSTS)),
        f"n{draw(router)}",
        draw(st.integers(min_value=1, max_value=2 ** (N_HOSTS - 1) - 1)),
    )


def first_delivery(sim, delays, member):
    """An ``on_data`` callback noting ``member``'s first-delivery delay."""
    return lambda packet: delays.setdefault(member, sim.now - packet.created_at)


def run_live(variant, scenario):
    """Build the topology, run the live stack, and return it with the
    members and each member's first-delivery delay."""
    n_routers, seed, attach, rp, member_mask = scenario
    topo = TopologyBuilder.random_connected(n_routers, seed=seed)
    hosts = [f"host{i}" for i in range(N_HOSTS)]
    for host, index in zip(hosts, attach):
        topo.add_node(host)
        topo.add_link(host, f"n{index}", delay=0.0005)
    protocol = variant.split("+")[0]
    net = GroupNetwork(topo, protocol=protocol, rp=None if protocol == "dvmrp" else rp)
    members = [h for i, h in enumerate(hosts[1:]) if member_mask & (1 << i)]
    delays = {}
    for member in members:
        net.join(member, GROUP, on_data=first_delivery(net.sim, delays, member))
    net.settle()
    if variant == "pim+spt":
        for member in members:
            net.switch_to_spt(member, SOURCE, GROUP)
        net.settle()
    net.send(SOURCE, GROUP, size=0)
    net.settle(2.0)
    return net, members, delays


def build_model(variant, net, members):
    if variant == "dvmrp":
        model = DvmrpModel(net.topo, net.routing, source=SOURCE)
    elif variant == "cbt":
        model = CbtModel(net.topo, net.routing, core=net.rp)
    else:
        model = PimSmModel(net.topo, net.routing, rp=net.rp)
    for member in members:
        model.join(member)
    if variant == "pim+spt":
        for member in members:
            model.switch_to_spt(member, SOURCE)
    return model


def model_path(variant, model, net, member):
    if variant == "cbt":
        first_hop = net._first_hop_router(SOURCE)
        if first_hop in model.nodes_on_tree():
            return [SOURCE] + model.delivery_path(first_hop, member)
    return model.delivery_path(SOURCE, member)


@pytest.mark.parametrize("variant", VARIANTS)
class TestLiveAgentsMatchTheTrees:
    @SIM_SETTINGS
    @given(scenario=scenarios())
    def test_state_and_routers_touched(self, variant, scenario):
        net, members, _ = run_live(variant, scenario)
        model = build_model(variant, net, members)
        hosts = net.host_names
        assert net.routers_touched() == model.routers_touched() - hosts
        expected_state = sum(
            count for node, count in model.state_entries().items() if node not in hosts
        )
        assert net.total_state() == expected_state

    @SIM_SETTINGS
    @given(scenario=scenarios())
    def test_every_member_gets_exactly_one_copy(self, variant, scenario):
        net, members, _ = run_live(variant, scenario)
        copies = {member: net.delivered(member, GROUP) for member in members}
        assert copies == dict.fromkeys(members, 1)

    @SIM_SETTINGS
    @given(scenario=scenarios())
    def test_delivery_delay_is_the_model_path_delay(self, variant, scenario):
        net, members, delays = run_live(variant, scenario)
        model = build_model(variant, net, members)
        assert set(delays) == set(members)
        for member in members:
            path = model_path(variant, model, net, member)
            hops = list(zip(path, path[1:]))
            expected = sum(net.topo.link_between(a, b).delay for a, b in hops)
            assert expected - 1e-12 <= delays[member], (member, path)
            assert delays[member] <= expected + len(hops) * TUNNEL_HOP_S + 1e-12, (
                member,
                path,
            )
