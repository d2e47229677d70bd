"""Tests for the live CBT-lite (bidirectional core tree)."""

import pytest

from repro.errors import ProtocolError, TopologyError
from repro.groupmodel import GroupNetwork
from repro.groupmodel import JoinPrune
from repro.inet.addr import parse_address
from repro.netsim.topology import TopologyBuilder

G = parse_address("224.9.9.9")


@pytest.fixture
def cbt_net():
    topo = TopologyBuilder.isp(n_transit=3, stubs_per_transit=2, hosts_per_stub=2)
    return GroupNetwork(topo, protocol="cbt", rp="t1")


class TestTreeMaintenance:
    def test_join_builds_tree_toward_core(self, cbt_net):
        net = cbt_net
        net.join("h2_0_0", G)
        net.settle()
        for hop in net.routing.path("e2_0", "t1"):
            assert G in net.routers[hop].state
        assert G not in net.routers["t0"].state

    def test_leave_tears_down_branch(self, cbt_net):
        net = cbt_net
        net.join("h1_0_0", G)
        net.join("h2_0_0", G)
        net.settle()
        net.leave("h2_0_0", G)
        net.settle()
        assert G not in net.routers["e2_0"].state
        assert G in net.routers["e1_0"].state

    def test_join_message_validation(self):
        with pytest.raises(ProtocolError):
            JoinPrune(group=parse_address("10.0.0.1"), join=True)

    def test_core_required(self):
        topo = TopologyBuilder.star(2)
        with pytest.raises(TopologyError):
            GroupNetwork(topo, protocol="cbt")


class TestBidirectionalData:
    def test_on_tree_member_sends_along_tree(self, cbt_net):
        """A member's packet flows bidirectionally along the tree — no
        core detour when the receivers share its branch side."""
        net = cbt_net
        net.join("h1_0_0", G)
        net.join("h1_0_1", G)  # same edge router
        net.settle()
        tunnels_before = sum(a.stats.get("tunnels_tx") for a in net.routers.values())
        net.send("h1_0_0", G)
        net.settle()
        assert net.delivered("h1_0_1", G) == 1
        # No tunnel needed: the sender's first hop is on the tree.
        assert sum(a.stats.get("tunnels_tx") for a in net.routers.values()) == tunnels_before
        # The core never saw the packet (both members behind e1_0).
        assert net.routers["t1"].stats.get("tree_forwarded") <= 1

    def test_off_tree_sender_tunnels_to_core(self, cbt_net):
        net = cbt_net
        net.join("h1_0_0", G)
        net.settle()
        net.send("h0_0_0", G)  # e0_0 has no tree state
        net.settle()
        assert net.delivered("h1_0_0", G) == 1
        assert net.routers["e0_0"].stats.get("tunnels_tx") == 1
        assert net.routers["t1"].stats.get("tunnels_rx") == 1

    def test_every_member_gets_exactly_one_copy(self, cbt_net):
        net = cbt_net
        members = ["h1_0_0", "h1_1_0", "h2_0_0", "h2_1_1"]
        for member in members:
            net.join(member, G)
        net.settle()
        net.send(members[0], G)
        net.settle()
        for member in members[1:]:
            assert net.delivered(member, G) == 1

    def test_shared_tree_state_is_one_entry_per_router(self, cbt_net):
        """CBT's selling point the paper grants (§4.5): one shared tree
        regardless of senders."""
        net = cbt_net
        members = ["h1_0_0", "h2_0_0", "h0_0_0"]
        for member in members:
            net.join(member, G)
        net.settle()
        per_router = [a.state_entries() for a in net.routers.values()]
        assert max(per_router) == 1
        # Multiple senders add zero state.
        before = net.total_state()
        for sender in members:
            net.send(sender, G)
        net.settle()
        assert net.total_state() == before

    def test_unjoined_host_receives_nothing(self, cbt_net):
        net = cbt_net
        net.join("h1_0_0", G)
        net.settle()
        net.send("h0_0_0", G)
        net.settle()
        assert net.delivered("h2_0_0", G) == 0
