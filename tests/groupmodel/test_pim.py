"""Tests for the live PIM-SM-lite implementation."""

import pytest

from repro.errors import ProtocolError, TopologyError
from repro.groupmodel import GroupNetwork, JoinPrune
from repro.inet.addr import parse_address
from repro.netsim.topology import TopologyBuilder

G = parse_address("224.5.5.5")
G2 = parse_address("224.6.6.6")


@pytest.fixture
def pim_net():
    topo = TopologyBuilder.isp(n_transit=3, stubs_per_transit=2, hosts_per_stub=2)
    return GroupNetwork(topo, protocol="pim", rp="t1")


class TestJoinPrune:
    def test_join_builds_shared_tree_toward_rp(self, pim_net):
        net = pim_net
        net.join("h1_0_0", G)
        net.settle()
        # State appears along the host -> RP path.
        path = net.routing.path("e1_0", "t1")
        for hop in path:
            assert G in net.routers[hop].shared
        # And nowhere else.
        assert G not in net.routers["t2"].shared

    def test_leave_prunes_branch(self, pim_net):
        net = pim_net
        net.join("h1_0_0", G)
        net.join("h1_1_0", G)
        net.settle()
        net.leave("h1_1_0", G)
        net.settle()
        assert G not in net.routers["e1_1"].shared
        assert G in net.routers["e1_0"].shared

    def test_last_leave_clears_all_state(self, pim_net):
        net = pim_net
        net.join("h1_0_0", G)
        net.settle()
        net.leave("h1_0_0", G)
        net.settle()
        assert net.total_state() == 0

    def test_groups_independent(self, pim_net):
        net = pim_net
        net.join("h1_0_0", G)
        net.join("h2_0_0", G2)
        net.settle()
        assert G in net.routers["e1_0"].shared
        assert G2 not in net.routers["e1_0"].shared

    def test_join_prune_message_validation(self):
        with pytest.raises(ProtocolError):
            JoinPrune(group=parse_address("10.0.0.1"), join=True)


class TestDataPath:
    def test_any_sender_reaches_members(self, pim_net):
        """The group model: senders need not subscribe or register
        intent — anyone can transmit (the §1 problem)."""
        net = pim_net
        net.join("h1_0_0", G)
        net.join("h2_0_0", G)
        net.settle()
        for sender in ("h0_0_0", "h2_1_1", "h1_0_1"):
            net.send(sender, G)
        net.settle()
        assert net.delivered("h1_0_0", G) == 3
        assert net.delivered("h2_0_0", G) == 3

    def test_delivery_detours_via_rp(self, pim_net):
        """Shared-tree data transits the RP even when sender and
        receiver are adjacent."""
        net = pim_net
        net.join("h1_0_1", G)
        net.settle()
        registers = net.routers["e1_0"].stats.get("registers_tx")
        net.send("h1_0_0", G)  # same stub as the receiver
        net.settle()
        assert net.delivered("h1_0_1", G) == 1
        assert net.routers["e1_0"].stats.get("registers_tx") == registers + 1
        assert net.routers["t1"].stats.get("registers_rx") >= 1

    def test_non_members_receive_nothing(self, pim_net):
        net = pim_net
        net.join("h1_0_0", G)
        net.settle()
        net.send("h0_0_0", G)
        net.settle()
        assert net.delivered("h2_0_0", G) == 0

    def test_rp_without_group_state_drops_register(self, pim_net):
        net = pim_net
        net.send("h0_0_0", G)  # no members at all
        net.settle()
        assert net.routers["t1"].stats.get("register_no_group_drops") == 1


class TestSptSwitchover:
    def test_spt_restores_direct_path_and_suppresses_duplicates(self, pim_net):
        net = pim_net
        net.join("h1_0_0", G)
        net.settle()
        net.switch_to_spt("h1_0_0", "h0_0_0", G)
        net.settle()
        net.send("h0_0_0", G)
        net.settle()
        # Exactly one copy despite both trees existing.
        assert net.delivered("h1_0_0", G) == 1
        # The (S,G) tree exists along the direct path.
        source_address = net.topo.node("h0_0_0").address
        assert (source_address, G) in net.routers["e1_0"].source_trees
        # Shared-tree copies were suppressed at the last hop.
        assert net.routers["e1_0"].stats.get("spt_suppressed") >= 0

    def test_spt_adds_state(self, pim_net):
        net = pim_net
        net.join("h1_0_0", G)
        net.settle()
        shared_only = net.total_state()
        net.switch_to_spt("h1_0_0", "h0_0_0", G)
        net.settle()
        assert net.total_state() > shared_only

    def test_spt_and_shared_members_coexist_without_duplicates(self, pim_net):
        """One member on the SPT, another on the shared tree: the RP
        splices the native flow onto the shared tree and suppresses the
        redundant register — each member gets exactly one copy."""
        net = pim_net
        net.join("h1_0_0", G)
        net.join("h2_0_0", G)
        net.settle()
        net.switch_to_spt("h1_0_0", "h0_0_0", G)
        net.settle()
        net.send("h0_0_0", G)
        net.settle()
        assert net.delivered("h1_0_0", G) == 1
        assert net.delivered("h2_0_0", G) == 1
        assert net.routers["t1"].stats.get("registers_suppressed") == 1

    def test_spt_requires_pim(self):
        topo = TopologyBuilder.isp(n_transit=2, stubs_per_transit=1, hosts_per_stub=1)
        net = GroupNetwork(topo, protocol="dvmrp")
        with pytest.raises(ProtocolError):
            net.switch_to_spt("h0_0_0", "h1_0_0", G)


class TestValidation:
    def test_pim_requires_rp(self):
        topo = TopologyBuilder.star(2)
        with pytest.raises(TopologyError):
            GroupNetwork(topo, protocol="pim")

    def test_unknown_protocol(self):
        topo = TopologyBuilder.star(2)
        with pytest.raises(ProtocolError):
            GroupNetwork(topo, protocol="cbt-live")

    def test_host_lookup(self, pim_net):
        with pytest.raises(TopologyError):
            pim_net.host("t1")
