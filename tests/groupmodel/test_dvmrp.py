"""Tests for the live DVMRP-lite (flood-and-prune) implementation."""

import pytest

from repro.groupmodel import GroupNetwork
from repro.groupmodel.dvmrp import DvmrpControl
from repro.errors import ProtocolError
from repro.inet.addr import parse_address
from repro.netsim.topology import TopologyBuilder

G = parse_address("224.7.7.7")


@pytest.fixture
def dvmrp_net():
    topo = TopologyBuilder.isp(n_transit=3, stubs_per_transit=2, hosts_per_stub=2)
    return GroupNetwork(topo, protocol="dvmrp", prune_lifetime=60.0)


class TestFloodAndPrune:
    def test_first_packet_floods_the_domain(self, dvmrp_net):
        """The §8 indictment: broadcast-and-prune touches every router,
        even with a single subscriber."""
        net = dvmrp_net
        net.join("h1_0_0", G)
        net.settle()
        net.send("h0_0_0", G)
        net.settle()
        assert net.routers_touched() == set(net.routers)

    def test_member_receives_despite_prunes(self, dvmrp_net):
        net = dvmrp_net
        net.join("h1_0_0", G)
        net.settle()
        for _ in range(3):
            net.send("h0_0_0", G)
            net.settle()
        assert net.delivered("h1_0_0", G) == 3

    def test_unjoined_hosts_get_nothing(self, dvmrp_net):
        """The flood is truncated at the last hop: hosts only receive
        joined groups."""
        net = dvmrp_net
        net.join("h1_0_0", G)
        net.settle()
        net.send("h0_0_0", G)
        net.settle()
        for name in net.hosts:
            if name not in ("h1_0_0", "h0_0_0"):
                assert net.delivered(name, G) == 0

    def test_prunes_cut_uninterested_branches(self, dvmrp_net):
        net = dvmrp_net
        net.join("h1_0_0", G)
        net.settle()
        net.send("h0_0_0", G)
        net.settle()
        first_flood_tx = sum(a.stats.get("data_tx") for a in net.routers.values())
        prunes = sum(a.stats.get("prunes_tx") for a in net.routers.values())
        assert prunes > 0
        net.send("h0_0_0", G)
        net.settle()
        second_tx = sum(a.stats.get("data_tx") for a in net.routers.values())
        # Steady state forwards fewer copies than the initial flood.
        assert second_tx - first_flood_tx < first_flood_tx

    def test_prune_state_everywhere(self, dvmrp_net):
        """Even pruned routers hold (S,G) state — the cost the paper
        contrasts with EXPRESS's on-tree-only state."""
        net = dvmrp_net
        net.join("h1_0_0", G)
        net.settle()
        net.send("h0_0_0", G)
        net.settle()
        assert net.total_state() == len(net.routers)

    def test_prunes_expire_and_reflood(self):
        topo = TopologyBuilder.isp(n_transit=3, stubs_per_transit=2, hosts_per_stub=2)
        net = GroupNetwork(topo, protocol="dvmrp", prune_lifetime=10.0)
        net.join("h1_0_0", G)
        net.settle()
        net.send("h0_0_0", G)
        net.settle()
        pruned_router = net.routers["t2"]
        net.run(until=net.sim.now + 15.0)  # prunes expire
        net.send("h0_0_0", G)
        net.settle()
        assert sum(
            a.stats.get("prune_expirations") for a in net.routers.values()
        ) > 0

    def test_graft_reconnects_new_member(self, dvmrp_net):
        """A host joining a pruned branch grafts it back."""
        net = dvmrp_net
        net.join("h1_0_0", G)
        net.settle()
        net.send("h0_0_0", G)  # prunes the h2 branch
        net.settle()
        net.join("h2_0_0", G)
        net.settle()
        grafts = sum(a.stats.get("grafts_tx") for a in net.routers.values())
        assert grafts > 0
        net.send("h0_0_0", G)
        net.settle()
        assert net.delivered("h2_0_0", G) == 1

    def test_rpf_check_drops_off_path_copies(self, dvmrp_net):
        net = dvmrp_net
        net.join("h1_0_0", G)
        net.settle()
        net.send("h0_0_0", G)
        net.settle()
        # Redundant links in the core mean some copies fail RPF.
        rpf_drops = sum(a.stats.get("rpf_drops") for a in net.routers.values())
        assert rpf_drops > 0

    def test_control_validation(self):
        with pytest.raises(ProtocolError):
            DvmrpControl(kind="explode", source=1, group=G)
        with pytest.raises(ProtocolError):
            DvmrpControl(kind="prune", source=1, group=parse_address("10.0.0.1"))
