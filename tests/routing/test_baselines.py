"""Tests for the analytic PIM-SM / CBT / DVMRP / EXPRESS tree models
(the oracle in ``tests/oracles/trees.py``)."""

import pytest

from repro.errors import RoutingError
from repro.netsim.topology import TopologyBuilder
from repro.routing.unicast import UnicastRouting
from tests.oracles.trees import (
    CbtModel,
    DvmrpModel,
    ExpressTreeModel,
    PimSmModel,
)


@pytest.fixture
def env():
    topo = TopologyBuilder.isp(n_transit=4, stubs_per_transit=2, hosts_per_stub=2)
    return topo, UnicastRouting(topo)


class TestExpressModel:
    def test_tree_is_union_of_shortest_paths(self, env):
        topo, routing = env
        model = ExpressTreeModel(topo, routing, source="h0_0_0")
        model.join("h2_0_0")
        model.join("h3_1_1")
        edges = model.tree_edges()
        for member in ("h2_0_0", "h3_1_1"):
            path = routing.path(member, "h0_0_0")
            for a, b in zip(path, path[1:]):
                assert frozenset((a, b)) in edges

    def test_stretch_is_one(self, env):
        topo, routing = env
        model = ExpressTreeModel(topo, routing, source="h0_0_0")
        model.join("h2_0_0")
        assert model.stretch("h0_0_0", "h2_0_0") == 1.0

    def test_only_source_may_send(self, env):
        topo, routing = env
        model = ExpressTreeModel(topo, routing, source="h0_0_0")
        model.join("h2_0_0")
        with pytest.raises(RoutingError):
            model.delivery_path("h1_0_0", "h2_0_0")

    def test_state_only_on_tree(self, env):
        """§3.6: EXPRESS traffic/state only on source->subscriber paths."""
        topo, routing = env
        model = ExpressTreeModel(topo, routing, source="h0_0_0")
        model.join("h0_1_0")  # member near the source
        touched = model.routers_touched()
        assert "t2" not in touched and "t3" not in touched

    def test_leave_shrinks_tree(self, env):
        topo, routing = env
        model = ExpressTreeModel(topo, routing, source="h0_0_0")
        model.join("h2_0_0")
        model.join("h3_1_1")
        before = len(model.tree_edges())
        model.leave("h3_1_1")
        assert len(model.tree_edges()) < before


class TestPimSm:
    def test_shared_tree_delivery_detours_via_rp(self, env):
        topo, routing = env
        model = PimSmModel(topo, routing, rp="t2")
        model.join("h0_0_0")
        path = model.delivery_path("h1_0_0", "h0_0_0")
        assert "t2" in path  # register leg to the RP
        assert model.stretch("h1_0_0", "h0_0_0") >= 1.0

    def test_spt_switchover_restores_direct_path(self, env):
        topo, routing = env
        model = PimSmModel(topo, routing, rp="t2")
        model.join("h0_0_0")
        model.switch_to_spt("h0_0_0", "h1_0_0")
        path = model.delivery_path("h1_0_0", "h0_0_0")
        assert path == routing.path("h1_0_0", "h0_0_0")

    def test_spt_switchover_costs_extra_state(self, env):
        """The "delay-state tradeoff" of §4.4: SPTs add (S,G) entries."""
        topo, routing = env
        model = PimSmModel(topo, routing, rp="t2")
        model.join("h0_0_0")
        model.join("h3_0_0")
        shared_only = model.total_state()
        model.switch_to_spt("h0_0_0", "h1_0_0")
        model.switch_to_spt("h3_0_0", "h1_0_0")
        assert model.total_state() > shared_only

    def test_switch_requires_membership(self, env):
        topo, routing = env
        model = PimSmModel(topo, routing, rp="t2")
        with pytest.raises(RoutingError):
            model.switch_to_spt("h0_0_0", "h1_0_0")


class TestCbt:
    def test_on_tree_sender_uses_tree_path(self, env):
        topo, routing = env
        model = CbtModel(topo, routing, core="t2")
        model.join("h0_0_0")
        model.join("h1_0_0")
        path = model.delivery_path("h0_0_0", "h1_0_0")
        assert path[0] == "h0_0_0" and path[-1] == "h1_0_0"
        # Bidirectional: no detour past the core required if the tree
        # path between the two members is shorter.
        assert len(path) <= len(routing.path("h0_0_0", "t2")) + len(routing.path("t2", "h1_0_0")) - 1

    def test_off_tree_sender_tunnels_via_core(self, env):
        topo, routing = env
        model = CbtModel(topo, routing, core="t2")
        model.join("h1_0_0")
        path = model.delivery_path("h3_0_0", "h1_0_0")
        assert "t2" in path

    def test_delivery_to_non_member_raises(self, env):
        topo, routing = env
        model = CbtModel(topo, routing, core="t2")
        model.join("h1_0_0")
        with pytest.raises(RoutingError):
            model.delivery_path("h3_0_0", "h3_1_1")

    def test_single_shared_tree_state(self, env):
        topo, routing = env
        model = CbtModel(topo, routing, core="t2")
        for member in ("h0_0_0", "h1_0_0", "h3_1_1"):
            model.join(member)
        assert all(count == 1 for count in model.state_entries().values())


class TestDvmrp:
    def test_touches_every_router(self, env):
        """Broadcast-and-prune leaves state domain-wide."""
        topo, routing = env
        model = DvmrpModel(topo, routing, source="h0_0_0")
        model.join("h1_0_0")
        assert model.routers_touched() == set(topo.nodes)
        assert model.total_state() == len(topo.nodes)

    def test_data_path_is_shortest(self, env):
        topo, routing = env
        model = DvmrpModel(topo, routing, source="h0_0_0")
        model.join("h1_0_0")
        assert model.stretch("h0_0_0", "h1_0_0") == 1.0


class TestComparison:
    def test_express_touches_no_more_than_dvmrp(self, env):
        topo, routing = env
        express = ExpressTreeModel(topo, routing, source="h0_0_0")
        dvmrp = DvmrpModel(topo, routing, source="h0_0_0")
        for member in ("h1_0_0", "h2_1_0"):
            express.join(member)
            dvmrp.join(member)
        assert express.routers_touched() < dvmrp.routers_touched()

    def test_express_stretch_beats_shared_trees(self, env):
        topo, routing = env
        express = ExpressTreeModel(topo, routing, source="h0_0_0")
        pim = PimSmModel(topo, routing, rp="t2")
        member = "h1_1_0"
        express.join(member)
        pim.join(member)
        assert express.stretch("h0_0_0", member) <= pim.stretch("h0_0_0", member)
