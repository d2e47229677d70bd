"""Unit tests for the incremental SPF machinery in UnicastRouting.

The seed re-ran Dijkstra for every destination on every recompute();
routing now computes destination trees lazily and invalidates them
selectively. These tests pin the counter semantics (``spf_runs`` vs the
seed's ``recompute_count``), the dirty-set selectivity, the
full-recompute fallback, and the error behaviour at the edges. The
*result equivalence* against from-scratch SPF is enforced separately by
``tests/properties/test_routing_equivalence.py``.
"""

import pytest

from repro.errors import RoutingError
from repro.netsim.topology import Topology, TopologyBuilder
from repro.routing.unicast import FULL_RECOMPUTE_DIRTY_FRACTION, UnicastRouting
from tests.conftest import flapping_isp_net


def _redundant_shortcut_topo() -> Topology:
    """A line n0-n1-n2-n3 with a triangle hung off n0.

    The n0-a1 shortcut (0.005) always loses to n0-a0-a1 (0.002), so it
    appears in *no* shortest-path tree: failing or recovering it must
    dirty zero cached trees.
    """
    topo = Topology()
    for name in ("n0", "n1", "n2", "n3", "a0", "a1"):
        topo.add_node(name)
    topo.add_link("n0", "n1", delay=0.001)
    topo.add_link("n1", "n2", delay=0.001)
    topo.add_link("n2", "n3", delay=0.001)
    topo.add_link("n0", "a0", delay=0.001)
    topo.add_link("a0", "a1", delay=0.001)
    topo.add_link("n0", "a1", delay=0.005)
    return topo


class TestLazyTrees:
    def test_no_dijkstra_runs_until_first_query(self):
        routing = UnicastRouting(TopologyBuilder.line(6))
        assert routing.recompute_count == 1
        assert routing.spf_runs == 0
        assert routing.cached_destinations() == 0

    def test_one_run_per_destination_not_per_query(self):
        routing = UnicastRouting(TopologyBuilder.line(6))
        assert routing.next_hop("n0", "n5") == "n1"
        assert routing.spf_runs == 1
        # Same destination tree answers every (node, n5) query.
        routing.next_hop("n3", "n5")
        routing.distance("n2", "n5")
        routing.path("n0", "n5")
        routing.spanning_tree_to("n5")
        assert routing.spf_runs == 1
        routing.next_hop("n0", "n2")
        assert routing.spf_runs == 2
        assert routing.cached_destinations() == 2

    def test_recompute_without_topology_change_keeps_cache(self):
        routing = UnicastRouting(TopologyBuilder.line(6))
        routing.next_hop("n0", "n5")
        generation = routing.generation
        routing.recompute()
        assert routing.recompute_count == 2
        assert routing.cached_destinations() == 1
        assert routing.generation == generation
        routing.next_hop("n3", "n5")
        assert routing.spf_runs == 1


class TestDirtySetInvalidation:
    def test_flapping_an_unused_link_retains_every_tree(self):
        topo = _redundant_shortcut_topo()
        routing = UnicastRouting(topo)
        for dest in topo.nodes:
            routing.spanning_tree_to(dest)
        assert routing.spf_runs == 6
        shortcut = topo.link_between("n0", "a1")

        shortcut.fail()
        assert routing.recompute() == set()  # nobody's route moved
        assert routing.partial_invalidations == 1
        assert routing.trees_retained == 6
        assert routing.trees_invalidated == 0

        shortcut.recover()
        routing.recompute()
        assert routing.partial_invalidations == 2
        assert routing.trees_retained == 12
        # Nothing was dropped, so re-querying costs no new Dijkstra.
        for dest in topo.nodes:
            routing.spanning_tree_to(dest)
        assert routing.spf_runs == 6

    def test_retained_trees_match_a_fresh_computation(self):
        topo = _redundant_shortcut_topo()
        routing = UnicastRouting(topo)
        for dest in topo.nodes:
            routing.spanning_tree_to(dest)
        topo.link_between("n0", "a1").fail()
        routing.recompute()
        fresh = UnicastRouting(topo)
        for dest in topo.nodes:
            assert routing.spanning_tree_to(dest) == fresh.spanning_tree_to(dest)
            for node in topo.nodes:
                assert routing.distance(node, dest) == fresh.distance(node, dest)

    def test_failing_a_tree_link_invalidates_and_reroutes(self):
        # Equal-cost square: a - b - d and a - c - d.
        topo = Topology()
        for name in "abcd":
            topo.add_node(name)
        topo.add_link("a", "b", delay=0.001)
        topo.add_link("a", "c", delay=0.001)
        topo.add_link("b", "d", delay=0.001)
        topo.add_link("c", "d", delay=0.001)
        routing = UnicastRouting(topo)
        # Lexicographic tie-break: b beats c.
        assert routing.next_hop("a", "d") == "b"

        topo.link_between("b", "d").fail()
        # Toward d, a goes round by c and b back by a; c, d and the
        # trees never asked for are not touched.
        assert routing.recompute() == {"a", "b"}
        assert routing.spf_runs == 2
        assert routing.cached_destinations() == 1
        assert routing.next_hop("a", "d") == "c"

        topo.link_between("b", "d").recover()
        routing.recompute()
        # The recovered equal-cost edge must re-win the tie-break —
        # this is the ">= (relax or tie)" dirtiness condition at work.
        assert routing.next_hop("a", "d") == "b"

    def test_full_fallback_when_most_trees_are_dirty(self):
        # On a line every spanning tree contains every link, so failing
        # the middle link dirties 100% of cached trees — far past
        # FULL_RECOMPUTE_DIRTY_FRACTION.
        assert FULL_RECOMPUTE_DIRTY_FRACTION < 1.0
        topo = TopologyBuilder.line(4)
        routing = UnicastRouting(topo)
        for dest in topo.nodes:
            routing.spanning_tree_to(dest)
        assert routing.full_invalidations == 1  # the initial compute
        topo.link_between("n1", "n2").fail()
        moved = routing.recompute()
        assert routing.full_invalidations == 2
        assert routing.partial_invalidations == 0
        # Every dropped tree had been asked for, so each is refilled at
        # once, and every node lost its route to the far side.
        assert routing.cached_destinations() == 4
        assert routing.spf_runs == 8
        assert moved == set(topo.nodes)
        # Partition is honoured after the refill.
        assert routing.next_hop("n0", "n3") is None
        with pytest.raises(RoutingError):
            routing.distance("n0", "n3")

    def test_generation_bumps_only_on_invalidation(self):
        topo = _redundant_shortcut_topo()
        routing = UnicastRouting(topo)
        for dest in topo.nodes:
            routing.spanning_tree_to(dest)
        g0 = routing.generation
        routing.recompute()  # no change
        assert routing.generation == g0
        topo.link_between("n0", "a1").fail()
        routing.recompute()  # partial (zero trees dropped, still a pass)
        assert routing.generation == g0 + 1
        topo.link_between("n1", "n2").fail()
        routing.recompute()  # tree link on a majority of trees -> full
        assert routing.generation == g0 + 2


class TestStructuralChanges:
    def test_adding_a_node_forces_full_invalidation(self):
        topo = TopologyBuilder.line(3)
        routing = UnicastRouting(topo)
        routing.spanning_tree_to("n2")
        topo.add_node("x")
        topo.add_link("x", "n2", delay=0.001)
        routing.recompute()
        assert routing.full_invalidations == 2
        assert routing.next_hop("n0", "x") == "n1"
        assert routing.next_hop("n2", "x") == "x"

    def test_unknown_destination_raises(self):
        routing = UnicastRouting(TopologyBuilder.line(2))
        with pytest.raises(RoutingError):
            routing.next_hop("n0", "ghost")

    def test_queries_raise_before_first_recompute(self):
        routing = UnicastRouting(TopologyBuilder.line(2), auto_compute=False)
        with pytest.raises(RoutingError):
            routing.next_hop("n0", "n1")
        routing.recompute()
        assert routing.next_hop("n0", "n1") == "n1"


class TestCountersAndListeners:
    def test_listeners_fire_once_per_recompute(self):
        routing = UnicastRouting(TopologyBuilder.line(3))
        fired = []
        routing.on_recompute(lambda: fired.append(routing.recompute_count))
        routing.recompute()
        routing.recompute()
        assert fired == [2, 3]

    def test_spf_counters_dict_is_consistent(self):
        topo = _redundant_shortcut_topo()
        routing = UnicastRouting(topo)
        for dest in topo.nodes:
            routing.spanning_tree_to(dest)
        topo.link_between("n0", "a1").fail()
        routing.recompute()
        counters = routing.spf_counters()
        assert counters == {
            "recompute_count": routing.recompute_count,
            "spf_runs": routing.spf_runs,
            "trees_invalidated": routing.trees_invalidated,
            "trees_retained": routing.trees_retained,
            "full_invalidations": routing.full_invalidations,
            "partial_invalidations": routing.partial_invalidations,
            "cached_destinations": routing.cached_destinations(),
            "generation": routing.generation,
        }
        assert counters["spf_runs"] == 6
        assert counters["cached_destinations"] == 6


class TestSavingUnderALiveNetwork:
    def test_link_flaps_cost_a_fraction_of_the_seeds_dijkstra_runs(self):
        """The Dijkstra-saving gate: every non-source host of the
        flapping 40-node network subscribed to one channel per source.
        The seed ran one Dijkstra per
        node per ``recompute()``; lazy per-destination trees run one
        per *queried* destination (the three sources every re-home
        asks about), and the t2-t3 flaps leave some of those clean. A
        count, so exact: 35 runs against 13 x 40 (14.86x); membership
        churn on top does not change it."""
        net, sources = flapping_isp_net()
        channels = [source.allocate_channel() for source in sources]
        for name in sorted(net.host_names - {source.name for source in sources}):
            for channel in channels:
                net.host(name).subscribe(channel)
        net.run(until=7.0)
        spf = net.routing.spf_counters()
        assert spf["recompute_count"] == 13  # the build plus 12 link events
        assert spf["partial_invalidations"] > 0
        assert 0 < 5 * spf["spf_runs"] <= spf["recompute_count"] * len(net.topo.nodes)
