"""Integration tests: the generic counting operation (§3.1) and the
service-interface uses of it (§2.1, §2.2)."""

import pytest

from repro import SUBSCRIBER_ID
from repro.core.ecmp.countids import APPLICATION_RANGE, LINK_COUNT_ID, TREE_SIZE_ID
from repro.core.ecmp.state import StateBank
from tests.conftest import make_channel

VOTE_ID = APPLICATION_RANGE.start + 7


class TestSubscriberCounting:
    def test_exact_count_at_source(self, isp_net):
        net = isp_net
        src, ch = make_channel(net, "h0_0_0")
        members = ["h1_0_0", "h1_1_1", "h2_0_0", "h2_1_1", "h0_1_0"]
        for member in members:
            net.host(member).subscribe(ch)
        net.settle()
        result = src.count_query(ch, timeout=5.0)
        net.settle(6.0)
        assert result.done
        assert result.count == len(members)
        assert not result.partial

    def test_count_of_empty_channel_is_zero(self, isp_net):
        net = isp_net
        src, ch = make_channel(net, "h0_0_0")
        result = src.count_query(ch, timeout=1.0)
        net.settle(2.0)
        assert result.count == 0

    def test_count_after_churn(self, isp_net):
        net = isp_net
        src, ch = make_channel(net, "h0_0_0")
        for member in ["h1_0_0", "h1_0_1", "h2_0_0"]:
            net.host(member).subscribe(ch)
        net.settle()
        net.host("h1_0_1").unsubscribe(ch)
        net.settle()
        result = src.count_query(ch, timeout=5.0)
        net.settle(6.0)
        assert result.count == 2

    def test_callback_invoked(self, isp_net):
        net = isp_net
        src, ch = make_channel(net, "h0_0_0")
        net.host("h1_0_0").subscribe(ch)
        net.settle()
        seen = []
        src.count_query(ch, timeout=5.0, callback=lambda n, p: seen.append((n, p)))
        net.settle(6.0)
        assert seen == [(1, False)]

    def test_router_initiated_query(self, isp_net):
        """§3.1: "ECMP also allows any router on the channel
        distribution tree to initiate a query without source
        cooperation"."""
        net = isp_net
        src, ch = make_channel(net, "h0_0_0")
        for member in ["h1_0_0", "h1_1_0"]:
            net.host(member).subscribe(ch)
        net.settle()
        # t1 sits above both subscribers' stub routers.
        result = net.router_agent("t1").count_query(ch, SUBSCRIBER_ID, timeout=5.0)
        net.settle(6.0)
        assert result.count == 2

    def test_partial_count_on_timeout(self, isp_net):
        """§2.1: the count is best-effort within the timeout."""
        net = isp_net
        src, ch = make_channel(net, "h0_0_0")
        net.host("h1_0_0").subscribe(ch)
        net.host("h2_0_0").subscribe(ch)
        net.settle()
        # Cut one branch *after* the tree is built, then query: the
        # query into the dead branch cannot answer. Use the h2 branch.
        net.topo.link_between("t0", "t2").fail()
        # Freeze re-homing by querying immediately (before recompute
        # propagates the new tree shape).
        result = src.count_query(ch, timeout=0.5)
        net.settle(2.0)
        assert result.done
        assert result.count >= 1


class TestNetworkLayerCounts:
    def test_link_count_measures_tree_links(self, isp_net):
        """§3.1's transit-domain example: count the links a channel
        uses (for settlements/planning)."""
        net = isp_net
        src, ch = make_channel(net, "h0_0_0")
        members = ["h1_0_0", "h2_0_0"]
        for member in members:
            net.host(member).subscribe(ch)
        net.settle()
        result = src.count_query(ch, LINK_COUNT_ID, timeout=5.0)
        net.settle(6.0)
        # Tree edges between nodes = number of downstream links summed
        # over all on-tree nodes.
        assert result.count == len(net.tree_edges(ch))

    def test_tree_size_counts_on_tree_nodes(self, isp_net):
        net = isp_net
        src, ch = make_channel(net, "h0_0_0")
        net.host("h1_0_0").subscribe(ch)
        net.settle()
        result = src.count_query(ch, TREE_SIZE_ID, timeout=5.0)
        net.settle(6.0)
        # Every on-tree *router* contributes 1 (hosts don't see
        # network-layer countIds; the source node contributes 1).
        routers_on_tree = [
            n for n in net.nodes_on_tree(ch) if n not in net.host_names
        ]
        assert result.count == len(routers_on_tree) + 1  # + source node


class TestApplicationCounts:
    def test_vote_collection(self, isp_net):
        """§2.2.1: "an Internet TV station can conduct a poll ...
        getting a response from potentially millions of subscribers"."""
        net = isp_net
        src, ch = make_channel(net, "h0_0_0")
        votes = {"h1_0_0": 1, "h1_1_0": 0, "h2_0_0": 1, "h2_1_0": 1}
        for member, vote in votes.items():
            host = net.host(member)
            host.subscribe(ch)
            host.respond_to_count(ch, VOTE_ID, lambda v=vote: v)
        net.settle()
        result = src.count_query(ch, VOTE_ID, timeout=5.0)
        net.settle(6.0)
        assert result.count == 3

    def test_hosts_without_responder_contribute_zero(self, isp_net):
        net = isp_net
        src, ch = make_channel(net, "h0_0_0")
        net.host("h1_0_0").subscribe(ch)
        net.settle()
        result = src.count_query(ch, VOTE_ID, timeout=5.0)
        net.settle(6.0)
        assert result.count == 0

    def test_concurrent_counts_on_different_ids(self, isp_net):
        """§5.2 sizes state for two counts outstanding per channel."""
        net = isp_net
        src, ch = make_channel(net, "h0_0_0")
        host = net.host("h1_0_0")
        host.subscribe(ch)
        host.respond_to_count(ch, VOTE_ID, lambda: 1)
        net.settle()
        r1 = src.count_query(ch, SUBSCRIBER_ID, timeout=5.0)
        r2 = src.count_query(ch, VOTE_ID, timeout=5.0)
        net.settle(6.0)
        assert r1.count == 1 and r2.count == 1

    def test_a_superseded_query_is_answered_by_the_one_that_restarted_it(
        self, isp_net
    ):
        """The wire names a query by (channel, countId), so a second one
        for the same pair restarts the first — whose caller is still
        owed §2.1's best-effort count, and used to wait for ever."""
        net = isp_net
        src, ch = make_channel(net, "h0_0_0")
        members = ["h1_0_0", "h1_1_1", "h2_0_0", "h2_1_1", "h0_1_0"]
        for member in members:
            net.host(member).subscribe(ch)
        net.settle()
        seen = []
        first, second = (
            src.count_query(
                ch, timeout=2.0, callback=lambda n, p, who=who: seen.append((who, n, p))
            )
            for who in ("first", "second")
        )
        net.settle(10.0)
        assert second.done and second.count == len(members)
        assert first.done and first.count == len(members) and not first.partial
        assert first.completed_at == second.completed_at
        assert seen == [("first", 5, False), ("second", 5, False)]


class TestPollIsARead:
    def test_poll_over_settled_tree_writes_no_fib_and_allocates_no_rows(
        self, isp_net, monkeypatch
    ):
        """A CountQuery resolves without touching forwarding state: the
        subscriber Counts that answer it repeat what every router
        already holds, so every row of every FIB reads the same before
        and after the poll and no downstream record is created."""
        net = isp_net
        src, ch = make_channel(net, "h0_0_0")
        votes = {"h1_0_0": 1, "h1_1_0": 0, "h2_0_0": 1, "h2_1_0": 1, "h0_1_1": 1}
        for member, vote in votes.items():
            host = net.host(member)
            host.subscribe(ch)
            host.respond_to_count(ch, VOTE_ID, lambda v=vote: v)
        net.settle()
        src.send(ch)
        net.settle()

        allocs = []
        alloc = StateBank.alloc
        monkeypatch.setattr(
            StateBank, "alloc", lambda bank: allocs.append(1) or alloc(bank)
        )

        def fib_rows():
            return {
                name: sorted(
                    (e.source, e.dest_suffix, e.incoming_interface, e.outgoing)
                    for e in fib
                )
                for name, fib in net.fibs.items()
            }

        rows = fib_rows()
        assert any(rows.values())

        subscribers = src.count_query(ch, SUBSCRIBER_ID, timeout=5.0)
        tally = src.count_query(ch, VOTE_ID, timeout=5.0)
        net.settle(6.0)

        assert subscribers.count == len(votes) and not subscribers.partial
        assert tally.count == sum(votes.values()) and not tally.partial
        assert fib_rows() == rows
        assert allocs == []


class TestQueryResult:
    def test_on_done_after_completion_fires_immediately(self, isp_net):
        net = isp_net
        src, ch = make_channel(net, "h0_0_0")
        net.host("h1_0_0").subscribe(ch)
        net.settle()
        result = src.count_query(ch, timeout=5.0)
        net.settle(6.0)
        fired = []
        result.on_done(lambda r: fired.append(r.count))
        assert fired == [1]

    def test_completed_at_recorded(self, isp_net):
        net = isp_net
        src, ch = make_channel(net, "h0_0_0")
        net.host("h1_0_0").subscribe(ch)
        net.settle()
        result = src.count_query(ch, timeout=5.0)
        net.settle(6.0)
        assert result.completed_at is not None and result.completed_at > 0
