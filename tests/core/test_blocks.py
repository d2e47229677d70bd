"""Unit/integration tests for aggregated edge-subscriber blocks.

``tests/properties/test_block_equivalence.py`` pins the headline
property (block(N) ≡ N individual subscribers upstream); this file
covers the block mechanics themselves: attachment rules, count
arithmetic, FIB behaviour at a blocks-only edge, final-hop delivery
accounting, CountQuery folding, the TREE_ONLY fast path, UDP-mode
soft-state expiry/refresh, joins the network refuses, and the one
writer of a block's membership.
"""

import ast
from pathlib import Path

import pytest

from repro import ExpressNetwork, TopologyBuilder, make_key
from repro.core.ecmp.protocol import EcmpAgent, NeighborMode
from repro.core.ecmp.state import BLOCK_PREFIX, is_pseudo_neighbor, LOCAL
from repro.errors import ChannelError, ProtocolError, TopologyError


def build_net(**kwargs) -> ExpressNetwork:
    """hsrc - n0 - n1 - n2 (edge), plus one ordinary host on n2."""
    topo = TopologyBuilder.line(3)
    topo.add_node("hsrc")
    topo.add_link("hsrc", "n0", delay=0.001)
    topo.add_node("hsub")
    topo.add_link("hsub", "n2", delay=0.001)
    net = ExpressNetwork(topo, hosts=["hsrc", "hsub"], **kwargs)
    net.run(until=0.01)
    return net


class TestPseudoNeighbors:
    def test_block_prefix_is_pseudo(self):
        assert is_pseudo_neighbor(LOCAL)
        assert is_pseudo_neighbor(BLOCK_PREFIX + "b0")
        assert not is_pseudo_neighbor("n1")

    def test_blocks_never_appear_in_tree_edges(self):
        net = build_net()
        source = net.source("hsrc")
        channel = source.allocate_channel()
        block = net.subscriber_block("n2")
        block.join(channel, 10)
        net.settle()
        edges = net.tree_edges(channel)
        assert all(not child.startswith(BLOCK_PREFIX) for _, child in edges)
        assert ("n1", "n2") in edges


class TestAttachment:
    def test_attach_to_unknown_node_rejected(self):
        net = build_net()
        with pytest.raises(TopologyError):
            net.subscriber_block("nope")

    def test_attach_to_host_rejected(self):
        net = build_net()
        with pytest.raises(ProtocolError):
            net.subscriber_block("hsub")

    def test_duplicate_name_rejected(self):
        net = build_net()
        net.subscriber_block("n2", name="b")
        with pytest.raises(ProtocolError):
            net.subscriber_block("n2", name="b")

    def test_auto_names_are_unique(self):
        net = build_net()
        a = net.subscriber_block("n2")
        b = net.subscriber_block("n2")
        assert a.pseudo != b.pseudo
        assert a.edge_router == b.edge_router == "n2"


class TestCountArithmetic:
    def test_join_and_leave_accumulate(self):
        net = build_net()
        channel = net.source("hsrc").allocate_channel()
        block = net.subscriber_block("n2")
        assert block.join(channel, 5) == 5
        assert block.join(channel) == 6
        assert block.leave(channel, 2) == 4
        assert block.count(channel) == 4
        assert block.total_members() == 4

    def test_leave_clamps_at_zero(self):
        net = build_net()
        channel = net.source("hsrc").allocate_channel()
        block = net.subscriber_block("n2")
        block.join(channel, 3)
        assert block.leave(channel, 10) == 0
        assert block.count(channel) == 0

    def test_nonpositive_deltas_rejected(self):
        net = build_net()
        channel = net.source("hsrc").allocate_channel()
        block = net.subscriber_block("n2")
        with pytest.raises(ChannelError):
            block.join(channel, 0)
        with pytest.raises(ChannelError):
            block.leave(channel, -1)

    def test_tree_only_fast_path_counts(self):
        net = build_net()  # TREE_ONLY default
        channel = net.source("hsrc").allocate_channel()
        block = net.subscriber_block("n2")
        agent = net.router_agent("n2")
        block.join(channel, 1)  # transition: full path
        assert agent.block_fast_updates == 0
        block.join(channel, 41)  # same-sign: fast path
        block.leave(channel, 2)
        assert agent.block_fast_updates == 2
        state = agent.channels[channel]
        assert state.downstream[block.pseudo].count == 40
        block.leave(channel, 40)  # transition to zero: full path
        assert agent.block_fast_updates == 2


class TestDataPlane:
    def test_final_hop_delivery_is_arithmetic(self):
        net = build_net()
        source = net.source("hsrc")
        channel = source.allocate_channel()
        block = net.subscriber_block("n2")
        block.join(channel, 1000)
        net.settle()
        for _ in range(3):
            source.send(channel)
        net.settle()
        assert block.packets_seen == 3
        assert block.deliveries == 3000
        assert block.bytes_delivered > 0
        # The edge keeps an RPF-valid FIB entry with no outgoing
        # interfaces: packets terminate there without §3.4 no-match
        # drops and without any fan-out link events.
        fib = net.fibs["n2"]
        assert fib.no_match_drops == 0
        entry = fib.get(channel.source, channel.group)
        assert entry is not None and entry.outgoing == 0

    def test_block_and_host_coexist_at_one_edge(self):
        net = build_net()
        source = net.source("hsrc")
        channel = source.allocate_channel()
        block = net.subscriber_block("n2")
        block.join(channel, 7)
        got = []
        net.host("hsub").subscribe(channel, on_data=got.append)
        net.settle()
        source.send(channel)
        net.settle()
        assert len(got) == 1  # real host still gets real packets
        assert block.deliveries == 7

    def test_prune_after_last_leave(self):
        net = build_net()
        source = net.source("hsrc")
        channel = source.allocate_channel()
        block = net.subscriber_block("n2")
        block.join(channel, 4)
        net.settle()
        assert net.fibs["n1"].get(channel.source, channel.group) is not None
        block.leave(channel, 4)
        net.settle()
        assert net.fibs["n2"].get(channel.source, channel.group) is None
        assert net.fibs["n1"].get(channel.source, channel.group) is None


class TestCountQuery:
    def test_block_counts_fold_into_query(self):
        net = build_net()
        source = net.source("hsrc")
        channel = source.allocate_channel()
        net.subscriber_block("n2").join(channel, 123)
        net.host("hsub").subscribe(channel)
        net.settle()
        result = source.count_query(channel, timeout=2.0)
        net.settle(3.0)
        assert result.done and not result.partial
        assert result.count == 124


class TestUdpSoftState:
    def test_udp_block_refreshes_and_survives(self):
        net = build_net(default_mode=NeighborMode.UDP)
        channel = net.source("hsrc").allocate_channel()
        block = net.subscriber_block("n2", udp=True)
        block.join(channel, 50)
        agent = net.router_agent("n2")
        horizon = EcmpAgent.UDP_ROBUSTNESS * EcmpAgent.UDP_QUERY_INTERVAL
        net.run(until=net.sim.now + 2 * horizon)
        # Refresh timer kept the record alive through several expiry
        # sweeps.
        assert agent.channels[channel].downstream[block.pseudo].count == 50
        assert block.count(channel) == 50

    def test_stopped_udp_block_expires(self):
        net = build_net(default_mode=NeighborMode.UDP)
        channel = net.source("hsrc").allocate_channel()
        block = net.subscriber_block("n2", udp=True)
        block.join(channel, 50)
        net.settle()
        block.stop()  # refresh timer dies; soft state must age out
        agent = net.router_agent("n2")
        horizon = EcmpAgent.UDP_ROBUSTNESS * EcmpAgent.UDP_QUERY_INTERVAL
        net.run(until=net.sim.now + 3 * horizon)
        state = agent.channels.get(channel)
        record = None if state is None else state.downstream.get(block.pseudo)
        assert record is None
        # Expiry reconciled the block's own ledger, not just the
        # protocol record.
        assert block.count(channel) == 0

    def test_expired_block_is_credited_with_no_more_deliveries(self):
        """A block whose soft state expired has no members on the
        channel, so the forwarder's delivery view must drop it: a
        co-located live block keeps the channel on the tree and its
        packets still arrive at the edge."""
        net = build_net(default_mode=NeighborMode.UDP)
        source = net.source("hsrc")
        channel = source.allocate_channel()
        a = net.subscriber_block("n2", name="a", udp=True)
        b = net.subscriber_block("n2", name="b", udp=True)
        a.join(channel, 50)
        b.join(channel, 7)
        net.settle()
        source.send(channel)  # the delivery view exists from here on
        net.settle()
        forwarder = net.forwarders["n2"]
        before = (a.deliveries, b.deliveries, forwarder.stats["block_deliveries"])
        assert before == (50, 7, 57)
        a.stop()
        horizon = EcmpAgent.UDP_ROBUSTNESS * EcmpAgent.UDP_QUERY_INTERVAL
        net.run(until=net.sim.now + 3 * horizon)
        assert a.count(channel) == 0
        assert b.count(channel) == 7
        for _ in range(3):
            source.send(channel)
        net.settle()
        assert a.deliveries == before[0]
        assert b.deliveries == before[1] + 3 * 7
        assert forwarder.stats["block_deliveries"] == before[2] + 3 * 7

    def test_tcp_block_needs_no_refresh(self):
        net = build_net()
        channel = net.source("hsrc").allocate_channel()
        block = net.subscriber_block("n2")  # udp=False
        assert block._refresh_task is None
        block.join(channel, 5)
        horizon = EcmpAgent.UDP_ROBUSTNESS * EcmpAgent.UDP_QUERY_INTERVAL
        net.run(until=net.sim.now + 3 * horizon)
        assert block.count(channel) == 5


class TestRefusedBlock:
    """A block counts the members its edge router's record holds: a
    join the network refuses adds none and is credited nothing."""

    @staticmethod
    def keyed_channel():
        net = ExpressNetwork(TopologyBuilder.isp(2, 2, 2, seed=11))
        net.run(until=0.1)
        source = net.source("h0_0_0")
        channel = source.allocate_channel()
        key = make_key(channel)
        source.channel_key(channel, key)
        return net, source, channel, key

    @staticmethod
    def deliveries_of(net, source, channel, block):
        for _ in range(5):
            source.send(channel)
        net.settle()
        return block.deliveries

    def test_a_join_the_edge_refuses_adds_no_members(self):
        net, source, channel, key = self.keyed_channel()
        net.host("h1_1_0").subscribe(channel, key=key)
        net.settle()
        block = net.subscriber_block("e1_1")
        assert block.join(channel, 1000) == 0
        assert block.pseudo not in net.router_agent("e1_1").channels[channel].downstream
        assert block.count(channel) == 0
        assert self.deliveries_of(net, source, channel, block) == 0

    def test_a_join_refused_upstream_is_rolled_back(self):
        net, source, channel, _ = self.keyed_channel()
        block = net.subscriber_block("e1_1")
        block.join(channel, 1000)  # optimistic: the edge has no key yet
        net.settle()
        assert net.router_agent("e1_1").stats["denied_subscriptions"] == 1
        assert block.count(channel) == 0
        assert self.deliveries_of(net, source, channel, block) == 0


class TestOneWriter:
    SRC = Path(__file__).resolve().parents[2] / "src"
    MUTATORS = {"pop", "clear", "update", "setdefault", "popitem"}

    def writes_to_members(self, tree: ast.AST):
        """``(qualified function name, line)`` of every statement that
        writes into a ``<x>.members`` mapping."""

        def on_members(node) -> bool:
            return isinstance(node, ast.Attribute) and node.attr == "members"

        found = []

        def visit(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope = f"{scope}.{node.name}" if scope else node.name
            targets = []
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            if any(isinstance(t, ast.Subscript) and on_members(t.value) for t in targets):
                found.append((scope, node.lineno))
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self.MUTATORS
                and on_members(node.func.value)
            ):
                found.append((scope, node.lineno))
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(tree, "")
        return found

    def test_block_membership_is_written_in_one_function(self):
        """Join, leave, the batch fold, UDP expiry and a crash all move
        a block's count through ``SubscriberBlock.set_count``, which
        keeps the channel's delivery view in step: a writer beside it
        would have to remember to."""
        writers = {}
        for path in sorted(self.SRC.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for scope, line in self.writes_to_members(tree):
                writers.setdefault(scope, []).append(f"{path.relative_to(self.SRC)}:{line}")
        assert set(writers) == {"SubscriberBlock.set_count"}, writers
        sites = writers["SubscriberBlock.set_count"]
        assert all(site.startswith("repro/core/blocks.py:") for site in sites)
