"""Deferred delivery accounting: ``repro.core.blocks``' delivery views
and the block counters they flush into.

The load-bearing property is *equivalence*: deferred, batch-applied
counters must land on exactly the values the old per-packet dict
increments produced. The hypothesis test drives random pend/flush
interleavings against a plain-dict oracle.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExpressNetwork, TopologyBuilder
from repro.core.blocks import DeliveryView, flush_agent_views


class FakeStats:
    """Stand-in for the forwarder's stats bag (``incr`` protocol)."""

    def __init__(self):
        self.counts: dict = {}

    def incr(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount


class FakeBlock:
    """The counter slots a delivery view adds to, without the
    flushing properties of ``SubscriberBlock``."""

    def __init__(self, channel, members):
        self._packets_seen = self._deliveries = self._bytes_delivered = 0
        self.members = {channel: members}

    def counters(self) -> dict:
        return {
            "packets_seen": self._packets_seen,
            "deliveries": self._deliveries,
            "bytes_delivered": self._bytes_delivered,
        }


class FakeAgent:
    def __init__(self, blocks):
        self.blocks = {f"b{i}": block for i, block in enumerate(blocks)}
        self._delivery_views: dict = {}


def make_view(n_blocks, member_counts):
    channel = "ch"
    blocks = [FakeBlock(channel, member_counts[i]) for i in range(n_blocks)]
    agent = FakeAgent(blocks)
    view = DeliveryView(agent, channel, FakeStats())
    view.refresh()
    return view, blocks


class TestDeliveryView:
    @settings(max_examples=30, deadline=None)
    @given(
        n_blocks=st.integers(min_value=1, max_value=32),
        packets=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=9),
                st.integers(min_value=0, max_value=1500),
            ),
            min_size=0,
            max_size=20,
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_flush_matches_per_packet_dict_oracle(self, n_blocks, packets, seed):
        """Batched flush == per-packet dict increments."""
        member_counts = [(seed + 3 * i) % 5 + 1 for i in range(n_blocks)]
        view, blocks = make_view(n_blocks, member_counts)
        oracle = {
            id(b): {"packets_seen": 0, "deliveries": 0, "bytes_delivered": 0}
            for b in blocks
        }
        oracle_stats = FakeStats()
        for count, nbytes in packets:
            view.pending_packets += count
            view.pending_bytes += count * nbytes
            for block in blocks:
                m = block.members["ch"]
                row = oracle[id(block)]
                row["packets_seen"] += count
                row["deliveries"] += m * count
                row["bytes_delivered"] += m * count * nbytes
            oracle_stats.incr("block_deliveries", view.members_sum * count)
            oracle_stats.incr("block_packets", count)
        view.flush()
        view.flush()  # second flush must be a no-op
        for block in blocks:
            assert block.counters() == oracle[id(block)]
        if packets:
            assert view.stats.counts == oracle_stats.counts
        assert view.pending_packets == 0
        assert view.pending_bytes == 0

    def test_refresh_freezes_membership(self):
        view, blocks = make_view(3, [2, 1, 4])
        assert view.members_sum == 7
        assert view.blocks == blocks
        assert not view.stale
        # Membership changes after refresh are invisible until the next
        # refresh — the frozen counts are the equivalence contract.
        blocks[0].members["ch"] = 99
        view.pending_packets = 1
        view.flush()
        assert blocks[0].counters()["deliveries"] == 2
        view.refresh()
        assert view.members_sum == 99 + 1 + 4

    def test_flush_agent_views_skips_idle_views(self):
        view, _ = make_view(2, [1, 1])
        idle_view, _ = make_view(2, [1, 1])
        agent = view.agent
        agent._delivery_views = {"ch": view, "other": idle_view}
        view.pending_packets = 2
        flush_agent_views(agent)
        assert view.pending_packets == 0
        assert view.stats.counts["block_packets"] == 2
        assert idle_view.stats.counts == {}


class TestCrashKeepsDeliveries:
    def test_lose_state_flushes_pending_block_deliveries(self):
        """A crash drops the delivery views; the tallies pending in them
        land in the block and forwarder counters first, as the
        cumulative counters a crash keeps."""
        net = ExpressNetwork(TopologyBuilder.isp(2, 2, 1, seed=1))
        net.run(until=0.1)
        source = net.source("h0_0_0")
        channel = source.allocate_channel()
        block = net.subscriber_block("e1_0")
        block.join(channel, 1000)
        net.settle()
        for _ in range(5):
            source.send(channel)
        net.settle()
        net.ecmp_agents["e1_0"].lose_state()
        assert block.deliveries == 5000
        assert net.forwarders["e1_0"].stats["block_deliveries"] == 5000
