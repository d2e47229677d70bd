"""Unit tests for the counting primitives (PendingQuery, QueryResult,
timeout decrement) and the unsupported-count rejection path."""

import pytest

from repro.core.channel import Channel
from repro.core.counting import (
    MIN_FORWARD_TIMEOUT,
    TIMEOUT_RTT_MULTIPLE,
    PendingQuery,
    QueryResult,
    decrement_timeout,
)
from repro.core.ecmp.countids import APPLICATION_RANGE, SUBSCRIBER_ID
from repro.core.ecmp.messages import Count, encode_message
from tests.conftest import make_channel

CH = Channel.of(0x0A000001, 1)


class TestTimeoutDecrement:
    def test_decrement_is_rtt_multiple(self):
        """§3.1: "decrements the timeout value by a small multiple of
        the measured round-trip time to its upstream neighbor"."""
        assert decrement_timeout(5.0, 0.1) == 5.0 - TIMEOUT_RTT_MULTIPLE * 0.1

    def test_never_below_floor(self):
        assert decrement_timeout(0.01, 10.0) == MIN_FORWARD_TIMEOUT

    def test_children_time_out_before_parents(self):
        """Chained decrements are strictly decreasing until the floor —
        the mechanism that lets a child "send a partial reply to its
        parent before the parent itself times out"."""
        timeout = 5.0
        chain = [timeout]
        for _ in range(6):
            timeout = decrement_timeout(timeout, 0.05)
            chain.append(timeout)
        assert all(a > b for a, b in zip(chain, chain[1:]))


class TestPendingQuery:
    def make(self, outstanding=("a", "b")):
        pending = PendingQuery(
            channel=CH, count_id=SUBSCRIBER_ID, deadline=5.0, origin="up"
        )
        pending.outstanding.update(outstanding)
        return pending

    def test_record_reply_accumulates(self):
        pending = self.make()
        assert pending.record_reply("a", 3)
        assert pending.record_reply("b", 4)
        assert pending.is_complete()
        assert pending.total() == 7

    def test_unexpected_reply_rejected(self):
        pending = self.make()
        assert not pending.record_reply("stranger", 9)
        assert pending.received_sum == 0

    def test_duplicate_reply_rejected(self):
        pending = self.make()
        pending.record_reply("a", 3)
        assert not pending.record_reply("a", 3)
        assert pending.total() == 3

    def test_local_contribution_added(self):
        pending = self.make(outstanding=())
        pending.local_contribution = 2
        assert pending.total() == 2


class TestQueryResult:
    def test_resolution_and_callbacks(self):
        result = QueryResult()
        seen = []
        result.on_done(lambda r: seen.append((r.count, r.partial)))
        assert not result.done
        result._resolve(42, True, now=7.0)
        assert result.done and result.count == 42 and result.partial
        assert result.completed_at == 7.0
        assert seen == [(42, True)]

    def test_late_callback_fires_immediately(self):
        result = QueryResult()
        result._resolve(1, False, now=0.0)
        seen = []
        result.on_done(lambda r: seen.append(r.count))
        assert seen == [1]


class TestUnsupportedCount:
    def test_stray_count_rejected_with_response(self, isp_net):
        """§3.1: a Count matching nothing gets an UNSUPPORTED_COUNT
        rejection so the sender can stop."""
        net = isp_net
        src, ch = make_channel(net, "h0_0_0")
        net.host("h1_0_0").subscribe(ch)
        net.settle()
        # Inject a stray application-count at an on-tree router from a
        # neighbor that was never asked.
        stray_id = APPLICATION_RANGE.start + 9
        agent = net.ecmp_agents["t1"]
        hub = net.topo.node("t1")
        peer = net.topo.node("t0")
        from repro.netsim.packet import Packet

        stray = Count(channel=ch, count_id=stray_id, count=5)
        packet = Packet(
            src=peer.address, dst=hub.address, proto="ecmp",
            payload=encode_message(stray), size=36,
        )
        agent.handle_packet(packet, hub.interface_to(peer).index)
        net.settle()
        assert agent.stats.get("unexpected_counts") == 1
        assert net.ecmp_agents["t0"].stats.get("rejected_counts") == 1
