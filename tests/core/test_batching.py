"""Unit and integration tests for the coalescing TCP-mode send path.

The dirty-channel queue in :class:`EcmpAgent` replaces the seed's
immediate one-packet-per-message sends: non-urgent messages toward a
TCP-mode neighbor wait up to ``BATCH_FLUSH_INTERVAL`` (or until the
``BATCH_MAX_RECORDS`` watermark / keepalive tick) and leave as one
``MSG_BATCH`` frame. Urgent messages — CountQuery, CountResponse
rejections, zero-count leaves — flush the whole queue immediately so
coalescing never adds latency where the protocol has a deadline.
See ``docs/ecmp-wire.md``.
"""

import struct
from collections import Counter

import pytest

from repro import ExpressNetwork, NeighborMode, TopologyBuilder
from repro.core.ecmp import messages
from repro.core.ecmp.countids import SUBSCRIBER_ID
from repro.core.ecmp.messages import (
    Count,
    CountQuery,
    CountResponse,
    CountStatus,
    EcmpBatch,
    encode_batch,
)
from repro.errors import CodecError, ReproError
from repro.core.ecmp.protocol import DirtyChannelQueue, EcmpAgent
from repro.core.keys import make_key
from repro.workloads.churn import poisson_churn, schedule_churn
from tests.conftest import flapping_isp_net, make_channel


def other_channel(net, source_host, n=1):
    """Allocate extra channels from the same source."""
    handle = net.source(source_host)
    return [handle.allocate_channel() for _ in range(n)]


class TestDirtyChannelQueue:
    """The queue in isolation: LWW merging and pin semantics."""

    def test_last_writer_wins_same_channel(self, line_net):
        q = DirtyChannelQueue()
        src, ch = make_channel(line_net, "hsrc")
        first = Count(channel=ch, count_id=SUBSCRIBER_ID, count=1)
        second = Count(channel=ch, count_id=SUBSCRIBER_ID, count=2)
        assert q.enqueue(first, pinned=False) is False
        assert q.enqueue(second, pinned=False) is True
        assert len(q) == 1
        assert q.records[0].message.count == 2

    def test_distinct_channels_never_merge(self, line_net):
        q = DirtyChannelQueue()
        channels = other_channel(line_net, "hsrc", n=3)
        for ch in channels:
            q.enqueue(
                Count(channel=ch, count_id=SUBSCRIBER_ID, count=1), pinned=False
            )
        assert len(q) == 3

    def test_pinned_records_are_never_replaced(self, line_net):
        q = DirtyChannelQueue()
        src, ch = make_channel(line_net, "hsrc")
        keyed = Count(channel=ch, count_id=SUBSCRIBER_ID, count=1, key=make_key(ch))
        later = Count(channel=ch, count_id=SUBSCRIBER_ID, count=2)
        assert q.enqueue(keyed, pinned=True) is False
        # A later non-pinned write appends rather than absorbing the
        # pinned join (its verdict FIFO slot must survive).
        assert q.enqueue(later, pinned=False) is False
        assert len(q) == 2
        assert [r.message.count for r in q.records] == [1, 2]

    def test_two_responses_never_merge(self, line_net):
        q = DirtyChannelQueue()
        src, ch = make_channel(line_net, "hsrc")
        ok = CountResponse(channel=ch, count_id=SUBSCRIBER_ID, status=CountStatus.OK)
        assert q.enqueue(ok, pinned=True) is False
        assert q.enqueue(ok, pinned=True) is False
        assert len(q) == 2

    def test_fifo_order_of_first_enqueue_preserved(self, line_net):
        q = DirtyChannelQueue()
        a, b = other_channel(line_net, "hsrc", n=2)
        q.enqueue(Count(channel=a, count_id=SUBSCRIBER_ID, count=1), pinned=False)
        q.enqueue(Count(channel=b, count_id=SUBSCRIBER_ID, count=1), pinned=False)
        # Updating channel a keeps its original slot, ahead of b.
        q.enqueue(Count(channel=a, count_id=SUBSCRIBER_ID, count=5), pinned=False)
        assert [r.message.channel for r in q.records] == [a, b]
        assert q.records[0].message.count == 5


class TestCoalescingSendPath:
    """``_send_message`` through the agent: what queues, what flushes."""

    def test_non_urgent_count_queues_instead_of_sending(self, line_net):
        agent = line_net.ecmp_agents["n0"]
        src, ch = make_channel(line_net, "hsrc")
        before = agent.stats.get("wire_sends")
        agent._send_message(
            Count(channel=ch, count_id=SUBSCRIBER_ID, count=2), "n1"
        )
        assert agent.stats.get("wire_sends") == before
        assert len(agent._batch_queues["n1"]) == 1
        assert "n1" in agent._flush_events

    def test_coalesced_update_counted(self, line_net):
        agent = line_net.ecmp_agents["n0"]
        src, ch = make_channel(line_net, "hsrc")
        for value in (1, 2, 3):
            agent._send_message(
                Count(channel=ch, count_id=SUBSCRIBER_ID, count=value), "n1"
            )
        assert len(agent._batch_queues["n1"]) == 1
        assert agent.stats.get("msgs_coalesced") == 2
        assert agent.stats.get("msgs_tx") >= 3
        assert agent.stats.get("wire_sends") == 0

    def test_urgent_query_flushes_whole_queue_as_one_frame(self, line_net):
        agent = line_net.ecmp_agents["n0"]
        a, b = other_channel(line_net, "hsrc", n=2)
        agent._send_message(Count(channel=a, count_id=SUBSCRIBER_ID, count=1), "n1")
        agent._send_message(Count(channel=b, count_id=SUBSCRIBER_ID, count=1), "n1")
        assert agent.stats.get("wire_sends") == 0
        agent._send_message(
            CountQuery(channel=a, count_id=SUBSCRIBER_ID, timeout=5.0), "n1"
        )
        # The queue left as a single wire frame carrying all three
        # records (pending Counts ride ahead of the urgent query).
        assert agent.stats.get("wire_sends") == 1
        assert agent.stats.get("batch_records_tx") == 3
        assert "n1" not in agent._batch_queues
        assert "n1" not in agent._flush_events

    def test_zero_count_leave_is_urgent(self, line_net):
        agent = line_net.ecmp_agents["n0"]
        src, ch = make_channel(line_net, "hsrc")
        agent._send_message(Count(channel=ch, count_id=SUBSCRIBER_ID, count=0), "n1")
        assert agent.stats.get("wire_sends") == 1

    def test_rejection_response_is_urgent_ok_is_not(self, line_net):
        agent = line_net.ecmp_agents["n0"]
        src, ch = make_channel(line_net, "hsrc")
        ok = CountResponse(channel=ch, count_id=SUBSCRIBER_ID, status=CountStatus.OK)
        agent._send_message(ok, "n1")
        assert agent.stats.get("wire_sends") == 0
        denial = CountResponse(
            channel=ch,
            count_id=SUBSCRIBER_ID,
            status=CountStatus.INVALID_AUTHENTICATOR,
        )
        agent._send_message(denial, "n1")
        assert agent.stats.get("wire_sends") == 1

    def test_watermark_flushes_immediately(self, line_net):
        agent = line_net.ecmp_agents["n0"]
        channels = other_channel(line_net, "hsrc", n=EcmpAgent.BATCH_MAX_RECORDS)
        for ch in channels:
            agent._send_message(
                Count(channel=ch, count_id=SUBSCRIBER_ID, count=1), "n1"
            )
        assert agent.stats.get("wire_sends") == 1
        assert agent.stats.get("batch_records_tx") == EcmpAgent.BATCH_MAX_RECORDS

    def test_timer_flushes_within_interval(self, line_net):
        net = line_net
        agent = net.ecmp_agents["n0"]
        src, ch = make_channel(net, "hsrc")
        agent._send_message(Count(channel=ch, count_id=SUBSCRIBER_ID, count=3), "n1")
        assert agent.stats.get("wire_sends") == 0
        net.run(until=net.sim.now + EcmpAgent.BATCH_FLUSH_INTERVAL + 0.01)
        assert agent.stats.get("wire_sends") == 1
        assert agent.stats.get("batch_flushes") == 1
        # A lone record leaves as a bare message, not a one-record frame.
        assert agent.stats.get("batch_records_tx") == 0
        assert net.ecmp_agents["n1"].stats.get("wire_recvs") >= 1

    def test_udp_mode_neighbor_bypasses_queue(self, line_net):
        agent = line_net.ecmp_agents["n0"]
        agent.set_neighbor_mode("n1", NeighborMode.UDP)
        src, ch = make_channel(line_net, "hsrc")
        agent._send_message(Count(channel=ch, count_id=SUBSCRIBER_ID, count=2), "n1")
        assert agent.stats.get("wire_sends") == 1
        assert "n1" not in agent._batch_queues

    def test_batching_off_network_sends_immediately(self):
        topo = TopologyBuilder.line(2)
        topo.add_node("hsrc")
        topo.add_link("hsrc", "n0", delay=0.001)
        net = ExpressNetwork(topo, hosts=["hsrc"], batching=False)
        net.run(until=0.01)
        agent = net.ecmp_agents["n0"]
        src, ch = make_channel(net, "hsrc")
        agent._send_message(Count(channel=ch, count_id=SUBSCRIBER_ID, count=2), "n1")
        assert agent.stats.get("wire_sends") == 1
        assert agent.stats.get("msgs_coalesced") == 0

    def test_wire_accounting_includes_ip_overhead(self, line_net):
        from repro.core.ecmp.protocol import IP_OVERHEAD

        agent = line_net.ecmp_agents["n0"]
        src, ch = make_channel(line_net, "hsrc")
        message = CountQuery(channel=ch, count_id=SUBSCRIBER_ID, timeout=5.0)
        agent._send_message(message, "n1")
        assert agent.stats.get("bytes_on_wire") == IP_OVERHEAD + message.wire_size()


class TestWireReductionUnderChurn:
    """The wire-reduction gate: what coalescing buys on the workload it
    exists for (the paper's section 5 argument that TCP-mode sessions
    amortize per-channel control traffic). Counts, so exact."""

    @staticmethod
    def drive(batching):
        """Eighteen channels from the three sources of the flapping
        40-node network: every host joins every channel inside 0.2 s,
        Poisson join/leave churn runs on top (a third of each channel's
        audience, most of it uncoalescable one-off updates), and each
        of the six link flaps re-homes many channels toward one new
        upstream — the burst a batch frame carries in one packet."""
        net, sources = flapping_isp_net(batching=batching)
        channels = [s.allocate_channel() for s in sources for _ in range(6)]
        audience = {h: j for j, h in enumerate(sorted(net.host_names))}
        for source in sources:
            del audience[source.name]
        n = len(channels)
        for index, channel in enumerate(channels):
            churners = [h for h, j in audience.items() if j % n == index]
            schedule_churn(
                net,
                channel,
                poisson_churn(
                    churners, duration=6.0, mean_off_time=1.5, mean_on_time=1.5,
                    seed=index,
                ),
            )
            for name, j in audience.items():
                net.sim.schedule_at(
                    0.001 + 0.2 * ((j * n + index) % 97) / 97.0,
                    lambda h=name, c=channel: net.host(h).subscribe(c),
                )
        net.run(until=7.0)
        totals = Counter(net.control_stats_total())
        totals["link_packets"] = sum(l.ecmp_wire_packets for l in net.topo.links)
        totals["link_bytes"] = sum(l.ecmp_wire_bytes for l in net.topo.links)
        return totals

    def test_batching_sends_a_third_of_the_packets_or_fewer(self):
        batched = self.drive(batching=True)
        unbatched = self.drive(batching=False)
        # 224 wire packets against 1,566 (6.99x), 29,982 bytes against
        # 53,340.
        assert 0 < 3 * batched["wire_sends"] <= unbatched["wire_sends"]
        assert 0 < batched["bytes_on_wire"] < unbatched["bytes_on_wire"]
        assert batched["msgs_coalesced"] > 0 and batched["batch_flushes"] > 0
        # The baseline never coalesces: one wire packet per message.
        assert unbatched["msgs_coalesced"] == 0
        assert unbatched["wire_sends"] == unbatched["msgs_tx"]
        # Byte accounting is live end to end: the links saw the agents'
        # packets (a send into a link that is down never reaches it).
        assert 0 < batched["link_packets"] <= batched["wire_sends"]
        assert 0 < batched["link_bytes"] <= batched["bytes_on_wire"]


class TestDirectUrgentSend:
    """An urgent message toward a neighbor with nothing pending skips
    the queue object; it must be indistinguishable, in accounting and on
    the wire, from the one-record flush it stands for."""

    ACCOUNTED = ("msgs_tx", "bytes_tx", "batch_flushes", "wire_sends", "bytes_on_wire")

    def wired_net(self):
        topo = TopologyBuilder.line(2)
        topo.add_node("hsrc")
        topo.add_link("hsrc", "n0", delay=0.001)
        net = ExpressNetwork(topo, hosts=["hsrc"], wire_format=True)
        net.run(until=0.01)
        frames = []
        link = net.topo.link_between("n0", "n1")
        transmit = link.transmit

        def tap(sender, packet):
            frames.append((packet.payload, packet.size, dict(packet.headers)))
            transmit(sender, packet)

        link.transmit = tap
        return net, net.ecmp_agents["n0"], frames

    def sent(self, agent) -> dict:
        return {name: agent.stats.get(name) for name in self.ACCOUNTED}

    def test_direct_send_matches_queued_single_record_flush(self):
        net, direct, direct_frames = self.wired_net()
        src, ch = make_channel(net, "hsrc")
        query = CountQuery(channel=ch, count_id=SUBSCRIBER_ID, timeout=5.0)
        direct._send_message(query, "n1")
        assert "n1" not in direct._batch_queues
        assert "n1" not in direct._flush_events

        # The same message held back, so a record is pending and the
        # flush takes the queue.
        net, queued, queued_frames = self.wired_net()
        src, ch = make_channel(net, "hsrc")
        query = CountQuery(channel=ch, count_id=SUBSCRIBER_ID, timeout=5.0)
        queued._send_message(query, "n1", urgent=False)
        assert len(queued._batch_queues["n1"]) == 1 and queued_frames == []
        queued._flush_neighbor("n1", trigger="urgent")

        assert self.sent(direct) == self.sent(queued)
        assert direct.stats.get("batch_flushes") == 1
        assert direct_frames == queued_frames
        assert len(direct_frames) == 1

    def test_pending_record_still_takes_the_queue(self):
        net, agent, frames = self.wired_net()
        src, ch = make_channel(net, "hsrc")
        pending = Count(channel=ch, count_id=SUBSCRIBER_ID, count=2)
        query = CountQuery(channel=ch, count_id=SUBSCRIBER_ID, timeout=5.0)
        agent._send_message(pending, "n1")
        agent._send_message(query, "n1")
        # One frame, the pending Count ahead of the urgent query.
        assert [payload for payload, _, _ in frames] == [encode_batch([pending, query])]
        assert agent.stats.get("batch_flushes") == 1
        assert agent.stats.get("wire_sends") == 1
        assert agent.stats.get("batch_records_tx") == 2
        assert "n1" not in agent._batch_queues and "n1" not in agent._flush_events

    def test_non_adjacent_name_is_sent_and_counted_nowhere(self):
        """ECMP is hop-by-hop: a node that exists but is not adjacent is
        treated like an unknown name, before any accounting."""
        net, _, frames = self.wired_net()
        agent = net.ecmp_agents["n1"]  # hsrc is two hops away
        src, ch = make_channel(net, "hsrc")
        before = self.sent(agent)
        dropped = agent.node.dropped_packets
        query = CountQuery(channel=ch, count_id=SUBSCRIBER_ID, timeout=5.0)
        for name in ("hsrc", "nowhere"):
            agent._send_message(query, name)
            agent._send_message(query, name, urgent=False)
        assert self.sent(agent) == before and frames == []
        assert agent.node.dropped_packets == dropped
        assert not agent._batch_queues and not agent._flush_events

    def test_fanned_out_query_is_encoded_once(self, monkeypatch):
        """One CountQuery forwarded to k downstream neighbors is k
        packets sharing one encoding."""
        from repro.core.ecmp import protocol

        topo = TopologyBuilder.star(4)
        net = ExpressNetwork(
            topo, hosts=[f"leaf{i}" for i in range(4)], wire_format=True
        )
        net.run(until=0.01)
        src, ch = make_channel(net, "leaf0")
        for i in (1, 2, 3):
            net.host(f"leaf{i}").subscribe(ch)
        net.settle()

        hub = net.ecmp_agents["hub"]
        encoded = []
        encode = protocol.encode_message
        monkeypatch.setattr(
            protocol, "encode_message", lambda m: encoded.append(m) or encode(m)
        )
        payloads = []
        for link in net.topo.links:
            transmit = link.transmit

            def tap(sender, packet, transmit=transmit):
                if sender is hub.node:
                    payloads.append(packet.payload)
                transmit(sender, packet)

            link.transmit = tap
        result = hub.count_query(ch, SUBSCRIBER_ID, timeout=5.0)
        assert len(payloads) == 3 and len(encoded) == 1
        assert payloads[0] is payloads[1] is payloads[2]
        net.settle(6.0)
        assert result.count == 3 and not result.partial


class TestMutatedFrameDecoding:
    """Satellite regression (fault-injection work): a ``MSG_BATCH``
    frame mangled on the wire — duplicated then truncated, torn
    mid-record, concatenated with its own copy, nested — must raise
    :class:`CodecError` from ``decode_batch`` rather than partially
    apply a plausible prefix of records. Pinned on the shipped codec
    and the reference codec (the ``codec`` fixture); the adversarial
    byte strings come from the fault subsystem's
    :meth:`WireMutator.mutate_bytes` applied to real encoder output.
    """

    @staticmethod
    def make_frame(net, n=4, codec=messages):
        channels = other_channel(net, "hsrc", n=n)
        records = [
            Count(channel=ch, count_id=SUBSCRIBER_ID, count=i + 1)
            for i, ch in enumerate(channels)
        ]
        records[0] = Count(
            channel=channels[0],
            count_id=SUBSCRIBER_ID,
            count=1,
            key=make_key(channels[0]),
        )
        return codec.encode_batch(records), records

    def test_duplicated_then_truncated_raises_not_partial(self, line_net, codec):
        frame, records = self.make_frame(line_net, codec=codec)
        for cut in range(1, len(frame)):
            mangled = frame + frame[:cut]
            with pytest.raises(CodecError):
                codec.decode_batch(mangled)

    def test_every_truncation_point_raises(self, line_net, codec):
        frame, records = self.make_frame(line_net, codec=codec)
        for cut in range(len(frame)):
            with pytest.raises(CodecError):
                codec.decode_batch(frame[:cut])

    def test_clean_frame_still_round_trips(self, line_net, codec):
        frame, records = self.make_frame(line_net, codec=codec)
        assert codec.decode_batch(frame) == records

    def test_wire_mutator_fuzz_never_partially_applies(self, line_net, codec):
        """Every non-identical byte string the mutator can produce from
        a valid frame either round-trips in full or raises — the decode
        never returns a shortened record list."""
        import random

        from repro.faults import WireMutator

        frame, records = self.make_frame(line_net, codec=codec)
        mutator = WireMutator(
            random.Random(1234), drop=0.4, duplicate=0.5, reorder=0.5
        )
        outcomes = {"ok": 0, "rejected": 0, "dropped": 0}
        for _ in range(300):
            pieces = mutator.mutate_bytes(frame)
            if not pieces:
                outcomes["dropped"] += 1
                continue
            # A framing layer that mis-slices the stream hands the
            # decoder the concatenation; per-piece delivery is the
            # duplicate-frame case, which is merely idempotent.
            for candidate in pieces + [b"".join(pieces)]:
                try:
                    decoded = codec.decode_batch(candidate)
                except CodecError:
                    outcomes["rejected"] += 1
                else:
                    outcomes["ok"] += 1
                    assert decoded == records
        # The draws must actually exercise both outcomes.
        assert outcomes["rejected"] > 0
        assert outcomes["ok"] > 0

    @staticmethod
    def nested(frame: bytes, depth: int = 1) -> bytes:
        """``frame`` wrapped as the only record of ``depth`` enclosing
        batches: what ``encode_batch`` refuses to build."""
        for _ in range(depth):
            frame = b"\x10\x00\x00\x01" + len(frame).to_bytes(2, "big") + frame
        return frame

    def test_nested_batch_is_rejected_by_both_decoders(self, line_net, codec):
        # docs/ecmp-wire.md: "Batches never nest". A nested frame must
        # not come back as an EcmpBatch inside the record list.
        frame, records = self.make_frame(line_net, codec=codec)
        for decode in (codec.decode_batch, codec.decode_message):
            with pytest.raises(CodecError, match="batches cannot nest"):
                decode(self.nested(frame))

    def test_deep_nest_is_a_codec_error_not_a_recursion_error(self, codec):
        # The largest frame a uint16 record length admits, nothing but
        # batch headers: one per six bytes, ~10,900 deep. Rejected at
        # the first record, in O(1), before any recursion.
        inner = b"\x10\x00\x00\x01"
        depth = (0xFFFF - len(inner)) // 6
        frame = self.nested(inner, depth)
        assert depth > 10_000 and len(frame) <= 0xFFFF
        for decode in (codec.decode_batch, codec.decode_message):
            with pytest.raises(CodecError, match="batches cannot nest"):
                decode(frame)

    def deliver(self, net, payload: bytes):
        """Hand ``payload`` to n1 as an ECMP packet from n0; returns
        n1's agent and the stats the delivery changed."""
        from repro.netsim.packet import Packet

        agent = net.ecmp_agents["n1"]
        before = dict(agent.stats.as_dict())
        packet = Packet(proto="ecmp", src="n0", dst="n1", payload=payload)
        agent.handle_packet(
            packet, net.topo.node("n1").interface_to(net.topo.node("n0")).index
        )
        after = agent.stats.as_dict()
        changed = {
            name: after[name] - before.get(name, 0)
            for name in after
            if after[name] != before.get(name, 0)
        }
        return agent, changed

    def test_receive_path_counts_undecodable_instead_of_applying(self, line_net):
        """End to end: a torn frame delivered to an agent increments
        ``undecodable_messages`` and changes no channel state."""
        frame, records = self.make_frame(line_net)
        agent, changed = self.deliver(line_net, frame + frame[: len(frame) // 2])
        assert changed == {"undecodable_messages": 1}
        assert not agent.channels

    def test_receive_path_counts_a_nested_batch_as_undecodable(self, line_net):
        # Not as a received batch: batches_rx / batch_records_rx (and
        # everything else) stay put.
        frame, records = self.make_frame(line_net)
        agent, changed = self.deliver(line_net, self.nested(frame))
        assert changed == {"undecodable_messages": 1}
        assert not agent.channels

    @pytest.mark.parametrize(
        "frame",
        [
            # A Count with countId 0, and one from a class-D source.
            struct.pack("!BBHI3sIB", 0x02, 0, 0, 0x0A000001, b"\0\0\1", 1, 0),
            struct.pack(
                "!BBHI3sIB", 0x02, 0, SUBSCRIBER_ID, 0xE0000001, b"\0\0\1", 1, 0
            ),
            # A proactive CountQuery whose tolerance curve is all zeros.
            struct.pack(
                "!BBHI3sIBfff", 0x01, 0x02, SUBSCRIBER_ID, 0x0A000001, b"\0\0\1",
                1000, 0, 0.0, 0.0, 0.0,
            ),
        ],
        ids=["countid-zero", "multicast-source", "zero-tolerance-curve"],
    )
    def test_receive_path_counts_invalid_field_values_as_undecodable(
        self, line_net, frame
    ):
        # Well-framed, but no such message can exist: the constructors
        # refuse it with their own error types, which the codec hands
        # on as the one error it raises, and the receive path counts.
        with pytest.raises(CodecError, match="invalid field value") as caught:
            messages.decode_message(frame)
        assert isinstance(caught.value.__cause__, ReproError)
        agent, changed = self.deliver(line_net, frame)
        assert changed == {"undecodable_messages": 1}
        assert not agent.channels


class TestReconnectResend:
    """Satellite regression: the §3.2 unsolicited state dump on TCP
    session (re-)establishment leaves as ONE wire send."""

    N_CHANNELS = 5

    @pytest.fixture
    def subscribed_net(self, line_net):
        net = line_net
        channels = other_channel(net, "hsrc", n=self.N_CHANNELS)
        for ch in channels:
            net.host("hsub").subscribe(ch)
        net.settle()
        return net, channels

    def test_reconnect_resends_full_state_in_one_frame(self, subscribed_net):
        net, channels = subscribed_net
        n1 = net.ecmp_agents["n1"]
        link = net.topo.link_between("n0", "n1")
        link.fail()
        net.settle()

        sent = []
        original = n1._transmit

        def spy(message, peer, *args, **kwargs):
            sent.append((message, peer.name))
            return original(message, peer, *args, **kwargs)

        n1._transmit = spy
        link.recover()
        net.settle()

        upstream_sends = [m for m, peer in sent if peer == "n0"]
        assert len(upstream_sends) == 1, upstream_sends
        frame = upstream_sends[0]
        assert isinstance(frame, EcmpBatch)
        assert len(frame) == self.N_CHANNELS
        assert {m.channel for m in frame.messages} == set(channels)
        assert all(m.count == 1 for m in frame.messages)

    def test_reconnect_restores_upstream_counts(self, subscribed_net):
        net, channels = subscribed_net
        link = net.topo.link_between("n0", "n1")
        link.fail()
        net.settle()
        n0 = net.ecmp_agents["n0"]
        assert all(n0.subscriber_count_estimate(ch) == 0 for ch in channels)
        link.recover()
        net.settle()
        assert all(n0.subscriber_count_estimate(ch) == 1 for ch in channels)

    def test_failure_drops_pending_queue(self, subscribed_net):
        """Messages queued toward a session that dies are lost with it;
        the reconnect dump covers them instead of a stale flush."""
        net, channels = subscribed_net
        n1 = net.ecmp_agents["n1"]
        n1._send_message(
            Count(channel=channels[0], count_id=SUBSCRIBER_ID, count=9), "n0"
        )
        assert "n0" in n1._batch_queues
        net.topo.link_between("n0", "n1").fail()
        net.settle()
        assert "n0" not in n1._batch_queues
        assert "n0" not in n1._flush_events
