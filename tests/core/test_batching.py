"""Unit and integration tests for the coalescing TCP-mode send path.

A TCP-mode neighbor session in :class:`EcmpAgent` sends when idle and
coalesces when busy: a message that finds nothing queued and no
hold-off running is on the wire in the same instant, and opens a
hold-off of ``BATCH_FLUSH_INTERVAL``; non-urgent messages arriving
inside it wait in the dirty-channel queue and leave as one ``MSG_BATCH``
frame when it ends (or at the ``BATCH_MAX_RECORDS`` watermark). Urgent
messages — CountQuery, CountResponse rejections, zero-count leaves —
flush the whole queue immediately and open no hold-off, so coalescing
never adds latency where the protocol has a deadline. Loops that emit a
burst toward one neighbor queue explicitly and flush once at their end.
See ``docs/ecmp-wire.md``.

The policy is :class:`NeighborSessions` (``core/ecmp/session.py``), and
the cases that pin it drive that component alone: a bare ``Simulator``,
an owner stub, a ``transmit`` that records (:class:`BareSessions`). The
cases that need what is around it — real joins, accounting at the
agent, frames on a link — run whole networks.
"""

import struct
from collections import Counter
from types import SimpleNamespace

import pytest

from repro import ExpressNetwork, NeighborMode, TopologyBuilder
from repro.core.ecmp import messages
from repro.core.ecmp.countids import ALL_CHANNELS_ID, SUBSCRIBER_ID
from repro.core.ecmp.messages import (
    Count,
    CountQuery,
    CountResponse,
    CountStatus,
    EcmpBatch,
    encode_batch,
    encode_message,
)
from repro.errors import CodecError, ProtocolError, ReproError
from repro.core.channel import Channel
from repro.core.ecmp.protocol import DISCOVERY_CHANNEL, DirtyChannelQueue, EcmpAgent
from repro.core.ecmp.session import Neighbor, NeighborSessions
from repro.core.keys import make_key
from repro.inet.headers import ETHERNET_TCP_SEGMENT
from repro.netsim.engine import Simulator
from repro.netsim.packet import IP_HEADER_BYTES, Packet
from repro.netsim.trace import Counter as StatsBag
from repro.workloads import poisson_churn, schedule_ops
from tests.oracles import sessions as sessions_oracle
from tests.conftest import (
    assert_control_plane_at_rest,
    flapping_isp_net,
    make_channel,
)


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


def watch_flush_events(sim) -> list:
    """Every ``ecmp-batch-flush`` event scheduled on ``sim`` from now
    on, as a list that grows."""
    events = []
    schedule_at = sim.schedule_at

    def spy(time, action, name=""):
        event = schedule_at(time, action, name)
        if name == "ecmp-batch-flush":
            events.append(event)
        return event

    sim.schedule_at = spy
    return events


class BareSessions:
    """A :class:`NeighborSessions` with nothing around it: the owner is
    this stub (the attributes the component reads, no more), the clock
    a bare ``Simulator``, the one neighbor ``n1`` a table entry made by
    hand, and ``transmit`` a recorder — ``frames`` is ``(time, message
    or batch)`` per wire send. The substitution the layer exists for."""

    BATCH_FLUSH_INTERVAL = EcmpAgent.BATCH_FLUSH_INTERVAL
    BATCH_MAX_RECORDS = EcmpAgent.BATCH_MAX_RECORDS

    def __init__(self, mode=NeighborMode.TCP):
        self.sim = Simulator()
        self.stats = StatsBag()
        self.obs = None
        self.frames = []
        self.sessions = NeighborSessions(self, self.record, mode)
        self.session = self.sessions.table["n1"] = Neighbor(
            SimpleNamespace(name="n1"), iface=None, is_host=False, mode=mode
        )
        self._suffix = 0

    def record(self, message, neighbor, contexts=(), size=None):
        assert neighbor is self.session
        self.frames.append((self.sim.now, message))

    def channels(self, n):
        """``n`` channels nobody has used yet."""
        first, self._suffix = self._suffix + 1, self._suffix + n
        return [Channel.of(0x0A000001, first + i) for i in range(n)]

    def send(self, message, **how):
        self.sessions.send(message, self.session, **how)

    def count(self, ch, value=1):
        self.send(Count(channel=ch, count_id=SUBSCRIBER_ID, count=value))


def transmit_log(agent, toward: str) -> list:
    """``(time, message or batch)`` for every wire send ``agent`` makes
    toward neighbor ``toward`` from now on, as a list that grows."""
    sent = []
    transmit = agent.sessions.transmit

    def spy(message, neighbor, *args, **kwargs):
        if neighbor.name == toward:
            sent.append((agent.sim.now, message))
        return transmit(message, neighbor, *args, **kwargs)

    agent.sessions.transmit = spy
    return sent


class TestCoalescingSendPath:
    """``_send_message`` through the agent: what is sent at once, what
    queues, what flushes."""

    def count(self, ch, value=1):
        return Count(channel=ch, count_id=SUBSCRIBER_ID, count=value)

    def test_idle_session_sends_in_the_same_instant_with_no_flush_event(self, line_net):
        agent = line_net.ecmp_agents["n0"]
        session = agent.sessions.neighbor("n1")
        scheduled = watch_flush_events(line_net.sim)
        src, ch = make_channel(line_net, "hsrc")
        now = line_net.sim.now
        agent._send_message(self.count(ch, 2), "n1")
        assert agent.stats.get("wire_sends") == 1
        assert agent.stats.get("batch_flushes") == 1
        # A bare message, no queue object, and nothing scheduled: the
        # hold-off is a deadline, not an event.
        assert agent.stats.get("batch_records_tx") == 0
        assert session.queue is None and session.flush_event is None
        assert scheduled == []
        assert session.holdoff_until == now + EcmpAgent.BATCH_FLUSH_INTERVAL
        # One link latency later it is at n1: no per-hop constant.
        link = line_net.topo.link_between("n0", "n1")
        size = agent.stats.get("bytes_on_wire")
        line_net.run(until=now + link.delay + size / link.bandwidth + 1e-9)
        assert line_net.ecmp_agents["n1"].stats.get("counts_rx") == 1

    def test_non_urgent_count_queues_instead_of_sending(self):
        # ... once the session is busy: behind a send less than a
        # hold-off old.
        bare = BareSessions()
        session = bare.session
        scheduled = watch_flush_events(bare.sim)
        a, b, c = bare.channels(3)
        bare.count(a)
        assert len(bare.frames) == 1
        bare.count(b, 2)
        bare.count(c, 2)
        assert len(bare.frames) == 1
        assert len(session.queue) == 2
        # One flush event for the whole hold-off, at its end.
        assert scheduled == [session.flush_event]
        assert scheduled[0].time == session.holdoff_until
        # Which carries both, in order, and starts the next hold-off.
        bare.sim.run()
        (_, first), (at, frame) = bare.frames
        assert at == EcmpAgent.BATCH_FLUSH_INTERVAL and first.channel == a
        assert [m.channel for m in frame.messages] == [b, c]
        assert session.queue is None and session.flush_event is None
        assert session.holdoff_until == 2 * EcmpAgent.BATCH_FLUSH_INTERVAL
        assert bare.stats.get("batch_flushes") == 2
        # Two records rode one frame: one of them cost no packet.
        assert bare.stats.get("msgs_coalesced") == 1

    def test_coalesced_update_counted(self, line_net):
        agent = line_net.ecmp_agents["n0"]
        a, b = other_channel(line_net, "hsrc", n=2)
        agent._send_message(self.count(a), "n1")  # opens the hold-off
        for value in (1, 2, 3):
            agent._send_message(self.count(b, value), "n1")
        assert len(agent.sessions.neighbor("n1").queue) == 1
        assert agent.stats.get("msgs_coalesced") == 2
        assert agent.stats.get("msgs_tx") >= 4
        assert agent.stats.get("wire_sends") == 1

    def test_urgent_query_flushes_whole_queue_as_one_frame(self):
        bare = BareSessions()
        session = bare.session
        first, a, b = bare.channels(3)
        bare.count(first)
        scheduled = watch_flush_events(bare.sim)
        bare.count(a)
        bare.count(b)
        assert len(bare.frames) == 1
        bare.send(CountQuery(channel=a, count_id=SUBSCRIBER_ID, timeout=5.0))
        # The queue left as a single wire frame carrying all three
        # records (pending Counts ride ahead of the urgent query).
        assert len(bare.frames) == 2
        assert [type(m) for m in bare.frames[1][1].messages] == [Count, Count, CountQuery]
        assert bare.stats.get("batch_records_tx") == 3
        assert session.queue is None and session.flush_event is None
        # The hold-off's one flush event went with the queue.
        assert [event.cancelled for event in scheduled] == [True]

    def test_zero_count_leave_is_urgent(self):
        bare = BareSessions()
        a, b = bare.channels(2)
        bare.count(a)  # the session is busy
        bare.count(b, 0)
        assert [m.channel for _, m in bare.frames] == [a, b]

    def test_urgent_send_opens_no_hold_off(self):
        """A zap is a leave then a join toward one upstream: the join
        must not sit out a hold-off the leave opened."""
        bare = BareSessions()
        session = bare.session
        scheduled = watch_flush_events(bare.sim)
        a, b = bare.channels(2)
        bare.count(a, 0)
        assert len(bare.frames) == 1
        assert session.holdoff_until <= bare.sim.now
        bare.count(b)
        assert len(bare.frames) == 2  # idle: sent at once
        assert scheduled == []
        # And one that flushes a queue leaves the running hold-off as it
        # was, neither ended nor extended.
        deadline = session.holdoff_until
        bare.count(a)
        bare.count(b, 0)
        assert len(bare.frames) == 3
        assert session.holdoff_until == deadline

    def test_rejection_response_is_urgent_ok_is_not(self):
        bare = BareSessions()
        a, ch = bare.channels(2)
        bare.count(a)  # the session is busy
        ok = CountResponse(channel=ch, count_id=SUBSCRIBER_ID, status=CountStatus.OK)
        bare.send(ok)
        assert len(bare.frames) == 1
        denial = CountResponse(
            channel=ch,
            count_id=SUBSCRIBER_ID,
            status=CountStatus.INVALID_AUTHENTICATOR,
        )
        bare.send(denial)
        assert len(bare.frames) == 2

    def test_watermark_flushes_immediately(self):
        bare = BareSessions()
        first, *channels = bare.channels(EcmpAgent.BATCH_MAX_RECORDS + 1)
        bare.count(first)  # the session is busy
        for ch in channels:
            bare.count(ch)
        assert len(bare.frames) == 2
        assert bare.stats.get("batch_records_tx") == EcmpAgent.BATCH_MAX_RECORDS
        assert bare.session.queue is None
        assert bare.session.flush_event is None

    def test_a_frame_never_outgrows_one_segment(self):
        """Keyed Counts are 24 B: 64 of them would frame to 1,540 B, over
        a 1,480-byte segment that is charged one IP header. The record
        that would carry the frame past the segment flushes the queue
        first, so a frame holds 61 (1,468 B) and the rest go on."""
        bare = BareSessions()
        first, *channels = bare.channels(EcmpAgent.BATCH_MAX_RECORDS + 1)
        bare.count(first)  # the session is busy
        for ch in channels:
            bare.send(
                Count(channel=ch, count_id=SUBSCRIBER_ID, count=1, key=make_key(ch))
            )
        assert len(bare.frames) == 2
        frame = bare.frames[1][1]
        assert len(frame) == 61
        assert len(encode_batch(frame.messages)) == 4 + 61 * 24 <= ETHERNET_TCP_SEGMENT
        assert bare.sessions.flushes is None and bare.stats["batch_flushes"] == 2
        assert len(bare.session.queue) == 3
        assert bare.session.queue.frame_bytes == 4 + 3 * 24
        # Plain Counts keep the record watermark: 64 frame to 1,028 B.
        bare = BareSessions()
        first, *channels = bare.channels(EcmpAgent.BATCH_MAX_RECORDS + 1)
        bare.count(first)
        for ch in channels:
            bare.count(ch)
        assert [len(m) for _, m in bare.frames[1:]] == [EcmpAgent.BATCH_MAX_RECORDS]

    def test_the_queue_tracks_its_frame_length(self):
        # Last-writer-wins swaps a record for one of another length (a
        # caller may unpin a keyed Count): the frame follows.
        q = DirtyChannelQueue()
        a, b = Channel.of(0x0A000001, 1), Channel.of(0x0A000001, 2)
        plain = Count(channel=a, count_id=SUBSCRIBER_ID, count=1)
        q.enqueue(plain, pinned=False)
        q.enqueue(CountQuery(channel=b, count_id=SUBSCRIBER_ID, timeout=1.0), pinned=True)
        assert q.frame_bytes == 4 + 16 + 16
        keyed = Count(channel=a, count_id=SUBSCRIBER_ID, count=2, key=make_key(a))
        assert q.enqueue(keyed, pinned=False) is True
        assert q.frame_bytes == 4 + 24 + 16
        assert q.frame_bytes == EcmpBatch(tuple(r.message for r in q.records)).wire_size()

    def test_a_burst_corks_the_session_and_releases_it_once(self):
        """Everything sent inside ``burst()`` queues, in order; the end
        applies the session policy to the lot as to one message, or —
        when the loop names its trigger — flushes at once and opens no
        hold-off."""
        bare = BareSessions()
        session = bare.session
        a, b, c, d = bare.channels(4)
        with bare.sessions.burst():
            bare.count(a)
            with bare.sessions.burst():  # the outer one's end releases
                bare.count(b, 0)
            assert bare.frames == [] and len(session.queue) == 2
        # One of them was urgent: one frame, at once, no hold-off.
        assert [m.channel for m in bare.frames[0][1].messages] == [a, b]
        assert session.holdoff_until <= bare.sim.now
        # Idle and nothing urgent: at once, and the hold-off opens ...
        with bare.sessions.burst():
            bare.count(c)
        assert len(bare.frames) == 2
        assert session.holdoff_until == EcmpAgent.BATCH_FLUSH_INTERVAL
        # ... so the next burst waits for its end,
        with bare.sessions.burst():
            bare.count(d)
        assert len(bare.frames) == 2 and session.flush_event is not None
        # unless the loop names its trigger, which leaves the hold-off
        # as it was.
        with bare.sessions.burst("rehome"):
            bare.count(a)
        assert [m.channel for m in bare.frames[2][1].messages] == [d, a]
        assert session.flush_event is None
        assert session.holdoff_until == EcmpAgent.BATCH_FLUSH_INTERVAL
        # The watermark does not wait for the loop's end.
        with bare.sessions.burst("rehome"):
            for ch in bare.channels(EcmpAgent.BATCH_MAX_RECORDS):
                bare.count(ch)
            assert len(bare.frames) == 4 and session.queue is None
        assert len(bare.frames) == 4
        assert bare.stats.get("batch_flushes") == 4

    def test_udp_mode_and_batching_off_send_every_message_alone(self, monkeypatch):
        """The shipped path toward a UDP-mode neighbor, then the
        reference unbatched path toward a TCP-mode one."""

        def check(bare):
            (ch,) = bare.channels(1)
            with bare.sessions.burst():
                bare.count(ch, 2)
                bare.count(ch, 3)
                assert [m.count for _, m in bare.frames] == [2, 3]
            assert bare.session.queue is None
            assert bare.stats.get("batch_flushes") == 0

        check(BareSessions(mode=NeighborMode.UDP))
        sessions_oracle.install(monkeypatch)
        check(BareSessions())

    def test_timer_flushes_within_interval(self, line_net):
        """The second and third record inside a hold-off leave as one
        frame when it ends — and that flush starts the next hold-off,
        so a busy session keeps coalescing. Real joins by hsub, seen
        on its session toward its edge router."""
        net = line_net
        agent = net.ecmp_agents["hsub"]
        session = agent.sessions.neighbor("n1")
        frames = transmit_log(agent, "n1")
        channels = other_channel(net, "hsrc", n=5)
        interval = EcmpAgent.BATCH_FLUSH_INTERVAL
        opened = net.sim.now
        for ch, offset in zip(channels, (0.0, 0.01, 0.02, 0.06, 0.2)):
            net.sim.schedule_at(
                opened + offset, lambda ch=ch: net.host("hsub").subscribe(ch)
            )
        net.run(until=opened + interval - 1e-6)
        # The first join went up in the instant it was made; the next two wait.
        assert [(at, m.channel) for at, m in frames] == [(opened, channels[0])]
        assert len(session.queue) == 2
        net.run(until=opened + interval + 1e-6)
        assert len(frames) == 2 and frames[1][0] == opened + interval
        assert isinstance(frames[1][1], EcmpBatch)
        assert [m.channel for m in frames[1][1].messages] == channels[1:3]
        assert session.queue is None and session.flush_event is None
        # Busy: the flush opened the next hold-off, the fourth join (10 ms
        # into it) waits it out, and a lone record leaves as a bare message.
        second = opened + interval + interval
        assert session.holdoff_until == second
        net.run(until=second + 1e-6)
        assert len(frames) == 3 and frames[2][0] == second
        assert frames[2][1].channel == channels[3]
        # Left alone for a hold-off, the session is idle again.
        net.run(until=opened + 0.3)
        assert len(frames) == 4 and frames[3][0] == opened + 0.2
        assert agent.stats.get("batch_records_tx") == 2

    def test_a_mode_is_set_only_toward_a_wired_ecmp_neighbor(self, line_net):
        """The mode lives on the neighbor-table entry, so there is
        nothing to write it on for a name that is not adjacent (it used
        to be dropped without a word) or has no agent yet (the entry
        would cache the wrong role) — and nothing is left in the table."""
        agent = line_net.ecmp_agents["n0"]
        for name in ("hsub", "nobody", ""):
            with pytest.raises(ProtocolError, match="not a wired ECMP neighbor"):
                agent.set_neighbor_mode(name, NeighborMode.UDP)
        del line_net.topo.nodes["n1"].agents["ecmp"]
        with pytest.raises(ProtocolError):
            agent.set_neighbor_mode("n1", NeighborMode.UDP)
        assert set(agent.sessions.table) <= {"hsrc"}

    def test_udp_mode_neighbor_bypasses_queue(self, line_net):
        agent = line_net.ecmp_agents["n0"]
        agent.set_neighbor_mode("n1", NeighborMode.UDP)
        src, ch = make_channel(line_net, "hsrc")
        for value in (2, 3):
            agent._send_message(
                Count(channel=ch, count_id=SUBSCRIBER_ID, count=value), "n1"
            )
        assert agent.stats.get("wire_sends") == 2
        assert agent.stats.get("batch_flushes") == 0
        assert agent.sessions.neighbor("n1").queue is None

    def test_batching_off_network_sends_immediately(self, monkeypatch):
        sessions_oracle.install(monkeypatch)
        topo = TopologyBuilder.line(2)
        topo.add_node("hsrc")
        topo.add_link("hsrc", "n0", delay=0.001)
        net = ExpressNetwork(topo, hosts=["hsrc"])
        net.run(until=0.01)
        agent = net.ecmp_agents["n0"]
        src, ch = make_channel(net, "hsrc")
        for value in (2, 3):
            agent._send_message(
                Count(channel=ch, count_id=SUBSCRIBER_ID, count=value), "n1"
            )
        assert agent.stats.get("wire_sends") == 2
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
    def drive():
        """Eighteen channels from the three sources of the flapping
        40-node network: every host joins every channel inside 0.2 s,
        Poisson join/leave churn runs on top (a third of each channel's
        audience, most of it uncoalescable one-off updates), and each
        of the six link flaps re-homes many channels toward one new
        upstream — the burst a batch frame carries in one packet."""
        net, sources = flapping_isp_net()
        channels = [s.allocate_channel() for s in sources for _ in range(6)]
        audience = {h: j for j, h in enumerate(sorted(net.host_names))}
        for source in sources:
            del audience[source.name]
        n = len(channels)
        for index, channel in enumerate(channels):
            churners = [h for h, j in audience.items() if j % n == index]
            schedule_ops(
                net,
                poisson_churn(
                    churners, duration=6.0, mean_off_time=1.5, mean_on_time=1.5,
                    seed=index,
                ),
                [channel],
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

    def test_batching_sends_a_third_of_the_packets_or_fewer(self, monkeypatch):
        batched = self.drive()
        sessions_oracle.install(monkeypatch)
        unbatched = self.drive()
        # 346 wire packets against 1,566 (4.53x), 29,552 bytes against
        # 53,340 (32,282 while every batch record carried a 2-byte length
        # prefix). (Under the trailing-edge timer: 224 packets, 29,982
        # bytes — the first record of a quiet period now travels alone.)
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
    """A message toward a neighbor with nothing pending — urgent, or
    finding the session idle — skips the queue object; it must be
    indistinguishable, in accounting and on the wire, from the
    one-record flush it stands for."""

    ACCOUNTED = ("msgs_tx", "bytes_tx", "batch_flushes", "wire_sends", "bytes_on_wire")

    def wired_net(self):
        topo = TopologyBuilder.line(2)
        topo.add_node("hsrc")
        topo.add_link("hsrc", "n0", delay=0.001)
        net = ExpressNetwork(topo, hosts=["hsrc"])
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
        session = direct.sessions.neighbor("n1")
        assert session.queue is None and session.flush_event is None

        # The same message held back (not urgent, inside a hold-off), so
        # a record is pending and the flush takes the queue.
        net, queued, queued_frames = self.wired_net()
        src, ch = make_channel(net, "hsrc")
        query = CountQuery(channel=ch, count_id=SUBSCRIBER_ID, timeout=5.0)
        session = queued.sessions.neighbor("n1")
        session.holdoff_until = net.sim.now + 1.0
        queued._send_message(query, "n1", urgent=False)
        assert len(session.queue) == 1 and queued_frames == []
        queued.sessions.flush(session, "urgent")

        assert self.sent(direct) == self.sent(queued)
        assert direct.stats.get("batch_flushes") == 1
        assert direct_frames == queued_frames
        assert len(direct_frames) == 1

        # And the idle send: the same frame and the same accounting.
        net, idle, idle_frames = self.wired_net()
        src, ch = make_channel(net, "hsrc")
        query = CountQuery(channel=ch, count_id=SUBSCRIBER_ID, timeout=5.0)
        idle._send_message(query, "n1", urgent=False)
        assert self.sent(idle) == self.sent(queued)
        assert idle_frames == queued_frames

    def test_pending_record_still_takes_the_queue(self):
        net, agent, frames = self.wired_net()
        src, ch = make_channel(net, "hsrc")
        opener = Count(channel=ch, count_id=SUBSCRIBER_ID, count=1)
        pending = Count(channel=ch, count_id=SUBSCRIBER_ID, count=2)
        query = CountQuery(channel=ch, count_id=SUBSCRIBER_ID, timeout=5.0)
        agent._send_message(opener, "n1")  # idle: sent, opens the hold-off
        agent._send_message(pending, "n1")
        agent._send_message(query, "n1")
        # Then one frame, the pending Count ahead of the urgent query.
        assert [payload for payload, _, _ in frames] == [
            encode_message(opener), encode_batch([pending, query]),
        ]
        assert agent.stats.get("batch_flushes") == 2
        assert agent.stats.get("wire_sends") == 2
        assert agent.stats.get("batch_records_tx") == 2
        session = agent.sessions.neighbor("n1")
        assert session.queue is None and session.flush_event is None

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
        assert "hsrc" not in agent.sessions.table and "nowhere" not in agent.sessions.table

    def test_fanned_out_query_is_encoded_once(self, monkeypatch):
        """One CountQuery forwarded to k downstream neighbors is k
        packets sharing one encoding."""
        from repro.core.ecmp import protocol

        topo = TopologyBuilder.star(4)
        net = ExpressNetwork(
            topo, hosts=[f"leaf{i}" for i in range(4)]
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
            frame = b"\x10\x00\x00\x01" + frame
        return frame

    def test_nested_batch_is_rejected_by_both_decoders(self, line_net, codec):
        # docs/ecmp-wire.md: "Batches never nest". A nested frame must
        # not come back as an EcmpBatch inside the record list.
        frame, records = self.make_frame(line_net, codec=codec)
        for decode in (codec.decode_batch, codec.decode_message):
            with pytest.raises(CodecError, match="batches cannot nest"):
                decode(self.nested(frame))

    def test_deep_nest_is_a_codec_error_not_a_recursion_error(self, codec):
        # A 64 KiB frame of nothing but batch headers, one per four
        # bytes: ~16,400 deep. Rejected at the first record, in O(1),
        # before any recursion.
        inner = b"\x10\x00\x00\x01"
        depth = (0xFFFF - len(inner)) // 4
        frame = self.nested(inner, depth)
        assert depth > 16_000 and len(frame) <= 0xFFFF
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

    @pytest.mark.parametrize(
        "frame",
        [
            # A Count with undefined flag bits beside the key flag's 0.
            struct.pack("!BBHI3sIB", 0x02, 0xF2, SUBSCRIBER_ID, 0x0A000001, b"\0\0\1", 1, 0),
            # A CountResponse defines no flag at all.
            struct.pack("!BBHI3sB", 0x03, 0xFF, SUBSCRIBER_ID, 0x0A000001, b"\0\0\1", 0),
            # A batch header's flag byte is zero.
            b"\x10\xaa\x00\x01"
            + struct.pack("!BBHI3sIB", 0x02, 0, SUBSCRIBER_ID, 0x0A000001, b"\0\0\1", 1, 0),
            # The CountQuery tail's reserved byte is zero.
            struct.pack("!BBHI3sIB", 0x01, 0, SUBSCRIBER_ID, 0x0A000001, b"\0\0\1", 1000, 0x7F),
        ],
        ids=["count-flags", "response-flags", "batch-flags", "query-reserved-byte"],
    )
    def test_one_message_has_one_encoding(self, line_net, codec, frame):
        # docs/ecmp-wire.md, "Strictness": a bit nobody defined is a
        # mis-sliced stream, not a message. Each frame is one byte away
        # from a valid one, which decodes, and the receive path counts
        # the mangled one instead of applying it.
        flag_at = 15 if frame[0] == 0x01 else 1
        clean = bytearray(frame)
        clean[flag_at] = 0
        codec.decode_message(bytes(clean))
        with pytest.raises(CodecError, match="undefined flag bits|reserved byte"):
            codec.decode_message(frame)
        if frame[0] == 0x10:
            with pytest.raises(CodecError, match="undefined flag bits"):
                codec.decode_batch(frame)
        agent, changed = self.deliver(line_net, frame)
        assert changed == {"undecodable_messages": 1}
        assert not agent.channels


class TestReconnectResend:
    """Satellite regression: the §3.2 unsolicited state dump on TCP
    session (re-)establishment leaves as ONE wire send, at once — and
    so does every other loop that emits a burst toward one neighbor."""

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

        upstream_sends = transmit_log(n1, "n0")
        recovered_at = net.sim.now
        link.recover()
        net.settle()

        assert len(upstream_sends) == 1, upstream_sends
        sent_at, frame = upstream_sends[0]
        assert sent_at == recovered_at  # not a hold-off later
        assert isinstance(frame, EcmpBatch)
        assert len(frame) == self.N_CHANNELS
        assert {m.channel for m in frame.messages} == set(channels)
        assert all(m.count == 1 for m in frame.messages)

    def test_a_flap_before_the_recompute_resyncs_through_the_kept_upstream(
        self, subscribed_net
    ):
        """A session that drops and comes back inside one instant, before
        routing recomputes, keeps its upstream: the reconnect dump, not a
        re-home, restores the counts, and its logical bytes (one IP
        header and one Count per channel) are the resync cost."""
        net, channels = subscribed_net
        n0, n1 = net.ecmp_agents["n0"], net.ecmp_agents["n1"]
        upstream_sends = transmit_log(n1, "n0")
        link = net.topo.link_between("n0", "n1")
        link.fail()
        link.recover()
        net.settle()
        assert [len(frame) for _, frame in upstream_sends] == [self.N_CHANNELS]
        assert n1.stats["resync_counts"] == self.N_CHANNELS
        assert n1.stats["resync_bytes"] == self.N_CHANNELS * (
            IP_HEADER_BYTES + messages.COUNT_WIRE_BYTES
        )
        assert all(n0.subscriber_count_estimate(ch) == 1 for ch in channels)

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
        session = n1.sessions.neighbor("n0")
        for value in (8, 9):  # the first is sent, the second waits
            n1._send_message(
                Count(channel=channels[0], count_id=SUBSCRIBER_ID, count=value), "n0"
            )
        assert len(session.queue) == 1 and session.flush_event is not None
        flush = session.flush_event
        net.topo.link_between("n0", "n1").fail()
        net.settle()
        assert session.queue is None and session.flush_event is None
        assert flush.cancelled
        # The next session starts idle.
        assert session.holdoff_until <= net.sim.now

    def test_a_received_frame_is_relayed_as_one_frame_in_order(self, line_net):
        """What the records of one frame send on leaves as one frame per
        neighbor: a keyed join and the leave behind it, forwarded as two
        packets in one instant, would swap places on the next link (the
        shorter one arrives first) and strand the join upstream. A
        general query among the records — a burst inside the burst —
        rides in the same frame."""
        net = line_net
        channels = other_channel(net, "hsrc", n=self.N_CHANNELS)
        keyed, left = channels[0], channels[1]
        net.source("hsrc").channel_key(keyed, make_key(keyed))
        net.host("hsub").subscribe(left)
        net.settle()
        n1 = net.ecmp_agents["n1"]
        upstream = transmit_log(n1, "n0")
        general = CountQuery(channel=DISCOVERY_CHANNEL, count_id=ALL_CHANNELS_ID, timeout=5.0)
        frame = EcmpBatch(
            messages=(
                Count(keyed, SUBSCRIBER_ID, 1, make_key(keyed), request_id=3),
                Count(keyed, SUBSCRIBER_ID, 0),
                Count(left, SUBSCRIBER_ID, 0),
            )
        )
        arrives_at = net.sim.now
        for sender, message in (("hsub", frame), ("n0", EcmpBatch((general, general)))):
            packet = Packet(proto="ecmp", src=sender, dst="n1", payload=encode_message(message))
            n1.handle_packet(
                packet, net.topo.node("n1").interface_to(net.topo.node(sender)).index
            )
        assert [at for at, _ in upstream] == [arrives_at]
        relayed = upstream[0][1].messages
        assert [(m.channel, m.count) for m in relayed] == [(keyed, 1), (keyed, 0), (left, 0)]
        net.settle()
        for name in ("n0", "n1", "hsrc"):
            assert not net.ecmp_agents[name].channels, name
        assert_control_plane_at_rest(net)

    def test_a_relayed_frame_obeys_the_hold_off_like_one_message(self, line_net):
        """Joins only, nothing urgent: what a received frame sends on is
        held to the session policy as a group — at once toward an idle
        session (opening the hold-off), at the hold-off's end toward a
        busy one — and is one frame either way."""
        net = line_net
        n1 = net.ecmp_agents["n1"]
        session = n1.sessions.neighbor("n0")
        upstream = transmit_log(n1, "n0")
        channels = other_channel(net, "hsrc", n=6)
        ifindex = net.topo.node("n1").interface_to(net.topo.node("hsub")).index

        def deliver(batch):
            frame = EcmpBatch(tuple(Count(ch, SUBSCRIBER_ID, 1) for ch in batch))
            packet = Packet(proto="ecmp", src="hsub", dst="n1", payload=encode_message(frame))
            n1.handle_packet(packet, ifindex)

        first_at = net.sim.now
        deliver(channels[:3])
        assert [(at, len(frame)) for at, frame in upstream] == [(first_at, 3)]
        assert session.holdoff_until == first_at + EcmpAgent.BATCH_FLUSH_INTERVAL
        net.run(until=first_at + 0.02)
        deliver(channels[3:5])
        deliver(channels[5:])
        assert len(upstream) == 1 and len(session.queue) == 3
        net.run(until=session.holdoff_until + 1e-6)
        assert [(at, len(frame)) for at, frame in upstream[1:]] == [
            (first_at + EcmpAgent.BATCH_FLUSH_INTERVAL, 3)
        ]

    def test_rehome_burst_is_one_frame_per_neighbor_sent_at_once(self):
        """A routing change moves every channel of a router to a new
        parent in one pass: one frame of joins toward the new parent,
        one frame of zeros toward the old, both in the instant of the
        pass — whatever the two sessions were doing."""
        topo = TopologyBuilder.line(4)
        topo.add_link("n3", "n0", delay=0.001)  # a ring: n0 - n1 - n2 - n3 - n0
        topo.add_node("hsrc")
        topo.add_node("hsub")
        topo.add_link("hsrc", "n0", delay=0.001)
        topo.add_link("hsub", "n2", delay=0.001)
        net = ExpressNetwork(topo, hosts=["hsrc", "hsub"])
        net.run(until=0.01)
        channels = other_channel(net, "hsrc", n=self.N_CHANNELS)
        for ch in channels:
            net.host("hsub").subscribe(ch)
        net.settle()
        n2 = net.ecmp_agents["n2"]
        old = n2.channels[channels[0]].upstream
        new = "n3" if old == "n1" else "n1"
        toward_old, toward_new = transmit_log(n2, old), transmit_log(n2, new)
        # The route via the old parent gets worse while its link stays
        # up, so the re-home withdraws from it explicitly.
        net.sim.schedule(6.0, lambda: topo.link_between("n0", old).fail())
        net.run(until=net.sim.now + 6.0 + 1e-9)
        assert n2.channels[channels[0]].upstream == new
        (joined_at, joins), (left_at, zeros) = toward_new[0], toward_old[0]
        assert len(toward_new) == len(toward_old) == 1
        assert joined_at == left_at
        assert isinstance(joins, EcmpBatch) and isinstance(zeros, EcmpBatch)
        assert {m.channel for m in joins.messages} == set(channels)
        assert [m.count for m in zeros.messages] == [0] * self.N_CHANNELS
        net.settle()
        assert_control_plane_at_rest(net)
