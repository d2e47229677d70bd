"""ECMP neighbor sessions (§3.2, §3.4): the neighbor table and the
TCP- or UDP-mode transport toward each neighbor.

:class:`NeighborSessions` hides the send policy (``docs/ecmp-wire.md``)
from the protocol: callers resolve a name (``neighbor``), hand over a
message (``send``) and bracket their loops (``burst``). What a packet
looks like and how it reaches the link is the ``transmit`` callable the
owner supplies.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from repro.core.ecmp.countids import SUBSCRIBER_ID
from repro.core.ecmp.messages import (
    BATCH_HEADER_BYTES,
    Count,
    CountQuery,
    CountStatus,
    EcmpBatch,
    EcmpMessage,
)
from repro.errors import ProtocolError
from repro.inet.headers import ETHERNET_TCP_SEGMENT
from repro.netsim.node import Interface, Node
from repro.netsim.packet import IP_HEADER_BYTES
from repro.netsim.trace import Counter

PROTO_ECMP = "ecmp"


class NeighborMode(Enum):
    """Per-neighbor ECMP transport (§3.2): "TCP is provided for core
    routers with few neighbors and many channels, whereas UDP is
    intended for use in edge routers"."""

    TCP = "tcp"
    UDP = "udp"


class Neighbor:
    """One adjacent node as an agent's send and receive paths need it:
    resolved once per name, so no message pays a topology lookup, an
    interface search or an agent-registry probe."""

    __slots__ = (
        "name", "peer", "iface", "is_host", "mode", "queue", "flush_event",
        "holdoff_until",
    )

    def __init__(
        self, peer: Node, iface: Interface, is_host: bool, mode: NeighborMode
    ) -> None:
        self.name = peer.name
        self.peer = peer
        #: The local interface facing the neighbor.
        self.iface = iface
        #: True when the neighbor's ECMP agent runs in the host role.
        self.is_host = is_host
        #: Transport toward the neighbor (configuration: it survives
        #: :meth:`NeighborSessions.reset`; the three fields below do not).
        self.mode = mode
        #: TCP-mode session state: the dirty-channel queue (None while
        #: nothing is pending), the event that will flush it, and the
        #: time before which a non-urgent message is queued, not sent.
        self.queue: Optional[DirtyChannelQueue] = None
        self.flush_event = None
        self.holdoff_until = 0.0

    def reset_session(self) -> None:
        """The session died (link down, agent stopped): what was queued
        toward it is lost, and the next one starts idle."""
        if self.flush_event is not None:
            self.flush_event.cancel()
            self.flush_event = None
        self.queue = None
        self.holdoff_until = 0.0


@dataclass(slots=True)
class _QueuedRecord:
    """One pending message in a neighbor's dirty-channel queue."""

    message: EcmpMessage
    #: Pinned records are each answered or acted on by the peer (joins
    #: awaiting verdicts, CountResponses); later writes for the same
    #: (channel, countId) append instead of replacing them.
    pinned: bool
    #: The message's encoded length: what it adds to the frame.
    size: int
    #: Span context captured at enqueue time (None when tracing is off):
    #: causality is established when the protocol *decides* to send, not
    #: when the flush timer fires.
    span_ctx: Optional[object] = None


class DirtyChannelQueue:
    """Coalesced pending sends toward one TCP-mode neighbor.

    Non-pinned messages are last-writer-wins per ``(type, channel,
    countId)`` — a refresh superseded before the flush never touches the
    wire. FIFO order of first enqueue is preserved (§3.2's TCP
    ordering): a leave never overtakes the join before it.
    """

    __slots__ = ("records", "_latest", "frame_bytes")

    def __init__(self) -> None:
        self.records: list[_QueuedRecord] = []
        self._latest: dict = {}
        #: The length of the ``MSG_BATCH`` frame the records make.
        self.frame_bytes = BATCH_HEADER_BYTES

    def __len__(self) -> int:
        return len(self.records)

    def enqueue(
        self,
        message: EcmpMessage,
        pinned: bool,
        span_ctx: Optional[object] = None,
        size: Optional[int] = None,
    ) -> bool:
        """Add (or merge) one message of ``size`` encoded bytes (its
        ``wire_size()`` when not given); True if it absorbed an earlier
        queued message that will now never hit the wire."""
        if size is None:
            size = message.wire_size()
        key = (type(message), message.channel, message.count_id)
        index = self._latest.get(key)
        records = self.records
        if index is not None and not pinned and not records[index].pinned:
            self.frame_bytes += size - records[index].size
            records[index] = _QueuedRecord(message, pinned, size, span_ctx)
            return True
        self._latest[key] = len(records)
        records.append(_QueuedRecord(message, pinned, size, span_ctx))
        self.frame_bytes += size
        return False


class NeighborSessions:
    """One agent's neighbor table and the TCP-mode session toward each
    entry.

    ``agent`` is the owner, read for ``sim``, ``node``, ``routing``,
    ``stats``, ``obs`` and — at use, never copied —
    ``BATCH_FLUSH_INTERVAL`` / ``BATCH_MAX_RECORDS``.
    ``transmit(message, neighbor, contexts, size=None)`` puts one wire
    packet (a message or an :class:`EcmpBatch`, one span context per
    record) on the link. ``default_mode`` is assumed for neighbors
    without a :meth:`set_mode` call. Messages toward a busy TCP-mode
    session go through its dirty-channel queue and leave as one
    MSG_BATCH frame; UDP-mode neighbors always take the per-datagram
    path.
    """

    __slots__ = (
        "_agent", "transmit", "default_mode", "table", "_corked",
        "flushes",
    )

    def __init__(
        self,
        agent,
        transmit: Callable[..., None],
        default_mode: NeighborMode = NeighborMode.TCP,
    ) -> None:
        self._agent = agent
        self.transmit = transmit
        self.default_mode = default_mode
        #: Filled on first use of each name (the topology is wired and
        #: every agent registered before the first message moves). Each
        #: entry carries the neighbor's configured mode and its TCP-mode
        #: session state; the table and the modes survive
        #: :meth:`reset`, the session state does not.
        self.table: dict[str, Neighbor] = {}
        #: While a burst loop runs (see :meth:`burst`): the neighbors it
        #: has queued records toward, each flushed once when it ends.
        self._corked: Optional[dict[Neighbor, bool]] = None
        #: Observability only: queue flushes by trigger, folded with the
        #: agent's ``msgs_coalesced`` stat into the registry at collect.
        self.flushes: Optional[Counter] = None
        if agent.obs is not None:
            self.flushes = Counter()
            self._publish(agent.obs.registry)

    def _publish(self, registry) -> None:
        """Declare the session families and fold their tallies into them
        at every collect."""
        coalesced = registry.counter(
            "ecmp_msgs_coalesced",
            "ECMP messages that did not cost their own wire packet "
            "(absorbed by last-writer-wins or carried in a batch frame)",
            ("node",),
        )
        flushes = registry.counter(
            "ecmp_batch_flushes",
            "Dirty-channel queue flushes by node and trigger",
            ("node", "trigger"),
        )
        node = self._agent.node.name
        stats = self._agent.stats

        def tallies():
            if "msgs_coalesced" in stats:
                yield coalesced, (node,), stats["msgs_coalesced"]
            for trigger, total in self.flushes.items():
                yield flushes, (node, trigger), total

        registry.fold(tallies)

    # -- the neighbor table -------------------------------------------------

    def neighbor(self, name: str) -> Optional[Neighbor]:
        """The neighbor-table entry for ``name``; None for anything that
        is not an adjacent node (pseudo-neighbors, unknown names)."""
        known = self.table.get(name)
        if known is None:
            agent = self._agent
            peer = agent.routing.topo.nodes.get(name)
            iface = agent.node.interface_to(peer) if peer is not None else None
            if iface is None:
                return None
            remote = peer.agents.get(PROTO_ECMP)
            known = self.table[name] = Neighbor(
                peer,
                iface,
                getattr(remote, "role", None) == "host",
                self.default_mode,
            )
        return known

    def set_mode(self, name: str, mode: NeighborMode) -> None:
        """Configure TCP or UDP mode toward one neighbor, which must
        already be adjacent and have its ECMP agent registered."""
        known = self.neighbor(name)
        if known is None or PROTO_ECMP not in known.peer.agents:
            # Resolved too early, the entry would have cached the wrong role.
            self.table.pop(name, None)
            raise ProtocolError(
                f"{self._agent.node.name}: {name!r} is not a wired ECMP neighbor"
            )
        known.mode = mode

    def reset(self) -> None:
        """Drop every session (the agent stopped)."""
        for known in self.table.values():
            known.reset_session()

    # -- the send policy ----------------------------------------------------

    def send(
        self,
        message: EcmpMessage,
        known: Neighbor,
        urgent: Optional[bool] = None,
        pinned: Optional[bool] = None,
        size: Optional[int] = None,
        span_ctx: Optional[object] = None,
    ) -> None:
        """Send (or queue) one protocol message toward ``known``.

        Toward a TCP-mode neighbor whose session is idle — nothing
        queued, no hold-off running — the message is on the wire before
        this returns, and that send opens a hold-off of
        ``BATCH_FLUSH_INTERVAL``; messages that arrive inside it coalesce
        in the dirty-channel queue and leave as one frame when it ends
        (or at once, behind an urgent message or at the watermark).
        Inside a :meth:`burst` loop everything queues and the loop's
        end flushes. A frame never outgrows one TCP segment: a record
        that would carry the queued frame past ``ETHERNET_TCP_SEGMENT``
        bytes flushes what is queued first and starts the next frame.

        ``urgent``/``pinned`` default to what the message itself says;
        call sites that know more override them (joins are pinned, query
        replies are urgent). Urgent messages flush the whole queue
        immediately (they still share the frame with anything already
        pending, so ordering is preserved): CountQuery (a reply deadline
        is running), CountResponse rejections (the subscriber must learn
        of the denial now), and zero-count leaves (the upstream forwards
        data until the zero lands). Pinned records never merge with a
        later write: CountQuery and CountResponse always — each response
        answers one request of the peer's — and Counts carrying a key or
        a request id, because each needs its own verdict.
        """
        agent = self._agent
        if known.mode is not NeighborMode.TCP:
            # UDP-mode neighbors keep the one-datagram-per-message path.
            self.transmit(message, known, (span_ctx,), size)
            return
        kind = type(message)
        if urgent is None:
            if kind is Count:
                urgent = message.count == 0 and message.count_id == SUBSCRIBER_ID
            else:
                urgent = kind is CountQuery or message.status is not CountStatus.OK
        corked = self._corked
        queue = known.queue
        if queue is None:
            if corked is None:
                # Nothing is pending (a queue exists only while it holds
                # records), so a flush would carry exactly this message:
                # when the session sends now, it goes as that flush, with
                # no queue object and no event.
                # (``_send_now``, inlined: an idle send pays no call
                # for the policy.)
                if urgent:
                    trigger = "urgent"
                else:
                    trigger = None
                    now = agent.sim.now
                    if known.holdoff_until <= now:
                        known.holdoff_until = now + agent.BATCH_FLUSH_INTERVAL
                        trigger = "idle"
                if trigger is not None:
                    agent.stats["batch_flushes"] += 1
                    if self.flushes is not None:
                        self.flushes[trigger] += 1
                    self.transmit(message, known, (span_ctx,), size)
                    return
            queue = known.queue = DirtyChannelQueue()
        if pinned is None:
            pinned = (
                kind is not Count or message.key is not None or message.request_id != 0
            )
        record_bytes = message.wire_size() if size is None else size - IP_HEADER_BYTES
        if queue.frame_bytes + record_bytes > ETHERNET_TCP_SEGMENT:
            self.flush(known, "watermark")
            queue = known.queue = DirtyChannelQueue()
        if queue.enqueue(message, pinned, span_ctx, record_bytes):
            # Last-writer-wins: the overwritten message never hits the wire.
            agent.stats["msgs_coalesced"] += 1
        if len(queue) >= agent.BATCH_MAX_RECORDS:
            self.flush(known, "watermark")
        elif corked is not None:
            # The burst's end releases the queue; it goes at once if any
            # record in it is urgent.
            corked[known] = urgent or corked.get(known, False)
        else:
            self._release(known, urgent)

    def _send_now(self, known: Neighbor, urgent: bool) -> Optional[str]:
        """The session policy, in its one place: the flush trigger under
        which what is pending toward ``known`` leaves now, or None when
        it waits for the end of the hold-off that is running.

        Urgent traffic goes at once and neither opens nor moves a
        hold-off — the join that follows a leave is not made to wait for
        it. Anything else goes at once only if no hold-off is running,
        and opens one, so the records behind it coalesce."""
        if urgent:
            return "urgent"
        agent = self._agent
        now = agent.sim.now
        if known.holdoff_until <= now:
            known.holdoff_until = now + agent.BATCH_FLUSH_INTERVAL
            return "idle"
        return None

    def _release(self, known: Neighbor, urgent: bool) -> None:
        """Apply the session policy to the queue toward ``known``: flush
        it now, or leave it to the running hold-off's end (one
        ``ecmp-batch-flush`` event per hold-off)."""
        trigger = self._send_now(known, urgent)
        if trigger is not None:
            self.flush(known, trigger)
        elif known.flush_event is None:
            known.flush_event = self._agent.sim.schedule_at(
                known.holdoff_until,
                lambda: self._holdoff_ended(known),
                name="ecmp-batch-flush",
            )

    def _holdoff_ended(self, known: Neighbor) -> None:
        """The hold-off ran out with records pending: the session is
        busy, so they leave as one frame and the next hold-off starts."""
        agent = self._agent
        known.flush_event = None
        known.holdoff_until = agent.sim.now + agent.BATCH_FLUSH_INTERVAL
        self.flush(known, "timer")

    def flush(self, known: Neighbor, trigger: str) -> None:
        """Drain the dirty-channel queue toward ``known`` as one wire
        send: a bare message when a single record is pending, a
        MSG_BATCH frame otherwise."""
        if known.flush_event is not None:
            known.flush_event.cancel()
            known.flush_event = None
        queue = known.queue
        if queue is None:
            return
        known.queue = None
        records = queue.records
        agent = self._agent
        agent.stats["batch_flushes"] += 1
        if self.flushes is not None:
            self.flushes[trigger] += 1
        if len(records) == 1:
            record = records[0]
            self.transmit(
                record.message, known, (record.span_ctx,), IP_HEADER_BYTES + record.size
            )
            return
        batch = EcmpBatch(messages=tuple(r.message for r in records))
        agent.stats["batch_records_tx"] += len(records)
        agent.stats["msgs_coalesced"] += len(records) - 1
        self.transmit(
            batch,
            known,
            tuple(r.span_ctx for r in records),
            IP_HEADER_BYTES + queue.frame_bytes,
        )

    @contextmanager
    def burst(self, flush_as: Optional[str] = None):
        """Cork the TCP-mode sessions around a loop that may emit many
        records toward one neighbor in one call: everything sent inside
        queues, in order, and each neighbor touched is dealt with once
        when the loop ends.

        The resync loops (a reconnect dump, a re-home pass, a
        general-query reply, a failed neighbor's subtraction) name the
        trigger to ``flush_as``: one frame per neighbor in the instant
        of the event that caused it, opening no hold-off. The records
        of a received frame are not an event of their own, so what they
        send on (``flush_as`` None) is held to the session policy as one
        message would be: at once if
        any of it is urgent or the session is idle (which opens the
        hold-off), else at the end of the hold-off that is running —
        and either way as one frame, so a keyed join and the shorter
        leave behind it cannot swap places on the next link.

        Inside another burst (a general query that arrived as a record
        of a frame) the outer one's end does the releasing."""
        if self._corked is not None:
            yield
            return
        self._corked = touched = {}
        try:
            yield
        finally:
            self._corked = None
            for known, urgent in touched.items():
                if known.queue is None:
                    continue  # the watermark took it
                if flush_as is not None:
                    self.flush(known, flush_as)
                else:
                    self._release(known, urgent)
