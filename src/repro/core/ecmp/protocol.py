"""The ECMP state machine (§3).

One :class:`EcmpAgent` runs on every EXPRESS-capable node — routers and
hosts alike. The paper's insight that "distribution tree construction
for a single source is a restricted case of counting the subscribers in
each subtree" shows up directly: a host's own subscription is just a
downstream record under the pseudo-neighbor ``LOCAL``, and the same
Count-handling path maintains the tree whether the count came from a
router, a host, or the local application.

Protocol clarifications this implementation pins down (the paper leaves
them open; see DESIGN.md §4):

* **Optimism.** Keyless joins are accepted optimistically (forwarding
  state installs immediately) and rolled back if a later verdict denies
  them; keyed joins needing upstream validation install tree state but
  *not* forwarding state until validated, so no data ever flows to a
  subscriber whose key fails.

Four self-contained machines run beside this one, each behind a narrow
interface and none importing this module: the per-neighbor sessions
(:mod:`repro.core.ecmp.session`, §3.2/§3.4), generic and proactive
counting (:mod:`repro.core.counting`, §3.1/§6 — the timeout-decrement
and concurrent-query clarifications are there), liveness
(:mod:`repro.core.ecmp.liveness`, §3.3) and the §3.5 verdicts
(:mod:`repro.core.ecmp.verdicts` — the request-id pairing of a join
with its one verdict is pinned down there). What stays here is the
§2.1 service interface, the wire edge, §3.2 tree maintenance and
failure / re-homing.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, Optional

# The module, not its names: counting.py imports this package's
# countids / messages / state, so when an importer asks for it before
# this package it is still initialising by the time this line runs.
from repro.core import counting as counting_machine
from repro.core.channel import Channel, intern_channel
from repro.core.ecmp.countids import ALL_CHANNELS_ID, NEIGHBORS_ID, SUBSCRIBER_ID
from repro.core.ecmp.liveness import DISCOVERY_CHANNEL, Liveness
from repro.core.ecmp.messages import (
    MESSAGE_TYPES,
    Count,
    CountQuery,
    CountResponse,
    CountStatus,
    EcmpBatch,
    EcmpMessage,
    decode_message,
    encode_message,
)
from repro.core.ecmp.session import (
    PROTO_ECMP,
    DirtyChannelQueue,
    Neighbor,
    NeighborMode,
    NeighborSessions,
)
from repro.core.ecmp.state import LOCAL, ChannelState
from repro.core.ecmp.verdicts import VerdictEntry, Verdicts
from repro.core.keys import ChannelKey, KeyCache
from repro.core.proactive import ProactiveCounter, ToleranceCurve
from repro.errors import ChannelError, CodecError, ProtocolError, RoutingError
from repro.netsim.node import Node, ProtocolAgent
from repro.netsim.packet import IP_HEADER_BYTES as IP_OVERHEAD, Packet
from repro.netsim.trace import Counter
from repro.obs.hooks import SPAN_HEADER, span
from repro.routing.fib import MulticastFib
from repro.routing.unicast import UnicastRouting

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.blocks import SubscriberBlock

#: Defined by the components now, imported from here by everyone else
#: (``tests/test_ecmp_layering.py`` holds the list).
__all__ = [
    "DISCOVERY_CHANNEL", "IP_OVERHEAD", "PROTO_ECMP", "CountPropagation",
    "DirtyChannelQueue", "EcmpAgent", "NeighborMode", "SubscriptionHandle",
]


class CountPropagation(Enum):
    """When a router pushes subscriber-count changes upstream.

    * TREE_ONLY — only 0↔positive transitions propagate (the paper's
      base behaviour: a join "propagates hop-by-hop until it reaches
      the source or a router already on the distribution tree").
    * ON_CHANGE — every change propagates (exact counts everywhere;
      the costly strawman §6 improves on).
    * PROACTIVE — §6: changes propagate when they exceed the error
      tolerance curve.
    """

    TREE_ONLY = "tree-only"
    ON_CHANGE = "on-change"
    PROACTIVE = "proactive"


@dataclass(slots=True)
class SubscriptionHandle:
    """A host-side subscription returned by :meth:`EcmpAgent.new_subscription`.

    ``status`` is "pending" (keyed, awaiting verdict), "active", or
    "denied" — the paper's ``result`` out-parameter, asynchronous here.
    """

    channel: Channel
    status: str = "active"
    key: Optional[ChannelKey] = None
    on_data: Optional[Callable[[Packet], None]] = None
    on_status: Optional[Callable[["SubscriptionHandle"], None]] = None
    packets_received: int = 0
    bytes_received: int = 0

    def _set_status(self, status: str) -> None:
        self.status = status
        if self.on_status is not None:
            self.on_status(self)


class EcmpAgent(ProtocolAgent):
    """ECMP on one node (router or host).

    Parameters
    ----------
    node, routing, fib:
        The node this agent runs on, the shared unicast routing
        substrate, and the node's multicast FIB.
    role:
        "router" or "host"; hosts answer application countIds and never
        relay data, routers do the reverse.
    propagation:
        Count propagation policy for subscriber counts (see
        :class:`CountPropagation`).
    default_mode:
        Transport mode assumed for neighbors without an explicit
        :meth:`set_neighbor_mode` call.
    proactive_curve:
        Tolerance curve used when ``propagation`` is PROACTIVE (or when
        enabling proactive counting locally).
    obs:
        Optional :class:`repro.obs.Observability`. When set, the agent's
        ``stats`` are published to the shared metrics registry at every
        collect (``ecmp_events_total{node,event}``), every message tx/rx
        is tallied per channel (``ecmp_messages_total``), and every ECMP
        message carries a trace/span id so control-plane causality
        (RPF join propagation, CountQuery fan-out/aggregation) can be
        reconstructed from the tracer. When None (the default) the hot
        paths take the uninstrumented branch.
    """

    UDP_QUERY_INTERVAL = 60.0
    UDP_ROBUSTNESS = 2
    KEEPALIVE_INTERVAL = 30.0
    KEEPALIVE_MISSES = 3
    HYSTERESIS = 5.0
    #: Nagle-style hold-off for TCP-mode neighbor sessions: a message
    #: toward an idle session leaves at once and opens a hold-off this
    #: long; non-urgent messages arriving inside it wait for its end and
    #: leave as one frame.
    BATCH_FLUSH_INTERVAL = 0.05
    #: Queue-size watermark: flush once this many records are pending
    #: toward one neighbor (below the 92 Counts a 1480-byte segment
    #: frames, §5.3; a frame never outgrows the segment either way).
    BATCH_MAX_RECORDS = 64

    def __init__(
        self,
        node: Node,
        routing: UnicastRouting,
        fib: MulticastFib,
        role: str = "router",
        propagation: CountPropagation = CountPropagation.TREE_ONLY,
        default_mode: NeighborMode = NeighborMode.TCP,
        proactive_curve: Optional[ToleranceCurve] = None,
        obs=None,
    ) -> None:
        super().__init__(node)
        if role not in ("router", "host"):
            raise ProtocolError(f"role must be 'router' or 'host', got {role!r}")
        self.routing = routing
        self.fib = fib
        self.role = role
        self.propagation = propagation
        #: Same-sign block count rewrites that took the O(1) fast path
        #: (plain attribute, not a Counter: the fast path is hot enough
        #: at bench scale that even a dict increment shows up).
        self.block_fast_updates = 0
        self.keys = KeyCache()
        self.channels: dict[Channel, ChannelState] = {}
        self.subscriptions: dict[Channel, SubscriptionHandle] = {}
        #: Aggregated subscriber blocks attached at this (edge) router,
        #: keyed by pseudo-neighbor name (see repro.core.blocks).
        self.blocks: dict[str, "SubscriberBlock"] = {}
        #: Per-channel :class:`repro.core.blocks.DeliveryView` for the
        #: forwarder's arithmetic final-hop delivery; written only by
        #: ``repro.core.blocks``.
        self._delivery_views: dict[Channel, object] = {}
        self.obs = obs
        self.stats = Counter()
        #: Observability only: messages by (direction, type, channel)
        #: and logical bytes received (``"rx"``), what ``stats`` does
        #: not already count; the registry folds both (:meth:`_publish`).
        self._m_tally: Optional[Counter] = None
        if obs is not None:
            self._m_tally = Counter()
            self._publish(obs.registry)
        #: The last message serialized and its bytes: a message fanned
        #: out to k neighbors is encoded once, the bytes shared.
        self._encoded: tuple[Optional[EcmpMessage], bytes] = (None, b"")
        self._rehome_scheduled = False
        #: Set by the network facade; called when this agent sees a
        #: local link flap so routing can recompute and trees re-home.
        self.topology_change_hook: Optional[Callable[[], None]] = None
        #: The four machines beside this one (see the module docstring).
        self.sessions = NeighborSessions(self, self._transmit, default_mode)
        self.counting = counting_machine.Counting(
            self, self._send_count_upstream, proactive_curve or ToleranceCurve()
        )
        self.liveness = Liveness(self, self._neighbor_failed, self._record_expired)
        self.verdicts = Verdicts(self)

    def _publish(self, registry) -> None:
        """Declare this agent's families and fold its tallies into them
        at every collect: ``stats`` already holds the logical bytes sent
        and the wire bytes both ways, ``_m_tally`` the rest."""
        events = registry.counter(
            "ecmp_events_total", "ECMP protocol events by node", ("node", "event")
        )
        messages = registry.counter(
            "ecmp_messages_total",
            "ECMP messages by node, direction, message type, and channel",
            ("node", "direction", "type", "channel"),
        )
        logical = registry.counter(
            "ecmp_bytes_total",
            "Logical ECMP control bytes (per message, pre-coalescing) "
            "by node and direction",
            ("node", "direction"),
        )
        wire = registry.counter(
            "ecmp_bytes_on_wire",
            "Actual ECMP bytes put on (or taken off) the wire per "
            "node and direction, batch framing included",
            ("node", "direction"),
        )
        node = self.node.name
        stats = self.stats
        by_stat = (
            (logical, "tx", "bytes_tx"),
            (wire, "tx", "bytes_on_wire"),
            (wire, "rx", "bytes_on_wire_rx"),
        )

        def tallies():
            for event, total in stats.items():
                yield events, (node, event), total
            for key, total in self._m_tally.items():
                if key == "rx":
                    yield logical, (node, "rx"), total
                else:
                    direction, kind, channel = key
                    yield messages, (node, direction, kind.__name__, str(channel)), total
            for family, direction, event in by_stat:
                if event in stats:
                    yield family, (node, direction), stats[event]

        registry.fold(tallies)

    # ------------------------------------------------------------------
    # lifecycle / wiring
    # ------------------------------------------------------------------

    def start(self) -> None:
        self.liveness.start()
        for block in self.blocks.values():
            block.start_refresh()

    def stop(self) -> None:
        self.liveness.stop()
        for block in self.blocks.values():
            block.stop()
        self.sessions.reset()

    def lose_state(self) -> None:
        """Crash semantics: drop every piece of soft protocol state.

        Used by the fault-injection subsystem
        (:mod:`repro.faults.injectors`) to model a router crash: all
        channel tables, subscriptions, pending queries/verdicts,
        aggregated block membership, refresh bookkeeping, and FIB
        entries vanish; only configuration (role, neighbor modes,
        propagation policy, attached blocks, each now at zero members)
        and the cumulative observability counters survive — the
        counters are the measurement harness, not protocol state. Call
        :meth:`stop` first or let this do it; afterwards :meth:`start`
        models the reboot (restarting a UDP-mode block's refresh), and
        neighbors' keepalive misses / ``_neighbor_recovered`` resync
        storms rebuild the state through the real protocol.
        """
        self.stop()
        n_lost = sum(len(s.downstream) for s in self.channels.values())
        self.channels.clear()
        self.subscriptions.clear()
        self.verdicts.reset()
        self.counting.reset()
        self.liveness.reset()
        for block in self.blocks.values():
            for channel in list(block.members):
                block.set_count(channel, 0)
        self.keys = KeyCache()
        self._rehome_scheduled = False
        for source, dest in self.fib.channels():
            self.fib.remove(source, dest)
        if self.obs is not None and n_lost:
            self.obs.state_changed(n_lost)
        self.stats["state_losses"] += 1

    def set_neighbor_mode(self, neighbor: str, mode: NeighborMode) -> None:
        """Configure TCP or UDP mode toward one neighbor (§3.2: "A
        router can select either TCP or UDP mode for ECMP on each
        interface"). Call it once the network is wired: the neighbor
        must already be adjacent and have its ECMP agent registered."""
        self.sessions.set_mode(neighbor, mode)

    def on_link_change(self, ifindex: int, up: bool) -> None:
        peer = self.node.interfaces[ifindex].peer
        if peer is None:
            return
        if not up:
            # TCP-mode semantics: connection failure -> subtract counts.
            # Anything still queued toward the dead session is lost with
            # the connection; the reconnect resend covers it.
            known = self.sessions.neighbor(peer.name)
            if known is not None:
                known.reset_session()
            self._neighbor_failed(peer.name)
        else:
            self._neighbor_recovered(peer.name)
        if self.topology_change_hook is not None:
            self.topology_change_hook()

    # ------------------------------------------------------------------
    # service interface (§2.1)
    # ------------------------------------------------------------------

    def new_subscription(
        self,
        channel: Channel,
        key: Optional[ChannelKey] = None,
        on_data: Optional[Callable[[Packet], None]] = None,
        on_status: Optional[Callable[[SubscriptionHandle], None]] = None,
    ) -> SubscriptionHandle:
        """Subscribe this node to ``channel`` (§2.1 newSubscription)."""
        if channel in self.subscriptions:
            return self.subscriptions[channel]
        handle = SubscriptionHandle(
            channel=channel,
            status="pending" if key is not None else "active",
            key=key,
            on_data=on_data,
            on_status=on_status,
        )
        self.subscriptions[channel] = handle
        with span(
            self.obs, "ecmp.subscribe", node=self.node.name, channel=channel,
            keyed=key is not None,
        ):
            self._apply_subscriber_count(channel, LOCAL, 1, key=key)
        return handle

    def delete_subscription(self, channel: Channel) -> bool:
        """Unsubscribe (§2.1 deleteSubscription); True if subscribed."""
        handle = self.subscriptions.pop(channel, None)
        if handle is None:
            return False
        with span(self.obs, "ecmp.unsubscribe", node=self.node.name, channel=channel):
            self._apply_subscriber_count(channel, LOCAL, 0)
        return True

    def channel_key(self, channel: Channel, key: ChannelKey) -> None:
        """§2.1 channelKey: "inform the network that channel is
        authenticated". Only the channel's source may call this."""
        if channel.source != self.node.address:
            raise ChannelError(f"{self.node.name} is not the source of {channel}")
        with span(self.obs, "ecmp.channel_key", node=self.node.name, channel=channel):
            self.keys.install_authoritative(channel, key)

    def count_query(
        self,
        channel: Channel,
        count_id: int,
        timeout: float,
        callback: Optional[Callable[[int, bool], None]] = None,
    ) -> counting_machine.QueryResult:
        """Originate a CountQuery locally (§2.1 CountQuery; also §3.1's
        router-initiated query "without source cooperation").

        Returns a :class:`QueryResult` resolved with the best-effort
        count within ``timeout``.
        """
        return self.counting.originate(channel, count_id, timeout, callback)

    def enable_proactive(
        self, channel: Channel, count_id: int = SUBSCRIBER_ID, curve: Optional[ToleranceCurve] = None
    ) -> None:
        """§6: request proactive maintenance of a count; the request
        propagates to all routers in the channel's tree."""
        curve = curve or self.counting.curve
        query = CountQuery(
            channel=channel, count_id=count_id, timeout=0.0, proactive=curve
        )
        with span(
            self.obs, "ecmp.enable_proactive", node=self.node.name,
            channel=channel, count_id=count_id,
        ):
            self.counting.on_proactive_request(query, origin=None)

    def register_count_responder(
        self, channel: Channel, count_id: int, responder: Callable[[], int]
    ) -> None:
        """Register the application's answer to a countId (§2.2.1:
        application-defined votes; the subscriber "replies to a
        CountQuery request with count(...)")."""
        self.counting.responders[(channel, count_id)] = responder

    def notify_count_changed(self, channel: Channel, count_id: int) -> None:
        """Tell ECMP an application-maintained count changed.

        Only meaningful when proactive counting (§6) is active for the
        (channel, countId): the agent re-reads the registered responder
        and pushes the change upstream per the tolerance curve. With no
        proactive state this is a no-op (polled queries always read the
        responder fresh).
        """
        state = self.channels.get(channel)
        if state is not None and count_id in self.counting.proactive.get(channel, ()):
            self.counting.evaluate(state, count_id)

    # ------------------------------------------------------------------
    # aggregated subscriber blocks (see repro.core.blocks)
    # ------------------------------------------------------------------

    def attach_block(self, block: "SubscriberBlock") -> None:
        """Register an aggregated subscriber block at this router and
        start a UDP-mode block's refresh timer. The attachment is
        configuration: it survives :meth:`lose_state`."""
        if self.role != "router":
            raise ProtocolError("subscriber blocks attach to routers, not hosts")
        if block.pseudo in self.blocks:
            raise ProtocolError(f"duplicate block {block.name!r} on {self.node.name}")
        self.blocks[block.pseudo] = block
        block.start_refresh()

    def block_adjust(self, channel: Channel, block: "SubscriberBlock", count: int) -> None:
        """Apply a block membership change as the paper's counting
        semantics: 0↔positive transitions walk the full
        :meth:`_apply_subscriber_count` path (tree graft/prune, FIB
        sync, upstream Count), while a same-sign count change in
        TREE_ONLY mode takes an O(1) fast path that rewrites the stored
        count in place — the FIB does not depend on count magnitude and
        TREE_ONLY stays quiet while on-tree, so the full path would do
        no observable work. ON_CHANGE/PROACTIVE modes always take the
        full path (magnitude changes must propagate)."""
        state = self.channels.get(channel)
        record = None
        if state is not None:
            # ``state.downstream.get(block.pseudo)``, read off the slots.
            if state.spill is not None:
                record = state.spill.get(block.pseudo)
            elif state.lone_name == block.pseudo:
                record = state.lone_record
        if record is not None and 0 < count and 0 < record.count:
            if self.propagation is CountPropagation.TREE_ONLY:
                # Not folded into the stats bag: ``block_fast_updates``
                # is the fast path's own tally; add it to the bag's
                # ``count_update_events`` for a total update count.
                record.count = count
                record.updated_at = self.sim.now
                block.set_count(channel, count)
                self.block_fast_updates += 1
                if self.obs is not None:
                    self.obs.state_changed()
                return
            self._apply_subscriber_count(channel, block.pseudo, count)
            return
        if count != (record.count if record is not None else 0):
            self._apply_subscriber_count(channel, block.pseudo, count)

    # -- convenience inspection -------------------------------------------------

    def subscriber_count_estimate(self, channel: Channel) -> int:
        """This node's current aggregated subscriber count (exact only
        in ON_CHANGE mode or at quiescence; see CountQuery for polling)."""
        state = self.channels.get(channel)
        return state.total(validated_only=False) if state else 0

    def proactive_estimate(self, channel: Channel, count_id: int = SUBSCRIBER_ID) -> int:
        """The proactively-maintained aggregate for any countId, as
        currently known at this node (§6). For subscriberId this equals
        :meth:`subscriber_count_estimate`."""
        state = self.channels.get(channel)
        if state is None:
            return 0
        return self.counting.proactive_total(state, count_id)

    def on_tree(self, channel: Channel) -> bool:
        return channel in self.channels

    # ------------------------------------------------------------------
    # packet plumbing
    # ------------------------------------------------------------------

    def handle_packet(self, packet: Packet, ifindex: int) -> None:
        if type(packet.payload) is not bytes:
            return
        try:
            message = decode_message(packet.payload)
        except CodecError:
            # Bad framing, or well framed with a field value no message
            # can carry: the one error out of the codec.
            self.stats["undecodable_messages"] += 1
            return
        peer = self.node.interfaces[ifindex].peer
        if peer is None:
            return
        from_name = peer.name
        self.liveness.last_heard[from_name] = self.sim.now
        stats = self.stats
        stats["wire_recvs"] += 1
        stats["bytes_on_wire_rx"] += packet.size
        # Read by the traced dispatch only.
        span_ctx = packet.headers.get(SPAN_HEADER) if self.obs is not None else None
        if type(message) is EcmpBatch:
            stats["batches_rx"] += 1
            stats["batch_records_rx"] += len(message.messages)
            contexts = span_ctx if isinstance(span_ctx, list) else None
            # The records are handled in one instant, so what they send
            # on travels as one frame per neighbor, in their order and
            # under the session policy: sent one by one, the first would
            # go alone, and a keyed join and the shorter leave behind it
            # would swap places on the next link.
            with self.sessions.burst():
                for index, record in enumerate(message.messages):
                    ctx = None
                    if contexts is not None and index < len(contexts):
                        ctx = contexts[index]
                    self._dispatch_message(record, from_name, ctx)
            return
        self._dispatch_message(message, from_name, span_ctx)

    def _dispatch_message(
        self, message: EcmpMessage, from_name: str, span_ctx
    ) -> None:
        """Route one decoded protocol message (possibly unpacked from a
        batch frame) to its handler, with per-message rx accounting."""
        row = MESSAGE_TYPES.get(type(message))
        if row is None:
            return
        self.stats[row.rx_stat] += 1
        # Looked up on the instance: a test may have wrapped the method.
        handler = row.handler(self)
        if self.obs is None:
            handler(message, from_name)
            return
        tally = self._m_tally
        tally["rx", type(message), message.channel] += 1
        tally["rx"] += IP_OVERHEAD + message.wire_size()
        self._handle_traced(message, from_name, row.kind, handler, span_ctx)

    def _handle_traced(
        self,
        message: EcmpMessage,
        from_name: str,
        kind: str,
        handler: Callable[[EcmpMessage, str], None],
        parent_ctx,
    ) -> None:
        """Run ``handler`` inside the right span.

        A Count consumed as a *reply* to a pending query does not open
        a span of its own — it is recorded as an event on the pending
        query's span (and runs inside it, so anything it triggers stays
        in the query's trace). That keeps a query trace's leaves equal
        to the subscribers that answered. Every other message opens a
        handling span parented to the context the message carried.
        """
        tracer = self.obs.tracer
        if kind == "count":
            waiting = self.counting.reply_span(message, from_name)
            if waiting is not None:
                tracer.add_event(
                    waiting, "reply", neighbor=from_name, count=message.count
                )
                with tracer.activate(waiting):
                    handler(message, from_name)
                return
        parent = parent_ctx
        span = tracer.start_span(
            f"ecmp.{kind}",
            node=self.node.name,
            parent=parent,
            channel=message.channel,
            count_id=message.count_id,
            neighbor=from_name,
        )
        with tracer.activate(span):
            handler(message, from_name)
        if not span.attrs.get("deferred"):
            tracer.end(span)

    def _send_message(
        self,
        message: EcmpMessage,
        neighbor: str,
        urgent: Optional[bool] = None,
        pinned: Optional[bool] = None,
    ) -> None:
        """Account one protocol message and hand it to the session
        toward ``neighbor``, which sends it now or queues it (see
        :meth:`NeighborSessions.send`; ``urgent``/``pinned`` override
        its defaults).

        Logical per-message accounting (``msgs_tx``, ``bytes_tx``,
        ``ecmp_messages_total``) happens here, queued or not;
        wire-level accounting happens in :meth:`_transmit` when a packet
        actually leaves.

        A name that is not an adjacent node (a block pseudo-neighbor, an
        unknown or a non-adjacent node) is sent nothing and counted
        nowhere: ECMP is hop-by-hop, and every name this agent sends to
        is a routing next hop or the peer a message arrived from.
        """
        sessions = self.sessions
        known = sessions.table.get(neighbor)
        if known is None:
            known = sessions.neighbor(neighbor)
            if known is None:
                return
        size = IP_OVERHEAD + message.wire_size()
        stats = self.stats
        stats["msgs_tx"] += 1
        stats["bytes_tx"] += size
        stats[MESSAGE_TYPES[type(message)].tx_stat] += 1
        span_ctx = None
        if self.obs is not None:
            current = self.obs.tracer.current
            if current is not None:
                # Causal context rides with the message: the span active
                # while the protocol decides to send becomes the parent
                # of the receiver's handling span — even if the wire
                # send happens later, from a flush event.
                span_ctx = current.context
            self._m_tally["tx", type(message), message.channel] += 1
        sessions.send(message, known, urgent, pinned, size, span_ctx)

    def _transmit(
        self,
        message,
        neighbor: Neighbor,
        contexts: tuple = (),
        size: Optional[int] = None,
    ) -> None:
        """Put one wire packet (a single message or a batch frame) on
        the link toward ``neighbor``, with on-wire byte accounting.
        ``size`` is the packet size when the caller already has it."""
        if size is None:
            size = IP_OVERHEAD + message.wire_size()
        last, payload = self._encoded
        if message is not last:
            payload = encode_message(message)
            self._encoded = (message, payload)
        # TCP mode hides loss behind retransmission; model it as
        # loss-exempt delivery (delay still applies).
        headers = {"reliable": neighbor.mode is NeighborMode.TCP}
        if type(message) is EcmpBatch:
            if any(ctx is not None for ctx in contexts):
                # One span context per record, aligned by index.
                headers[SPAN_HEADER] = list(contexts)
        elif contexts and contexts[0] is not None:
            headers[SPAN_HEADER] = contexts[0]
        packet = Packet(
            self.node.address,
            neighbor.peer.address,
            PROTO_ECMP,
            payload,
            size,
            headers=headers,
            created_at=self.sim.now,
        )
        stats = self.stats
        stats["wire_sends"] += 1
        stats["bytes_on_wire"] += size
        self.node.send(packet, neighbor.iface.index)

    # ------------------------------------------------------------------
    # subscriber counts: join / leave / update (§3.2)
    # ------------------------------------------------------------------

    def _handle_count(self, message: Count, from_name: str) -> None:
        channel, count_id = message.channel, message.count_id
        if count_id == NEIGHBORS_ID:
            return  # discovery replies refresh last_heard; nothing more
        if count_id == SUBSCRIBER_ID:
            # Tree maintenance always applies; a pending query may also
            # consume the same message as its reply (see module doc) —
            # asked only while a query is pending, which is rare.
            if self.counting.pending:
                self.counting.on_reply(message, from_name)
            self._apply_subscriber_count(
                channel, from_name, message.count, message.key, message.request_id
            )
            return
        if self.counting.pending and self.counting.on_reply(message, from_name):
            return
        state = self.channels.get(channel)
        if state is not None and count_id in self.counting.proactive.get(channel, ()):
            self.counting.on_proactive_value(
                state, count_id, from_name, message.count
            )
            return
        # §3.1: "A router can either acknowledge or reject a Count
        # message by sending a CountResponse indicating an unsupported
        # count" — a Count matching no query, no proactive state, and
        # no tree activity is rejected so the sender can stop.
        self.stats["unexpected_counts"] += 1
        self._send_message(
            CountResponse(channel, count_id, CountStatus.UNSUPPORTED_COUNT), from_name
        )

    def _apply_subscriber_count(
        self,
        channel: Channel,
        from_name: str,
        count: int,
        key: Optional[ChannelKey] = None,
        request_id: int = 0,
    ) -> None:
        state = self.channels.get(channel)
        record = None
        if state is not None:
            # ``state.downstream.get(from_name)``, read off the slots.
            if state.spill is not None:
                record = state.spill.get(from_name)
            elif state.lone_name == from_name:
                record = state.lone_record
        previous = 0
        prior_validated = True
        if record is not None:
            previous, prior_validated = record.count, record.validated

        if count > 0 and previous == 0:
            self.stats["subscribe_events"] += 1
        elif count == 0 and previous > 0:
            self.stats["unsubscribe_events"] += 1
        elif count != previous:
            self.stats["count_update_events"] += 1
        if count != previous and self.obs is not None:
            self.obs.state_changed()

        if count == 0:
            if record is None:
                return
            # In-flight verdict entries for this neighbor stay tabled:
            # the upstream response still arrives and is relayed.
            was_udp = record.udp
            self._drop_record(state, from_name)
            self._propagate(state)
            self._garbage_collect(state)
            if was_udp and from_name != LOCAL:
                # §3.2: a UDP-neighbor leave makes the upstream
                # "re-issue a CountQuery on that interface (like
                # IGMPv2)" in case other subscribers remain behind it.
                self._send_message(
                    CountQuery(
                        channel=channel,
                        count_id=SUBSCRIBER_ID,
                        timeout=self.UDP_QUERY_INTERVAL,
                    ),
                    from_name,
                )
            return

        # A Count that carries a request id wants a verdict whatever it
        # reads as here: a repeat of a join whose verdict was lost is a
        # refresh by its count and still has someone waiting on it.
        is_join = previous == 0 or key is not None or request_id != 0
        asked = None  # the key whose upstream verdict this join waits on
        if is_join:
            verdict = self.keys.validate(channel, key) if self.keys.knows(channel) else None
            if verdict is False:
                self.verdicts.deny(channel, from_name, request_id)
                return
            if verdict:
                # Validated equal to the cached key: keep the cache's
                # object, not one more copy of it per record.
                key = self.keys.get(channel)
            at_source = (
                self.routing.topo.node_by_address(channel.source) is self.node
            )
            # Accept locally when the key checked out, the join is
            # keyless (optimistic; but while a key's verdict is upstream
            # the channel may be keyed, §3.5, and it waits — unless it is
            # a block's: open channels only), or we are the source.
            if verdict is None and not at_source:
                asked = key
                table = self.verdicts.pending.get(channel)
                if key is None and table and from_name not in self.blocks:
                    asked = next(iter(table.values())).asked_key

        if state is None:
            state = self._create_state(channel)
            if state is None:
                # Source unknown/unreachable: reject.
                self.verdicts._notify_denied(
                    channel, from_name, request_id, CountStatus.NO_SUCH_CHANNEL
                )
                return

        if record is None:
            record = state.new_record()
            if state.spill is not None:
                state.spill[from_name] = record
            elif state.lone_name is None:
                state.lone_name = from_name
                state.lone_record = record
            else:
                state.put(from_name, record)  # the second neighbor: spill
        record.count = count
        record.updated_at = self.sim.now
        if from_name != LOCAL:
            block = self.blocks.get(from_name)
            if block is not None:
                record.udp = block.udp
                block.set_count(channel, count)
            else:
                # A Count off the wire came from a neighbor; a name that
                # is none (a test driving this method) has no session.
                known = self.sessions.neighbor(from_name)
                mode = known.mode if known is not None else self.sessions.default_mode
                record.udp = mode is NeighborMode.UDP
            self.liveness.track(channel, from_name, record)

        entry = None
        forwards = prior_validated
        if is_join:
            record.presented_key = key
            record.validated = forwards = asked is None
            # Nobody waits on a keyless join under id 0 (a host's, a
            # block's, a replay's): no entry, no answer unless refused.
            if key is not None or asked is not None or request_id:
                entry = VerdictEntry(
                    from_name, key, prior_validated, request_id, join_delta=count - previous
                )

        if forwards != (prior_validated and previous > 0):
            self._set_forwarding(state, from_name, forwards)
        forwarded = self._propagate(state, joining_key=asked, join_entry=entry)
        if is_join and not forwarded:
            # The join terminated here: this node's verdict is final.
            if from_name == LOCAL:
                self._activate_local(channel)
            elif request_id:
                # OK on a key known here; OPEN, teaching nothing, where none is.
                status = CountStatus.OK if verdict else CountStatus.OPEN
                self._send_message(
                    CountResponse(channel, SUBSCRIBER_ID, status, request_id), from_name
                )

    def _create_state(self, channel: Channel) -> Optional[ChannelState]:
        upstream = self._upstream_name(channel)
        source_node = self.routing.topo.node_by_address(channel.source)
        if source_node is None:
            return None
        if source_node is not self.node and upstream is None:
            return None  # unreachable source
        # From here on the data plane's probe must find the channel,
        # however the caller built it.
        channel = intern_channel(channel)
        state = ChannelState(
            channel=channel, upstream=upstream, upstream_changed_at=self.sim.now
        )
        self.channels[channel] = state
        if self.propagation is CountPropagation.PROACTIVE:
            self.counting.proactive[channel] = {
                SUBSCRIBER_ID: ProactiveCounter(self.counting.curve, now=self.sim.now)
            }
        return state

    def _upstream_name(self, channel: Channel) -> Optional[str]:
        source_node = self.routing.topo.node_by_address(channel.source)
        if source_node is None or source_node is self.node:
            return None
        return self.routing.next_hop(self.node.name, source_node.name)

    def _propagate(
        self,
        state: ChannelState,
        joining_key: Optional[ChannelKey] = None,
        join_entry: Optional[VerdictEntry] = None,
    ) -> bool:
        """Decide whether the new downstream total goes upstream now.

        Returns True when a *join*'s verdict will come from above rather
        than from this node: its Count went upstream with ``join_entry``
        tabled, or it waits on an earlier join's that presented the same
        key.
        """
        if state.upstream is None:
            # Root (the source's node): counts aggregate here.
            counters = self.counting.proactive.get(state.channel)
            counter = counters.get(SUBSCRIBER_ID) if counters else None
            if counter is not None:
                counter.observe(state.total(validated_only=False))
            return False
        total = state.total(validated_only=False)
        if total > 0 and state.advertised == 0:
            key = joining_key or self.keys.get(state.channel)
            table = self.verdicts.pending.get(state.channel)
            if key is None and table:
                key = next(iter(table.values())).asked_key  # what joins here wait on
            self.verdicts.forward_join(state, total, key, join_entry)
            return True
        if total == 0 and state.advertised > 0:
            self._send_count_upstream(state, 0)
            return False
        if joining_key is not None:
            # Already on tree, but a keyed join needs an upstream verdict.
            self.verdicts.ask(state, total, joining_key, join_entry)
            return True
        if total == state.advertised:
            return False
        if self.propagation is CountPropagation.ON_CHANGE:
            self._send_count_upstream(state, total)
        elif self.propagation is CountPropagation.PROACTIVE:
            self.counting.evaluate(state, SUBSCRIBER_ID)
        # TREE_ONLY: stay quiet while on-tree.
        return False

    def _send_count_upstream(
        self,
        state: ChannelState,
        count: int,
        key: Optional[ChannelKey] = None,
        request_id: int = 0,
    ) -> None:
        """Send ``count`` upstream, under ``request_id`` when a tabled
        join waits on the answer."""
        if state.upstream is None:
            return
        # A 0→positive transition (or any Count with a key or a request
        # id) is answered with a verdict, so the message must survive
        # coalescing verbatim.
        is_join = count > 0 and state.advertised == 0
        self._send_message(
            Count(state.channel, SUBSCRIBER_ID, count, key, request_id),
            state.upstream,
            pinned=True if (is_join or key is not None or request_id) else None,
        )
        state.advertised = count
        counters = self.counting.proactive.get(state.channel)
        counter = counters.get(SUBSCRIBER_ID) if counters else None
        if counter is not None:
            counter.observe(state.total(validated_only=False))
            counter.sent(self.sim.now)

    def _garbage_collect(self, state: ChannelState) -> None:
        # ``not state.downstream``, read off the slots.
        if state.lone_name is None and not state.spill and state.advertised == 0:
            self.channels.pop(state.channel, None)
            self.verdicts.forget_channel(state.channel)
            self.fib.remove(state.channel)
            self.counting.forget_channel(state.channel)

    def _drop_record(self, state: ChannelState, name: str) -> None:
        """Delete one downstream record, with every index entry and the
        forwarding bit that stood for it."""
        # ``state.downstream.pop(name)``, on the slots.
        if state.spill is not None:
            record = state.spill.pop(name)
        elif state.lone_name == name:
            record = state.lone_record
            state.lone_name = state.lone_record = None
        else:
            raise KeyError(name)
        self.liveness.untrack(state.channel, name)
        if record.validated and record.count > 0:
            self._set_forwarding(state, name, False)
        block = self.blocks.get(name)
        if block is not None:
            block.set_count(state.channel, 0)

    def _set_forwarding(self, state: ChannelState, name: str, on: bool) -> None:
        """Mirror one downstream record's forwarding eligibility
        (validated and count > 0), which just flipped to ``on``, into
        the data plane: one outgoing bit set or cleared.

        Block pseudo-neighbors contribute no outgoing interface (their
        members sit *at* this router), but they do keep the FIB entry
        installed: a blocks-only edge router is on the tree, so matching
        packets must pass the RPF check and terminate here rather than
        count as §3.4 no-match drops. After every flip the entry equals
        a from-scratch build out of the channel state (the oracle in
        ``tests/properties/test_fib_sync_equivalence.py``)."""
        if name in self.blocks:
            bit = 0
        else:
            neighbor = self.sessions.neighbor(name)
            if neighbor is None:
                return  # LOCAL, or nothing a packet could be sent to
            bit = 1 << neighbor.iface.index
        if on:
            self.fib.graft(state.channel, self._rpf_ifindex(state), bit)
            return
        remaining = self.fib.prune(state.channel, bit)  # None: no entry
        if remaining == 0 and not self._has_block_members(state):
            self.fib.remove(state.channel)

    def _has_block_members(self, state: ChannelState) -> bool:
        blocks = self.blocks
        if not blocks:
            return False
        return any(
            name in blocks and rec.validated and rec.count > 0
            for name, rec in state.downstream.items()
        )

    def _rpf_ifindex(self, state: ChannelState) -> int:
        upstream = self.sessions.neighbor(state.upstream) if state.upstream else None
        # 0 at the source's own node: the emit path skips the iif check.
        return upstream.iface.index if upstream is not None else 0

    def _activate_local(self, channel: Channel) -> None:
        handle = self.subscriptions.get(channel)
        if handle is not None and handle.status != "active":
            handle._set_status("active")

    # ------------------------------------------------------------------
    # query dispatch (§3.1, §3.3, §6)
    # ------------------------------------------------------------------

    def _handle_query(self, query: CountQuery, from_name: str) -> None:
        if query.count_id == NEIGHBORS_ID:
            # Neighbor discovery / keepalive probe: reply immediately.
            self._send_message(
                Count(channel=query.channel, count_id=NEIGHBORS_ID, count=1), from_name
            )
            return
        if query.count_id == ALL_CHANNELS_ID:
            self._handle_general_query(from_name)
            return
        if query.proactive is not None:
            self.counting.on_proactive_request(query, origin=from_name)
            return
        self.counting.on_query(query, origin=from_name)

    def _handle_general_query(self, from_name: str) -> None:
        """§3.3: re-send Counts for every channel routed via ``from_name``
        (the UDP-mode refresh, "analogous to an IGMP general query").

        One walk of the table finds them: the reply costs a Count per
        routed channel anyway, once a ``UDP_QUERY_INTERVAL`` per querier.
        ``refresh_records_examined`` tallies the states re-announced.
        """
        routed = [s for s in self.channels.values() if s.upstream == from_name]
        if not routed:
            return
        self.stats["refresh_records_examined"] += len(routed)
        with self.sessions.burst("refresh"):
            for state in routed:
                self.verdicts.reannounce(state)

    # ------------------------------------------------------------------
    # what liveness reports: expiry and failure handling (§3.2-3.3)
    # ------------------------------------------------------------------

    def _record_expired(self, channel: Channel, name: str) -> None:
        """A UDP-mode record outlived its lease: it leaves as if its
        neighbor had sent a zero Count (a block's members with it)."""
        self.stats["udp_expirations"] += 1
        self._apply_subscriber_count(channel, name, 0)

    def _neighbor_failed(self, name: str) -> None:
        """TCP-connection failure: "The associated count is subtracted
        from the sum provided upstream if the connection fails" (§3.2)."""
        with self.sessions.burst("failure"):
            for state in list(self.channels.values()):
                # ``name in state.downstream``, read off the slots.
                if state.lone_name == name or (
                    state.spill is not None and name in state.spill
                ):
                    self._apply_subscriber_count(state.channel, name, 0)
        # Channels routed *via* the failed neighbor re-home after the
        # routing recompute (reevaluate_upstreams), which the network
        # facade triggers off the same link event.

    def _neighbor_recovered(self, name: str) -> None:
        """On (re)connection, re-announce every channel we route through
        this neighbor (§3.2: unsolicited Counts on establishment).

        Toward a TCP-mode neighbor the whole unsolicited state dump
        leaves as a single MSG_BATCH frame instead of N packets, and at
        once.

        The re-announced bytes are tallied as ``resync_bytes`` /
        ``resync_counts`` — the soft-state-recovery cost HPIM-DM uses
        as its comparison metric, measured here as the logical control
        bytes the recovery caused (delta of ``bytes_tx`` around the
        state dump, which is deterministic across sharded/oracle runs)."""
        bytes_before = self.stats.get("bytes_tx")
        resent = 0
        with self.sessions.burst("reconnect"):
            for state in self.channels.values():
                if state.upstream == name:
                    # The peer dropped our records with the session.
                    self.verdicts.reannounce(state, fresh=True)
                    resent += 1
        if resent:
            self.stats["resync_counts"] += resent
            self.stats["resync_bytes"] += self.stats.get("bytes_tx") - bytes_before

    # ------------------------------------------------------------------
    # topology change (§3.2)
    # ------------------------------------------------------------------

    def reevaluate_upstreams(self) -> None:
        """After a unicast routing recompute, re-home each channel:
        "it sends a current Count message to the new upstream router and
        a zero Count message to the old upstream router ... Hysteresis
        is applied to prevent route oscillation."
        """
        bytes_before = self.stats.get("bytes_tx")
        # All re-home joins toward one new parent, and all zeros toward
        # one abandoned parent, leave as one frame each.
        with self.sessions.burst("rehome"):
            self._rehome_channels()
        sent = self.stats.get("bytes_tx") - bytes_before
        if sent:
            # Re-home traffic is resync cost too (§3.2's hand-off of a
            # current Count to the new parent and a zero to the old).
            self.stats["resync_events"] += 1
            self.stats["resync_bytes"] += sent

    def _rehome_channels(self) -> None:
        """The re-home pass proper: every channel whose RPF neighbor
        moved joins the new one and withdraws from the old.

        Hysteresis holds a channel on an old parent that is still
        reachable and was taken less than ``HYSTERESIS`` ago — unless
        that parent's own route to the source now runs through this
        node. Held there, the parent would re-home onto this node while
        this node stayed on it: a two-node RPF loop for the whole
        hold, cutting off everyone below."""
        now = self.sim.now
        node_by_address = self.routing.topo.node_by_address
        # source address -> its node and the next hop toward it: routing
        # is fixed for the length of this call, so one resolution serves
        # every channel of a source.
        resolved: dict[int, tuple[Optional[Node], Optional[str]]] = {}
        # (old parent, source node) -> whether that parent's route runs
        # back through this node, likewise resolved once per pass.
        detours: dict[tuple[str, Node], bool] = {}
        for channel, state in list(self.channels.items()):
            route = resolved.get(channel.source)
            if route is None:
                route = resolved[channel.source] = (
                    node_by_address(channel.source),
                    self._upstream_name(channel),
                )
            source_node, new_upstream = route
            if source_node is self.node:
                continue  # the source's node is the root; never re-homes
            if new_upstream == state.upstream:
                continue
            old = state.upstream
            known = self.sessions.neighbor(old) if old is not None else None
            old_reachable = known is not None and known.iface.up
            if (
                old_reachable
                and now - state.upstream_changed_at < self.HYSTERESIS
                and not self._routes_through_me(old, source_node, detours)
            ):
                remaining = self.HYSTERESIS - (now - state.upstream_changed_at)
                if not self._rehome_scheduled:
                    self._rehome_scheduled = True
                    self.sim.schedule(
                        remaining + 1e-6, self._rehome_fired, name="ecmp-hysteresis"
                    )
                continue
            self.stats["upstream_changes"] += 1
            if self.obs is not None:
                self.obs.state_changed()
            state.upstream = new_upstream
            state.upstream_changed_at = now
            if new_upstream is not None and (state.lone_name is not None or state.spill):
                state.advertised = 0  # force a fresh join to the new parent
                self.verdicts.reannounce(state, self.keys.get(channel), fresh=True)
            elif new_upstream is None:
                # Partitioned from the source: nothing is advertised to
                # anyone any more (the old upstream zeroed us, or died).
                state.advertised = 0
            if old_reachable and old is not None:
                self._send_message(
                    Count(channel=channel, count_id=SUBSCRIBER_ID, count=0),
                    old,
                    pinned=True,
                )
            # The outgoing bits are already right; only the incoming
            # interface follows the upstream.
            if channel in self.fib:
                self.fib.set_incoming(channel, self._rpf_ifindex(state))
            self._garbage_collect(state)

    def _routes_through_me(
        self, parent: str, source_node: Optional[Node], known: dict
    ) -> bool:
        """Whether ``parent``'s shortest path to ``source_node`` passes
        through this node (link-state routing lets every router see
        every router's path); ``known`` caches the answers of one pass."""
        if source_node is None:
            return False
        key = (parent, source_node)
        through = known.get(key)
        if through is None:
            try:
                path = self.routing.path(parent, source_node.name)
            except RoutingError:
                path = ()  # the parent cannot reach the source at all
            through = known[key] = self.node.name in path
        return through

    def _rehome_fired(self) -> None:
        self._rehome_scheduled = False
        self.reevaluate_upstreams()
