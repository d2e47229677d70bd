"""The EXPRESS data plane (§3.4).

"The EXPRESS forwarding procedure is nearly identical to that of
conventional IP multicast. ... when a router receives an EXPRESS
packet, it looks up (S,E) in the FIB and forwards the packet to the set
of outgoing network interfaces, if the incoming interface matches the
FIB entry's, dropping or forwarding to the CPU if not. An EXPRESS
multicast packet that does not match an exact (S,E) entry in the FIB is
simply counted and dropped, as opposed to being forwarded to a
rendezvous point as in PIM-SM, or broadcast, as with PIM-DM and
DVMRP."

The same agent also forwards ordinary unicast datagrams (needed by the
session-relay middleware and by subcast's encapsulated leg) and handles
subcast decapsulation (§2.1): an on-tree router that receives an
IP-in-IP packet addressed to itself, whose inner packet targets a
channel it has state for, "decapsulates the packet received from S and
forwards it toward all downstream channel receivers".
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.blocks import delivery_view, flush_agent_views
from repro.core.channel import Channel, interned_channel
from repro.core.ecmp.protocol import EcmpAgent
from repro.errors import ForwardingError
from repro.inet.addr import SSM_FIRST, SSM_LAST, is_ssm, is_unicast
from repro.netsim.node import Node, ProtocolAgent
from repro.netsim.packet import Packet
from repro.netsim.trace import Counter
from repro.routing.fib import MulticastFib
from repro.routing.unicast import UnicastRouting

PROTO_DATA = "data"
PROTO_IPIP = "ipip"


class ExpressForwarder(ProtocolAgent):
    """Data-plane forwarding for one node.

    Registered for the ``data`` and ``ipip`` protocols. Uses only the
    FIB for multicast decisions — mirroring the paper's point that
    EXPRESS needs *no change* to deployed fast paths.
    """

    def __init__(
        self,
        node: Node,
        routing: UnicastRouting,
        fib: MulticastFib,
        ecmp: EcmpAgent,
        obs=None,
    ) -> None:
        super().__init__(node)
        self.routing = routing
        self.fib = fib
        self.ecmp = ecmp
        #: Hosts terminate channels; they never relay. An agent's role
        #: is fixed at construction.
        self._is_host = ecmp.role == "host"
        self.obs = obs
        self.stats = Counter()
        self._m_delivery = None
        if obs is not None:
            registry = obs.registry
            self._events = registry.counter(
                "forwarder_events_total",
                "Data-plane forwarding events by node",
                ("node", "event"),
            )
            self._m_delivery = registry.histogram(
                "delivery_latency_seconds",
                "End-to-end data delivery latency from source emit to "
                "subscriber delivery",
                ("protocol", "node", "channel"),
            )
            #: channel -> its labelled child of that histogram, resolved
            #: on the channel's first local delivery here.
            self._delivery_hists: dict = {}
            registry.fold(self._tallies)
        #: Callbacks for unicast datagrams addressed to this node.
        self._unicast_sinks: list[Callable[[Packet], None]] = []

    def _tallies(self):
        """Registry fold: ``stats`` as ``forwarder_events_total``, once
        pending delivery-view tallies have landed in it and in the block
        counters (see :class:`repro.core.blocks.DeliveryView`)."""
        flush_agent_views(self.ecmp)
        node = self.node.name
        for event, total in self.stats.items():
            yield self._events, (node, event), total

    def on_unicast_delivery(self, callback: Callable[[Packet], None]) -> None:
        """Register an application sink for unicast packets addressed
        to this node (used by the session-relay middleware)."""
        self._unicast_sinks.append(callback)

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------

    def handle_packet(self, packet: Packet, ifindex: int) -> None:
        if packet.proto == PROTO_IPIP:
            self._handle_encapsulated(packet, ifindex)
            return
        dst = packet.dst
        if not SSM_FIRST <= dst <= SSM_LAST:
            if is_unicast(dst):
                self._handle_unicast(packet, ifindex)
            else:
                # Conventional class-D traffic is outside this
                # forwarder's remit (IGMP-managed LANs handle it);
                # count and drop.
                self.stats["non_express_multicast_drops"] += 1
            return
        if packet.src == self.node.address:
            # A channel packet claiming to be from us arriving on a
            # wire is spoofed or looped; never process it.
            self.stats["self_spoof_drops"] += 1
            return
        # Probe, never intern: a packet for a pair nobody interned has
        # nobody to be delivered to and no FIB entry to match.
        channel = interned_channel((packet.src, dst))
        delivered = self._deliver_local(packet, channel)
        if self._is_host:
            return
        oifs = self.fib.lookup(channel, ifindex)
        if oifs:  # empty: a drop, or an edge whose members are all local blocks
            self._fan_out(packet, oifs, consume=not delivered)

    def _handle_unicast(self, packet: Packet, ifindex: int) -> None:
        if packet.dst == self.node.address:
            self.stats["unicast_delivered"] += 1
            for sink in self._unicast_sinks:
                sink(packet)
            return
        forwarded = packet.copy()
        forwarded.ttl = packet.ttl - 1
        if self.routing.forward(self.node, forwarded) is None:
            self.stats["unicast_no_route_drops"] += 1
        else:
            self.stats["unicast_forwarded"] += 1

    def _handle_encapsulated(self, packet: Packet, ifindex: int) -> None:
        if packet.dst != self.node.address:
            # In-transit tunnel packet: plain unicast forwarding.
            self._handle_unicast(packet, ifindex)
            return
        if not packet.is_encapsulated():
            self.stats["bad_decap_drops"] += 1
            return
        inner = packet.decapsulate()
        if not is_ssm(inner.dst):
            self.stats["bad_decap_drops"] += 1
            return
        # Subcast (§2.1): only the channel source may subcast — enforce
        # by requiring the outer source to equal the inner (channel)
        # source, "preserving the single-source property" (§7.1).
        if packet.src != inner.src:
            self.stats["subcast_auth_drops"] += 1
            return
        channel = interned_channel((inner.src, inner.dst))
        oifs = self.fib.egress_of(channel)
        if oifs is None:
            self.stats["subcast_off_tree_drops"] += 1
            return
        self.stats["subcast_relayed"] += 1
        delivered = self._deliver_local(inner, channel)
        self._fan_out(inner, oifs, consume=not delivered)

    # ------------------------------------------------------------------
    # transmit path
    # ------------------------------------------------------------------

    def emit_local(self, packet: Packet) -> int:
        """Inject a channel packet sourced at this node (the channel
        source's own transmission). Skips the incoming-interface check;
        returns the number of interfaces forwarded on."""
        if not is_ssm(packet.dst):
            raise ForwardingError("emit_local is for EXPRESS packets")
        if packet.src != self.node.address:
            raise ForwardingError(
                "only the designated source may emit on a channel"
            )
        channel = interned_channel((packet.src, packet.dst))
        delivered = self._deliver_local(packet, channel)  # a source subscribed to itself
        oifs = self.fib.egress_of(channel)
        if oifs is None:
            self.fib.no_match_drops += 1
            return 0
        self._fan_out(packet, oifs, consume=not delivered)
        return len(oifs)

    def emit_unicast(self, packet: Packet) -> bool:
        """Inject a locally-originated unicast packet."""
        if packet.dst == self.node.address:
            for sink in self._unicast_sinks:
                sink(packet)
            return True
        return bool(self.routing.forward(self.node, packet))

    def _fan_out(self, packet: Packet, oifs: tuple[int, ...], consume: bool = False) -> None:
        """Replicate ``packet`` onto ``oifs``.

        With ``consume=True`` the caller relinquishes ownership of the
        packet object, so the final interface sends the original with
        its TTL decremented in place instead of a defensive copy —
        zero-copy relay on degree-1 tree edges, the common case on deep
        distribution trees. Callers must pass ``consume=False`` whenever
        the packet remains visible elsewhere (delivered to a local
        subscriber whose ``on_data`` may retain it).
        """
        n = len(oifs)
        if n == 0:
            return
        self.stats["multicast_forwarded"] += n
        send = self.node.send
        ttl = packet.ttl - 1
        copies = n - 1 if consume else n
        for oif in oifs[:copies]:
            copy = packet.copy()
            copy.ttl = ttl
            send(copy, oif)
        if consume:
            packet.ttl = ttl
            self.stats["fanout_inplace"] += 1
            send(packet, oifs[copies])

    def _deliver_local(self, packet: Packet, channel: Optional[Channel]) -> bool:
        """Deliver to a local subscription, if any; True if delivered.
        ``channel`` is the packet's pair as the intern table knows it
        (None: unknown) — whoever holds a subscription or block
        membership for the pair interned it when its state was created."""
        if channel is None:
            return False
        ecmp = self.ecmp
        if ecmp.blocks:
            # Aggregated final hop: the packet terminates here for every
            # block member — counted arithmetically through a frozen
            # membership view instead of per-block counter churn (see
            # repro.core.blocks.DeliveryView). Per packet this is two
            # integer adds; tallies apply to the blocks in bulk at
            # flush boundaries.
            view = ecmp._delivery_views.get(channel)
            if view is None or view.stale:
                view = delivery_view(ecmp, channel, self.stats, self._m_delivery)
            if view.members_sum:
                view.pending_packets += 1
                view.pending_bytes += packet.size
                if view.hist is not None:
                    view.hist.observe(self.sim.now - packet.created_at)
        handle = self.ecmp.subscriptions.get(channel)
        if handle is None or handle.status != "active":
            return False
        handle.packets_received += 1
        handle.bytes_received += packet.size
        self.stats["local_deliveries"] += 1
        if self._m_delivery is not None:
            hist = self._delivery_hists.get(channel)
            if hist is None:
                hist = self._delivery_hists[channel] = self._m_delivery.labels(
                    protocol="express", node=self.node.name, channel=str(channel)
                )
            hist.observe(self.sim.now - packet.created_at)
        if handle.on_data is not None:
            handle.on_data(packet)
        return True
