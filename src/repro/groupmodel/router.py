"""The router skeleton the three group-model baselines share.

PIM-SM-lite, CBT-lite and DVMRP-lite differ in their trees, not in
their plumbing. :class:`GroupRouterAgent` holds the plumbing once: the
neighbor behind an interface, the upstream neighbor toward a node, the
one reliable control send (a directly attached host uses it too, toward
this router), replication to tree neighbors, tunnel packets out and in
transit, and the state the facade inspects. :class:`JoinPrune` is the
one hop-by-hop join/prune message of PIM and CBT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.errors import ProtocolError
from repro.inet.addr import is_class_d
from repro.netsim.node import Node, ProtocolAgent
from repro.netsim.packet import IP_HEADER_BYTES, Packet
from repro.netsim.trace import Counter
from repro.routing.unicast import UnicastRouting

PROTO_DATA = "data"
PROTO_TUNNEL = "ipip"


@dataclass(frozen=True)
class JoinPrune:
    """A hop-by-hop Join (``join=True``) or Prune/Leave for ``group``.

    ``source`` selects PIM's (S,G) source tree, None the shared tree
    (PIM's (*,G) RP tree, CBT's core tree). With ``rpt`` it is PIM's
    (S,G,rpt) form: a Prune asks the shared tree to stop carrying
    ``source``'s packets to the sender, a Join asks for them again."""

    group: int
    join: bool
    source: Optional[int] = None
    rpt: bool = False

    def __post_init__(self) -> None:
        if not is_class_d(self.group):
            raise ProtocolError(f"{self.group:#x} is not a group address")


class GroupRouterAgent(ProtocolAgent):
    """One group-model router; a subclass supplies the trees.

    It sets :attr:`PROTO` (the label and header key of its control
    packets), :attr:`CONTROL_BYTES` and :attr:`LABELS`, and implements
    ``_on_control(message, from_name)``, ``_forward_data(packet,
    ifindex)`` and, when it is registered for tunnels,
    ``_on_tunnel(packet)`` for a tunnel packet addressed to it.
    """

    PROTO: str
    #: A control message's size after the IP header.
    CONTROL_BYTES: int
    #: The control message class the agent accepts.
    MESSAGE: type = JoinPrune
    #: The protocol labels the agent is registered under on its node.
    LABELS: tuple
    #: What the protocol calls a leave, in ``stats`` keys and in the
    #: facade's ``messages_sent``.
    LEAVE = "leave"

    def __init__(self, node: Node, routing: UnicastRouting) -> None:
        super().__init__(node)
        self.routing = routing
        self.topo = routing.topo
        #: Names of host nodes, shared with the facade.
        self.host_names: set = set()
        self.stats = Counter()

    def handle_packet(self, packet: Packet, ifindex: int) -> None:
        proto = packet.proto
        if proto == self.PROTO:
            message = packet.headers.get(proto)
            from_name = self._neighbor_name(ifindex)
            if isinstance(message, self.MESSAGE) and from_name is not None:
                self.stats.incr(self._kind(message) + "_rx")
                self._on_control(message, from_name)
        elif proto == PROTO_TUNNEL:
            if packet.dst == self.node.address:
                self._on_tunnel(packet)
            else:
                packet.ttl -= 1  # a router in transit takes one off
                self.routing.forward(self.node, packet)
        elif proto == PROTO_DATA and is_class_d(packet.dst):
            self._forward_data(packet, ifindex)

    # -- membership and control ------------------------------------------

    def host_membership(
        self, host: Node, group: int, join: bool, source: Optional[int] = None
    ) -> None:
        """``host``, attached here, joined or left ``group`` (``source``:
        joined that source's tree instead); by default it tells this
        router with a :class:`JoinPrune`."""
        self._transmit(host, self.node, JoinPrune(group, join, source))

    def _kind(self, message) -> str:
        """What the ``stats`` keys call ``message``."""
        return "join" if message.join else self.LEAVE

    def _send_control(self, message, neighbor: Optional[str]) -> None:
        peer = self.topo.nodes.get(neighbor) if neighbor is not None else None
        if peer is None:
            return
        self.stats.incr(self._kind(message) + "_tx")
        self._transmit(self.node, peer, message)

    def _transmit(self, sender: Node, peer: Node, message) -> None:
        """The one reliable control send: ``message`` in an IP packet
        from ``sender`` to its neighbor ``peer``."""
        packet = Packet(
            src=sender.address,
            dst=peer.address,
            proto=self.PROTO,
            size=IP_HEADER_BYTES + self.CONTROL_BYTES,
            headers={self.PROTO: message, "reliable": True},
            created_at=self.sim.now,
        )
        sender.send_to_neighbor(packet, peer)

    # -- routing and replication -----------------------------------------

    def _neighbor_name(self, ifindex: int) -> Optional[str]:
        peer = self.node.interfaces[ifindex].peer
        return peer.name if peer is not None else None

    def _upstream(self, target: str) -> Optional[str]:
        """This router's neighbor toward ``target``; None at ``target``
        itself or when it is unreachable."""
        if target == self.node.name:
            return None
        return self.routing.next_hop(self.node.name, target)

    def _is_attached_host(self, src_address: int, arrived_from: Optional[str]) -> bool:
        origin = self.topo.node_by_address(src_address)
        return origin is not None and origin.name == arrived_from

    def _tunnel(self, packet: Packet, target: Node, stat: str) -> None:
        """Encapsulate ``packet`` to ``target`` and send it on its
        unicast way (the PIM register, the CBT tunnel to the core)."""
        outer = packet.encapsulate(
            outer_src=self.node.address, outer_dst=target.address, proto=PROTO_TUNNEL
        )
        self.stats.incr(stat)
        self.routing.forward(self.node, outer)

    def _fan_out(self, packet: Packet, neighbors: Iterable[str], exclude: Optional[str]) -> None:
        """A copy, one TTL down, to each named neighbor but ``exclude``."""
        for name in neighbors:
            if name == exclude:
                continue
            peer = self.topo.nodes.get(name)
            if peer is None:
                continue
            copy = packet.copy()
            copy.ttl = packet.ttl - 1
            self.stats.incr("data_tx")
            self.node.send_to_neighbor(copy, peer)

    # -- inspection --------------------------------------------------------

    def state_entries(self) -> int:
        return len(self.state)

    def touched(self) -> bool:
        """Did any group activity leave state on this router?"""
        return self.state_entries() > 0
