"""CBT-lite: a running core-based bidirectional shared tree.

The third baseline of §7.1 (Ballardie's CBT, RFC 2201), live: members
join toward a configured core; data from an *on-tree* node flows along
the tree in every direction away from its arrival ("the use of a
bi-directional shared tree can provide faster delivery to subscribers
on the path from the sender to the [core]", §4.4); an *off-tree* sender
IP-in-IP-encapsulates to the core, which injects the packet into the
tree.

Simplifications (per the §4.4 comparison's needs): no core election or
keepalives, join acks are implicit (point-to-point links, reliable
control), and "on-tree sender" means the sender's first-hop router is
on the tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.groupmodel.router import (
    PROTO_DATA,
    PROTO_TUNNEL,
    GroupRouterAgent,
    JoinPrune,
)
from repro.netsim.node import Node
from repro.netsim.packet import Packet
from repro.routing.unicast import UnicastRouting

PROTO_CBT = "cbt"
JOIN_BYTES = 30


@dataclass
class _CbtState:
    """Bidirectional tree adjacency on one router: the parent (toward
    the core) plus children, all treated alike by the data plane."""

    parent: Optional[str] = None
    children: set = field(default_factory=set)

    def tree_neighbors(self) -> set:
        neighbors = set(self.children)
        if self.parent is not None:
            neighbors.add(self.parent)
        return neighbors


class CbtRouterAgent(GroupRouterAgent):
    """CBT-lite on one router."""

    PROTO = PROTO_CBT
    CONTROL_BYTES = JOIN_BYTES
    LABELS = (PROTO_DATA, PROTO_CBT, PROTO_TUNNEL)

    def __init__(self, node: Node, routing: UnicastRouting, core_name: str) -> None:
        super().__init__(node, routing)
        self.core_name = core_name
        self.state: dict[int, _CbtState] = {}

    # ------------------------------------------------------------------

    def _on_control(self, message: JoinPrune, from_name: str) -> None:
        state = self.state.get(message.group)
        if message.join:
            if state is None:
                state = _CbtState(parent=self._upstream(self.core_name))
                self.state[message.group] = state
                self._send_control(message, state.parent)
            state.children.add(from_name)
        else:
            if state is None:
                return
            state.children.discard(from_name)
            if not state.children:
                self._send_control(message, state.parent)
                del self.state[message.group]

    # ------------------------------------------------------------------

    def _forward_data(self, packet: Packet, ifindex: int) -> None:
        group = packet.dst
        arrived_from = self._neighbor_name(ifindex)
        state = self.state.get(group)

        attached_source = self._is_attached_host(packet.src, arrived_from)
        if state is None:
            if attached_source:
                # Off-tree sender: tunnel to the core.
                self._tunnel(packet, self.topo.node(self.core_name), "tunnels_tx")
            else:
                self.stats.incr("no_state_drops")
            return

        # Bidirectional forwarding: a packet from any tree neighbor (or
        # a directly-attached sender) goes to every *other* tree
        # neighbor.
        if attached_source or arrived_from in state.tree_neighbors():
            self.stats.incr("tree_forwarded")
            self._fan_out(packet, state.tree_neighbors(), exclude=arrived_from)
        else:
            self.stats.incr("off_tree_drops")

    def _on_tunnel(self, packet: Packet) -> None:
        if self.node.name != self.core_name or not packet.is_encapsulated():
            self.stats.incr("bad_tunnel_drops")
            return
        inner = packet.decapsulate()
        state = self.state.get(inner.dst)
        self.stats.incr("tunnels_rx")
        if state is None:
            self.stats.incr("tunnel_no_group_drops")
            return
        self._fan_out(inner, state.tree_neighbors(), exclude=None)
