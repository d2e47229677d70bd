"""DVMRP-lite: running flood-and-prune multicast.

The "non-scalable broadcast-and-prune behavior" EXPRESS eliminates
(§8): a source's first packets are broadcast along the RPF tree to the
*entire domain*; routers with no interested parties prune upstream,
prunes age out and the flood repeats, and grafts splice new members
back in. Implemented faithfully enough to measure exactly that
behaviour live: domain-wide first-packet footprint, prune state on
every router, and periodic re-flood.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ProtocolError
from repro.groupmodel.router import PROTO_DATA, GroupRouterAgent
from repro.inet.addr import is_class_d
from repro.netsim.node import Node
from repro.netsim.packet import Packet
from repro.routing.unicast import UnicastRouting

PROTO_DVMRP = "dvmrp"

#: Default prune lifetime; real DVMRP uses ~2 hours, scaled down so
#: tests can watch the re-flood.
PRUNE_LIFETIME = 120.0

CONTROL_BYTES = 28


@dataclass(frozen=True)
class DvmrpControl:
    """A Prune or Graft for (source, group)."""

    kind: str  # "prune" | "graft"
    source: int
    group: int

    def __post_init__(self) -> None:
        if self.kind not in ("prune", "graft"):
            raise ProtocolError(f"unknown DVMRP control {self.kind!r}")
        if not is_class_d(self.group):
            raise ProtocolError(f"{self.group:#x} is not a group address")


@dataclass
class _SourceGroupState:
    """Per-(S,G) prune bookkeeping."""

    #: Downstream neighbors that pruned, with prune expiry time.
    pruned: dict[str, float] = field(default_factory=dict)
    #: Whether we pruned ourselves toward the upstream.
    pruned_upstream: bool = False
    packets_seen: int = 0


class DvmrpRouterAgent(GroupRouterAgent):
    """Flood-and-prune on one router."""

    PROTO = PROTO_DVMRP
    CONTROL_BYTES = CONTROL_BYTES
    MESSAGE = DvmrpControl
    LABELS = (PROTO_DATA, PROTO_DVMRP)

    def __init__(
        self,
        node: Node,
        routing: UnicastRouting,
        prune_lifetime: float = PRUNE_LIFETIME,
    ) -> None:
        super().__init__(node, routing)
        self.prune_lifetime = prune_lifetime
        self.state: dict[tuple[int, int], _SourceGroupState] = {}
        #: Hosts attached to this router that joined each group.
        self.member_hosts: dict[int, set] = {}

    # ------------------------------------------------------------------

    def host_membership(
        self, host: Node, group: int, join: bool, source: Optional[int] = None
    ) -> None:
        """A directly-attached host joined (grafting any pruned
        (.,group) state back toward the sources) or left ``group``; no
        message goes on the wire."""
        if not join:
            members = self.member_hosts.get(group)
            if members is not None:
                members.discard(host.name)
                if not members:
                    del self.member_hosts[group]
            return
        self.member_hosts.setdefault(group, set()).add(host.name)
        for (origin, state_group), state in self.state.items():
            if state_group != group or not state.pruned_upstream:
                continue
            state.pruned_upstream = False
            self._send_toward_source("graft", origin, group)

    def _kind(self, message: DvmrpControl) -> str:
        return message.kind + "s"

    # ------------------------------------------------------------------

    def _on_control(self, message: DvmrpControl, from_name: str) -> None:
        state = self.state.setdefault(
            (message.source, message.group), _SourceGroupState()
        )
        if message.kind == "prune":
            state.pruned[from_name] = self.sim.now + self.prune_lifetime
            # If everything downstream is now pruned and we have no
            # members, propagate the prune.
            self._maybe_prune_upstream(message.source, message.group, state)
        else:  # graft
            state.pruned.pop(from_name, None)
            if state.pruned_upstream:
                state.pruned_upstream = False
                self._send_toward_source("graft", message.source, message.group)

    def _forward_data(self, packet: Packet, ifindex: int) -> None:
        source_node = self.topo.node_by_address(packet.src)
        if source_node is None:
            self.stats.incr("unknown_source_drops")
            return
        arrived_from = self._neighbor_name(ifindex)
        # RPF check: accept only on the interface toward the source
        # (or directly from the attached source host).
        expected = (
            source_node.name
            if source_node.name == arrived_from
            else self._upstream(source_node.name)
        )
        if arrived_from != expected:
            self.stats.incr("rpf_drops")
            return

        key = (packet.src, packet.dst)
        state = self.state.setdefault(key, _SourceGroupState())
        state.packets_seen += 1
        self.stats.incr("data_rx")
        self._expire_prunes(state)

        # Flood to every router neighbor except the arrival and pruned
        # ones, plus member hosts.
        members = self.member_hosts.get(packet.dst, ())
        targets = []
        for peer in self.node.neighbors():
            name = peer.name
            if name == arrived_from or name in state.pruned:
                continue
            if name in self.host_names and name not in members:
                continue
            targets.append(name)
        self._fan_out(packet, targets, exclude=None)
        if not targets:
            # Leaf with no interest: prune toward the source.
            self._maybe_prune_upstream(packet.src, packet.dst, state)

    def _maybe_prune_upstream(self, source: int, group: int, state: _SourceGroupState) -> None:
        if state.pruned_upstream:
            return
        if self.member_hosts.get(group):
            return
        # Unpruned downstream router neighbors still want traffic.
        source_node = self.topo.node_by_address(source)
        upstream = self._upstream(source_node.name) if source_node is not None else None
        for peer in self.node.neighbors():
            if peer.name == upstream or peer.name in self.host_names:
                continue
            if peer.name not in state.pruned:
                return  # someone downstream may still want it
        if upstream is not None:
            state.pruned_upstream = True
            self._send_toward_source("prune", source, group)

    def _send_toward_source(self, kind: str, source: int, group: int) -> None:
        source_node = self.topo.node_by_address(source)
        if source_node is None:
            return
        self._send_control(
            DvmrpControl(kind=kind, source=source, group=group),
            self._upstream(source_node.name),
        )

    def _expire_prunes(self, state: _SourceGroupState) -> None:
        now = self.sim.now
        expired = [name for name, expiry in state.pruned.items() if expiry <= now]
        for name in expired:
            del state.pruned[name]
            self.stats.incr("prune_expirations")
