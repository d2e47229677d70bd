"""PIM-SM-lite: a running rendezvous-point shared-tree protocol.

Implements the parts of PIM-SM the paper compares EXPRESS against
(§3.6, §7.1): explicit Join/Prune toward a configured RP, sources
reaching the group by *register* encapsulation to the RP, shared-tree
forwarding, and per-receiver switchover to an (S,G) shortest-path tree
— "the higher delay of a shared multicast tree rooted at the rendezvous
point [or] the extra state cost of source-specific trees" (§4.4).

After a switch, a source's packets reach each member once: a router
whose source tree arrives through another neighbor than its shared tree,
or all of whose shared-tree neighbors have pruned the source, prunes the
source off the shared tree at its upstream (RFC 4601's (S,G,rpt) prune),
and a packet arriving on a source tree also feeds the shared-tree
neighbors that have not pruned that source.

Simplifications relative to RFC 2117 (documented; none affect the
measured claims): no bootstrap/RP-set election (the RP is configured),
no RegisterStop (the RP drops a register for a source whose tree it is
on, and the last-hop router drops shared-tree copies once its SPT is
active — the "SPT bit" in spirit), no Assert election (point-to-point
links), and Join/Prune is per-neighbor unicast rather than multicast to
ALL-PIM-ROUTERS. An (S,G,rpt) prune lives on the (*,G) entry, so
:meth:`PimRouterAgent.state_entries` counts (*,G) and (S,G) entries.
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

PROTO_PIM = "pim"

#: Wire size of a Join/Prune message (group + optional source + flags),
#: for control-bandwidth accounting.
JOIN_PRUNE_BYTES = 34


@dataclass
class _TreeState:
    """(*,G) or (S,G) state on one router."""

    upstream: Optional[str] = None
    oifs: set = field(default_factory=set)  # downstream neighbor names
    #: (*,G) only: source address -> the neighbors in ``oifs`` that
    #: pruned that source off the shared tree.
    rpt_pruned: dict = field(default_factory=dict)
    #: (*,G) only: the sources this router pruned off it at ``upstream``.
    rpt_pruned_up: set = field(default_factory=set)


class PimRouterAgent(GroupRouterAgent):
    """PIM-SM-lite on one router."""

    PROTO = PROTO_PIM
    CONTROL_BYTES = JOIN_PRUNE_BYTES
    LABELS = (PROTO_DATA, PROTO_PIM, PROTO_TUNNEL)
    LEAVE = "prune"

    def __init__(self, node: Node, routing: UnicastRouting, rp_name: str) -> None:
        super().__init__(node, routing)
        self.rp_name = rp_name
        #: (*,G) shared-tree state per group.
        self.shared: dict[int, _TreeState] = {}
        #: (S,G) source-tree state per (source address, group).
        self.source_trees: dict[tuple[int, int], _TreeState] = {}
        #: Last-hop SPT-bit emulation: (S,G) pairs whose shared-tree
        #: copies this router now suppresses.
        self.spt_active: set = set()

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------

    def _on_control(self, message: JoinPrune, from_name: str) -> None:
        self._apply_join_prune(message, from_name)
        self._sync_rpt(message.group)

    def _apply_join_prune(self, message: JoinPrune, from_name: str) -> None:
        if message.rpt:
            shared = self.shared.get(message.group)
            if shared is not None:
                pruned = shared.rpt_pruned.setdefault(message.source, set())
                if message.join:
                    pruned.discard(from_name)
                else:
                    pruned.add(from_name)
            return
        if message.source is None:
            state = self.shared.get(message.group)
            if message.join:
                if state is None:
                    state = _TreeState(upstream=self._upstream(self.rp_name))
                    self.shared[message.group] = state
                    self._send_control(message, state.upstream)
                state.oifs.add(from_name)
            else:
                if state is None:
                    return
                state.oifs.discard(from_name)
                for pruned in state.rpt_pruned.values():
                    pruned.discard(from_name)
                if not state.oifs:
                    self._send_control(message, state.upstream)
                    del self.shared[message.group]
            return

        key = (message.source, message.group)
        source_node = self.topo.node_by_address(message.source)
        if source_node is None:
            return
        state = self.source_trees.get(key)
        if message.join:
            if state is None:
                state = _TreeState(upstream=self._upstream(source_node.name))
                self.source_trees[key] = state
                self._send_control(message, state.upstream)
            state.oifs.add(from_name)
        else:
            if state is None:
                return
            state.oifs.discard(from_name)
            if not state.oifs:
                self._send_control(message, state.upstream)
                del self.source_trees[key]

    def _sync_rpt(self, group: int) -> None:
        """Prune each source off the shared tree at this router's
        upstream once the router wants none of that source's packets
        from it, and join it back when it does again: it wants none when
        its tree for the source arrives through another neighbor, or
        when every shared-tree neighbor below it has pruned the source."""
        shared = self.shared.get(group)
        if shared is None or shared.upstream is None:
            return
        sources = {source for source, g in self.source_trees if g == group}
        for source in sorted(sources | set(shared.rpt_pruned) | shared.rpt_pruned_up):
            spt = self.source_trees.get((source, group))
            unwanted = (spt is not None and spt.upstream != shared.upstream) or (
                shared.oifs <= shared.rpt_pruned.get(source, set())
            )
            if unwanted == (source in shared.rpt_pruned_up):
                continue
            if unwanted:
                shared.rpt_pruned_up.add(source)
            else:
                shared.rpt_pruned_up.discard(source)
            self._send_control(
                JoinPrune(group, join=not unwanted, source=source, rpt=True),
                shared.upstream,
            )

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------

    def _forward_data(self, packet: Packet, ifindex: int) -> None:
        group = packet.dst
        arrived_from = self._neighbor_name(ifindex)
        spt = self.source_trees.get((packet.src, group))
        shared = self.shared.get(group)

        # A directly-attached host sourcing to the group: this router
        # is the DR; encapsulate to the RP ("register").
        if self._is_attached_host(packet.src, arrived_from):
            self._register_to_rp(packet)
            # Natively feed an (S,G) tree rooted here, if one exists.
            if spt is not None:
                oifs = self._source_olist(spt, shared, packet.src)
                self._fan_out(packet, oifs, exclude=arrived_from)
            return

        if spt is not None and arrived_from == spt.upstream:
            self.stats.incr("spt_forwarded")
            oifs = self._source_olist(spt, shared, packet.src)
        elif shared is not None and arrived_from == shared.upstream:
            if (packet.src, group) in self.spt_active:
                self.stats.incr("spt_suppressed")
                return
            self.stats.incr("shared_forwarded")
            oifs = self._shared_olist(shared, packet.src)
        else:
            if spt is None and shared is None:
                self.stats.incr("no_state_drops")
            else:
                self.stats.incr("wrong_iface_drops")
            return
        self._fan_out(packet, oifs, exclude=arrived_from)

    @staticmethod
    def _shared_olist(shared: _TreeState, source: int) -> set:
        """The shared-tree neighbors that take ``source``'s packets: those
        that have not pruned it."""
        pruned = shared.rpt_pruned.get(source)
        return shared.oifs - pruned if pruned else shared.oifs

    def _source_olist(
        self, spt: _TreeState, shared: Optional[_TreeState], source: int
    ) -> set:
        """Where a packet on ``source``'s tree goes: its (S,G) neighbors
        and, where the router is on the shared tree too, the shared-tree
        neighbors that take ``source`` (which is why the RP drops a
        register for a source whose tree it is on)."""
        if shared is None:
            return spt.oifs
        return spt.oifs | self._shared_olist(shared, source)

    def _on_tunnel(self, packet: Packet) -> None:
        if not packet.is_encapsulated():
            self.stats.incr("bad_register_drops")
            return
        inner = packet.decapsulate()
        self.stats.incr("registers_rx")
        if (inner.src, inner.dst) in self.source_trees:
            # RegisterStop-equivalent: the RP already receives this
            # (S,G) natively on its source tree; the register copy is
            # redundant.
            self.stats.incr("registers_suppressed")
            return
        state = self.shared.get(inner.dst)
        if state is None:
            self.stats.incr("register_no_group_drops")
            return
        # The RP multicasts the decapsulated packet down the shared tree.
        self._fan_out(inner, self._shared_olist(state, inner.src), exclude=None)

    def _register_to_rp(self, packet: Packet) -> None:
        rp = self.topo.node(self.rp_name)
        if rp is self.node:
            # This router *is* the RP: short-circuit the register (but
            # never echo back to the attached sender's own port), and
            # drop it as a register when the source's tree carries it.
            state = self.shared.get(packet.dst)
            if state is not None and (packet.src, packet.dst) not in self.source_trees:
                origin = self.topo.node_by_address(packet.src)
                self._fan_out(
                    packet,
                    self._shared_olist(state, packet.src),
                    exclude=origin.name if origin else None,
                )
            return
        self._tunnel(packet, rp, "registers_tx")

    # -- inspection ----------------------------------------------------------

    def state_entries(self) -> int:
        return len(self.shared) + len(self.source_trees)
