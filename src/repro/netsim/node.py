"""Nodes and interfaces.

A :class:`Node` is a router or host. It owns numbered
:class:`Interface` objects, each attached to one :class:`Link`
(point-to-point) — the model the paper's FIB format assumes (up to 32
interfaces per router, Figure 5). Protocol behaviour lives in
:class:`ProtocolAgent` subclasses registered on the node per protocol
label; the node dispatches each received packet to the agent registered
for ``packet.proto`` (falling back to a wildcard agent if present).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import SimulationError, TopologyError
from repro.netsim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netsim.engine import Simulator
    from repro.netsim.link import Link

#: Interface count limit implied by the 32-bit outgoing-interface bitmap
#: in the paper's 12-byte FIB entry (Figure 5).
MAX_INTERFACES = 32


class Interface:
    """One attachment point of a node to a link."""

    def __init__(self, node: "Node", index: int) -> None:
        self.node = node
        self.index = index
        self.link: Optional["Link"] = None
        #: The node on the far side of the link (set by ``Link``).
        self.peer: Optional["Node"] = None

    @property
    def up(self) -> bool:
        return self.link is not None and self.link.up

    def neighbor(self) -> Optional["Node"]:
        """The node on the far side of this interface's link."""
        return self.peer

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        peer = self.neighbor()
        return f"<If {self.node.name}#{self.index} -> {peer.name if peer else '-'}>"


class ProtocolAgent:
    """Base class for protocol implementations attached to a node.

    Subclasses override :meth:`handle_packet`; the node calls it for
    every received packet whose ``proto`` matches the label the agent
    was registered under (or for all packets, if registered under
    ``"*"``).
    """

    def __init__(self, node: "Node") -> None:
        self.node = node
        self.sim = node.sim

    def handle_packet(self, packet: Packet, ifindex: int) -> None:
        raise NotImplementedError

    def start(self) -> None:
        """Called once when the simulation topology is finalized."""

    def on_link_change(self, ifindex: int, up: bool) -> None:
        """Called when the link on ``ifindex`` changes state."""


class Node:
    """A router or host in the simulated network."""

    def __init__(self, sim: "Simulator", name: str, address: int) -> None:
        self.sim = sim
        self.name = name
        self.address = address
        self.interfaces: list[Interface] = []
        #: Adjacency index, peer node -> the local interface facing it.
        #: Maintained by ``Link``; of parallel links to one peer the
        #: first wired (lowest interface index) is the one recorded.
        self.adjacent: dict["Node", Interface] = {}
        self.agents: dict[str, ProtocolAgent] = {}
        self.dropped_packets = 0
        self.unmatched_packets = 0
        #: Optional :class:`repro.netsim.trace.PacketTrace` shared via
        #: Topology.attach_trace(); records every tx/rx/drop when set.
        self.trace = None
        #: Optional :class:`repro.obs.hooks.NodeMetrics` set by
        #: Observability attachment; tallies every tx/rx/drop for the
        #: shared metrics registry to fold when set.
        self.metrics = None

    # -- wiring ----------------------------------------------------------

    def add_interface(self) -> Interface:
        if len(self.interfaces) >= MAX_INTERFACES:
            raise TopologyError(
                f"{self.name}: exceeded {MAX_INTERFACES} interfaces "
                "(limit implied by the 32-bit FIB outgoing bitmap)"
            )
        iface = Interface(self, len(self.interfaces))
        self.interfaces.append(iface)
        return iface

    def interface_to(self, neighbor: "Node") -> Optional[Interface]:
        """The local interface whose link leads to ``neighbor``."""
        return self.adjacent.get(neighbor)

    def register_agent(self, proto: str, agent: ProtocolAgent) -> None:
        if proto in self.agents:
            raise SimulationError(f"{self.name}: agent already registered for {proto!r}")
        self.agents[proto] = agent

    def neighbors(self) -> list["Node"]:
        """Nodes reachable over one up link, in interface order."""
        result = []
        for iface in self.interfaces:
            peer = iface.neighbor()
            if peer is not None and iface.up:
                result.append(peer)
        return result

    # -- data path -------------------------------------------------------

    def send(self, packet: Packet, ifindex: int) -> bool:
        """Transmit ``packet`` out interface ``ifindex``.

        Returns True if the packet entered the link (it may still be
        lost in transit), False if the interface is down or unwired.
        """
        interfaces = self.interfaces
        if not 0 <= ifindex < len(interfaces):
            raise SimulationError(f"{self.name}: no interface {ifindex}")
        iface = interfaces[ifindex]
        link = iface.link
        if link is None or not link.up:
            return self._drop(packet, "link-down")
        if self.trace is not None:
            self.trace.record(
                self.sim.now, self.name, "tx", packet.proto, packet.size,
                detail=f"if{ifindex}",
            )
        if self.metrics is not None:
            self.metrics.packet("tx", packet.proto, packet.size)
        link.transmit(self, packet)
        return True

    def send_to_neighbor(self, packet: Packet, neighbor: "Node") -> bool:
        """Transmit ``packet`` on the interface facing ``neighbor``."""
        iface = self.interface_to(neighbor)
        if iface is None:
            return self._drop(packet, "no-interface")
        return self.send(packet, iface.index)

    def _drop(self, packet: Packet, why: str) -> bool:
        """Count, trace and meter a packet this node discards; every
        drop the node itself decides on leaves the same three marks."""
        self.dropped_packets += 1
        if self.trace is not None:
            self.trace.record(
                self.sim.now, self.name, "drop", packet.proto, packet.size,
                detail=why,
            )
        if self.metrics is not None:
            self.metrics.packet("drop", packet.proto, packet.size)
        return False

    def receive(self, packet: Packet, ifindex: int) -> None:
        """Entry point called by links when a packet arrives."""
        if self.trace is not None:
            self.trace.record(
                self.sim.now, self.name, "rx", packet.proto, packet.size,
                detail=f"if{ifindex}",
            )
        if self.metrics is not None:
            self.metrics.packet("rx", packet.proto, packet.size)
        if packet.ttl <= 0:
            self._drop(packet, "ttl")
            return
        agents = self.agents
        agent = agents.get(packet.proto) or agents.get("*")  # wildcard fallback
        if agent is None:
            self.unmatched_packets += 1
            return
        agent.handle_packet(packet, ifindex)

    def link_changed(self, ifindex: int, up: bool) -> None:
        for agent in self.agents.values():
            agent.on_link_change(ifindex, up)

    def start_agents(self) -> None:
        for agent in self.agents.values():
            agent.start()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Node {self.name}>"
