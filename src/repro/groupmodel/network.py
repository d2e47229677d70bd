"""The group-model facade: any-source multicast on a topology.

This is the world of the paper's §1: a group is just an address; *any*
host can send to it; receivers cannot restrict sources; there is no
subscriber count. :class:`GroupNetwork` runs the PIM-SM-lite, CBT-lite or
DVMRP-lite control plane and exposes join/leave/send — including
sending by hosts that never joined, which is exactly the property the
interference experiment (X7) measures.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.errors import ProtocolError, TopologyError
from repro.groupmodel.cbt import CbtRouterAgent
from repro.groupmodel.dvmrp import DvmrpRouterAgent
from repro.groupmodel.pim import PimRouterAgent
from repro.groupmodel.router import GroupRouterAgent
from repro.inet.addr import format_address, is_class_d
from repro.netsim.node import Node, ProtocolAgent
from repro.netsim.packet import Packet
from repro.netsim.topology import Topology
from repro.netsim.trace import Counter
from repro.obs.hooks import attach_topology
from repro.routing.unicast import UnicastRouting


class GroupHostAgent(ProtocolAgent):
    """A group-model host: joins groups and receives from *any* source."""

    def __init__(self, node: Node, net: "GroupNetwork") -> None:
        super().__init__(node)
        self.net = net
        self.joined: dict[int, Optional[Callable[[Packet], None]]] = {}
        self.received: dict[int, list] = {}
        #: Aggregated membership (see repro.core.blocks for the EXPRESS
        #: analogue): group -> member count behind this attachment
        #: point. Wire cost is one join/leave per 0↔positive transition
        #: regardless of the count; deliveries account arithmetically.
        self.block_members: dict[int, int] = {}
        #: Groups whose protocol join the block made (the host had not
        #: joined by itself); only these are left when the block empties.
        self.block_joined: set[int] = set()
        self.stats = Counter()

    def handle_packet(self, packet: Packet, ifindex: int) -> None:
        if packet.proto != "data" or not is_class_d(packet.dst):
            return
        if packet.dst not in self.joined:
            self.stats.incr("unjoined_drops")
            return
        # The group model's defining behaviour: no source check.
        self.stats.incr("delivered")
        members = self.block_members.get(packet.dst)
        if members:
            self.stats.incr("block_deliveries", members)
        self.net._observe_delivery(
            self.node.name, packet.dst, self.sim.now - packet.created_at
        )
        self.received.setdefault(packet.dst, []).append(packet)
        callback = self.joined[packet.dst]
        if callback is not None:
            callback(packet)

    # ------------------------------------------------------------------

    def join(self, group: int, on_data: Optional[Callable[[Packet], None]] = None) -> None:
        if not is_class_d(group):
            raise ProtocolError(f"{group:#x} is not a group address")
        self.joined[group] = on_data
        self.block_joined.discard(group)
        self.net._host_membership(self.node.name, group, join=True)

    def leave(self, group: int) -> None:
        self.block_joined.discard(group)
        if group in self.joined:
            del self.joined[group]
            self.net._host_membership(self.node.name, group, join=False)

    def join_block(
        self,
        group: int,
        n: int = 1,
        on_data: Optional[Callable[[Packet], None]] = None,
    ) -> int:
        """Add ``n`` aggregated members; one protocol join goes out on
        the 0→positive transition. Returns the new member count."""
        if n <= 0:
            raise ProtocolError(f"block join needs n >= 1, got {n}")
        current = self.block_members.get(group, 0)
        self.block_members[group] = current + n
        if current == 0 and group not in self.joined:
            self.join(group, on_data)
            self.block_joined.add(group)
        return current + n

    def leave_block(self, group: int, n: int = 1) -> int:
        """Remove ``n`` aggregated members (clamped at zero); the
        protocol leave goes out when the count reaches zero, unless the
        host has joined the group by itself."""
        if n <= 0:
            raise ProtocolError(f"block leave needs n >= 1, got {n}")
        current = self.block_members.get(group, 0)
        new = max(current - n, 0)
        if new:
            self.block_members[group] = new
        else:
            self.block_members.pop(group, None)
            if group in self.block_joined:
                self.leave(group)
        return new

    def send(self, group: int, payload=None, size: int = 1356) -> None:
        """Send to the group — joined or not; the model allows it."""
        packet = Packet(
            src=self.node.address,
            dst=group,
            proto="data",
            payload=payload,
            size=size,
            created_at=self.sim.now,
        )
        for iface in self.node.interfaces:
            self.node.send(packet.copy(), iface.index)
            break  # first-hop router only (hosts are single-homed here)


class GroupNetwork:
    """Any-source multicast over a :class:`Topology`.

    Parameters
    ----------
    protocol:
        "pim" (rendezvous-point shared trees; requires ``rp``),
        "cbt" (bidirectional core tree; ``rp`` names the core), or
        "dvmrp" (flood-and-prune).
    rp:
        RP router name for PIM / core router name for CBT.
    hosts:
        The host node names, as :meth:`Topology.host_names` checks or
        finds them.
    prune_lifetime:
        DVMRP prune expiry (seconds).
    obs:
        Optional :class:`repro.obs.Observability`. Instruments the
        topology and records control messages
        (``groupmodel_messages_total{protocol,type}``) and delivery
        latency into the same ``delivery_latency_seconds`` family the
        EXPRESS data plane uses, so the two models compare off one
        registry.
    """

    def __init__(
        self,
        topo: Topology,
        protocol: str = "pim",
        rp: Optional[str] = None,
        hosts: Optional[Iterable[str]] = None,
        prune_lifetime: float = 120.0,
        obs=None,
    ) -> None:
        if protocol == "dvmrp":
            router_class, arg = DvmrpRouterAgent, prune_lifetime
        elif protocol in ("pim", "cbt"):
            if rp is None or rp not in topo.nodes:
                raise TopologyError(f"{protocol} needs an rp= (RP/core) router name")
            router_class = PimRouterAgent if protocol == "pim" else CbtRouterAgent
            arg = rp
        else:
            raise ProtocolError(f"unknown group protocol {protocol!r}")
        self.topo = topo
        self.sim = topo.sim
        self.protocol = protocol
        self.rp = rp
        self.obs = obs
        #: Control messages the hosts sent, by type ("join", "leave",
        #: "prune"): the only tally, folded into
        #: ``groupmodel_messages_total`` at every collect.
        self.messages_sent = Counter()
        if obs is None:
            self._m_delivery = None
        else:
            attach_topology(topo, obs)
            registry = obs.registry
            messages = registry.counter(
                "groupmodel_messages_total",
                "Group-model (ASM) control messages by protocol and type",
                ("protocol", "type"),
            )
            registry.fold(
                lambda: (
                    (messages, (protocol, kind), total)
                    for kind, total in self.messages_sent.items()
                )
            )
            self._m_delivery = registry.histogram(
                "delivery_latency_seconds",
                "End-to-end data delivery latency from source emit to "
                "subscriber delivery",
                ("protocol", "node", "channel"),
            )
        self.routing = UnicastRouting(topo)
        self.host_names = topo.host_names(hosts)
        self.hosts: dict[str, GroupHostAgent] = {}
        self.routers: dict[str, GroupRouterAgent] = {}

        for name, node in topo.nodes.items():
            if name in self.host_names:
                agent = GroupHostAgent(node, self)
                node.register_agent("data", agent)
                self.hosts[name] = agent
                continue
            agent = router_class(node, self.routing, arg)
            agent.host_names = self.host_names
            for label in agent.LABELS:
                node.register_agent(label, agent)
            self.routers[name] = agent

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    def host(self, name: str) -> GroupHostAgent:
        try:
            return self.hosts[name]
        except KeyError:
            raise TopologyError(f"{name!r} is not a host") from None

    def join(self, host: str, group: int, on_data=None) -> None:
        self.host(host).join(group, on_data)

    def leave(self, host: str, group: int) -> None:
        self.host(host).leave(group)

    def join_block(self, host: str, group: int, n: int = 1, on_data=None) -> int:
        """Aggregated membership: ``n`` receivers behind ``host`` join
        as one counted entity (one wire join per 0↔positive transition;
        see :mod:`repro.core.blocks` for the EXPRESS analogue)."""
        return self.host(host).join_block(group, n, on_data)

    def leave_block(self, host: str, group: int, n: int = 1) -> int:
        return self.host(host).leave_block(group, n)

    def send(self, host: str, group: int, payload=None, size: int = 1356) -> None:
        self.host(host).send(group, payload=payload, size=size)

    def _first_hop_router(self, host: str) -> str:
        node = self.topo.node(host)
        neighbors = node.neighbors()
        if not neighbors:
            raise TopologyError(f"{host!r} has no attachment")
        return neighbors[0].name

    def _host_membership(
        self, host: str, group: int, join: bool, source: Optional[int] = None
    ) -> GroupRouterAgent:
        """``host`` joined or left ``group`` (``source``: its tree); its
        first-hop router hears of it. Returns that router."""
        router = self.routers[self._first_hop_router(host)]
        self.messages_sent["join" if join else router.LEAVE] += 1
        router.host_membership(self.topo.node(host), group, join, source)
        return router

    def _observe_delivery(self, node: str, group: int, latency: float) -> None:
        """Record one host delivery into the shared latency histogram
        (same family as EXPRESS, labelled by this group protocol)."""
        if self._m_delivery is not None:
            self._m_delivery.labels(
                protocol=self.protocol, node=node, channel=format_address(group)
            ).observe(latency)

    def switch_to_spt(self, host: str, source_host: str, group: int) -> None:
        """PIM: the member's side joins the (S,G) shortest-path tree
        and suppresses shared-tree duplicates at its last-hop router."""
        if self.protocol != "pim":
            raise ProtocolError("SPT switchover is a PIM operation")
        source_address = self.topo.node(source_host).address
        last_hop = self._host_membership(host, group, join=True, source=source_address)
        last_hop.spt_active.add((source_address, group))

    # ------------------------------------------------------------------
    # lifecycle / inspection
    # ------------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> int:
        return self.topo.run(until=until)

    def settle(self, duration: float = 1.0) -> None:
        self.run(until=self.sim.now + duration)

    def delivered(self, host: str, group: int) -> int:
        return len(self.host(host).received.get(group, []))

    def total_state(self) -> int:
        return sum(agent.state_entries() for agent in self.routers.values())

    def routers_touched(self) -> set:
        return {name for name, agent in self.routers.items() if agent.touched()}
