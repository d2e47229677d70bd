"""High-level facade assembling a topology into an EXPRESS internetwork.

:class:`ExpressNetwork` wires every node with the three per-node pieces
(ECMP agent, multicast FIB, data-plane forwarder), distinguishes hosts
from routers, reacts to link events by recomputing unicast routing and
re-homing channel trees, and exposes the paper's service interface
(§2.1) through :class:`HostHandle` and :class:`SourceHandle`:

    net = ExpressNetwork(TopologyBuilder.isp())
    src = net.source("h0_0_0")
    ch = src.allocate_channel()
    net.host("h2_1_1").subscribe(ch, on_data=...)
    net.run(until=1.0)
    src.send(ch, size=1316)
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from repro.core.channel import Channel, ChannelAllocator
from repro.core.counting import QueryResult
from repro.core.ecmp.countids import SUBSCRIBER_ID
from repro.core.ecmp.protocol import (
    CountPropagation,
    EcmpAgent,
    NeighborMode,
    SubscriptionHandle,
)
from repro.core.forwarding import ExpressForwarder
from repro.core.keys import ChannelKey
from repro.core.proactive import ToleranceCurve
from repro.core.subcast import build_subcast_packet
from repro.errors import ChannelError, ProtocolError, TopologyError
from repro.netsim.packet import Packet
from repro.netsim.topology import Topology
from repro.obs.hooks import attach_topology
from repro.routing.fib import MulticastFib
from repro.routing.unicast import UnicastRouting

#: MPEG-2 transport payload size used by examples ("4 megabit per second
#: MPEG-2 Super Bowl feed"): 7 TS cells + RTP/UDP/IP headers.
MPEG2_PACKET_BYTES = 1356


class HostHandle:
    """Subscriber-side service interface for one host (§2.1)."""

    def __init__(self, net: "ExpressNetwork", name: str) -> None:
        self.net = net
        self.name = name
        self.ecmp: EcmpAgent = net.ecmp_agents[name]
        self.forwarder: ExpressForwarder = net.forwarders[name]

    def subscribe(
        self,
        channel: Channel,
        key: Optional[ChannelKey] = None,
        on_data: Optional[Callable[[Packet], None]] = None,
        on_status: Optional[Callable[[SubscriptionHandle], None]] = None,
    ) -> SubscriptionHandle:
        """§2.1 newSubscription(channel [, K(S,E)])."""
        return self.ecmp.new_subscription(
            channel, key=key, on_data=on_data, on_status=on_status
        )

    def unsubscribe(self, channel: Channel) -> bool:
        """§2.1 deleteSubscription."""
        return self.ecmp.delete_subscription(channel)

    def is_subscribed(self, channel: Channel) -> bool:
        handle = self.ecmp.subscriptions.get(channel)
        return handle is not None and handle.status == "active"

    def respond_to_count(
        self, channel: Channel, count_id: int, responder: Callable[[], int]
    ) -> None:
        """Register the application's reply for a countId (votes, NACK
        collection, and the other §2.2.1 uses)."""
        self.ecmp.register_count_responder(channel, count_id, responder)

    @property
    def address(self) -> int:
        return self.net.topo.node(self.name).address


class SourceHandle(HostHandle):
    """Source-side service interface (§2.1): send, CountQuery,
    channelKey, subcast, plus autonomous channel allocation (§2.2.1)."""

    def __init__(self, net: "ExpressNetwork", name: str) -> None:
        super().__init__(net, name)
        self.allocator = ChannelAllocator(self.address)

    def allocate_channel(self, suffix: Optional[int] = None) -> Channel:
        """Allocate one of this host's 2^24 channels locally — no
        global address-allocation service involved."""
        return self.allocator.allocate(suffix)

    def release_channel(self, channel: Channel) -> None:
        self.allocator.release(channel)

    def channel_key(self, channel: Channel, key: ChannelKey) -> None:
        """§2.1 channelKey: make the channel authenticated."""
        self.ecmp.channel_key(channel, key)

    def send(self, channel: Channel, payload: Any = None, size: int = MPEG2_PACKET_BYTES) -> int:
        """Transmit one datagram on the channel; returns the fanout at
        the source. Only the designated source may send."""
        if channel.source != self.address:
            raise ChannelError(f"{self.name} is not the source of {channel}")
        packet = Packet(
            src=channel.source,
            dst=channel.group,
            proto="data",
            payload=payload,
            size=size,
            created_at=self.net.sim.now,
        )
        return self.forwarder.emit_local(packet)

    def count_query(
        self,
        channel: Channel,
        count_id: int = SUBSCRIBER_ID,
        timeout: float = 5.0,
        callback: Optional[Callable[[int, bool], None]] = None,
    ) -> QueryResult:
        """§2.1 CountQuery(channel, countId, timeout)."""
        return self.ecmp.count_query(channel, count_id, timeout, callback)

    def enable_proactive(
        self,
        channel: Channel,
        count_id: int = SUBSCRIBER_ID,
        curve: Optional[ToleranceCurve] = None,
    ) -> None:
        """§6: ask the tree to maintain this count proactively."""
        self.ecmp.enable_proactive(channel, count_id, curve)

    def subcast(
        self,
        channel: Channel,
        relay_router: str,
        payload: Any = None,
        size: int = MPEG2_PACKET_BYTES,
    ) -> bool:
        """§2.1 subcast: unicast an encapsulated channel packet to an
        on-tree router, which forwards it to its subtree only."""
        relay = self.net.topo.node(relay_router)
        packet = build_subcast_packet(
            channel,
            relay_address=relay.address,
            payload=payload,
            size=size,
            created_at=self.net.sim.now,
        )
        return self.forwarder.emit_unicast(packet)


class ExpressNetwork:
    """An EXPRESS-enabled internetwork over a :class:`Topology`.

    Parameters
    ----------
    topo:
        The wired topology. Nodes of degree 1 whose name starts with
        ``h`` are treated as hosts unless ``hosts`` is given explicitly.
    hosts:
        Names of host nodes; all other nodes are routers.
    propagation:
        Count-propagation policy applied to every agent.
    default_mode, edge_udp:
        Transport mode between neighbors; with ``edge_udp`` routers use
        UDP mode toward host neighbors (the paper's intended split:
        TCP in the core, UDP at the edge).
    proactive_curve:
        Tolerance curve for PROACTIVE propagation.
    wire_format:
        Frozen: ``True``. ECMP messages always travel between nodes as
        their wire bytes; ``benchmarks/e2e`` still passes the keyword,
        and any other value raises :class:`ProtocolError`.
    obs:
        Optional :class:`repro.obs.Observability`. When given, the
        topology (simulator, nodes, links) is instrumented, every agent
        and forwarder writes to the shared metrics registry, ECMP
        messages carry causal trace context, and per-node FIB size
        gauges refresh on every registry collection. When None the
        network runs uninstrumented.
    """

    def __init__(
        self,
        topo: Topology,
        hosts: Optional[Iterable[str]] = None,
        propagation: CountPropagation = CountPropagation.TREE_ONLY,
        default_mode: NeighborMode = NeighborMode.TCP,
        edge_udp: bool = False,
        proactive_curve: Optional[ToleranceCurve] = None,
        wire_format: bool = True,
        obs=None,
    ) -> None:
        if wire_format is not True:
            raise ProtocolError(
                "ECMP messages always travel as wire bytes; "
                f"wire_format={wire_format!r} is not supported"
            )
        self.topo = topo
        self.sim = topo.sim
        self.obs = obs
        if obs is not None:
            attach_topology(topo, obs)
        self.routing = UnicastRouting(topo, obs=obs)
        self.host_names = topo.host_names(hosts)

        self.fibs: dict[str, MulticastFib] = {}
        self.ecmp_agents: dict[str, EcmpAgent] = {}
        self.forwarders: dict[str, ExpressForwarder] = {}
        self._handles: dict[str, HostHandle] = {}
        self._recompute_pending = False

        for name, node in topo.nodes.items():
            fib = MulticastFib()
            role = "host" if name in self.host_names else "router"
            agent = EcmpAgent(
                node,
                self.routing,
                fib,
                role=role,
                propagation=propagation,
                default_mode=default_mode,
                proactive_curve=proactive_curve,
                obs=obs,
            )
            agent.topology_change_hook = self._on_topology_change
            forwarder = ExpressForwarder(node, self.routing, fib, agent, obs=obs)
            node.register_agent("ecmp", agent)
            node.register_agent("data", forwarder)
            node.register_agent("ipip", forwarder)
            self.fibs[name] = fib
            self.ecmp_agents[name] = agent
            self.forwarders[name] = forwarder

        if obs is not None:
            registry = obs.registry
            g_entries = registry.gauge(
                "fib_entries", "Installed multicast FIB entries per node", ("node",)
            )
            g_bytes = registry.gauge(
                "fib_bytes",
                "FIB memory footprint per node (12-byte entries, Figure 5)",
                ("node",),
            )

            def _refresh_fib_gauges() -> None:
                for node_name, node_fib in self.fibs.items():
                    g_entries.labels(node=node_name).set(len(node_fib))
                    g_bytes.labels(node=node_name).set(node_fib.memory_bytes())

            registry.register_collector(_refresh_fib_gauges)

        if edge_udp:
            for name in self.host_names:
                host_node = topo.nodes[name]
                for router in host_node.neighbors():
                    self.ecmp_agents[router.name].set_neighbor_mode(
                        name, NeighborMode.UDP
                    )
                if host_node.neighbors():
                    self.ecmp_agents[name].set_neighbor_mode(
                        host_node.neighbors()[0].name, NeighborMode.UDP
                    )

    # ------------------------------------------------------------------
    # handles
    # ------------------------------------------------------------------

    def host(self, name: str) -> HostHandle:
        """The subscriber-side handle for node ``name``."""
        handle = self._handles.get(name)
        if isinstance(handle, HostHandle) and not isinstance(handle, SourceHandle):
            return handle
        handle = HostHandle(self, name)
        self._handles.setdefault(name, handle)
        return handle

    def source(self, name: str) -> SourceHandle:
        """The source-side handle for node ``name`` (any host can be a
        source — every host owns 2^24 channels)."""
        handle = self._handles.get(name)
        if isinstance(handle, SourceHandle):
            return handle
        handle = SourceHandle(self, name)
        self._handles[name] = handle
        return handle

    def router_agent(self, name: str) -> EcmpAgent:
        return self.ecmp_agents[name]

    def subscriber_block(
        self, edge_router: str, name: Optional[str] = None, udp: bool = False
    ):
        """Create and attach an aggregated :class:`SubscriberBlock`
        behind ``edge_router`` — N leaf receivers as one counted entity
        (see :mod:`repro.core.blocks`). ``udp=True`` tracks the block as
        UDP-mode soft state with one sampled refresh timer."""
        from repro.core.blocks import SubscriberBlock

        agent = self.ecmp_agents.get(edge_router)
        if agent is None:
            raise TopologyError(f"unknown node {edge_router!r}")
        block = SubscriberBlock(
            agent, name if name is not None else f"b{len(agent.blocks)}", udp=udp
        )
        agent.attach_block(block)
        return block

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Start agents (once) and run the simulator."""
        return self.topo.run(until=until, max_events=max_events)

    def start(self, nodes: Optional[list[str]] = None) -> None:
        """Start protocol agents without running the simulator;
        ``nodes`` restricts the start to a subset (see
        :meth:`Topology.start`). Used by the parallel-simulation
        workers, which animate only the nodes their partition owns and
        drive the simulator in lookahead-bounded windows themselves."""
        self.topo.start(nodes=nodes)

    def settle(self, duration: float = 1.0) -> None:
        """Run the simulator forward by ``duration`` seconds — enough
        for control traffic in flight to land on typical topologies."""
        self.run(until=self.sim.now + duration)

    def _on_topology_change(self) -> None:
        if self._recompute_pending:
            return
        self._recompute_pending = True
        self.sim.schedule(0.0, self._recompute_fired, name="net-recompute")

    def _recompute_fired(self) -> None:
        """Re-home what the recompute can have moved: an agent re-homes
        only a channel whose next hop changed, or one it holds on its
        old parent under hysteresis (whose hold the new routes may
        break: the old parent gone, or routing back through it)."""
        self._recompute_pending = False
        moved = self.routing.recompute()
        for name, agent in self.ecmp_agents.items():
            if name in moved or agent._rehome_scheduled:
                agent.reevaluate_upstreams()

    # ------------------------------------------------------------------
    # inspection (used by tests, benches, and EXPERIMENTS.md tables)
    # ------------------------------------------------------------------

    def tree_edges(self, channel: Channel) -> list[tuple[str, str]]:
        """(parent, child) pairs of the channel's distribution tree
        (pseudo-neighbors — local subscriptions and aggregated
        subscriber blocks — are not edges)."""
        from repro.core.ecmp.state import is_pseudo_neighbor

        edges = []
        for name, agent in self.ecmp_agents.items():
            state = agent.channels.get(channel)
            if state is None:
                continue
            for child, record in state.downstream.items():
                if not is_pseudo_neighbor(child) and record.count > 0:
                    edges.append((name, child))
        return sorted(edges)

    def nodes_on_tree(self, channel: Channel) -> set[str]:
        return {
            name
            for name, agent in self.ecmp_agents.items()
            if channel in agent.channels
        }

    def fib_entries_total(self) -> int:
        return sum(len(fib) for fib in self.fibs.values())

    def fib_bytes_total(self) -> int:
        return sum(fib.memory_bytes() for fib in self.fibs.values())

    def control_stats_total(self) -> dict[str, int]:
        """Sum of every agent's ECMP counters (message/byte totals)."""
        totals: dict[str, int] = {}
        for agent in self.ecmp_agents.values():
            for key, value in agent.stats.as_dict().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def delivery_count(self, channel: Channel) -> int:
        """How many active subscribers have received >= 1 packet."""
        count = 0
        for agent in self.ecmp_agents.values():
            handle = agent.subscriptions.get(channel)
            if handle is not None and handle.packets_received > 0:
                count += 1
        return count

    def subscriber_hosts(self, channel: Channel) -> list[str]:
        return sorted(
            name
            for name, agent in self.ecmp_agents.items()
            if channel in agent.subscriptions
            and agent.subscriptions[channel].status == "active"
        )
