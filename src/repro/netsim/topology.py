"""Topology container and generators.

A :class:`Topology` owns the simulator, the nodes and the links, and
exposes a networkx view of itself (:meth:`Topology.graph`; networkx is
imported on first use, so nothing else pays for it).
:class:`TopologyBuilder` provides the generators the paper's analyses
assume: balanced trees (the "fanout of 2, 20 hops deep" million-member
tree of §5.3), stars (the worst-case "no fanout except at the root"
bound of §5.1), lines, seeded random connected graphs, and a two-level
transit/stub ISP-like graph.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.errors import TopologyError
from repro.netsim.engine import Simulator
from repro.netsim.link import DEFAULT_BANDWIDTH, Link
from repro.netsim.node import Node

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

#: First auto-assigned unicast address (10.0.0.1).
_ADDRESS_BASE = 0x0A000001


class Topology:
    """A set of nodes wired by point-to-point links."""

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        seed: int = 0,
        scheduler: str = "wheel",
        wheel_granularity: float = 0.001,
    ) -> None:
        self.sim = sim if sim is not None else Simulator(
            seed=seed, scheduler=scheduler, wheel_granularity=wheel_granularity
        )
        self.nodes: dict[str, Node] = {}
        self.links: list[Link] = []
        self._by_address: dict[int, Node] = {}
        self._next_address = _ADDRESS_BASE
        self._started = False

    # -- construction ------------------------------------------------------

    def add_node(self, name: str, address: Optional[int] = None) -> Node:
        if name in self.nodes:
            raise TopologyError(f"duplicate node name {name!r}")
        if address is None:
            address = self._next_address
            self._next_address += 1
        if address in self._by_address:
            raise TopologyError(f"duplicate node address {address:#x}")
        node = Node(self.sim, name, address)
        self.nodes[name] = node
        self._by_address[address] = node
        return node

    def add_link(
        self,
        a: str,
        b: str,
        delay: float = 0.001,
        bandwidth: float = DEFAULT_BANDWIDTH,
        loss: float = 0.0,
    ) -> Link:
        if a not in self.nodes or b not in self.nodes:
            missing = a if a not in self.nodes else b
            raise TopologyError(f"unknown node {missing!r}")
        if a == b:
            raise TopologyError(f"self-link on {a!r}")
        node_a, node_b = self.nodes[a], self.nodes[b]
        if node_a.interface_to(node_b) is not None:
            raise TopologyError(f"duplicate link {a!r}<->{b!r}")
        link = Link(
            self.sim,
            node_a.add_interface(),
            node_b.add_interface(),
            delay=delay,
            bandwidth=bandwidth,
            loss=loss,
        )
        self.links.append(link)
        return link

    # -- lookup ------------------------------------------------------------

    def node(self, name: str) -> Node:
        try:
            return self.nodes[name]
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    def node_by_address(self, address: int) -> Optional[Node]:
        return self._by_address.get(address)

    def host_names(self, hosts: Optional[Iterable[str]] = None) -> set[str]:
        """The host nodes: ``hosts``, each checked to be a node here, or
        by default every single-homed node whose name starts with
        ``h``."""
        if hosts is None:
            return {
                name
                for name, node in self.nodes.items()
                if len(node.interfaces) == 1 and name.startswith("h")
            }
        names = set(hosts)
        unknown = names - self.nodes.keys()
        if unknown:
            raise TopologyError(f"unknown host nodes: {sorted(unknown)}")
        return names

    def link_between(self, a: str, b: str) -> Optional[Link]:
        node_a, node_b = self.node(a), self.node(b)
        iface = node_a.interface_to(node_b)
        return iface.link if iface is not None else None

    # -- views ---------------------------------------------------------------

    def graph(self, only_up: bool = True) -> nx.Graph:
        """A networkx view weighted by link delay (the routing metric)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.nodes)
        for link in self.links:
            if only_up and not link.up:
                continue
            graph.add_edge(link.node_a.name, link.node_b.name, weight=link.delay)
        return graph

    def is_connected(self) -> bool:
        import networkx as nx

        graph = self.graph()
        return len(graph) > 0 and nx.is_connected(graph)

    # -- tracing -------------------------------------------------------------

    def attach_trace(self, trace=None):
        """Attach a :class:`repro.netsim.trace.PacketTrace` to every
        node (created if not given); returns it. Every subsequent
        tx/rx/drop network-wide lands in the trace — the debugging
        equivalent of a fleet-wide tcpdump."""
        if trace is None:
            from repro.netsim.trace import PacketTrace

            trace = PacketTrace()
        for node in self.nodes.values():
            node.trace = trace
        return trace

    def detach_trace(self) -> None:
        for node in self.nodes.values():
            node.trace = None

    # -- lifecycle -----------------------------------------------------------

    def start(self, nodes: Optional[list[str]] = None) -> None:
        """Start protocol agents once wiring is complete.

        ``nodes`` restricts the start to a subset (by name) — used by
        the parallel-simulation workers, which build the full topology
        in every process (so addressing and routing are identical) but
        only animate the nodes their partition owns; the rest stay
        inert ghosts whose traffic arrives via cut-link proxies.
        """
        if self._started:
            return
        self._started = True
        if nodes is None:
            for node in self.nodes.values():
                node.start_agents()
        else:
            for name in nodes:
                self.node(name).start_agents()

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        self.start()
        return self.sim.run(until=until, max_events=max_events)


class TopologyBuilder:
    """Named topology generators used throughout tests and benchmarks."""

    @staticmethod
    def line(n: int, delay: float = 0.001, seed: int = 0) -> Topology:
        """n nodes in a chain: n0 - n1 - ... - n(n-1)."""
        if n < 1:
            raise TopologyError("line needs at least 1 node")
        topo = Topology(seed=seed)
        for i in range(n):
            topo.add_node(f"n{i}")
        for i in range(n - 1):
            topo.add_link(f"n{i}", f"n{i + 1}", delay=delay)
        return topo

    @staticmethod
    def star(n_leaves: int, delay: float = 0.001, seed: int = 0) -> Topology:
        """A hub ("hub") with ``n_leaves`` leaves ("leaf0"...)."""
        if n_leaves < 1:
            raise TopologyError("star needs at least 1 leaf")
        topo = Topology(seed=seed)
        topo.add_node("hub")
        for i in range(n_leaves):
            topo.add_node(f"leaf{i}")
            topo.add_link("hub", f"leaf{i}", delay=delay)
        return topo

    @staticmethod
    def balanced_tree(
        depth: int,
        fanout: int = 2,
        delay: float = 0.001,
        seed: int = 0,
    ) -> Topology:
        """A rooted balanced tree. Node names: "r" (root), then
        "d<level>_<index>" per level. §5.3's million-member tree is
        ``balanced_tree(depth=20, fanout=2)`` (not materialized at that
        size; benches use scaled-down instances plus the analytic model).
        """
        if depth < 0 or fanout < 1:
            raise TopologyError("tree needs depth >= 0 and fanout >= 1")
        topo = Topology(seed=seed)
        topo.add_node("r")
        previous = ["r"]
        for level in range(1, depth + 1):
            current = []
            index = 0
            for parent in previous:
                for _ in range(fanout):
                    name = f"d{level}_{index}"
                    topo.add_node(name)
                    topo.add_link(parent, name, delay=delay)
                    current.append(name)
                    index += 1
            previous = current
        return topo

    @staticmethod
    def random_connected(
        n: int,
        extra_edge_prob: float = 0.08,
        delay: float = 0.001,
        seed: int = 0,
    ) -> Topology:
        """A connected random graph: a random spanning tree plus extra
        random edges with probability ``extra_edge_prob`` per pair.
        Deterministic for a given seed.
        """
        if n < 1:
            raise TopologyError("random graph needs at least 1 node")
        topo = Topology(seed=seed)
        rng = topo.sim.rng
        names = [f"n{i}" for i in range(n)]
        for name in names:
            topo.add_node(name)
        # Random spanning tree: attach each new node to a random earlier one.
        for i in range(1, n):
            j = rng.randrange(i)
            topo.add_link(names[i], names[j], delay=delay * rng.uniform(0.5, 1.5))
        # Extra shortcut edges.
        for i in range(n):
            for j in range(i + 1, n):
                if topo.node(names[i]).interface_to(topo.node(names[j])) is not None:
                    continue
                if rng.random() < extra_edge_prob:
                    topo.add_link(names[i], names[j], delay=delay * rng.uniform(0.5, 1.5))
        return topo

    @staticmethod
    def isp(
        n_transit: int = 4,
        stubs_per_transit: int = 3,
        hosts_per_stub: int = 2,
        core_delay: float = 0.010,
        stub_delay: float = 0.002,
        host_delay: float = 0.001,
        seed: int = 0,
        scheduler: str = "wheel",
        wheel_granularity: float = 0.001,
    ) -> Topology:
        """A two-level transit/stub internetwork.

        Transit routers form a ring with chords; each transit router
        serves ``stubs_per_transit`` stub (edge) routers; each stub
        router serves ``hosts_per_stub`` hosts. Host names are
        "h<t>_<s>_<k>"; stub routers "e<t>_<s>"; transit routers "t<t>".

        ``wheel_granularity`` is the event calendar's slot width
        (dispatch order is granularity-independent); bulk-scheduled
        storms want coarser slots so batch dispatch sees full buckets.
        ``scheduler`` is frozen at ``"wheel"`` (see
        :func:`repro.netsim.engine.check_scheduler`).
        """
        if n_transit < 1:
            raise TopologyError("need at least one transit router")
        topo = Topology(
            seed=seed, scheduler=scheduler, wheel_granularity=wheel_granularity
        )
        for t in range(n_transit):
            topo.add_node(f"t{t}")
        if n_transit == 2:
            topo.add_link("t0", "t1", delay=core_delay)
        elif n_transit > 2:
            for t in range(n_transit):
                topo.add_link(f"t{t}", f"t{(t + 1) % n_transit}", delay=core_delay)
        # Chords across the ring for path diversity.
        if n_transit >= 4:
            topo.add_link("t0", f"t{n_transit // 2}", delay=core_delay)
        for t in range(n_transit):
            for s in range(stubs_per_transit):
                stub = f"e{t}_{s}"
                topo.add_node(stub)
                topo.add_link(f"t{t}", stub, delay=stub_delay)
                for k in range(hosts_per_stub):
                    host = f"h{t}_{s}_{k}"
                    topo.add_node(host)
                    topo.add_link(stub, host, delay=host_delay)
        return topo

    @staticmethod
    def lan(n_hosts: int, delay: float = 0.0001, seed: int = 0) -> Topology:
        """One edge router ("gw") with ``n_hosts`` directly-attached
        hosts — the IGMP/UDP-mode test topology. (We model the LAN as a
        star of point-to-point links; the UDP-mode agent replicates
        queries to all host interfaces, which is observationally
        equivalent to a multicast-capable LAN for protocol purposes.)
        """
        topo = Topology(seed=seed)
        topo.add_node("gw")
        for i in range(n_hosts):
            topo.add_node(f"h{i}")
            topo.add_link("gw", f"h{i}", delay=delay)
        return topo
