"""Link-state unicast routing (shortest-path-first), incremental.

Every node computes shortest paths over the delay-weighted topology —
the "existing unicast topology information" that ECMP's RPF component
builds on (§3). Ties break deterministically on node name so that a
given topology always yields the same routing (and therefore the same
multicast trees), which the reproducibility of every benchmark depends
on.

The implementation runs one Dijkstra per *destination* and records each
node's parent toward that destination; ``next_hop(u, v)`` is then u's
parent in the tree rooted at v. Because links are symmetric, this
parent is exactly the RPF neighbor of u with respect to source v.

Incremental evaluation
----------------------
The seed implementation re-ran Dijkstra for every destination on every
:meth:`recompute` — O(V·E·logV) per link flap, which dominated
wall-clock in churn/failover scenarios. Destination trees are now

* computed **lazily**: the first query naming a destination runs that
  one Dijkstra and caches the tree for the current topology generation;
* invalidated **selectively**: :meth:`recompute` diffs the topology
  against the snapshot taken at the previous recompute and drops only
  the cached trees a changed link could actually affect — a tree is
  dirty if it routes through the link (``parent[a] == b`` or
  ``parent[b] == a``), or, for a link that came up or got faster, if
  the link would relax (or tie) a distance in that tree;
* dropped **wholesale** above a dirty-fraction threshold or on any
  structural change (nodes/links added or removed), where per-tree
  bookkeeping stops paying for itself;
* **refilled at once** when dropped: a tree someone had asked for is
  asked for again, and diffing it against the dropped one tells
  :meth:`recompute`'s caller which nodes' next hops moved — the only
  agents that can have a route to re-home. Trees never asked for stay
  lazy.

The observable results — next hops, distances, tie-breaks, listener
ordering — are identical to a from-scratch recompute (the routing
equivalence property test drives randomized topologies through random
link-event sequences to enforce exactly this). ``recompute_count``
still counts :meth:`recompute` invocations; the new ``spf_runs``
counter counts actual per-destination Dijkstra executions, which is
what the ≥5× saving under link flaps is measured against
(``tests/routing/test_incremental_spf.py``).
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import TYPE_CHECKING, Optional

from repro.errors import RoutingError
from repro.netsim.topology import Topology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netsim.node import Node
    from repro.netsim.packet import Packet

#: Above this fraction of dirty cached trees, recompute drops the whole
#: cache instead of tracking per-tree dirtiness (the per-tree checks and
#: partial reuse stop being worth it when most trees changed anyway).
FULL_RECOMPUTE_DIRTY_FRACTION = 0.5


class UnicastRouting:
    """All-pairs next-hop tables for a topology, computed on demand.

    Call :meth:`recompute` after any link state change; protocol agents
    that need convergence notifications register callbacks via
    :meth:`on_recompute`.

    Counters
    --------
    recompute_count:
        Number of :meth:`recompute` invocations (the seed's semantics).
    spf_runs:
        Per-destination Dijkstra executions. The seed ran
        ``len(topo.nodes)`` of these per recompute; incremental
        evaluation runs one per (queried, invalidated) destination.
    trees_invalidated / trees_retained:
        Cached trees dropped vs. kept across recomputes.
    full_invalidations / partial_invalidations:
        Recomputes that dropped the whole cache vs. only dirty trees.
    """

    def __init__(self, topo: Topology, auto_compute: bool = True, obs=None) -> None:
        self.topo = topo
        #: parent[dest][node] = next hop (neighbor name) from node toward dest
        self._parent: dict[str, dict[str, Optional[str]]] = {}
        #: dist[dest][node] = metric distance from node to dest
        self._dist: dict[str, dict[str, float]] = {}
        self._listeners: list = []
        self.recompute_count = 0
        self.spf_runs = 0
        self.trees_invalidated = 0
        self.trees_retained = 0
        self.full_invalidations = 0
        self.partial_invalidations = 0
        #: Bumped on every invalidation; lets external caches (RPF
        #: memos, FIB helpers) cheaply detect staleness.
        self.generation = 0
        self._adjacency: Optional[dict[str, list[tuple[float, str]]]] = None
        #: Link-state snapshot at the last recompute:
        #: [(name_a, name_b, up, delay), ...] in topo.links order.
        self._link_snapshot: Optional[list[tuple[str, str, bool, float]]] = None
        self._node_snapshot: Optional[frozenset] = None
        self._m_spf_seconds = None
        self._m_spf_trees = None
        if obs is not None:
            registry = obs.registry
            self._m_spf_seconds = registry.histogram(
                "spf_recompute_seconds",
                "Wall-clock seconds spent per routing recompute "
                "(invalidation and the refill of dropped cached trees)",
                buckets=(1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0),
            )
            self._m_spf_trees = registry.counter(
                "spf_tree_computations_total",
                "Per-destination Dijkstra tree computations",
            )
        if auto_compute:
            self.recompute()

    # -- computation -------------------------------------------------------

    def recompute(self) -> set[str]:
        """Revalidate routing for the current (up) links.

        Drops cached destination trees a topology change could have
        affected and refills them at once; trees never cached stay lazy.
        From the caller's perspective this is the seed's "re-run SPF for
        every destination" — results are indistinguishable.

        Returns the nodes whose next hop toward a destination cached
        before the call changed; no other node's route moved.
        """
        started = perf_counter() if self._m_spf_seconds is not None else 0.0
        snapshot = self._take_snapshot()
        nodes = frozenset(self.topo.nodes)
        dropped: dict[str, dict[str, Optional[str]]] = {}
        if (
            self._link_snapshot is None
            or self._node_snapshot != nodes
            or len(self._link_snapshot) != len(snapshot)
        ):
            dropped = self._invalidate_all()
        else:
            changed = [
                (old, new)
                for old, new in zip(self._link_snapshot, snapshot)
                if old != new
            ]
            if changed:
                dropped = self._invalidate_dirty(changed)
        self._link_snapshot = snapshot
        self._node_snapshot = nodes
        moved = self._moved(dropped)
        self.recompute_count += 1
        if self._m_spf_seconds is not None:
            self._m_spf_seconds.observe(perf_counter() - started)
        for listener in self._listeners:
            listener()
        return moved

    def _moved(self, dropped: dict[str, dict[str, Optional[str]]]) -> set[str]:
        """Refill each dropped tree and name the nodes whose parent in
        it changed (a node that lost or gained its route included)."""
        moved: set[str] = set()
        for dest, old in dropped.items():
            new = self._tree(dest) if dest in self.topo.nodes else {}
            moved.update(
                name for name in old.keys() | new.keys() if old.get(name) != new.get(name)
            )
        return moved

    def on_recompute(self, callback) -> None:
        """Register ``callback()`` to run after every recompute."""
        self._listeners.append(callback)

    def _take_snapshot(self) -> list[tuple[str, str, bool, float]]:
        return [
            (link.node_a.name, link.node_b.name, link.up, link.delay)
            for link in self.topo.links
        ]

    def _invalidate_all(self) -> dict[str, dict[str, Optional[str]]]:
        """Drop every cached tree; returns them by destination."""
        dropped = self._parent
        self.trees_invalidated += len(dropped)
        self._parent = {}
        self._dist = {}
        self._adjacency = None
        self.generation += 1
        self.full_invalidations += 1
        return dropped

    def _invalidate_dirty(
        self,
        changed: list[
            tuple[tuple[str, str, bool, float], tuple[str, str, bool, float]]
        ],
    ) -> dict[str, dict[str, Optional[str]]]:
        """Drop cached trees a changed link could affect; returns them
        by destination.

        For each cached destination tree, a change to link (a, b) is
        relevant if the tree routes through the link — ``parent[a] == b``
        or ``parent[b] == a`` — which covers links that went down or got
        slower. A link that came (or stayed) up additionally dirties any
        tree whose distances it could relax *or tie* under its new delay
        (``dist[a] >= dist[b] + delay`` in either direction; ties matter
        because the lexicographic tie-break may now pick the new edge).
        Unreachable endpoints count as infinitely far, so a link joining
        two partitions always dirties.
        """
        inf = float("inf")
        dirty: list[str] = []
        for dest, parent in self._parent.items():
            dist = self._dist[dest]
            for (_, _, _, _), (a, b, up, delay) in changed:
                if parent.get(a) == b or parent.get(b) == a:
                    dirty.append(dest)
                    break
                if up:
                    da = dist.get(a, inf)
                    db = dist.get(b, inf)
                    if da >= db + delay or db >= da + delay:
                        dirty.append(dest)
                        break
        cached = len(self._parent)
        if cached and len(dirty) > cached * FULL_RECOMPUTE_DIRTY_FRACTION:
            return self._invalidate_all()
        dropped = {}
        for dest in dirty:
            dropped[dest] = self._parent.pop(dest)
            del self._dist[dest]
        self.trees_invalidated += len(dirty)
        self.trees_retained += cached - len(dirty)
        self._adjacency = None
        self.generation += 1
        self.partial_invalidations += 1
        return dropped

    def _tree(self, dest: str) -> dict[str, Optional[str]]:
        """The (cached or freshly computed) parent map toward ``dest``."""
        table = self._parent.get(dest)
        if table is not None:
            return table
        if self._link_snapshot is None or dest not in self.topo.nodes:
            raise RoutingError(f"no routes computed for destination {dest!r}")
        if self._adjacency is None:
            self._adjacency = self._build_adjacency()
        table, dist = self._dijkstra(dest, self._adjacency)
        self._parent[dest] = table
        self._dist[dest] = dist
        self.spf_runs += 1
        if self._m_spf_trees is not None:
            self._m_spf_trees.inc()
        return table

    def _dist_map(self, dest: str) -> dict[str, float]:
        self._tree(dest)
        return self._dist[dest]

    def _build_adjacency(self) -> dict[str, list[tuple[float, str]]]:
        adjacency: dict[str, list[tuple[float, str]]] = {
            name: [] for name in self.topo.nodes
        }
        for link in self.topo.links:
            if not link.up:
                continue
            a, b = link.node_a.name, link.node_b.name
            adjacency[a].append((link.delay, b))
            adjacency[b].append((link.delay, a))
        # Sort for deterministic relaxation order.
        for edges in adjacency.values():
            edges.sort()
        return adjacency

    @staticmethod
    def _dijkstra(
        dest: str, adjacency: dict[str, list[tuple[float, str]]]
    ) -> tuple[dict[str, Optional[str]], dict[str, float]]:
        """Shortest paths from every node *to* ``dest`` (symmetric links,
        so we search outward from ``dest``); ``parent[u]`` is u's next
        hop toward ``dest``."""
        dist: dict[str, float] = {dest: 0.0}
        parent: dict[str, Optional[str]] = {dest: None}
        heap: list[tuple[float, str, Optional[str]]] = [(0.0, dest, None)]
        visited: set[str] = set()
        while heap:
            d, name, via = heapq.heappop(heap)
            if name in visited:
                continue
            visited.add(name)
            parent[name] = via
            for weight, neighbor in adjacency[name]:
                nd = d + weight
                if neighbor not in visited and nd < dist.get(neighbor, float("inf")):
                    dist[neighbor] = nd
                    # The neighbor's next hop toward dest is `name`.
                    heapq.heappush(heap, (nd, neighbor, name))
                elif (
                    neighbor not in visited
                    and nd == dist.get(neighbor)
                    and name < (parent.get(neighbor) or "￿")
                ):
                    # Equal cost: prefer the lexicographically smaller
                    # next hop for determinism.
                    heapq.heappush(heap, (nd, neighbor, name))
        return parent, dist

    # -- queries -------------------------------------------------------------

    def next_hop(self, node: str, dest: str) -> Optional[str]:
        """The neighbor name on ``node``'s shortest path toward ``dest``.

        None if ``node == dest`` or ``dest`` is unreachable.
        """
        return self._tree(dest).get(node)

    def forward(self, node: Node, packet: Packet) -> Optional[bool]:
        """Send ``packet`` from ``node`` one hop toward the node that owns
        ``packet.dst``: the one unicast send of every stack.

        None when no node owns the address or there is no route to it;
        otherwise whether the packet entered the link. The TTL is the
        caller's: a router relaying takes one off, an originator none.
        """
        target = self.topo.node_by_address(packet.dst)
        if target is None:
            return None
        hop = self.next_hop(node.name, target.name)
        if hop is None:
            return None
        return node.send_to_neighbor(packet, self.topo.nodes[hop])

    def reachable(self, node: str, dest: str) -> bool:
        if node == dest:
            return True
        return self.next_hop(node, dest) is not None

    def distance(self, node: str, dest: str) -> float:
        dist = self._dist_map(dest)
        try:
            return dist[node]
        except KeyError:
            raise RoutingError(f"{dest!r} unreachable from {node!r}") from None

    def path(self, node: str, dest: str) -> list[str]:
        """The node sequence from ``node`` to ``dest`` inclusive."""
        table = self._tree(dest)
        hops = [node]
        current = node
        seen = {node}
        while current != dest:
            step = table.get(current)
            if step is None:
                raise RoutingError(f"{dest!r} unreachable from {node!r}")
            if step in seen:
                raise RoutingError(f"routing loop at {step!r} toward {dest!r}")
            hops.append(step)
            seen.add(step)
            current = step
        return hops

    def hop_count(self, node: str, dest: str) -> int:
        return len(self.path(node, dest)) - 1

    def spanning_tree_to(self, dest: str) -> dict[str, Optional[str]]:
        """The full parent map toward ``dest`` (RPF tree rooted there)."""
        return dict(self._tree(dest))

    # -- diagnostics ---------------------------------------------------------

    def cached_destinations(self) -> int:
        """Destination trees currently materialized (observability)."""
        return len(self._parent)

    def spf_counters(self) -> dict[str, int]:
        """The incremental-SPF counters as a plain dict (benchmarks)."""
        return {
            "recompute_count": self.recompute_count,
            "spf_runs": self.spf_runs,
            "trees_invalidated": self.trees_invalidated,
            "trees_retained": self.trees_retained,
            "full_invalidations": self.full_invalidations,
            "partial_invalidations": self.partial_invalidations,
            "cached_destinations": len(self._parent),
            "generation": self.generation,
        }
