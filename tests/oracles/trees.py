"""Analytic tree models of EXPRESS and the protocols it is compared
against (§3.6, §7.1): the specification of ``repro.groupmodel``'s live
PIM-SM, CBT and DVMRP agents and of the live ECMP tree.

Each model derives, from unicast routing alone, the tree a protocol
builds, which routers hold state for the group and the node sequence a
data packet follows. ``tests/properties/test_baseline_live_vs_model.py``
holds the live group-model agents to these models (state, routers
touched, delivery delay), ``tests/properties/test_invariant_properties.py``
and X1's live-vs-model check hold the live ECMP tree to
:class:`ExpressTreeModel`.

* :class:`ExpressTreeModel` — per-source reverse shortest-path tree.
* :class:`PimSmModel` — rendezvous-point shared tree with optional
  per-receiver switchover to source-specific trees, and sender
  "register" tunnelling to the RP.
* :class:`CbtModel` — bidirectional core-based tree; on-tree senders'
  packets travel along the tree, off-tree senders tunnel to the core.
* :class:`DvmrpModel` — broadcast-and-prune: data path is the source
  SPT, but every node in the domain is touched and holds prune or
  forwarding state.

The models count every node, member hosts included; the live agents
run on routers only, so a comparison drops the hosts from the model's
sets.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import RoutingError
from repro.netsim.topology import Topology
from repro.routing.unicast import UnicastRouting


class MulticastTreeModel:
    """Shared interface: group membership and the derived tree."""

    name = "abstract"

    def __init__(self, topo: Topology, routing: UnicastRouting) -> None:
        self.topo = topo
        self.routing = routing
        self.members: set[str] = set()

    def join(self, node: str) -> None:
        self.topo.node(node)  # validate
        self.members.add(node)

    def leave(self, node: str) -> None:
        self.members.discard(node)

    # -- to override ---------------------------------------------------------

    def tree_edges(self) -> set[frozenset]:
        """Undirected edges carrying group state."""
        raise NotImplementedError

    def delivery_path(self, source: str, member: str) -> list[str]:
        """Node sequence a data packet traverses from ``source`` to
        ``member``, including any detour the protocol imposes."""
        raise NotImplementedError

    def routers_touched(self) -> set[str]:
        """Every node holding *any* state for the group (incl. prune
        state); the paper's point that EXPRESS state exists only on the
        source-to-subscriber paths is measured against this."""
        return self.nodes_on_tree()

    # -- shared helpers ------------------------------------------------------

    def nodes_on_tree(self) -> set[str]:
        nodes: set[str] = set()
        for edge in self.tree_edges():
            nodes.update(edge)
        return nodes

    def state_entries(self) -> dict[str, int]:
        """Group-state entry count per router."""
        return {name: 1 for name in self.routers_touched()}

    def total_state(self) -> int:
        return sum(self.state_entries().values())

    def stretch(self, source: str, member: str) -> float:
        """Delivery path length over shortest path length (1.0 = direct)."""
        direct = self.routing.hop_count(source, member)
        if direct == 0:
            return 1.0
        return (len(self.delivery_path(source, member)) - 1) / direct

    def _paths_union(self, root: str, leaves: set[str]) -> set[frozenset]:
        edges: set[frozenset] = set()
        for leaf in leaves:
            path = self.routing.path(leaf, root)
            for a, b in zip(path, path[1:]):
                edges.add(frozenset((a, b)))
        return edges


class ExpressTreeModel(MulticastTreeModel):
    """The analytic EXPRESS tree: reverse shortest paths to the source."""

    name = "express"

    def __init__(self, topo: Topology, routing: UnicastRouting, source: str) -> None:
        super().__init__(topo, routing)
        self.source = source

    def tree_edges(self) -> set[frozenset]:
        return self._paths_union(self.source, self.members)

    def delivery_path(self, source: str, member: str) -> list[str]:
        if source != self.source:
            raise RoutingError(
                f"channel source is {self.source}; {source} may not send"
            )
        return self.routing.path(source, member)


class PimSmModel(MulticastTreeModel):
    """PIM-SM-like: (*,G) shared tree rooted at the RP; optional (S,G)
    source trees after switchover; senders register-tunnel to the RP."""

    name = "pim-sm"

    def __init__(self, topo: Topology, routing: UnicastRouting, rp: str) -> None:
        super().__init__(topo, routing)
        self.rp = rp
        #: Members that switched to the source-specific tree, per source.
        self.spt_members: dict[str, set[str]] = {}

    def switch_to_spt(self, member: str, source: str) -> None:
        """Model the shared-tree -> source-tree switchover ("configure
        when traffic should split off into source-specific trees")."""
        if member not in self.members:
            raise RoutingError(f"{member} is not a group member")
        self.spt_members.setdefault(source, set()).add(member)

    def shared_tree_edges(self) -> set[frozenset]:
        return self._paths_union(self.rp, self.members)

    def source_tree_edges(self, source: str) -> set[frozenset]:
        return self._paths_union(source, self.spt_members.get(source, set()))

    def tree_edges(self) -> set[frozenset]:
        edges = self.shared_tree_edges()
        for source in self.spt_members:
            edges |= self.source_tree_edges(source)
        return edges

    def state_entries(self) -> dict[str, int]:
        """One (*,G) entry per shared-tree router, plus one (S,G) entry
        per source tree a router additionally sits on."""
        entries: dict[str, int] = {}
        for node in {n for e in self.shared_tree_edges() for n in e}:
            entries[node] = 1
        for source in self.spt_members:
            for node in {n for e in self.source_tree_edges(source) for n in e}:
                entries[node] = entries.get(node, 0) + 1
        return entries

    def delivery_path(self, source: str, member: str) -> list[str]:
        """Register leg source->RP, then shared tree RP->member — unless
        the member switched to this source's SPT."""
        if member in self.spt_members.get(source, set()):
            return self.routing.path(source, member)
        to_rp = self.routing.path(source, self.rp)
        down = self.routing.path(self.rp, member)
        return to_rp + down[1:]


class CbtModel(MulticastTreeModel):
    """CBT-like bidirectional shared tree rooted at a core."""

    name = "cbt"

    def __init__(self, topo: Topology, routing: UnicastRouting, core: str) -> None:
        super().__init__(topo, routing)
        self.core = core

    def tree_edges(self) -> set[frozenset]:
        return self._paths_union(self.core, self.members)

    def _tree_adjacency(self) -> dict[str, set[str]]:
        adjacency: dict[str, set[str]] = {}
        for edge in self.tree_edges():
            a, b = tuple(edge)
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
        return adjacency

    def _tree_path(self, a: str, b: str) -> Optional[list[str]]:
        """The unique path between two on-tree nodes, if both are on."""
        adjacency = self._tree_adjacency()
        if a not in adjacency and a != b:
            return None
        # BFS over the (acyclic) tree.
        frontier = [[a]]
        seen = {a}
        while frontier:
            path = frontier.pop(0)
            if path[-1] == b:
                return path
            for nxt in sorted(adjacency.get(path[-1], ())):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(path + [nxt])
        return None

    def delivery_path(self, source: str, member: str) -> list[str]:
        """Bi-directional tree forwarding: an on-tree sender's packet
        travels straight along the tree; an off-tree sender tunnels to
        the core first."""
        on_tree = self._tree_path(source, member)
        if on_tree is not None:
            return on_tree
        to_core = self.routing.path(source, self.core)
        down = self._tree_path(self.core, member)
        if down is None:
            raise RoutingError(f"{member} is not on the CBT tree")
        return to_core + down[1:]


class DvmrpModel(MulticastTreeModel):
    """Flood-and-prune (DVMRP / PIM-DM style) for one source.

    Steady-state data flows on the source SPT, but the initial
    broadcast reaches, and prune state occupies, every router.
    """

    name = "dvmrp"

    def __init__(self, topo: Topology, routing: UnicastRouting, source: str) -> None:
        super().__init__(topo, routing)
        self.source = source

    def tree_edges(self) -> set[frozenset]:
        return self._paths_union(self.source, self.members)

    def routers_touched(self) -> set[str]:
        # Broadcast-and-prune touches the whole domain.
        return set(self.topo.nodes)

    def state_entries(self) -> dict[str, int]:
        # Every router holds either forwarding state or prune state.
        return {name: 1 for name in self.topo.nodes}

    def delivery_path(self, source: str, member: str) -> list[str]:
        if source != self.source:
            raise RoutingError(f"model is for source {self.source}")
        return self.routing.path(source, member)
