"""The seam of the ``EcmpAgent`` decomposition, pinned.

``core/ecmp/protocol.py`` owns three machines — neighbor sessions
(``core/ecmp/session.py``), counting (``core/counting.py``), liveness
(``core/ecmp/liveness.py``) — and the dependency runs one way: a
component that imported the agent's module could reach back into the
tree and the verdicts, and could no longer be driven without them. The
names other modules, the tests, the examples and ``benchmarks/e2e``
import from ``repro.core.ecmp.protocol`` stay importable from there,
wherever they are defined now.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PROTOCOL = "repro.core.ecmp.protocol"

COMPONENTS = (
    "repro/core/ecmp/session.py",
    "repro/core/ecmp/liveness.py",
    "repro/core/counting.py",
)

EXPORTS = {
    "EcmpAgent", "NeighborMode", "CountPropagation", "IP_OVERHEAD",
    "DISCOVERY_CHANNEL", "PROTO_ECMP", "DirtyChannelQueue",
    "SubscriptionHandle",
}


def imports_of(path: Path) -> set[str]:
    """Every module ``path`` names in an import statement, with ``from
    package import name`` counted as ``package.name`` too."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found


def test_the_components_import_nothing_from_the_agents_module():
    for component in COMPONENTS:
        path = SRC / component
        assert path.is_file(), component
        reached = {m for m in imports_of(path) if m.startswith(PROTOCOL)}
        assert not reached, f"{component} imports {sorted(reached)}"


def test_the_agents_module_still_exports_what_others_import_from_it():
    import repro.core.ecmp.protocol as protocol

    missing = {name for name in EXPORTS if not hasattr(protocol, name)}
    assert not missing
    assert EXPORTS <= set(protocol.__all__)


#: ``vars()`` of a router's agent, exactly. CPython 3.11 shares the key
#: table of an instance ``__dict__`` only up to 30 keys, so the 30th
#: costs ≈ 1.3 KB a node: a new per-agent field goes on a component.
AGENT_ATTRIBUTES = {
    "node", "sim", "routing", "fib", "role", "propagation",
    "block_fast_updates", "keys", "channels", "subscriptions",
    "pending_verdicts", "_next_request_id", "blocks", "_delivery_views",
    "obs", "stats", "_m_tally", "_by_upstream", "_encoded",
    "_rehome_scheduled", "topology_change_hook", "sessions", "counting",
    "liveness",
}


def test_an_agent_has_exactly_its_pinned_instance_attributes():
    from repro import ExpressNetwork, TopologyBuilder

    net = ExpressNetwork(TopologyBuilder.line(2))
    assert set(vars(net.ecmp_agents["n0"])) == AGENT_ATTRIBUTES
    assert len(AGENT_ATTRIBUTES) == 24
