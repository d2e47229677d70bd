"""The seam of the ``EcmpAgent`` decomposition, pinned.

``core/ecmp/protocol.py`` owns four machines — neighbor sessions
(``core/ecmp/session.py``), counting (``core/counting.py``), liveness
(``core/ecmp/liveness.py``), verdicts (``core/ecmp/verdicts.py``) — and
the dependency runs one way: a component that imported the agent's
module could reach back into the tree, and could no longer be driven
without it. The names other modules, the tests, the examples and
``benchmarks/e2e`` import from ``repro.core.ecmp.protocol`` stay
importable from there, wherever they are defined now. No module in
``core/ecmp/`` grows past a line ceiling.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PROTOCOL = "repro.core.ecmp.protocol"

COMPONENTS = (
    "repro/core/ecmp/session.py",
    "repro/core/ecmp/liveness.py",
    "repro/core/counting.py",
    "repro/core/ecmp/verdicts.py",
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


def test_only_the_verdict_machine_writes_a_verdict_entry():
    """Tree code builds a ``VerdictEntry`` for a join and hands it over;
    from then on only ``verdicts.py`` writes it — or appends to its
    sharers. (Fields another record also has are left out of the scan.)"""
    from dataclasses import fields

    from repro.core.ecmp.verdicts import VerdictEntry

    own = {f.name for f in fields(VerdictEntry)} - {"neighbor", "presented_key", "request_id"}
    verdicts = SRC / "repro/core/ecmp/verdicts.py"
    for path in sorted((SRC / "repro").rglob("*.py")):
        if path == verdicts:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in own:
                assert not isinstance(node.ctx, ast.Store), (path, node.lineno)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                held = node.func.value
                assert not (isinstance(held, ast.Attribute) and held.attr in own), (
                    path,
                    node.lineno,
                )


#: ``vars()`` of a router's agent, exactly. CPython 3.11 shares the key
#: table of an instance ``__dict__`` only up to 30 keys, so the 30th
#: costs ≈ 1.3 KB a node: a new per-agent field goes on a component.
AGENT_ATTRIBUTES = {
    "node", "sim", "routing", "fib", "role", "propagation",
    "block_fast_updates", "keys", "channels", "subscriptions", "blocks",
    "_delivery_views", "obs", "stats", "_m_tally", "_encoded",
    "_rehome_scheduled", "topology_change_hook", "sessions", "counting",
    "liveness", "verdicts",
}


def test_an_agent_has_exactly_its_pinned_instance_attributes():
    from repro import ExpressNetwork, TopologyBuilder

    net = ExpressNetwork(TopologyBuilder.line(2))
    assert set(vars(net.ecmp_agents["n0"])) == AGENT_ATTRIBUTES
    assert len(AGENT_ATTRIBUTES) == 22


#: Lines a module in ``core/ecmp/`` may have: a component stays a
#: component, and the agent only shrinks.
COMPONENT_LINES = 600
PROTOCOL_LINES = 1249


def test_no_module_in_core_ecmp_and_no_component_outgrows_its_ceiling():
    paths = {*(SRC / "repro/core/ecmp").glob("*.py"), *(SRC / c for c in COMPONENTS)}
    for path in sorted(paths):
        lines = len(path.read_text(encoding="utf-8").splitlines())
        ceiling = PROTOCOL_LINES if path.name == "protocol.py" else COMPONENT_LINES
        assert lines <= ceiling, f"{path.name}: {lines} lines > {ceiling}"
