"""Three decisions, one owner each, pinned by reading the source.

* Control-packet framing in the group model lives in
  ``groupmodel/router.py``: no other module there builds a control
  ``Packet`` or asks ``routing.next_hop`` itself, and neither PIM nor
  CBT keeps a ``_unicast_forward`` of its own.
* "Send this unicast packet one hop toward its destination" lives in
  ``UnicastRouting.forward``: ``core/forwarding.py`` resolves no next
  hop itself, and no function anywhere in ``src/`` both looks up a next
  hop and sends.
* Host detection lives in ``Topology.host_names``: the "single-homed,
  named ``h...``" rule is written once.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
GROUPMODEL = SRC / "groupmodel"

SENDS = {"send", "send_to_neighbor"}


def tree_of(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def called(node: ast.AST) -> set[str]:
    """Names of every function or method ``node`` calls."""
    names = set()
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            func = call.func
            if isinstance(func, ast.Attribute):
                names.add(func.attr)
            elif isinstance(func, ast.Name):
                names.add(func.id)
    return names


def packet_protos(tree: ast.Module) -> list:
    """The ``proto=`` of every ``Packet(...)`` built in ``tree`` (None
    when it is not a string literal)."""
    protos = []
    for call in ast.walk(tree):
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name):
            if call.func.id != "Packet":
                continue
            proto = next((kw.value for kw in call.keywords if kw.arg == "proto"), None)
            protos.append(proto.value if isinstance(proto, ast.Constant) else None)
    return protos


def test_only_the_router_skeleton_frames_control_packets():
    modules = sorted(GROUPMODEL.glob("*.py"))
    assert GROUPMODEL / "router.py" in modules
    for path in modules:
        if path.name == "router.py":
            continue
        tree = tree_of(path)
        # Hosts build data packets; control packets are the skeleton's.
        assert set(packet_protos(tree)) <= {"data"}, path.name
        assert "next_hop" not in called(tree), path.name


def test_pim_and_cbt_keep_no_unicast_forward_of_their_own():
    for name in ("pim.py", "cbt.py"):
        defined = {
            node.name
            for node in ast.walk(tree_of(GROUPMODEL / name))
            if isinstance(node, ast.FunctionDef)
        }
        assert "_unicast_forward" not in defined, name


def test_the_express_forwarder_resolves_no_next_hop_itself():
    calls = called(tree_of(SRC / "core/forwarding.py"))
    assert not calls & {"next_hop", "node_by_address"}
    assert "forward" in calls


def test_no_function_outside_unicast_routing_looks_up_a_hop_and_sends():
    owner = SRC / "routing/unicast.py"
    for path in sorted(SRC.rglob("*.py")):
        if path == owner:
            continue
        for node in ast.walk(tree_of(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls = called(node)
                assert not ("next_hop" in calls and calls & SENDS), (
                    f"{path.relative_to(SRC)}::{node.name}"
                )


def test_host_detection_is_written_once():
    """``startswith("h")`` names a host in ``Topology.host_names`` only;
    both facades call it."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for call in ast.walk(tree_of(path)):
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "startswith"
                and [getattr(arg, "value", None) for arg in call.args] == ["h"]
            ):
                found.append(str(path.relative_to(SRC)))
    assert found == ["netsim/topology.py"]
    for facade in ("core/network.py", "groupmodel/network.py"):
        assert "host_names" in called(tree_of(SRC / facade)), facade
