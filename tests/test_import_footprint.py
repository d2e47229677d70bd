"""What a process pays for by importing ``repro`` and building a network.

``networkx`` backs one view — ``Topology.graph()`` / ``is_connected()``,
which only tests and notebooks call — and costs about 15 MB of resident
memory and 0.1 s of start-up, so it is imported on first use: every
benchmark process, ``python -m repro`` and ``ExpressNetwork`` run
without it. A fresh interpreter, because this one has long since
imported it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys
import repro
from repro import ExpressNetwork, TopologyBuilder
topo = TopologyBuilder.isp(2, 2, 2)
net = ExpressNetwork(topo)
net.run(until=0.01)
assert "networkx" not in sys.modules, "networkx imported before anyone asked for a graph"
graph = topo.graph()
assert "networkx" in sys.modules
assert len(graph) == len(topo.nodes) and topo.is_connected()
"""


def test_networkx_is_imported_on_first_use_only():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
