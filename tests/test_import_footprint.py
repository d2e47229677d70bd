"""What a process pays for by importing ``repro`` and building a network.

``networkx`` backs one view — ``Topology.graph()`` / ``is_connected()``,
which only tests and notebooks call — and costs about 15 MB of resident
memory and 0.1 s of start-up, so it is imported on first use: every
benchmark process, ``python -m repro`` and ``ExpressNetwork`` run
without it. ``numpy`` (another 10 MB and 0.15 s) backs one call —
``Simulator.schedule_bulk``, whose array passes tally a bulk storm — and
is imported on that call's first use, so ``python -m repro`` and
``ExpressNetwork`` run without it too. A fresh interpreter, because
this one has long since imported both.
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
source = net.source("h0_0_0")
channel = source.allocate_channel()
block = net.subscriber_block("e1_0")
net.run(until=0.01)
block.join(channel, 1000)
net.settle(1.0)
source.send(channel)
net.settle(1.0)
assert block.deliveries == 1000
assert "numpy" not in sys.modules, "numpy imported before anyone scheduled in bulk"
assert "networkx" not in sys.modules, "networkx imported before anyone asked for a graph"
graph = topo.graph()
assert "networkx" in sys.modules
assert len(graph) == len(topo.nodes) and topo.is_connected()
net.sim.schedule_bulk([(net.sim.now + 0.5, block.leave_op(channel))])
assert "numpy" in sys.modules
net.settle(1.0)
assert block.count(channel) == 999
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
