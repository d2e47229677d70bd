"""T2 — §5.2: management-level state cost.

The paper's accounting: 32-byte count records, fanout 2 + upstream,
2 outstanding counts, 8-byte key = 200 bytes/channel; "less than
1/50-th of a cent" at $1/MB DRAM. We regenerate the model table AND
measure the live per-channel state of a running router against it —
twice: by the paper's accounting rules (exactly 200 B), and by weighing
the Python heap this implementation holds per (node, channel) state
(the measurement tier-1 budgets in ``tests/core/test_state_budget.py``;
reported here, asserted there).
"""

import sys
from pathlib import Path

import pytest
from conftest import report

from repro import ExpressNetwork, TopologyBuilder
from repro.core.ecmp.state import management_state_bytes
from repro.costmodel.state_cost import ManagementStateModel

# The budget test is the one implementation of the heap measurement.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.core.test_state_budget import measure_fresh as measure_held_bytes  # noqa: E402


def test_t2_model_table(benchmark):
    model = ManagementStateModel()
    bytes_per_channel = benchmark(model.channel_bytes)

    assert bytes_per_channel == 200
    assert model.channel_cost_dollars() <= 0.01 / 50

    rows = ["§5.2: management (DRAM) state per channel",
            f"  paper: 3 records x 2 counts x 32 B + 8 B key = 200 B",
            f"  model: {bytes_per_channel} B -> ${model.channel_cost_dollars():.6f}/channel-yr",
            "",
            "  linear scaling (the §5 'scales linearly' claim):"]
    for channels in (1_000, 100_000, 1_000_000):
        rows.append(
            f"    {channels:>9,} channels: {model.router_bytes(channels) / 1e6:8.1f} MB"
            f"  ${model.router_cost_dollars(channels):10,.2f}"
        )
    assert model.router_bytes(1_000_000) == 1000 * model.router_bytes(1_000)
    report("t2_mgmt_state_model", rows)


def test_t2_live_state_vs_model(benchmark):
    """Measure a live mid-tree router's per-channel state with the
    paper's own accounting rules."""
    topo = TopologyBuilder.balanced_tree(depth=2, fanout=2)
    topo.add_node("src")
    topo.add_link("src", "r", delay=0.001)
    leaves = [f"d2_{i}" for i in range(4)]
    net = ExpressNetwork(topo, hosts=leaves + ["src"])
    net.run(until=0.1)
    source = net.source("src")

    def build():
        channels = []
        for _ in range(50):
            channel = source.allocate_channel()
            for leaf in leaves:
                net.host(leaf).subscribe(channel)
            channels.append(channel)
        net.settle()
        return channels

    channels = benchmark.pedantic(build, rounds=1, iterations=1)
    # d1_0 is a mid-tree router with fanout 2 + an upstream: the
    # paper's modelled router.
    agent = net.ecmp_agents["d1_0"]
    assert len(agent.channels) == 50
    per_channel = [
        management_state_bytes(state, outstanding_counts=2, authenticated=True)
        for state in agent.channels.values()
    ]
    measured = sum(per_channel) / len(per_channel)

    assert measured == 200  # fanout-2 router matches the model exactly

    held = measure_held_bytes()
    keyless, keyed = held["keyless"], held["keyed"]
    report(
        "t2_live_state",
        [
            "§5.2: live router state vs model (router d1_0, fanout 2):",
            f"  channels on router: {len(agent.channels)}",
            f"  measured per-channel bytes (paper accounting): {measured:.0f}",
            "  model: 200 B  -> exact match for the modelled fanout",
            "",
            "  held by this implementation (traced Python heap per (node, channel)",
            "  state, same tree, 1,000 channels x 4 leaves, everything included):",
            f"    keyless: {keyless:5.0f} B   (1,631 B when first measured)",
            f"    keyed:   {keyed:5.0f} B   (1,794 B when first measured)",
            "  paper: 192 B of count records (+ 8 B key) + a 12 B FIB entry",
        ],
    )
