"""Shared fixtures for the scenario-spec tests and the sharded runs.

``small_spec`` is a 14-node ISP scenario that exercises every op kind
(host join/leave, block join/leave, source sends on two channels) and
crosses every partition boundary when split 2 or 4 ways — small enough
that an oracle run plus several sharded runs stay well under a second.
"""

import pytest

from repro.workloads.spec import ScenarioSpec


def make_small_spec(seed: int = 0, duration: float = 2.0) -> ScenarioSpec:
    return ScenarioSpec(
        topology="isp",
        topology_kwargs={
            "n_transit": 2,
            "stubs_per_transit": 2,
            "hosts_per_stub": 2,
        },
        source="h0_0_0",
        n_channels=2,
        blocks=("e0_1", "e1_0"),
        ops=(
            (0.10, "join", "h1_0_0", 0),
            (0.12, "join", "h0_1_0", 0),
            (0.15, "join", "h1_1_1", 1),
            (0.20, "block_join", 0, 0, 25),
            (0.22, "block_join", 1, 1, 40),
            (0.30, "send", 0),
            (0.32, "send", 1),
            (0.40, "leave", "h0_1_0", 0),
            (0.45, "block_leave", 1, 1, 10),
            (0.50, "send", 0),
            (0.55, "send", 1),
        ),
        duration=duration,
        seed=seed,
    )


@pytest.fixture
def small_spec() -> ScenarioSpec:
    return make_small_spec()
