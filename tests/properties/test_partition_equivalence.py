"""Property test: sharded simulation ≡ single-process oracle.

The contract the parallel subsystem is pinned to: for any declarative
scenario, an N-partition conservative-lookahead run must settle into
*exactly* the state the unsharded run on the heap oracle
(``tests/oracles/scheduler.py``) produces — ChannelState
tables (upstream, advertised counts, per-neighbor downstream records),
subscription status and per-host delivery counts, aggregated-block
membership and deliveries, total dispatched event counts, and (when
observability is on) every counter and histogram family outside the
sync-only / wall-clock exclusion set. Workers run on the shipped event
core (``wheel``) and on the oracle itself (``heap``): a
divergence on both is a parallel-subsystem bug, on the shipped core
alone an event-core one (exclusive windows, ``peek_times``,
reinjection at a window edge).

Three axes are swept:

* partition count N ∈ {1, 2, 4} (1 degenerates to a proxy-free run),
  with observability attached, so every counter is compared too;
* worker event core oracle vs. shipped (the reference stays oracle);
* randomized workloads over hosts, blocks, and channels, seeded
  ``random.Random`` per the property-suite idiom.
"""

import random

import pytest

from repro.netsim.parallel import ParallelRunner, assert_equivalent, run_single
from repro.workloads.spec import ScenarioSpec

from tests.workloads.conftest import make_small_spec
from tests.oracles.scheduler import event_core

N_RANDOM_CASES = 4


@pytest.fixture(scope="module")
def oracle_with_obs():
    with event_core("heap"):
        return run_single(make_small_spec(), with_obs=True)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_n_partitions_match_heap_oracle(n, oracle_with_obs):
    """Inline workers on the oracle core: the partition logic alone."""
    with event_core("heap"):
        result = ParallelRunner(make_small_spec(), n, with_obs=True).run()
    assert result.plan.n == n
    assert_equivalent(result.merged, oracle_with_obs)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_wheel_workers_match_heap_oracle(n, oracle_with_obs):
    result = ParallelRunner(make_small_spec(), n, with_obs=True).run()
    assert_equivalent(result.merged, oracle_with_obs)


def test_sharded_run_is_deterministic():
    a = ParallelRunner(make_small_spec(), 2).run()
    b = ParallelRunner(make_small_spec(), 2).run()
    assert a.merged == b.merged
    assert a.rounds == b.rounds
    assert [s.as_dict() for s in a.sync] == [s.as_dict() for s in b.sync]


def random_spec(seed: int) -> ScenarioSpec:
    """A randomized membership/data workload on the small ISP topology."""
    rng = random.Random(seed)
    hosts = [
        f"h{t}_{s}_{i}" for t in range(2) for s in range(2) for i in range(2)
    ]
    blocks = ("e0_0", "e1_1")
    ops = []
    when = 0.05
    for _ in range(rng.randint(15, 30)):
        when += rng.uniform(0.005, 0.08)
        roll = rng.random()
        if roll < 0.40:
            ops.append((when, "join", rng.choice(hosts[1:]), rng.randrange(2)))
        elif roll < 0.55:
            ops.append((when, "leave", rng.choice(hosts[1:]), rng.randrange(2)))
        elif roll < 0.75:
            ops.append(
                (when, "block_join", rng.randrange(2), rng.randrange(2),
                 rng.randint(1, 30))
            )
        elif roll < 0.85:
            ops.append(
                (when, "block_leave", rng.randrange(2), rng.randrange(2),
                 rng.randint(1, 10))
            )
        else:
            ops.append((when, "send", rng.randrange(2)))
    return ScenarioSpec(
        topology="isp",
        topology_kwargs={
            "n_transit": 2, "stubs_per_transit": 2, "hosts_per_stub": 2,
        },
        source=hosts[0],
        n_channels=2,
        blocks=blocks,
        ops=tuple(ops),
        duration=when + 1.5,
        seed=seed,
    )


@pytest.mark.parametrize("case", range(N_RANDOM_CASES))
def test_random_workloads_match_oracle(case):
    seed = 0x9A27 + case
    spec = random_spec(seed)
    with event_core("heap"):
        oracle = run_single(spec)
    for n in (2, 4):
        result = ParallelRunner(spec, n).run()
        assert_equivalent(result.merged, oracle)
