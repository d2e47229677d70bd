"""Property suite: fault instrumentation is free, and faults heal.

Two contracts from the fault-injection subsystem:

* **Empty-plan bit-identity** — arming an empty :class:`FaultPlan`
  (with a :class:`FaultMonitor` attached) schedules zero simulator
  events and draws zero RNG values, so an instrumented run's settled
  ChannelState tables *and* ``events_processed`` are identical to a
  plain run's — on the shipped event core (``wheel``) and on the heap
  oracle of ``tests/oracles/scheduler.py`` (``heap``), with links
  carrying message objects and real wire bytes (the wire mutators a
  plan can install sit on that path). ``events_processed`` equality is
  the strong claim: one stray scheduled callback anywhere would break
  it.

* **Crash/restart re-convergence** — a run that crashes a transit
  router (full soft-state loss, links down) and restarts it settles
  back to the *same* ChannelState tables as the no-fault oracle run:
  the §3 soft-state machinery rebuilds everything, with no orphaned or
  divergent state left behind. Likewise a duplicate-only wire
  mutation window (§3.2 idempotence: replaying a Count re-asserts the
  same fact).
"""

import random

import pytest

from repro import ExpressNetwork, TopologyBuilder
from repro.faults import FaultInjector, FaultMonitor, FaultPlan
from tests.oracles.scheduler import event_core

N_EMPTY_CASES = 2


def snapshot(net: ExpressNetwork) -> dict:
    """Every agent's full channel table, in comparable form (the
    test_scheduler_equivalence snapshot shape)."""
    table = {}
    for name, agent in sorted(net.ecmp_agents.items()):
        for channel, state in agent.channels.items():
            downstream = {
                peer: (record.count, record.validated)
                for peer, record in state.downstream.items()
                if record.count > 0
            }
            table[(name, channel)] = (state.upstream, state.advertised, downstream)
    return table


def build_net(scheduler: str, wire_format: bool = False) -> ExpressNetwork:
    with event_core(scheduler):
        topo = TopologyBuilder.isp(
            n_transit=3, stubs_per_transit=2, hosts_per_stub=2, seed=7
        )
    net = ExpressNetwork(topo, wire_format=wire_format)
    net.run(until=0.01)
    return net


def schedule_workload(net: ExpressNetwork, seed: int) -> float:
    """Randomized join/leave churn over 3 channels; returns end time."""
    rng = random.Random(seed)
    hosts = sorted(net.host_names)
    source = net.source(hosts[0])
    channels = [source.allocate_channel() for _ in range(3)]
    subscribers = hosts[1:]
    when = 0.05
    for _ in range(30):
        when += rng.uniform(0.002, 0.1)
        host = rng.choice(subscribers)
        channel = rng.choice(channels)
        if rng.random() < 0.65:
            net.sim.schedule_at(
                when, lambda h=host, c=channel: net.host(h).subscribe(c)
            )
        else:
            net.sim.schedule_at(
                when, lambda h=host, c=channel: net.host(h).unsubscribe(c)
            )
    return when


def run_workload(
    scheduler: str, wire_format: bool, seed: int, instrumented: bool
) -> tuple[dict, int]:
    net = build_net(scheduler, wire_format)
    end = schedule_workload(net, seed)
    if instrumented:
        monitor = FaultMonitor(net)
        injector = FaultInjector(net, FaultPlan(seed=seed), monitor=monitor)
        injector.arm()
        monitor.begin()
    net.run(until=end)
    net.settle(3.0)
    if instrumented:
        report = monitor.report(injector)
        assert report["faults_fired"] == 0
        assert report["orphaned_state"] == 0
    return snapshot(net), net.sim.events_processed


@pytest.mark.parametrize("scheduler", ["heap", "wheel"])
@pytest.mark.parametrize("wire_format", [True, False])
@pytest.mark.parametrize("case", range(N_EMPTY_CASES))
def test_empty_plan_run_is_bit_identical(scheduler, wire_format, case):
    seed = 0xFA17 + case
    plain = run_workload(scheduler, wire_format, seed, instrumented=False)
    instrumented = run_workload(scheduler, wire_format, seed, instrumented=True)
    assert instrumented == plain


# ---------------------------------------------------------------------------
# crash/restart re-convergence to the no-fault oracle
# ---------------------------------------------------------------------------


def settled_state(seed: int, plan_for=None, settle: float = 45.0):
    """Run the workload, let it settle, optionally arm a plan built by
    ``plan_for(net, now)`` after the churn window, settle again, and
    return the final table. The faulted run is on the shipped event
    core, the no-fault reference on the heap oracle."""
    net = build_net("heap" if plan_for is None else "wheel")
    end = schedule_workload(net, seed)
    net.run(until=end)
    net.settle(3.0)
    if plan_for is not None:
        injector = FaultInjector(net, plan_for(net, net.sim.now))
        injector.arm()
    net.settle(settle)
    return snapshot(net)


@pytest.mark.parametrize("victim", ["t1", "e0_0"])
def test_crash_restart_reconverges_to_oracle(victim):
    seed = 0xC4A5
    oracle = settled_state(seed)
    assert oracle  # the workload actually built subscriptions

    def plan_for(net, now):
        return FaultPlan().crash_restart(now + 1.0, victim, downtime=3.0)

    healed = settled_state(seed, plan_for)
    assert healed == oracle


def test_duplicate_only_mutation_reconverges_to_oracle():
    seed = 0xC4A6
    oracle = settled_state(seed)

    def plan_for(net, now):
        # Duplicate every control frame on a core link for 10 seconds:
        # §3.2 idempotence says replaying state messages re-asserts the
        # same facts, so the settled tables must not move.
        return FaultPlan(seed=9).wire_mutate(
            now + 0.5, "t0", "t1", duration=10.0, duplicate=1.0
        )

    healed = settled_state(seed, plan_for)
    assert healed == oracle
