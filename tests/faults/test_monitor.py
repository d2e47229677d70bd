"""FaultMonitor: SLO scoring, orphan detection, and lifecycle."""

import pytest

from repro import ExpressNetwork, TopologyBuilder
from repro.core.ecmp.protocol import EcmpAgent
from repro.core.keys import make_key
from repro.errors import FaultError
from repro.obs.hooks import Observability
from repro.faults import FaultInjector, FaultMonitor, FaultPlan, seeded_crash_storm
from tests.conftest import assert_control_plane_at_rest, make_channel


@pytest.fixture
def observed_net():
    topo = TopologyBuilder.isp(n_transit=3, stubs_per_transit=2, hosts_per_stub=1)
    obs = Observability()
    obs.bind_simulator(topo.sim)
    net = ExpressNetwork(topo, obs=obs)
    net.run(until=0.01)
    return net


def workload(net, n_subs=3):
    hosts = sorted(net.host_names)
    src, ch = make_channel(net, hosts[0])
    subs = hosts[1 : 1 + n_subs]
    for name in subs:
        net.host(name).subscribe(ch)
    net.settle()
    return src, ch, subs


class TestLifecycle:
    def test_report_before_begin_raises(self, observed_net):
        monitor = FaultMonitor(observed_net)
        with pytest.raises(FaultError, match="before begin"):
            monitor.report()

    def test_monitor_attaches_convergence_hook(self, observed_net):
        monitor = FaultMonitor(observed_net)
        assert monitor.convergence is observed_net.obs.convergence
        # A second monitor reuses the same hook, not a fresh one.
        assert FaultMonitor(observed_net).convergence is monitor.convergence

    def test_unobserved_network_still_scores_counters(self):
        topo = TopologyBuilder.isp(
            n_transit=3, stubs_per_transit=2, hosts_per_stub=1
        )
        net = ExpressNetwork(topo)
        net.run(until=0.01)
        src, ch, subs = workload(net)
        monitor = FaultMonitor(net)
        assert monitor.convergence is None
        monitor.begin()
        report = monitor.report()
        assert report["convergence_seconds"] == 0.0
        assert report["faults_fired"] == 0


class TestQuietRun:
    def test_no_faults_scores_zero(self, observed_net):
        net = observed_net
        src, ch, subs = workload(net)
        monitor = FaultMonitor(net)
        monitor.begin()
        net.settle(5.0)
        report = monitor.report()
        assert report["faults_fired"] == 0
        assert report["last_fault_at"] is None
        assert report["convergence_seconds"] == 0.0
        assert report["resync_bytes"] == 0
        assert report["blast_radius"] == 0.0
        assert report["agents_churned"] == 0
        assert report["orphaned_state"] == 0
        assert report["state_losses"] == 0


class TestFaultedRun:
    def test_crash_storm_slos(self, observed_net):
        net = observed_net
        src, ch, subs = workload(net)
        monitor = FaultMonitor(net)
        monitor.begin()
        now = net.sim.now
        plan = FaultPlan().crash_restart(now + 1.0, "t1", downtime=3.0)
        injector = FaultInjector(net, plan, monitor=monitor)
        injector.arm()
        net.run(until=now + 40.0)
        report = monitor.report(injector)
        assert report["faults_fired"] == 2
        assert report["last_fault_at"] == pytest.approx(now + 4.0)
        assert report["state_losses"] == 1
        # Recovery happened strictly after the restart landed.
        assert report["convergence_seconds"] > 0.0
        assert report["resync_bytes"] > 0
        assert report["resync_events"] > 0
        # Some but not all agents churned.
        assert 0 < report["agents_churned"] < report["agents_total"]
        assert 0.0 < report["blast_radius"] < 1.0
        # The network re-settled cleanly.
        assert report["orphaned_state"] == 0
        # Injector extras ride along.
        assert report["wire_mutations"] == {
            "passed": 0, "dropped": 0, "duplicated": 0, "reordered": 0,
        }
        assert report["attack"]["join_attempts"] == 0

    def test_lose_state_with_links_up_reports_every_record_lost(self, observed_net):
        """The crash injector downs a victim's links first, which
        empties its channel table before ``lose_state`` runs; called on
        a router that still holds state, the wipe itself must tell the
        convergence monitor how many downstream records went."""
        net = observed_net
        src, ch, subs = workload(net)
        monitor = FaultMonitor(net)
        agent = net.ecmp_agents["t1"]
        held = sum(len(state.downstream) for state in agent.channels.values())
        assert held > 0
        changes = monitor.convergence.changes
        agent.lose_state()
        assert monitor.convergence.changes == changes + held
        assert not agent.channels and not list(agent.fib.channels())
        assert agent.stats.get("state_losses") == 1
        assert_control_plane_at_rest(net)

    def test_blast_radius_counts_only_churned_agents(self, observed_net):
        net = observed_net
        src, ch, subs = workload(net, n_subs=1)
        monitor = FaultMonitor(net)
        monitor.begin()
        # No faults, but one more subscriber joins: churn without any
        # fault is still churn relative to the baseline window.
        joiner = sorted(net.host_names)[-1]
        net.host(joiner).subscribe(ch)
        net.settle()
        report = monitor.report()
        assert report["agents_churned"] >= 1
        assert report["blast_radius"] < 1.0


class TestComposedStorm:
    def test_storm_settles_clean_honest_and_bounded(self, monkeypatch):
        """The chaos gate: every fault kind at once on a keyed,
        UDP-edge ISP network — two seeded transit crash/restart cycles,
        a stub partition and heal, a core latency spike, a window of
        dropped/duplicated/reordered frames on one access link, a
        forged-key join flood and a count-inflation attack. Three
        things may not happen at all (state left behind, a subscriber
        lost, a CountQuery that still believes the attacker), and two
        simulated-time/counter ceilings hold: the soft state stops
        churning within 2 s of the last fault (0.113 s measured, bounded
        by the 1 s refresh interval) and the churn does not reach the
        whole fleet (0.952 measured: on a net this small almost every
        agent neighbours a faulted node, so 0.98 only catches 1.0)."""
        monkeypatch.setattr(EcmpAgent, "UDP_QUERY_INTERVAL", 1.0)
        topo = TopologyBuilder.isp(n_transit=3, stubs_per_transit=2, hosts_per_stub=2)
        obs = Observability()
        obs.bind_simulator(topo.sim)
        net = ExpressNetwork(topo, obs=obs, edge_udp=True)
        net.start()
        net.settle(2.0)

        hosts = sorted(net.host_names)
        edge_of = {name: topo.node(name).neighbors()[0].name for name in hosts}
        # Two sources in different transit regions; the last host never
        # subscribes and plays the forged-key attacker.
        sources = [net.source(hosts[0]), net.source(hosts[-2])]
        attacker = hosts[-1]
        channels = [s.allocate_channel() for s in sources for _ in range(2)]
        keyed = channels[0]
        key = make_key(keyed)
        sources[0].channel_key(keyed, key)
        source_names = {s.name for s in sources}
        subscribers = [n for n in hosts if n != attacker and n not in source_names]
        for j, name in enumerate(subscribers):
            for index, channel in enumerate(channels):
                net.sim.schedule(
                    0.05 * ((j * len(channels) + index) % 37),
                    lambda n=name, c=channel: net.host(n).subscribe(
                        c, key=key if c == keyed else None
                    ),
                )
        net.settle(7.0)

        monitor = FaultMonitor(net)
        monitor.begin()
        start = net.sim.now + 2.0
        # t0 is never a crash victim, so the link faults on t0's links
        # below cannot race a crash of their own endpoint.
        plan = seeded_crash_storm(0, ["t1", "t2"], start, 2, downtime=4.0, spacing=12.0)
        plan.partition(start + 5.0, "t0", edge_of[hosts[0]])
        plan.heal(start + 8.0, "t0", edge_of[hosts[0]])
        plan.latency_spike(start + 6.0, "t0", "t1", factor=10.0, duration=5.0)
        plan.wire_mutate(
            start + 3.0, edge_of[subscribers[0]], subscribers[0],
            duration=8.0, drop=0.05, duplicate=0.2, reorder=0.2,
        )
        plan.join_flood(start + 4.0, attacker, keyed, attempts=150, interval=0.005)
        plan.count_inflate(
            start + 7.0, subscribers[1], channels[-1], count=1_000_000, repeats=3
        )
        injector = FaultInjector(net, plan, monitor=monitor)
        injector.arm()
        # Every window closes before the last restart.
        net.run(until=max(op[0] for op in plan) + 24.0)
        report = monitor.report(injector)

        assert report["faults_fired"] == len(plan)
        assert report["orphaned_state"] == 0
        for channel in channels:
            assert len(net.subscriber_hosts(channel)) == len(subscribers), channel
        totals = []
        sources[-1].count_query(
            channels[-1], 1, timeout=5.0,
            callback=lambda total, partial: totals.append(total),
        )
        net.settle(10.0)
        assert totals == [len(subscribers)]
        assert_control_plane_at_rest(net)
        assert 0.0 < report["convergence_seconds"] <= 2.0
        assert 0.0 < report["blast_radius"] <= 0.98


class TestOrphanDetection:
    def test_settled_network_has_no_orphans(self, observed_net):
        net = observed_net
        workload(net)
        assert FaultMonitor(net).orphaned_state() == 0

    def test_fib_entry_without_channel_state_is_orphan(self, observed_net):
        net = observed_net
        src, ch, subs = workload(net)
        monitor = FaultMonitor(net)
        agent = net.ecmp_agents["t1"]
        # Manufacture the inconsistency a buggy teardown would leave:
        # drop the channel table but keep the FIB entries.
        fib_before = len(list(agent.fib.channels()))
        assert fib_before > 0
        agent.channels.clear()
        assert monitor.orphaned_state() >= fib_before

    def test_unreciprocated_downstream_is_orphan(self, observed_net):
        net = observed_net
        src, ch, subs = workload(net)
        monitor = FaultMonitor(net)
        baseline = monitor.orphaned_state()
        # Wipe a downstream neighbor's whole table without telling its
        # upstream: the upstream's record now points at nothing.
        victim = None
        for name, agent in net.ecmp_agents.items():
            state = agent.channels.get(ch)
            if state is not None and state.upstream in net.ecmp_agents:
                victim = name
                break
        assert victim is not None
        net.ecmp_agents[victim].channels.clear()
        assert monitor.orphaned_state() > baseline


class TestAtRestCheck:
    """``tests.conftest.assert_control_plane_at_rest`` is itself held to
    what it promises: quiet on a settled network, and naming the row a
    manufactured leftover breaks."""

    def test_a_settled_network_is_at_rest(self, observed_net):
        workload(observed_net)
        assert_control_plane_at_rest(observed_net)

    def test_a_record_holding_a_zero_count_is_named(self, observed_net):
        net = observed_net
        _, ch, _ = workload(net)
        agent = next(
            a for a in net.ecmp_agents.values()
            if ch in a.channels and a.channels[ch].downstream
        )
        record = next(iter(agent.channels[ch].downstream.values()))
        record.count = 0
        with pytest.raises(AssertionError, match="records holding a count <= 0"):
            assert_control_plane_at_rest(net)
