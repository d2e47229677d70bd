"""FaultInjector against live networks: node, link, and adversarial
faults flow through the real protocol, and an empty plan arms nothing."""

import pytest

from repro import ExpressNetwork, TopologyBuilder
from repro.core.keys import make_key
from repro.errors import FaultError
from repro.faults import FaultInjector, FaultMonitor, FaultPlan, WireMutator
from tests.conftest import make_channel


@pytest.fixture
def isp_net():
    topo = TopologyBuilder.isp(n_transit=3, stubs_per_transit=2, hosts_per_stub=1)
    net = ExpressNetwork(topo)
    net.run(until=0.01)
    return net


def subscribed(net, n_subs=3):
    """One channel, ``n_subs`` subscribers on distinct stubs."""
    hosts = sorted(net.host_names)
    src, ch = make_channel(net, hosts[0])
    subs = hosts[1 : 1 + n_subs]
    for name in subs:
        net.host(name).subscribe(ch)
    net.settle()
    return src, ch, subs


class TestArming:
    def test_empty_plan_schedules_no_events(self, isp_net):
        net = isp_net
        before = net.sim.pending()
        FaultInjector(net, FaultPlan()).arm()
        assert net.sim.pending() == before

    def test_double_arm_rejected(self, isp_net):
        injector = FaultInjector(isp_net, FaultPlan())
        injector.arm()
        with pytest.raises(FaultError, match="already armed"):
            injector.arm()

    def test_past_event_rejected(self, isp_net):
        net = isp_net
        net.run(until=5.0)
        plan = FaultPlan().crash(1.0, "t0")
        with pytest.raises(FaultError, match="in the past"):
            FaultInjector(net, plan).arm()

    def test_invalid_plan_rejected_at_arm(self, isp_net):
        plan = FaultPlan().restart(5.0, "t0")
        with pytest.raises(FaultError, match="no prior crash"):
            FaultInjector(isp_net, plan).arm()

    def test_refused_plan_leaves_the_injector_armable(self, isp_net):
        net = isp_net
        before = net.sim.pending()
        plan = FaultPlan().restart(1.0, "t0")
        injector = FaultInjector(net, plan)
        with pytest.raises(FaultError, match="no prior crash"):
            injector.arm()
        assert not injector.armed
        assert net.sim.pending() == before
        plan.crash(0.5, "t0")
        injector.arm()
        net.run(until=2.0)
        assert [row[1:] for row in injector.fired] == [("crash", "t0"), ("restart", "t0")]

    def test_past_plan_schedules_nothing_and_stays_armable(self, isp_net):
        net = isp_net
        net.run(until=5.0)
        before = net.sim.pending()
        plan = (
            FaultPlan()
            .partition(6.0, "t0", "t1")
            .heal(7.0, "t0", "t1")
            .crash_restart(2.0, "t2", 6.0)
        )
        injector = FaultInjector(net, plan)
        with pytest.raises(FaultError, match="in the past"):
            injector.arm()
        # Not even the ops still ahead of the clock were scheduled.
        assert net.sim.pending() == before
        assert not injector.armed
        injector.plan = FaultPlan().partition(6.0, "t0", "t1").heal(7.0, "t0", "t1")
        injector.arm()
        net.run(until=8.0)
        assert [row[1] for row in injector.fired] == ["partition", "heal"]

    def test_unknown_target_surfaces_at_fire(self, isp_net):
        net = isp_net
        plan = FaultPlan().crash(1.0, "nonexistent")
        FaultInjector(net, plan).arm()
        with pytest.raises(FaultError, match="unknown crash target"):
            net.run(until=2.0)


class TestCrashRestart:
    def test_crash_wipes_state_and_downs_links(self, isp_net):
        net = isp_net
        src, ch, subs = subscribed(net)
        agent = net.ecmp_agents["t1"]
        now = net.sim.now
        injector = FaultInjector(net, FaultPlan().crash(now + 1.0, "t1"))
        injector.arm()
        net.run(until=now + 1.5)
        assert not agent.channels
        assert not agent.subscriptions
        assert agent.stats.get("state_losses") == 1
        assert all(not link.up for link in injector._downed["t1"])
        assert injector.fired and injector.fired[0][1] == "crash"

    def test_restart_resyncs_through_protocol(self, isp_net):
        net = isp_net
        hosts = sorted(net.host_names)
        src, ch = make_channel(net, hosts[0])
        subs = hosts[1:4]
        got = {name: 0 for name in subs}
        for name in subs:
            net.host(name).subscribe(
                ch,
                on_data=lambda _d, name=name: got.__setitem__(
                    name, got[name] + 1
                ),
            )
        net.settle()
        now = net.sim.now
        plan = FaultPlan().crash_restart(now + 1.0, "t1", downtime=3.0)
        injector = FaultInjector(net, plan)
        injector.arm()
        net.run(until=now + 40.0)
        # Every subscriber is back on the tree and data flows end to end.
        assert set(net.subscriber_hosts(ch)) == set(subs)
        src.send(ch)
        net.settle()
        assert all(count == 1 for count in got.values()), got
        # The resync actually cost bytes on the wire.
        totals = net.control_stats_total()
        assert totals.get("resync_events", 0) > 0

    def test_crash_composed_with_partition_does_not_heal_it(self, isp_net):
        net = isp_net
        now = net.sim.now
        plan = (
            FaultPlan()
            .partition(now + 0.5, "t0", "t1")
            .crash_restart(now + 1.0, "t1", downtime=2.0)
            .heal(now + 10.0, "t0", "t1")
        )
        FaultInjector(net, plan).arm()
        net.run(until=now + 5.0)
        # Restart fired, but the independently partitioned link stays
        # down until its own heal event.
        assert not net.topo.link_between("t0", "t1").up
        net.run(until=now + 11.0)
        assert net.topo.link_between("t0", "t1").up

    def test_partition_during_a_crash_outlasts_the_restart(self, isp_net):
        net = isp_net
        now = net.sim.now
        plan = (
            FaultPlan()
            .crash(now + 1.0, "t1")
            .partition(now + 2.0, "t0", "t1")
            .restart(now + 3.0, "t1")
            .heal(now + 10.0, "t0", "t1")
        )
        FaultInjector(net, plan).arm()
        net.run(until=now + 5.0)
        # The crash downed the link first, but the partition issued
        # during the crash holds it down past the restart.
        assert not net.topo.link_between("t0", "t1").up
        net.run(until=now + 11.0)
        assert net.topo.link_between("t0", "t1").up

    def test_heal_during_a_crash_waits_for_the_restart(self, isp_net):
        net = isp_net
        now = net.sim.now
        plan = (
            FaultPlan()
            .partition(now + 0.5, "t0", "t1")
            .crash(now + 1.0, "t1")
            .heal(now + 2.0, "t0", "t1")
            .restart(now + 3.0, "t1")
        )
        FaultInjector(net, plan).arm()
        net.run(until=now + 2.5)
        # Healed, but one end is still crashed: the link stays down ...
        assert not net.topo.link_between("t0", "t1").up
        net.run(until=now + 3.5)
        # ... and the restart raises it.
        assert net.topo.link_between("t0", "t1").up

    def test_a_link_between_two_crashed_routers_waits_for_both(self, isp_net):
        net = isp_net
        now = net.sim.now
        plan = (
            FaultPlan()
            .crash(now + 1.0, "t0")
            .crash(now + 1.5, "t1")
            .restart(now + 2.0, "t0")
            .restart(now + 4.0, "t1")
        )
        FaultInjector(net, plan).arm()
        net.run(until=now + 3.0)
        shared = net.topo.link_between("t0", "t1")
        assert not shared.up
        assert all(
            iface.link.up
            for iface in net.topo.node("t0").interfaces
            if iface.link is not None and iface.link is not shared
        )
        net.run(until=now + 4.5)
        assert shared.up


    def test_block_survives_crash_restart(self):
        net = ExpressNetwork(TopologyBuilder.isp(2, 2, 2, seed=11))
        net.run(until=0.01)
        src, ch = make_channel(net, sorted(net.host_names)[0])
        block = net.subscriber_block("e1_1")
        assert block.join(ch, 10) == 10
        net.settle()
        now = net.sim.now
        FaultInjector(net, FaultPlan().crash_restart(now + 1.0, "e1_1", 3.0)).arm()
        net.run(until=now + 40.0)
        net.settle()
        # The crash zeroed the block's counts but kept it attached.
        assert block.members == {}
        assert net.ecmp_agents["e1_1"].blocks == {block.pseudo: block}
        assert block.join(ch, 10) == 10
        net.settle()
        before = block.deliveries
        src.send(ch)
        net.settle()
        assert block.deliveries - before == 10

    def test_udp_block_refreshes_again_after_restart(self):
        net = ExpressNetwork(TopologyBuilder.isp(2, 2, 2, seed=11))
        net.run(until=0.01)
        _, ch = make_channel(net, sorted(net.host_names)[0])
        block = net.subscriber_block("e1_1", udp=True)
        now = net.sim.now
        FaultInjector(net, FaultPlan().crash_restart(now + 1.0, "e1_1", 2.0)).arm()
        net.run(until=now + 4.0)
        assert block.join(ch, 10) == 10
        # Past several expiry sweeps: only the block's own refresh
        # timer, stopped by the crash, keeps its record alive.
        agent = net.ecmp_agents["e1_1"]
        net.run(until=net.sim.now + 2 * agent.UDP_ROBUSTNESS * agent.UDP_QUERY_INTERVAL)
        assert agent.channels[ch].downstream[block.pseudo].count == 10
        assert block.count(ch) == 10


class TestLinkFaults:
    def test_partition_and_heal(self, isp_net):
        net = isp_net
        now = net.sim.now
        link = net.topo.link_between("t0", "t1")
        plan = FaultPlan().partition(now + 1.0, "t0", "t1").heal(now + 2.0, "t0", "t1")
        FaultInjector(net, plan).arm()
        net.run(until=now + 1.5)
        assert not link.up
        net.run(until=now + 2.5)
        assert link.up

    def test_unlinked_pair_rejected(self, isp_net):
        net = isp_net
        # Both hosts exist, but no direct link joins them.
        hosts = sorted(net.host_names)
        plan = FaultPlan().partition(net.sim.now + 1.0, hosts[0], hosts[-1])
        FaultInjector(net, plan).arm()
        with pytest.raises(FaultError, match="no link between"):
            net.run(until=net.sim.now + 2.0)

    def test_latency_spike_restores_after_duration(self, isp_net):
        net = isp_net
        now = net.sim.now
        link = net.topo.link_between("t0", "t1")
        original = link.delay
        plan = FaultPlan().latency_spike(now + 1.0, "t0", "t1", factor=10.0, duration=2.0)
        FaultInjector(net, plan).arm()
        net.run(until=now + 1.5)
        assert link.delay == pytest.approx(original * 10.0)
        net.run(until=now + 3.5)
        assert link.delay == pytest.approx(original)

    def test_overlapping_latency_spikes_refused_before_they_run(self):
        # Two overlapping spikes on one link: the second would save the
        # first's spiked delay as the link's own and restore it for good.
        net = ExpressNetwork(TopologyBuilder.line(3))
        link = net.topo.link_between("n0", "n1")
        assert link.delay == 0.001
        plan = (
            FaultPlan()
            .latency_spike(1.0, "n0", "n1", factor=2.0, duration=5.0)
            .latency_spike(3.0, "n0", "n1", factor=3.0, duration=5.0)
        )
        before = net.sim.pending()
        with pytest.raises(FaultError, match="overlaps"):
            FaultInjector(net, plan).arm()
        assert net.sim.pending() == before
        net.run(until=10.0)
        assert link.delay == 0.001

    def test_back_to_back_latency_spikes_restore_the_base_delay(self):
        net = ExpressNetwork(TopologyBuilder.line(3))
        link = net.topo.link_between("n0", "n1")
        plan = (
            FaultPlan()
            .latency_spike(1.0, "n0", "n1", factor=2.0, duration=2.0)
            .latency_spike(3.5, "n1", "n0", factor=3.0, duration=2.0)
        )
        FaultInjector(net, plan).arm()
        net.run(until=4.0)
        assert link.delay == pytest.approx(0.003)
        net.run(until=10.0)
        assert link.delay == 0.001

    def test_overlapping_wire_mutations_refused_before_they_run(self):
        # At the second window's start the link would still carry the
        # first window's mutator, and the install would raise mid-run.
        net = ExpressNetwork(TopologyBuilder.line(3))
        plan = (
            FaultPlan()
            .wire_mutate(1.0, "n0", "n1", duration=5.0)
            .wire_mutate(3.0, "n0", "n1", duration=5.0)
        )
        with pytest.raises(FaultError, match="overlaps"):
            FaultInjector(net, plan).arm()
        net.run(until=10.0)
        assert net.topo.link_between("n0", "n1").mutator is None

    def test_wire_mutator_installs_mutates_and_removes(self, isp_net):
        net = isp_net
        src, ch, subs = subscribed(net)
        now = net.sim.now
        plan = FaultPlan().wire_mutate(
            now + 0.5, "t0", "t1", duration=5.0, duplicate=1.0
        )
        injector = FaultInjector(net, plan)
        injector.arm()
        link = net.topo.link_between("t0", "t1")
        net.run(until=now + 1.0)
        assert link.mutator is injector.mutators[0]
        # Drive control traffic across the mutated window: every leave
        # lands before any rejoin (a leave and a join made in one instant
        # now travel together, and the tree above the first shared
        # router would never notice), and the rejoins present the key
        # the source has installed since — a keyless join is answered
        # only if refused — so the zero, the join and its verdict all
        # cross the mutated link.
        key = make_key(ch)
        src.channel_key(ch, key)
        for name in subs:
            net.host(name).unsubscribe(ch)
        net.run(until=now + 1.5)
        for name in subs:
            net.host(name).subscribe(ch, key=key)
        net.run(until=now + 6.0)
        assert link.mutator is None  # removed after the window
        stats = injector.mutation_stats()
        # Four crossings, each duplicated: the zero, the keyed join, and
        # t0's OK to each copy of that join (a Count that carries a
        # request id is answered; the second answer changes nothing).
        assert stats["duplicated"] >= 3
        assert stats["duplicated"] == 4
        assert stats["dropped"] == 0
        # Duplicated soft-state messages are idempotent: counts settle
        # to the truth regardless.
        net.settle()
        total = []
        src.count_query(ch, callback=lambda tot, partial: total.append(tot))
        net.settle()
        assert total and total[0] == len(subs)


class TestAdversarialLoad:
    def test_join_flood_is_denied_and_state_clean(self, isp_net):
        net = isp_net
        hosts = sorted(net.host_names)
        src, ch = make_channel(net, hosts[0])
        key = make_key(ch)
        src.channel_key(ch, key)
        net.host(hosts[1]).subscribe(ch, key=key)
        net.settle()
        attacker = hosts[-1]
        now = net.sim.now
        plan = FaultPlan(seed=5).join_flood(
            now + 0.5, attacker, ch, attempts=40, interval=0.01
        )
        injector = FaultInjector(net, plan)
        injector.arm()
        net.run(until=now + 5.0)
        net.settle()
        assert injector.attack_stats["join_attempts"] == 40
        totals = net.control_stats_total()
        assert totals.get("denied_subscriptions", 0) > 0
        # The forged joins never stick: only the honest subscriber.
        assert set(net.subscriber_hosts(ch)) == {hosts[1]}

    def test_count_inflate_is_corrected_by_refresh(self, isp_net):
        net = isp_net
        src, ch, subs = subscribed(net, n_subs=2)
        attacker = subs[0]
        now = net.sim.now
        plan = FaultPlan().count_inflate(
            now + 0.5, attacker, ch, count=500_000, repeats=2, interval=0.1
        )
        injector = FaultInjector(net, plan)
        injector.arm()
        net.run(until=now + 2.0)
        assert injector.attack_stats["inflated_counts"] == 2
        # The inflated number may transiently propagate; a count query
        # forces fresh upstream reports and lands on the truth.
        net.settle(10.0)
        totals = []
        src.count_query(ch, callback=lambda tot, partial: totals.append(tot))
        net.settle()
        assert totals and totals[0] == len(subs)


class TestWireMutatorUnit:
    def test_install_conflict_rejected(self, isp_net):
        import random

        link = isp_net.topo.link_between("t0", "t1")
        first = WireMutator(random.Random(0), drop=0.1)
        second = WireMutator(random.Random(1), drop=0.1)
        first.install(link)
        try:
            with pytest.raises(FaultError, match="already has"):
                second.install(link)
            # remove() of the non-installed mutator is a no-op.
            second.remove(link)
            assert link.mutator is first
        finally:
            first.remove(link)
        assert link.mutator is None

    def test_probability_validation(self):
        import random

        with pytest.raises(FaultError):
            WireMutator(random.Random(0), drop=-0.1)
        with pytest.raises(FaultError):
            WireMutator(random.Random(0), reorder_delay=-1.0)

    def test_zero_probability_mutator_passes_everything(self, isp_net):
        net = isp_net
        src, ch, subs = subscribed(net)
        import random

        link = net.topo.link_between("t0", "t1")
        mutator = WireMutator(random.Random(0))
        mutator.install(link)
        try:
            net.host(subs[0]).unsubscribe(ch)
            net.settle()
        finally:
            mutator.remove(link)
        assert mutator.mutations_total() == 0
