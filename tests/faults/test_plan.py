"""FaultPlan: builders, validation, and the seeded-determinism contract."""

import pytest

from repro.errors import FaultError
from repro.faults import KINDS, LINK_KINDS, FaultPlan, seeded_crash_storm
from repro.faults.plan import WINDOW_DURATION, target_of


class TestOps:
    def test_every_builder_appends_one_op_tuple(self):
        plan = (
            FaultPlan()
            .crash(1.0, "t0")
            .restart(2.0, "t0")
            .partition(3.0, "a", "b")
            .heal(4.0, "a", "b")
            .latency_spike(5.0, "a", "b", factor=2.0, duration=1.5)
            .wire_mutate(6.0, "a", "b", duration=2.0, drop=0.1)
            .join_flood(7.0, "h", "ch", attempts=3, interval=0.5)
            .count_inflate(8.0, "h", "ch", count=9, repeats=2, interval=0.25)
        )
        assert plan.ops == [
            (1.0, "crash", "t0"),
            (2.0, "restart", "t0"),
            (3.0, "partition", "a", "b"),
            (4.0, "heal", "a", "b"),
            (5.0, "latency_spike", "a", "b", 2.0, 1.5),
            (6.0, "wire_mutate", "a", "b", 2.0, 0.1, 0.0, 0.0, 0.005),
            (7.0, "join_flood", "h", "ch", 3, 0.5),
            (8.0, "count_inflate", "h", "ch", 9, 2, 0.25),
        ]
        assert [op[1] for op in plan] == list(KINDS)

    def test_unknown_kind_rejected(self):
        # The builders make only known kinds; an op appended by hand is
        # caught before anything is scheduled.
        plan = FaultPlan()
        plan.ops.append((1.0, "meteor_strike", "t0"))
        with pytest.raises(FaultError, match="unknown fault kind"):
            plan.validate()

    def test_negative_time_and_duration_rejected(self):
        with pytest.raises(FaultError, match="fault time"):
            FaultPlan().crash(-1.0, "t0")
        with pytest.raises(FaultError, match="fault time"):
            FaultPlan().partition(-1.0, "a", "b")
        with pytest.raises(FaultError, match="duration"):
            FaultPlan().latency_spike(1.0, "a", "b", factor=2.0, duration=-0.5)
        with pytest.raises(FaultError, match="duration"):
            FaultPlan().wire_mutate(1.0, "a", "b", duration=-0.5)
        # A flood's length is repeats * interval: it cannot run backwards.
        with pytest.raises(FaultError, match="interval"):
            FaultPlan().count_inflate(1.0, "h", object(), interval=-0.1)

    def test_target_names_the_node_or_the_link(self):
        plan = FaultPlan().partition(1.0, "a", "b").crash(2.0, "t0")
        assert [target_of(op) for op in plan] == ["a|b", "t0"]

    def test_link_builders_reject_a_missing_endpoint(self):
        for a, b in (("a", ""), ("", "b"), ("", "")):
            with pytest.raises(FaultError, match="two endpoints"):
                FaultPlan().partition(1.0, a, b)

    def test_kind_tables_are_consistent(self):
        assert set(LINK_KINDS) < set(KINDS)
        assert set(WINDOW_DURATION) < set(LINK_KINDS)


class TestBuilders:
    def test_fluent_chaining_and_order(self):
        plan = (
            FaultPlan(seed=3)
            .crash(5.0, "t1")
            .restart(8.0, "t1")
            .partition(6.0, "a", "b")
            .heal(7.0, "a", "b")
        )
        assert len(plan) == 4
        assert [op[1] for op in plan] == ["crash", "restart", "partition", "heal"]
        # Firing order sorts by time, stably.
        assert [op[1] for _, op in plan.sorted_ops()] == [
            "crash", "partition", "heal", "restart",
        ]

    def test_same_timestamp_keeps_insertion_order(self):
        plan = FaultPlan().crash(5.0, "a").partition(5.0, "x", "y").restart(5.0, "a")
        assert [op[1] for _, op in plan.sorted_ops()] == [
            "crash", "partition", "restart",
        ]
        # A same-instant crash/restart still validates: the crash was
        # inserted first, so it fires first.
        plan.heal(5.0, "x", "y")
        plan.validate()

    def test_crash_restart_convenience(self):
        plan = FaultPlan().crash_restart(10.0, "t2", downtime=4.0)
        assert list(plan) == [(10.0, "crash", "t2"), (14.0, "restart", "t2")]
        with pytest.raises(FaultError, match="downtime"):
            FaultPlan().crash_restart(10.0, "t2", downtime=0.0)

    def test_builder_argument_validation(self):
        with pytest.raises(FaultError, match="factor"):
            FaultPlan().latency_spike(1.0, "a", "b", factor=0.0, duration=1.0)
        with pytest.raises(FaultError, match="probability"):
            FaultPlan().wire_mutate(1.0, "a", "b", duration=1.0, drop=1.5)
        with pytest.raises(FaultError, match="reorder_delay"):
            FaultPlan().wire_mutate(1.0, "a", "b", duration=1.0, reorder_delay=-1.0)
        with pytest.raises(FaultError, match="attempts"):
            FaultPlan().join_flood(1.0, "h", object(), attempts=0)
        with pytest.raises(FaultError, match="interval"):
            FaultPlan().join_flood(1.0, "h", object(), interval=0.0)
        with pytest.raises(FaultError, match="count"):
            FaultPlan().count_inflate(1.0, "h", object(), count=-1)
        with pytest.raises(FaultError, match="repeats"):
            FaultPlan().count_inflate(1.0, "h", object(), repeats=0)

    def test_empty_plan(self):
        plan = FaultPlan()
        assert len(plan) == 0
        assert list(plan) == []
        plan.validate()


class TestValidation:
    def test_restart_without_crash_rejected(self):
        with pytest.raises(FaultError, match="no prior crash"):
            FaultPlan().restart(5.0, "t0").validate()

    def test_double_crash_rejected(self):
        plan = FaultPlan().crash(5.0, "t0").crash(9.0, "t0")
        with pytest.raises(FaultError, match="crashed twice"):
            plan.validate()

    def test_crash_of_distinct_nodes_ok(self):
        FaultPlan().crash(5.0, "t0").crash(6.0, "t1").validate()

    def test_heal_without_partition_rejected(self):
        with pytest.raises(FaultError, match="no prior partition"):
            FaultPlan().heal(5.0, "a", "b").validate()

    def test_double_partition_rejected(self):
        plan = FaultPlan().partition(5.0, "a", "b").partition(6.0, "b", "a")
        with pytest.raises(FaultError, match="partitioned twice"):
            plan.validate()

    def test_heal_matches_reversed_endpoints(self):
        FaultPlan().partition(5.0, "a", "b").heal(6.0, "b", "a").validate()

    @pytest.mark.parametrize("kind", sorted(WINDOW_DURATION))
    def test_overlapping_windows_on_one_link_rejected(self, kind):
        def window(plan, at, a="a", b="b"):
            if kind == "latency_spike":
                return plan.latency_spike(at, a, b, factor=2.0, duration=5.0)
            return plan.wire_mutate(at, a, b, duration=5.0, drop=0.1)

        with pytest.raises(FaultError, match="overlaps"):
            window(window(FaultPlan(), 1.0), 3.0).validate()
        # Reversed endpoints name the same link.
        with pytest.raises(FaultError, match="overlaps"):
            window(window(FaultPlan(), 1.0), 3.0, "b", "a").validate()
        # Touching windows overlap: the first window's restore would
        # run after the second window began.
        with pytest.raises(FaultError, match="overlaps"):
            window(window(FaultPlan(), 1.0), 6.0).validate()
        # Builder order does not matter, only time.
        with pytest.raises(FaultError, match="overlaps"):
            window(window(FaultPlan(), 3.0), 1.0).validate()
        window(window(FaultPlan(), 1.0), 6.5).validate()
        window(window(FaultPlan(), 1.0), 3.0, "a", "c").validate()

    def test_a_spike_and_a_mutation_window_may_overlap_on_one_link(self):
        (
            FaultPlan()
            .latency_spike(1.0, "a", "b", factor=2.0, duration=5.0)
            .wire_mutate(2.0, "a", "b", duration=5.0, drop=0.1)
            .partition(3.0, "a", "b")
            .heal(4.0, "a", "b")
            .validate()
        )


class TestSeeding:
    def test_rng_is_per_op_and_deterministic(self):
        plan = FaultPlan(seed=42).wire_mutate(1.0, "a", "b", duration=2.0, drop=0.5)
        plan.wire_mutate(3.0, "a", "b", duration=2.0, drop=0.5)
        pairs = plan.sorted_ops()
        draws = [plan.rng_for(i).random() for i, _ in pairs]
        # Distinct ops draw distinct streams...
        assert draws[0] != draws[1]
        # ...and the same plan replays the same streams.
        again = [plan.rng_for(i).random() for i, _ in pairs]
        assert draws == again

    def test_seed_changes_streams(self):
        a = FaultPlan(seed=1).crash(1.0, "t0")
        b = FaultPlan(seed=2).crash(1.0, "t0")
        assert a.rng_for(0).random() != b.rng_for(0).random()

    def test_streams_match_the_reference_draws(self):
        # The first draw of each op's stream, as the plan drew it when
        # a link op's target was stored as an "a|b" string: a link op, a
        # node op and an attacker op keep their seeds.
        plan = (
            FaultPlan(seed=42)
            .wire_mutate(1.0, "t0", "t1", duration=2.0, drop=0.5)
            .crash(2.0, "t2")
            .join_flood(3.0, "h", "ch", attempts=5, interval=0.1)
        )
        assert [plan.rng_for(i).random() for i in range(3)] == [
            0.9573445957792922,
            0.05391100822002981,
            0.6672252115381957,
        ]


class TestSeededCrashStorm:
    def test_is_deterministic_and_valid(self):
        routers = ["t0", "t1", "t2"]
        a = seeded_crash_storm(7, routers, start=100.0, crashes=5)
        b = seeded_crash_storm(7, routers, start=100.0, crashes=5)
        assert list(a) == list(b)
        assert len(a) == 10  # crash + restart per cycle
        a.validate()
        assert {op[2] for op in a} <= set(routers)

    def test_different_seeds_differ(self):
        routers = ["t0", "t1", "t2", "t3"]
        a = seeded_crash_storm(1, routers, start=0.0, crashes=6)
        b = seeded_crash_storm(2, routers, start=0.0, crashes=6)
        assert list(a) != list(b)

    def test_rejects_overlapping_cycles_and_empty_pool(self):
        with pytest.raises(FaultError, match="spacing"):
            seeded_crash_storm(0, ["t0"], start=0.0, crashes=2,
                               downtime=10.0, spacing=10.0)
        with pytest.raises(FaultError, match="at least one"):
            seeded_crash_storm(0, [], start=0.0, crashes=1)
