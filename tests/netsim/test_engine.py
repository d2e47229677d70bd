"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.netsim.engine import PeriodicTask, Simulator
from tests.conftest import calendar_entries
from tests.oracles import scheduler as oracle


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_run_in_schedule_order(self):
        sim = Simulator()
        order = []
        for tag in "abcde":
            sim.schedule(1.0, lambda t=tag: order.append(t))
        sim.run()
        assert order == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]
        assert sim.now == 1.5

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: sim.schedule_at(5.0, lambda: None))
        sim.run()
        assert sim.now == 5.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_nested_scheduling_from_event(self):
        sim = Simulator()
        hits = []
        def outer():
            hits.append("outer")
            sim.schedule(1.0, lambda: hits.append("inner"))
        sim.schedule(1.0, outer)
        sim.run()
        assert hits == ["outer", "inner"]
        assert sim.now == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        hits = []
        event = sim.schedule(1.0, lambda: hits.append(1))
        event.cancel()
        sim.run()
        assert hits == []

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending() == 2
        event.cancel()
        assert sim.pending() == 1

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        first.cancel()
        assert sim.peek_time() == 2.0


class TestRunBounds:
    def test_until_is_inclusive_and_advances_clock(self):
        sim = Simulator()
        hits = []
        sim.schedule(1.0, lambda: hits.append(1))
        sim.schedule(5.0, lambda: hits.append(5))
        sim.run(until=3.0)
        assert hits == [1]
        assert sim.now == 3.0
        sim.run()
        assert hits == [1, 5]

    def test_event_exactly_at_until_runs(self):
        sim = Simulator()
        hits = []
        sim.schedule(3.0, lambda: hits.append(1))
        sim.run(until=3.0)
        assert hits == [1]

    def test_max_events(self):
        sim = Simulator()
        hits = []
        for i in range(10):
            sim.schedule(float(i + 1), lambda i=i: hits.append(i))
        ran = sim.run(max_events=4)
        assert ran == 4
        assert hits == [0, 1, 2, 3]

    def test_run_returns_event_count(self):
        sim = Simulator()
        for i in range(3):
            sim.schedule(1.0, lambda: None)
        assert sim.run() == 3

    def test_max_events_inside_until_leaves_the_clock_on_the_last_event(self):
        # run(until=T, max_events=N) used to set now = T even when the
        # cap stopped it with events before T still queued: the next
        # run then moved the clock backwards, and scheduling between
        # the real time and T was refused as "in the past".
        sim = Simulator()
        seen = []
        for when in (1.0, 2.0, 3.0, 4.0):
            sim.schedule_at(when, lambda: seen.append(sim.now))
        assert sim.run(until=10.0, max_events=2) == 2
        assert sim.now == 2.0 and sim.pending() == 2
        sim.schedule_at(2.5, lambda: seen.append(sim.now))
        assert sim.run(until=10.0, max_events=2) == 2
        assert seen == [1.0, 2.0, 2.5, 3.0] and sim.now == 3.0
        # The cap reached exactly as the window empties: nothing due is
        # left behind, so the clock does reach ``until``.
        assert sim.run(until=10.0, max_events=1) == 1
        assert seen[-1] == 4.0 and sim.now == 10.0
        # An event at ``until`` itself is due only to an inclusive run.
        for when in (11.0, 12.0, 12.5, 13.0):
            sim.schedule_at(when, lambda: None)
        assert sim.run(until=12.0, max_events=1) == 1
        assert sim.now == 11.0 and sim.pending() == 3
        assert sim.run(until=12.0, max_events=1) == 1
        assert sim.now == 12.0 and sim.pending() == 2
        assert sim.run(until=13.0, max_events=1, inclusive=False) == 1
        assert sim.now == 13.0 and sim.pending() == 1

    def test_not_reentrant(self):
        sim = Simulator()
        caught = []
        def recurse():
            try:
                sim.run()
            except SimulationError:
                caught.append(True)
        sim.schedule(1.0, recurse)
        sim.run()
        assert caught == [True]


class TestDeterminism:
    def test_rng_is_seeded(self):
        a = Simulator(seed=42).rng.random()
        b = Simulator(seed=42).rng.random()
        c = Simulator(seed=43).rng.random()
        assert a == b
        assert a != c


class TestPeriodicTask:
    def test_fires_repeatedly(self):
        sim = Simulator()
        hits = []
        task = PeriodicTask(sim, 1.0, lambda: hits.append(sim.now))
        task.start()
        sim.run(until=3.5)
        assert hits == [1.0, 2.0, 3.0]

    def test_stop_halts_firing(self):
        sim = Simulator()
        hits = []
        task = PeriodicTask(sim, 1.0, lambda: hits.append(sim.now))
        task.start()
        sim.schedule(2.5, task.stop)
        sim.run(until=10.0)
        assert hits == [1.0, 2.0]

    def test_double_start_is_idempotent(self):
        sim = Simulator()
        hits = []
        task = PeriodicTask(sim, 1.0, lambda: hits.append(1))
        task.start()
        task.start()
        sim.run(until=1.0)
        assert hits == [1]

    def test_stop_from_within_action(self):
        sim = Simulator()
        hits = []
        task = PeriodicTask(sim, 1.0, lambda: (hits.append(1), task.stop()))
        task.start()
        sim.run(until=5.0)
        assert hits == [1]

    def test_invalid_interval_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            PeriodicTask(sim, 0.0, lambda: None)

    def test_jitter_stays_positive_and_deterministic(self):
        sim = Simulator(seed=7)
        hits = []
        task = PeriodicTask(sim, 1.0, lambda: hits.append(sim.now), jitter=0.5)
        task.start()
        sim.run(until=10.0)
        assert all(t > 0 for t in hits)
        sim2 = Simulator(seed=7)
        hits2 = []
        task2 = PeriodicTask(sim2, 1.0, lambda: hits2.append(sim2.now), jitter=0.5)
        task2.start()
        sim2.run(until=10.0)
        assert hits == hits2


class TestHeapCompaction:
    """The compaction contract, first written for the heap scheduler
    and held by the calendar: ``calendar_entries(sim)`` counts the entries
    physically held, cancelled ones included."""

    def test_mass_cancellation_compacts_the_heap(self):
        sim = Simulator()
        events = [sim.schedule(10.0 + i, lambda: None) for i in range(200)]
        for event in events[:150]:
            event.cancel()
        # Once cancelled events outnumbered live ones the calendar was
        # rebuilt; at most a sub-majority of cancelled entries remain
        # (compaction is amortized, not eager).
        assert calendar_entries(sim) < 2 * 50
        assert sim.pending() == 50
        assert sim.run() == 50
        assert calendar_entries(sim) == 0

    def test_pending_is_exact_through_churn(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        events = [sim.schedule(1.0 + i * 0.001, lambda: None) for i in range(100)]
        for event in events:
            event.cancel()
        assert sim.pending() == 1
        assert sim.run() == 1
        assert sim.pending() == 0

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.pending() == 1
        assert sim.run() == 1

    def test_cancel_after_fire_is_harmless(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        event.cancel()
        assert sim.pending() == 0

    def test_cancel_after_lazy_pop_is_harmless(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        assert sim.peek_time() is None  # lazily dropped from the queue
        event.cancel()
        assert sim.pending() == 0

    def test_compaction_preserves_dispatch_order(self):
        sim = Simulator(seed=3)
        fired = []
        events = []
        for i in range(300):
            events.append(
                sim.schedule(1.0 + i * 0.01, lambda i=i: fired.append(i))
            )
        survivors = [i for i in range(300) if i % 3 == 0]
        for i in range(300):
            if i % 3:
                events[i].cancel()
        sim.run()
        assert fired == survivors

    def test_small_queues_skip_compaction(self):
        sim = Simulator()
        events = [sim.schedule(1.0 + i, lambda: None) for i in range(10)]
        for event in events[:9]:
            event.cancel()
        # Below the size floor the cancelled entries stay (they drain
        # lazily), but pending() is still exact.
        assert calendar_entries(sim) == 10
        assert sim.pending() == 1


class TestDispatchListeners:
    def test_listener_sees_every_event(self):
        sim = Simulator()
        seen = []
        sim.add_dispatch_listener(
            lambda s, event, wall: seen.append((event.name, wall))
        )
        sim.schedule(1.0, lambda: None, name="a")
        sim.schedule(2.0, lambda: None, name="b")
        sim.run()
        assert [name for name, _ in seen] == ["a", "b"]
        assert all(wall >= 0.0 for _, wall in seen)

    def test_remove_listener(self):
        sim = Simulator()
        seen = []
        listener = lambda s, event, wall: seen.append(event.name)
        sim.add_dispatch_listener(listener)
        sim.schedule(1.0, lambda: None)
        sim.run()
        sim.remove_dispatch_listener(listener)
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert len(seen) == 1


class TestPeriodicJitterBounds:
    def test_intervals_stay_within_jitter_band(self):
        sim = Simulator(seed=11)
        hits = []
        task = PeriodicTask(sim, 10.0, lambda: hits.append(sim.now), jitter=2.0)
        task.start()
        sim.run(until=500.0)
        assert len(hits) >= 40
        gaps = [b - a for a, b in zip(hits, hits[1:])]
        assert all(8.0 - 1e-9 <= gap <= 12.0 + 1e-9 for gap in gaps)
        # First firing obeys the same band.
        assert 8.0 - 1e-9 <= hits[0] <= 12.0 + 1e-9

    def test_zero_jitter_is_exact(self):
        sim = Simulator(seed=5)
        hits = []
        PeriodicTask(sim, 2.5, lambda: hits.append(sim.now)).start()
        sim.run(until=10.0)
        assert hits == [2.5, 5.0, 7.5, 10.0]

    def test_jitter_larger_than_interval_never_goes_nonpositive(self):
        sim = Simulator(seed=13)
        hits = []
        task = PeriodicTask(sim, 0.01, lambda: hits.append(sim.now), jitter=5.0)
        task.start()
        sim.run(until=20.0)
        assert hits, "task must still fire"
        gaps = [b - a for a, b in zip([0.0] + hits, hits)]
        assert all(gap > 0 for gap in gaps)


class TestRunFastPath:
    """run() takes the next live event straight from the open slot
    instead of peek_time()+step(); semantics must match exactly."""

    def test_cancelled_head_events_are_drained(self):
        sim = Simulator()
        order = []
        doomed = [sim.schedule(1.0, lambda: order.append("x")) for _ in range(3)]
        sim.schedule(2.0, lambda: order.append("live"))
        for event in doomed:
            event.cancel()
        ran = sim.run()
        assert ran == 1
        assert order == ["live"]
        assert sim.events_processed == 1
        assert sim.pending() == 0

    def test_until_boundary_is_inclusive(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("at"))
        sim.schedule(1.0 + 1e-9, lambda: order.append("after"))
        sim.run(until=1.0)
        assert order == ["at"]
        assert sim.pending() == 1
        sim.run()
        assert order == ["at", "after"]

    def test_until_with_cancelled_event_past_boundary(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("live"))
        sim.schedule(2.0, lambda: order.append("dead")).cancel()
        ran = sim.run(until=1.5)
        assert ran == 1
        assert order == ["live"]
        # The clock advances to `until` even with no event there.
        assert sim.now == 1.5
        assert sim.pending() == 0

    def test_max_events_leaves_remainder_queued(self):
        sim = Simulator()
        order = []
        for k in range(5):
            sim.schedule(float(k + 1), lambda k=k: order.append(k))
        assert sim.run(max_events=2) == 2
        assert order == [0, 1]
        assert sim.pending() == 3
        assert sim.run() == 3
        assert order == [0, 1, 2, 3, 4]

    def test_events_scheduled_mid_run_are_honoured(self):
        sim = Simulator()
        order = []
        sim.schedule(
            1.0,
            lambda: (order.append("a"), sim.schedule(0.5, lambda: order.append("b"))),
        )
        sim.run()
        assert order == ["a", "b"]
        assert sim.now == 1.5

    def test_run_matches_repeated_step(self):
        def build(sim, order):
            events = []
            for k in range(6):
                events.append(
                    sim.schedule(float(k % 3) + 0.25, lambda k=k: order.append(k))
                )
            events[1].cancel()
            events[4].cancel()

        by_run, by_step = [], []
        sim_run = Simulator()
        build(sim_run, by_run)
        sim_run.run()
        sim_step = Simulator()
        build(sim_step, by_step)
        while sim_step.step():
            pass
        assert by_run == by_step
        assert sim_run.now == sim_step.now
        assert sim_run.events_processed == sim_step.events_processed

    def test_run_survives_compaction_rebinding_the_heap(self):
        # compact() rebuilds the open slot and the slot heap as new
        # lists; run()'s local alias must refresh per iteration or it
        # would drain a stale one.
        sim = Simulator()
        order = []
        events = [sim.schedule(10.0 + k, lambda: None) for k in range(300)]

        def mass_cancel():
            order.append("cancel")
            for event in events:
                event.cancel()

        sim.schedule(1.0, mass_cancel)
        sim.schedule(2.0, lambda: order.append("after"))
        sim.run()
        assert order == ["cancel", "after"]
        assert sim.pending() == 0


class TestSeedingContract:
    """The documented RNG contract: one stream per simulator, seeded at
    construction (``seed=``) or injected (``rng=``), never both;
    derived streams come from :func:`derive_seed`; :meth:`reseed` swaps
    the stream wholesale (the partition workers' post-build switch)."""

    def test_injected_rng_is_used_directly(self):
        import random

        rng = random.Random(99)
        expected = random.Random(99).random()
        sim = Simulator(rng=rng)
        assert sim.rng is rng
        assert sim.rng.random() == expected

    def test_seed_and_rng_are_mutually_exclusive(self):
        import random

        with pytest.raises(SimulationError, match="either seed or rng"):
            Simulator(seed=7, rng=random.Random(7))
        # seed=0 is the default, so rng alone is fine.
        Simulator(rng=random.Random(7))

    def test_reseed_replaces_the_stream(self):
        import random

        sim = Simulator(seed=1)
        sim.rng.random()  # advance the original stream
        sim.reseed(5)
        assert sim.rng.random() == random.Random(5).random()

    def test_derive_seed_is_deterministic_and_name_sensitive(self):
        from repro.netsim.engine import derive_seed

        assert derive_seed(0, "worker", 1) == derive_seed(0, "worker", 1)
        distinct = {
            derive_seed(0, "worker", 0),
            derive_seed(0, "worker", 1),
            derive_seed(1, "worker", 0),
            derive_seed(0, "link", 0),
        }
        assert len(distinct) == 4
        for value in distinct:
            assert 0 <= value < 2**64

    def test_derived_streams_are_independent(self):
        from repro.netsim.engine import derive_seed

        a = Simulator(seed=derive_seed(0, "worker", 0))
        b = Simulator(seed=derive_seed(0, "worker", 1))
        assert [a.rng.random() for _ in range(4)] != [
            b.rng.random() for _ in range(4)
        ]


class TestPeekTimes:
    """``peek_times(k)``: the k earliest pending timestamps without
    disturbing the queue — the worker's next-k report for demand-sync
    horizon ladders."""

    def test_sorted_prefix_of_pending(self):
        sim = Simulator()
        for when in (5.0, 1.0, 3.0, 2.0, 4.0):
            sim.schedule(when, lambda: None)
        assert sim.peek_times(3) == [1.0, 2.0, 3.0]
        assert sim.peek_times(99) == [1.0, 2.0, 3.0, 4.0, 5.0]
        # Non-destructive: the queue still dispatches everything.
        assert sim.peek_time() == 1.0
        sim.run(until=10.0)
        assert sim.events_processed == 5

    def test_skips_cancelled(self):
        sim = Simulator()
        doomed = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.schedule(3.0, lambda: None)
        doomed.cancel()
        assert sim.peek_times(2) == [2.0, 3.0]

    def test_duplicates_and_empty(self):
        sim = Simulator()
        assert sim.peek_times(4) == []
        sim.schedule(1.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        assert sim.peek_times(4) == [1.0, 1.0]

    def test_k_one_matches_peek_time(self):
        sim = Simulator()
        sim.schedule(2.5, lambda: None)
        assert sim.peek_times(1) == [sim.peek_time()]
        assert sim.peek_times(0) == []

    def test_matches_wheel_scheduler(self):
        import random

        rng = random.Random(0xB07)
        times = [round(rng.uniform(0.001, 5.0), 6) for _ in range(200)]
        heap_sim = oracle.Simulator()
        wheel_sim = Simulator()
        for when in times:
            heap_sim.schedule(when, lambda: None)
            wheel_sim.schedule(when, lambda: None)
        for k in (1, 2, 4, 7, 50, 300):
            expected = sorted(times)[:k]
            assert heap_sim.peek_times(k) == expected
            assert wheel_sim.peek_times(k) == expected

    def test_far_future_and_cancelled(self):
        sim = Simulator()
        sim.schedule(0.001, lambda: None)
        doomed = sim.schedule(0.002, lambda: None)
        sim.schedule(1e6, lambda: None)
        sim.schedule(2e6, lambda: None)
        doomed.cancel()
        assert sim.peek_times(4) == [0.001, 1e6, 2e6]
        # Peeking is not running: nothing was scanned past the head.
        assert sim.scheduler_stats()["slots_scanned"] == 1
