"""Slot-calendar unit tests.

The broad engine contract (ordering, cancellation, ``until``
semantics, compaction) is pinned in ``test_engine``;
``tests/properties/test_scheduler_equivalence`` pins the shipped core
to the heap oracle over randomized workloads. This file targets the
calendar's own machinery: slot/bucket placement, the
open-slot bisect path, the step from one occupied slot to the next,
the ``run(until=...)`` cursor bound, the bulk records' lazy tuples, the
refusal of times no slot can number, and the stats surfaced in perf
reports.
"""

import random

import pytest

from repro.errors import SimulationError
from repro.netsim import engine
from repro.netsim.engine import PeriodicTask, Simulator
from tests.conftest import calendar_entries
from tests.oracles import scheduler as oracle


class TestConstruction:
    def test_unknown_scheduler_rejected(self):
        with pytest.raises(SimulationError):
            Simulator(scheduler="calendar")
        # The heap left for the tests: the error says where it went.
        with pytest.raises(SimulationError, match="tests/oracles/scheduler.py"):
            Simulator(scheduler="heap")
        Simulator(scheduler="wheel")  # the frozen literal

    def test_invalid_wheel_tuning_rejected(self):
        with pytest.raises(SimulationError):
            Simulator(wheel_granularity=0.0)
        # Granularity is the only tuning there is.
        with pytest.raises(TypeError):
            Simulator(wheel_slots=64)


class TestPlacement:
    def test_near_events_go_to_buckets_not_overflow(self):
        sim = Simulator(wheel_granularity=0.001)
        for i in range(10):
            sim.schedule_at(0.001 * i, lambda: None)
        stats = sim.scheduler_stats()
        assert stats["wheel_inserts"] == 10
        assert stats["overflow_inserts"] == 0

    def test_far_future_event_is_a_bucket_insert_like_any_other(self):
        sim = Simulator(wheel_granularity=0.001)
        sim.schedule_at(0.05, lambda: None)
        sim.schedule_at(5.0, lambda: None)
        sim.schedule_at(5e6, lambda: None)
        stats = sim.scheduler_stats()
        assert stats["wheel_inserts"] == 3
        assert stats["overflow_inserts"] == 0
        assert sorted(sim._buckets) == [50, 5000, 5_000_000_000]

    def test_far_and_near_events_dispatch_in_order(self):
        sim = Simulator(wheel_granularity=0.001)
        got = []
        sim.schedule_at(10.0, lambda: got.append("far"))
        sim.schedule_at(0.5, lambda: got.append("mid"))
        sim.schedule_at(0.01, lambda: got.append("near"))
        sim.run()
        assert got == ["near", "mid", "far"]

    def test_empty_slot_jump_skips_dead_time(self):
        # Events 50 simulated seconds apart are 50k empty 1 ms slots
        # apart; only the occupied ones are ever visited.
        sim = Simulator(wheel_granularity=0.001)
        got = []
        for k in range(4):
            sim.schedule_at(50.0 * k + 0.001, lambda k=k: got.append(k))
        sim.run()
        assert got == [0, 1, 2, 3]
        assert sim.scheduler_stats()["slots_scanned"] == 4

    def test_slot_shared_by_events_and_bulk_tuples_is_scanned_once(self):
        # A slot's Event list and its bulk record each push the slot
        # number when they are created; the slot still opens once.
        sim = Simulator(wheel_granularity=0.05)
        got = []
        sim.schedule_at(0.11, lambda: got.append("single"))
        sim.schedule_bulk([(0.12, lambda: got.append("bulk"))])
        sim.schedule_at(0.31, lambda: got.append("later"))
        assert sim._slots.count(2) == 2
        assert sim.peek_times(5) == [0.11, 0.12, 0.31]
        sim.run()
        assert got == ["single", "bulk", "later"]
        assert sim.scheduler_stats()["slots_scanned"] == 2

    def test_mid_dispatch_insert_into_open_slot(self):
        # A zero-delay follow-up lands in the currently-open slot and
        # must still run after its scheduler (time tie → seq order);
        # follow-ups a fraction of a slot later — by each of the three
        # scheduling calls — must run before the open slot's own later
        # events, not after the slot.
        sim = Simulator()
        got = []

        def first():
            got.append("first")
            sim.schedule(0.0, lambda: got.append("follow-up"))
            sim.schedule(0.0002, lambda: got.append("schedule"))
            sim.schedule_at(0.0103, lambda: got.append("schedule_at"))
            sim.schedule_bulk([(0.0104, lambda: got.append("schedule_bulk"))])

        sim.schedule_at(0.01, first)
        sim.schedule_at(0.01, lambda: got.append("peer"))
        sim.schedule_at(0.0105, lambda: got.append("same-slot, later"))
        sim.run()
        assert got == [
            "first", "peer", "follow-up",
            "schedule", "schedule_at", "schedule_bulk",
            "same-slot, later",
        ]
        assert sim.scheduler_stats()["slots_scanned"] == 1


class TestUnschedulableTimes:
    def test_single_event_paths_refuse_non_finite_times_untouched(self):
        # NaN, ±inf, and a finite time whose slot number overflows: a
        # SimulationError before the seq counter or the calendar moves.
        sim = Simulator(wheel_granularity=0.001)
        sim.schedule_at(0.5, lambda: None)
        for call in (sim.schedule, sim.schedule_at):
            for bad in (float("nan"), float("inf"), float("-inf"), 1e308):
                before = sim.scheduler_stats()
                with pytest.raises(SimulationError, match="finite"):
                    call(bad, lambda: None)
                assert sim.scheduler_stats() == before, (call.__name__, bad)
        assert sim.run() == 1 and sim.pending() == 0

    def test_bulk_items_beyond_the_packed_slot_range(self):
        # Slot numbers from 2**62 up do not fit schedule_bulk's int64
        # arrays, so those items become Events; 1e15 s at 1 ms still
        # fits, but beside them the chunk spans too many slots to pack
        # with the action codes, so its slots are ranked first.
        sim = Simulator(wheel_granularity=0.001)
        got = []
        times = [1e17, 0.5, 1e15, 0.5, 5e18, 1e15, 2.0, 2.0005]
        # Two actions shared across slots far apart and near.
        actions = [lambda tag=tag: got.append((sim.now, tag)) for tag in "ab"]
        sim.schedule_bulk([(t, actions[i % 2]) for i, t in enumerate(times)])
        assert sim.pending() == len(times)
        sim.run()
        order = sorted(range(len(times)), key=lambda i: (times[i], i))
        assert got == [(times[i], "ab"[i % 2]) for i in order]
        assert sim.now == 5e18

    @pytest.mark.parametrize("until", [float("inf"), float("-inf"), float("nan")])
    def test_run_refuses_a_non_finite_until_before_dispatching(self, until):
        sim = Simulator()
        got = []
        sim.schedule_at(0.5, lambda: got.append(sim.now))
        with pytest.raises(SimulationError, match="finite"):
            sim.run(until=until)
        assert got == [] and sim.now == 0.0 and sim.pending() == 1
        assert sim.run() == 1 and got == [0.5]

    @pytest.mark.parametrize("interval", [float("nan"), float("inf")])
    def test_periodic_task_refuses_a_non_finite_interval(self, interval):
        with pytest.raises(SimulationError, match="finite"):
            PeriodicTask(Simulator(), interval, lambda: None)


class _AdmitAll:
    """A batch group (the protocol ``BlockChannelGroup`` speaks to the
    batch dispatcher) that admits every batch."""

    def __init__(self):
        self.members = 0

    def can_batch(self, drops):
        return True

    def run_batch(self, delta, n_ops, t_last):
        self.members += delta


class _Join:
    """A batchable +1 op: called per event, or folded by its group."""

    batch_delta = 1

    def __init__(self, group):
        self.batch_group = group

    def __call__(self):
        self.batch_group.members += 1


class TestLazyBulkTuples:
    """A bulk slot's ``(time, action)`` tuples are built only when its
    entries are needed one by one (``_BulkRecord.sort``)."""

    @pytest.fixture
    def builds(self, monkeypatch):
        built = []
        sort = engine._BulkRecord.sort

        def counted(record):
            if record.tuples is None:
                built.append(record.size)
            return sort(record)

        monkeypatch.setattr(engine._BulkRecord, "sort", counted)
        return built

    @staticmethod
    def drive(core, disturb, n=300):
        # n joins of two groups in one 50 ms slot, disturbed (or not)
        # one way; shuffled, but for the last two, which stay last.
        sim = core(wheel_granularity=0.05)
        groups = [_AdmitAll(), _AdmitAll()]
        joins = [_Join(group) for group in groups]
        items = [(0.1 + 0.049 * i / n, joins[i % 2]) for i in range(n)]
        head = items[:-2]
        random.Random(n).shuffle(head)
        items[:-2] = head
        seen = []
        sim.schedule_bulk(items)
        if disturb == "stranger":
            sim.schedule_at(0.115, lambda: seen.append(groups[0].members))
        elif disturb == "peek":
            seen.append(sim.peek_times(3))
        elif disturb == "listener":
            sim.add_dispatch_listener(lambda s, event, wall: seen.append(event.time))
        sim.run()
        members = [group.members for group in groups]
        return (members, seen, sim.now, sim.events_processed), sim

    @pytest.mark.parametrize("n", [300, engine._BULK_CHUNK + 5000])
    def test_undisturbed_slot_is_batched_without_its_tuples(self, builds, n):
        # More items than one array pass takes: the slot's tally is
        # merged across chunks, and each group's last time — in the
        # second chunk — still moves the clock.
        result, sim = self.drive(Simulator, None, n)
        assert builds == []
        assert sim.batched_events == n and sim.batched_slots == 1
        assert result == self.drive(oracle.Simulator, None, n)[0]

    @pytest.mark.parametrize("disturb", ["stranger", "peek", "listener"])
    def test_disturbed_slot_builds_them_and_matches_the_heap(self, builds, disturb):
        result, _ = self.drive(Simulator, disturb)
        assert builds == [300]
        assert result == self.drive(oracle.Simulator, disturb)[0]

    @pytest.fixture
    def events_built(self, monkeypatch):
        built = []
        init = engine.Event.__init__

        def counted(event, *args, **kwargs):
            built.append(args)
            init(event, *args, **kwargs)

        monkeypatch.setattr(engine.Event, "__init__", counted)
        return built

    @staticmethod
    def one_slot_storm(n=10_000):
        # n joins, shuffled, in the 50 ms slot [0.1, 0.15); one group
        # admits every batch. An event before the call and one after it
        # bracket the call's reserved seq range.
        sim = Simulator(wheel_granularity=0.05)
        group = _AdmitAll()
        join = _Join(group)
        items = [(0.1 + 0.049 * i / n, join) for i in range(n)]
        random.Random(n).shuffle(items)
        sim.schedule_at(0.5, lambda: None)
        sim.schedule_bulk(items, name="join")
        sim.schedule_at(0.5, lambda: None)
        return sim, group

    def test_run_until_inside_the_slot_batches_the_part_before_it(self, events_built):
        n = 10_000
        sim, group = self.one_slot_storm(n)
        events_built.clear()  # the two bracketing events
        until = 0.1 + 0.049 * (n // 2 - 0.5) / n
        assert sim.run(until=until) == n // 2
        assert (sim.batched_events, group.members) == (n // 2, n // 2)
        assert sim.now == until and sim.pending() == n // 2 + 2
        assert sim.run(until=0.2) == n // 2
        assert (sim.batched_events, group.members) == (n, n)
        assert events_built == []

    def test_step_on_a_bulk_slot_builds_no_event(self, events_built):
        n = 10_000
        sim, group = self.one_slot_storm(n)
        events_built.clear()
        assert sim.step()
        assert events_built == []
        assert (sim.now, group.members, sim.peeled_ops) == (0.1, 1, 1)
        assert sim.run(until=0.2) == n - 1
        assert group.members == n and sim.batched_events == n - 1
        assert events_built == []

    def test_listener_sees_each_bulk_op_with_a_seq_of_its_own(self):
        n = 10_000
        sim, group = self.one_slot_storm(n)
        seen = []
        sim.add_dispatch_listener(
            lambda s, event, wall: seen.append((event.time, event.seq, event.name))
        )
        sim.run()
        ops = [(time, seq) for time, seq, name in seen if name == "join"]
        assert len(ops) == n and group.members == n
        assert sorted(seq for _, seq in ops) == list(range(2, n + 2))
        assert ops == sorted(ops)
        assert [seq for _, seq, name in seen if name != "join"] == [1, n + 2]

    def test_tally_lists_actions_in_order_of_first_appearance(self):
        # A slot's batch groups apply in its tally's order: the order in
        # which the slot's own items first used each action, not the
        # order the whole call first saw them.
        sim = Simulator(wheel_granularity=0.05)
        a, b = _Join(_AdmitAll()), _Join(_AdmitAll())
        sim.schedule_bulk([(0.11, a), (0.21, b), (0.22, a), (0.12, b)])
        records = sim._bucket_meta
        assert list(records[2].tally) == [a, b]
        assert list(records[4].tally) == [b, a]
        assert records[4].tally[a] == [1, 0.22]

    def test_seq_ranges_follow_the_order_slots_were_first_touched(self):
        # Within a slot seqs ascend in input order; across slots the
        # ranges are handed out in the order the input first touched
        # them, after the seqs of events scheduled before.
        sim = Simulator(wheel_granularity=0.05)
        sim.schedule_at(0.3, lambda: None)
        sim.schedule_bulk([(0.21, len), (0.11, len), (0.22, len), (0.12, len), (0.13, len)])
        records = sim._bucket_meta
        assert (records[4].base_seq, records[2].base_seq) == (2, 4)
        assert [time for time, _ in records[2].sort()] == [0.11, 0.12, 0.13]


class TestRunSemantics:
    def test_until_is_inclusive_and_advances_clock(self):
        sim = Simulator()
        got = []
        sim.schedule_at(1.0, lambda: got.append("at"))
        sim.schedule_at(1.5, lambda: got.append("late"))
        ran = sim.run(until=1.0)
        assert ran == 1 and got == ["at"] and sim.now == 1.0
        sim.run()
        assert got == ["at", "late"]

    def test_far_future_peek_does_not_degrade_wheel(self):
        # The regression the limit_slot bound fixes: a bounded run that
        # stops short of a far-future event must not advance the cursor
        # to that event's slot — if it did, every event scheduled
        # afterwards would take the open-slot bisect path instead of a
        # bucket append.
        sim = Simulator(wheel_granularity=0.001)
        sim.schedule_at(30.0, lambda: None)  # keepalive-style timer
        sim.run(until=0.01)
        before = sim.scheduler_stats()["wheel_inserts"]
        for i in range(100):
            sim.schedule_at(0.02 + 0.001 * i, lambda: None)
        stats = sim.scheduler_stats()
        assert stats["wheel_inserts"] == before + 100
        assert sim._cursor <= int(0.01 / 0.001) + 1
        assert sum(map(len, sim._buckets.values())) == 101

    def test_max_events_leaves_remainder(self):
        sim = Simulator()
        got = []
        for i in range(5):
            sim.schedule_at(0.01 * (i + 1), lambda i=i: got.append(i))
        assert sim.run(max_events=2) == 2
        assert got == [0, 1] and sim.pending() == 3
        sim.run()
        assert got == [0, 1, 2, 3, 4]

    def test_peek_time_sees_next_live_event(self):
        sim = Simulator()
        a = sim.schedule_at(0.5, lambda: None)
        sim.schedule_at(1.0, lambda: None)
        assert sim.peek_time() == 0.5
        a.cancel()
        assert sim.peek_time() == 1.0

    def test_step_dispatches_single_event(self):
        sim = Simulator()
        got = []
        sim.schedule_at(0.1, lambda: got.append("a"))
        sim.schedule_at(0.2, lambda: got.append("b"))
        assert sim.step() and got == ["a"]
        assert sim.step() and got == ["a", "b"]
        assert not sim.step()


class TestCancellation:
    def test_cancelled_event_in_bucket_is_skipped(self):
        sim = Simulator()
        got = []
        event = sim.schedule_at(0.05, lambda: got.append("dead"))
        sim.schedule_at(0.06, lambda: got.append("live"))
        event.cancel()
        sim.run()
        assert got == ["live"]

    def test_pending_is_exact_through_churn(self):
        sim = Simulator(wheel_granularity=0.001)
        events = [
            sim.schedule_at(0.001 * i if i % 2 else 1.0 + i, lambda: None)
            for i in range(200)
        ]
        assert sim.pending() == 200
        for event in events[::2]:
            event.cancel()
        assert sim.pending() == 100
        sim.run()
        assert sim.pending() == 0

    def test_mass_cancellation_compacts(self):
        sim = Simulator(wheel_granularity=0.001)
        keep = [sim.schedule_at(0.001 + 0.0005 * i, lambda: None) for i in range(10)]
        drop = [sim.schedule_at(2.0 + 0.001 * i, lambda: None) for i in range(300)]
        for event in drop:
            event.cancel()
        # Compaction triggered (cancelled majority): the calendar sheds
        # most dead entries — with the buckets they emptied and those
        # buckets' slot numbers — and only a sub-threshold lazy residue
        # remains.
        assert calendar_entries(sim) < len(keep) + len(drop) // 4
        assert len(sim._buckets) < len(keep) + len(drop) // 4
        assert sorted(sim._slots) == sorted(sim._buckets)
        assert sim.run() == len(keep)
        assert sim.scheduler_stats()["slots_scanned"] < len(keep) + len(drop) // 4

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        sim.schedule_at(0.5, lambda: None)
        event = sim.schedule_at(0.2, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.pending() == 1
        assert sim.run() == 1


class TestStats:
    def test_scheduler_stats_shape(self):
        sim = Simulator(wheel_granularity=0.002)
        sim.schedule_at(0.01, lambda: None)
        sim.schedule_at(99.0, lambda: None)
        sim.run()
        stats = sim.scheduler_stats()
        assert stats["scheduler"] == "wheel"
        assert stats["granularity"] == 0.002
        assert stats["slots_scanned"] == 2
        # benchmarks/e2e reads these three by name.
        assert stats["wheel_inserts"] == 2
        assert stats["overflow_inserts"] == 0
        assert stats["batched_events"] == 0
        assert stats["pending"] == 0


class TestHorizonReinjection:
    """The sharded runner's import pattern: run an exclusive-horizon
    window (``run(until=H, inclusive=False)``), then re-inject events at
    or just past the clamped clock. The calendar's cursor sits *on* the
    horizon slot after the window, so these inserts land in the open
    slot / current-bucket edge cases."""

    def test_reinjected_event_at_horizon_dispatches_next_window(self):
        sim = Simulator(wheel_granularity=0.001)
        order = []
        for when in (0.5, 1.0, 1.5, 2.0):
            sim.schedule_at(when, lambda t=when: order.append(t))
        sim.run(until=1.5, inclusive=False)
        assert sim.now == 1.5 and order == [0.5, 1.0]
        # Import arriving exactly at the horizon: legal (arrival >= H)
        # and dispatched after the pre-existing t=1.5 event (lower seq).
        sim.schedule_at(1.5, lambda: order.append("reinj"))
        sim.run(until=2.5, inclusive=False)
        assert order == [0.5, 1.0, 1.5, "reinj", 2.0]

    def test_stats_count_reinjected_inserts(self):
        sim = Simulator(wheel_granularity=0.001)
        sim.schedule_at(0.01, lambda: None)
        sim.run(until=0.02, inclusive=False)
        before = sim.scheduler_stats()["wheel_inserts"]
        sim.schedule_at(0.02, lambda: None)   # on the horizon
        sim.schedule_at(0.0205, lambda: None)  # inside the open slot
        stats = sim.scheduler_stats()
        assert stats["wheel_inserts"] == before + 2
        assert stats["pending"] == 2
        sim.run()
        assert sim.scheduler_stats()["pending"] == 0

    def test_cancel_of_reinjected_event_at_horizon(self):
        sim = Simulator(wheel_granularity=0.001)
        order = []
        sim.schedule_at(0.5, lambda: order.append("pre"))
        sim.run(until=0.5, inclusive=False)
        keep = sim.schedule_at(0.5, lambda: order.append("keep"))
        drop = sim.schedule_at(0.5, lambda: order.append("drop"))
        drop.cancel()
        assert sim.pending() == 2  # pre and keep; the tombstone is dead
        sim.run()
        assert order == ["pre", "keep"]
        assert keep.cancelled is False

    def test_cancel_then_reinject_same_timestamp(self):
        # Cancelling a horizon event and re-injecting a replacement at
        # the identical timestamp must not resurrect the tombstone.
        sim = Simulator(wheel_granularity=0.001)
        order = []
        sim.schedule_at(0.25, lambda: order.append("tick"))
        sim.run(until=0.25, inclusive=False)
        first = sim.schedule_at(0.25, lambda: order.append("first"))
        first.cancel()
        first.cancel()  # double cancel counts once
        assert sim.pending() == 1
        sim.schedule_at(0.25, lambda: order.append("second"))
        sim.run()
        assert order == ["tick", "second"]
