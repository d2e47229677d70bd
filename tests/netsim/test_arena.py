"""EventArena pool mechanics and recycle-safety.

The arena hands out *records*, not identities: a pooled Event object is
reused across many logical events, and the only thing distinguishing one
incarnation from the next is the ``gen`` counter the engine bumps at
acquisition. These tests pin the pool bookkeeping (LIFO blocks, cap,
stats) and — via hypothesis — the property that makes recycling safe:
``cancel_if`` captured against one incarnation never touches a later
one.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.arena import ARENA, NATIVE, POOL_CAP, EventArena
from repro.netsim.engine import Event, Simulator


def make_event(i: int = 0) -> Event:
    return Event(float(i), i, lambda: None, f"e{i}")


class TestEventArena:
    def test_acquire_from_empty_pool_returns_none(self):
        arena = EventArena()
        assert arena.acquire() is None
        assert arena.stats()["pooled"] == 0

    def test_release_then_acquire_roundtrips_lifo(self):
        arena = EventArena()
        first, second = make_event(1), make_event(2)
        arena.release(first)
        arena.release(second)
        assert arena.total == 2
        # LIFO: the most recently released record comes back first.
        assert arena.acquire() is second
        assert arena.acquire() is first
        assert arena.acquire() is None
        assert arena.total == 0

    def test_release_block_consumes_the_list_wholesale(self):
        arena = EventArena()
        block = [make_event(i) for i in range(5)]
        ids = {id(e) for e in block}
        arena.release_block(block)
        assert arena.total == 5
        # O(1): the list itself moves in, and acquire() pops from it.
        assert arena.blocks[-1] is block
        got = {id(arena.acquire()) for _ in range(5)}
        assert got == ids

    def test_release_block_empty_is_a_noop(self):
        arena = EventArena()
        arena.release_block([])
        assert arena.total == 0
        assert arena.stats()["recycled"] == 0

    def test_cap_drops_overflow_releases(self):
        arena = EventArena(cap=3)
        for i in range(5):
            arena.release(make_event(i))
        assert arena.total == 3
        assert arena.dropped == 2
        # A whole block that would burst the cap is dropped entirely.
        arena.acquire()
        arena.release_block([make_event(10), make_event(11), make_event(12)])
        assert arena.total == 2
        assert arena.dropped == 5

    def test_stats_keys_and_counts(self):
        arena = EventArena(cap=8)
        arena.release(make_event())
        arena.acquire()
        stats = arena.stats()
        assert stats == {
            "pooled": 0,
            "acquired": 1,
            "recycled": 1,
            "dropped": 0,
            "cap": 8,
        }

    def test_clear_empties_the_pool(self):
        arena = EventArena()
        arena.release_block([make_event(i) for i in range(4)])
        arena.clear()
        assert arena.total == 0
        assert arena.acquire() is None

    def test_global_arena_is_native_capped(self):
        assert isinstance(ARENA, EventArena)
        assert ARENA.cap == POOL_CAP
        assert isinstance(NATIVE, bool)


def run_bulk_round(sim: Simulator, n: int, offset: float) -> None:
    """Schedule-and-drain one batch so its pooled events recycle.
    ``offset`` must lie beyond the wheel horizon: in-horizon bulk items
    stay lazy tuples and are dispatched without ever being Events."""
    sim.schedule_bulk(
        [(offset + 0.001 * i, lambda: None) for i in range(n)], name="round"
    )
    sim.run()


class TestRecycleSafety:
    """Generation counters make stale handles inert, not dangerous."""

    def test_gen_bumps_on_reuse(self):
        ARENA.clear()
        sim = Simulator(scheduler="wheel", wheel_slots=64, native=True)
        run_bulk_round(sim, 32, 0.1)
        recycled = ARENA.acquire()
        if recycled is None:
            pytest.skip("pool capped out by earlier tests")
        gen_before = recycled.gen
        ARENA.release(recycled)
        # Drive another full round: the engine re-acquires the record and
        # must bump gen so old handles can tell it changed hands.
        sim2 = Simulator(scheduler="wheel", wheel_slots=64, native=True)
        run_bulk_round(sim2, 64, 0.1)
        assert recycled.gen > gen_before

    def test_cancel_if_refuses_stale_generation(self):
        event = make_event()
        event.gen = 7
        assert event.cancel_if(6) is False
        assert event.cancelled is False
        assert event.cancel_if(7) is True
        assert event.cancelled is True

    @settings(max_examples=40, deadline=None)
    @given(
        rounds=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=6),
    )
    def test_recycled_records_never_honor_old_handles(self, rounds):
        """Across arbitrary schedule/drain cycles, a handle captured
        before recycling can never cancel the record's new incarnation.
        """
        arena = EventArena()
        live: list[tuple[Event, int]] = []
        counter = 0
        for n in rounds:
            for _ in range(n):
                event = arena.acquire()
                if event is None:
                    event = make_event()
                # Engine contract: gen bumps at every acquisition.
                event.gen += 1
                event.cancelled = False
                live.append((event, event.gen))
                counter += 1
            # Drain: every live record returns to the pool.
            for event, _ in live:
                arena.release(event)
            stale = live
            live = []
            # Re-acquire some of the drained records (new incarnations).
            for _ in range(min(len(stale), n)):
                event = arena.acquire()
                assert event is not None
                event.gen += 1
                event.cancelled = False
                live.append((event, event.gen))
            # Stale handles: cancel_if with the *old* gen must refuse on
            # any record that was handed out again.
            reused = {id(event) for event, _ in live}
            for event, old_gen in stale:
                if id(event) in reused:
                    assert event.gen > old_gen
                    assert event.cancel_if(old_gen) is False
                    assert event.cancelled is False
            # Current handles still work.
            for event, gen in live:
                assert event.cancel_if(gen) is True
                event.cancelled = False  # reset for the next round
        assert counter == sum(rounds)

    def test_simulator_native_flag_controls_pooling(self):
        on = Simulator(scheduler="wheel", wheel_slots=64, native=True)
        off = Simulator(scheduler="wheel", wheel_slots=64, native=False)
        assert on._arena is ARENA
        assert off._arena is None
