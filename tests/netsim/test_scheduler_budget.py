"""A host-independent budget for the event core: counts, not clocks.

A soft-state protocol puts two regimes on one timeline — refresh and
keepalive timers seconds apart, a flash crowd of thousands of events
per millisecond — and the scheduler must not make the user choose
between them. The ring wheel this calendar replaced paid one cursor
step per empty 1 ms slot and allocated its 8,192 bucket lists up
front; the numbers below are what it read (``Simulator(scheduler=
"wheel")`` at the parent commit) against what the sparse calendar
reads. All three repeat exactly on any host.

========================================  ==========  =========
                                          ring wheel  calendar
========================================  ==========  =========
``slots_scanned``, 1 Hz timer, 2,000 s     2,000,000      2,000
``slots_scanned``, 100 k events / 1,000 s    999,999     95,132
bytes allocated by ``Simulator()``           595,312      3,880
========================================  ==========  =========

``schedule_bulk`` has a budget of its own for the sparse case, where
every 1 ms slot it fills holds two or three items and so gets a bulk
record of its own: Python calls per item of one call plus the run that
drains it. A record form that costs more per slot than an index and a
tally shows here on any host.
"""

import random
import tracemalloc

from repro.netsim.engine import Simulator
from tests.callcount import python_calls

#: Python calls of ``schedule_bulk`` + ``run`` over the sparse stream
#: below, as counted when the budget was set; the count repeats exactly.
SPARSE_BULK_CALLS = 10_856


def test_sparse_timer_scans_one_slot_per_firing():
    sim = Simulator()

    def tick():
        sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    sim.run(until=2000.0)
    assert sim.events_processed == 2000
    assert sim.scheduler_stats()["slots_scanned"] <= 2001


def test_spread_events_scan_no_more_slots_than_events():
    rng = random.Random(18)
    sim = Simulator()
    for _ in range(100_000):
        sim.schedule_at(rng.uniform(0.0, 1000.0), lambda: None)
    assert sim.run() == 100_000
    assert sim.scheduler_stats()["slots_scanned"] <= 100_000


def test_construction_allocates_next_to_nothing():
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        sim = Simulator()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sim.pending() == 0
    assert after - before < 16 * 1024


def test_sparse_bulk_call_stays_inside_its_call_budget():
    n = 2000
    rng = random.Random(36)
    sim = Simulator()

    def noop():
        pass

    def stream(start):
        # One item every 0.4 ms, jittered by up to 0.1 ms: 2-3 a slot.
        return [(start + i * 0.0004 + rng.uniform(0.0, 0.0001), noop) for i in range(n)]

    # A warm-up call first: the numpy import and first-use costs.
    sim.schedule_bulk(stream(0.0))
    sim.run()
    items = stream(1.0)
    calls = python_calls(sim.schedule_bulk, items) + python_calls(sim.run)
    assert sim.events_processed == 2 * n and sim.pending() == 0
    print(
        f"\nbulk budget: {calls} Python calls for {n} sparse bulk items "
        f"({calls / n:.2f} per item, budget {SPARSE_BULK_CALLS})"
    )
    assert calls <= SPARSE_BULK_CALLS, (
        f"{calls} Python calls for {n} sparse bulk items, budget "
        f"{SPARSE_BULK_CALLS}: a bulk slot costs more than its record"
    )
