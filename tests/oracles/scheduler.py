"""The event loop, the plain way: one binary heap, one event at a time.

A :class:`Simulator` with the public surface of
``repro.netsim.engine.Simulator`` and none of its machinery. Every
scheduled callback is an :class:`~repro.netsim.engine.Event` pushed on
a heap as ``(time, seq, event)`` — ``seq`` counts calls, so the tuple
order *is* the dispatch order — and ``run`` pops them one by one.
``schedule_bulk`` is the sequential ``schedule_at`` loop its contract
names; there are no slots, no lazy tuples, no batch dispatch, no
compaction (a cancelled entry is dropped when it reaches the top).
This was the shipped scheduler until the slot calendar had no regime
left to lose to it.

``tests/properties/test_scheduler_equivalence.py`` drives both with the
same schedules and compares dispatch order, clock, counters and what
dispatch listeners saw; the fault, data-plane and partition suites run
whole networks on it. :func:`install` puts it where ``Topology`` builds
its simulator. Run it *before* the network is built.
"""

from __future__ import annotations

import heapq
import math
import random
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator, Optional

import pytest

from repro.errors import SimulationError
from repro.netsim.engine import Event


class Simulator:
    def __init__(
        self,
        seed: int = 0,
        scheduler: str = "wheel",
        wheel_granularity: float = 0.001,
        rng: Optional[random.Random] = None,
    ) -> None:
        # ``scheduler`` and ``wheel_granularity`` are what Topology
        # passes to the shipped class; a heap has nothing to do with
        # either.
        if rng is not None and seed != 0:
            raise SimulationError("pass either seed or rng, not both")
        self.rng = rng if rng is not None else random.Random(seed)
        self._now = 0.0
        self._seq = 0
        self._queue: list[tuple[float, int, Event]] = []
        self._live = 0
        self._running = False
        self.events_processed = 0
        self._dispatch_listeners: list[Callable] = []

    @property
    def now(self) -> float:
        return self._now

    def reseed(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def schedule(self, delay: float, action: Callable[[], None], name: str = "") -> Event:
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, action, name)

    def schedule_at(self, time: float, action: Callable[[], None], name: str = "") -> Event:
        if not math.isfinite(time):
            raise SimulationError(f"cannot schedule at time={time}: times must be finite")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past (time={time}, now={self._now})"
            )
        self._seq += 1
        event = Event(time, self._seq, action, name, False, self, True)
        heapq.heappush(self._queue, (time, self._seq, event))
        self._live += 1
        return event

    def schedule_bulk(self, items: list, name: str = "") -> int:
        # All or nothing: a non-finite or past time rejects the whole
        # batch.
        for time, _ in items:
            if not math.isfinite(time):
                raise SimulationError(f"cannot schedule at time={time}: times must be finite")
            if time < self._now:
                raise SimulationError(
                    f"cannot schedule in the past (time={time}, now={self._now})"
                )
        for time, action in items:
            self.schedule_at(time, action, name)
        return len(items)

    def _note_cancelled(self) -> None:
        """Called by ``Event.cancel`` for an event still queued."""
        self._live -= 1

    def pending(self) -> int:
        return self._live

    def _head(self) -> Optional[tuple[float, int, Event]]:
        """The next live entry, cancelled ones above it discarded."""
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
        return queue[0] if queue else None

    def peek_time(self) -> Optional[float]:
        head = self._head()
        return None if head is None else head[0]

    def peek_times(self, k: int) -> list[float]:
        if k <= 0:
            return []
        return sorted(
            time for time, _, event in self._queue if not event.cancelled
        )[:k]

    def add_dispatch_listener(self, listener: Callable) -> None:
        self._dispatch_listeners.append(listener)

    def remove_dispatch_listener(self, listener: Callable) -> None:
        self._dispatch_listeners.remove(listener)

    def step(self) -> bool:
        return self.run(max_events=1) == 1

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        inclusive: bool = True,
    ) -> int:
        if self._running:
            raise SimulationError("simulator is not reentrant")

        def due(head) -> bool:
            return head is not None and (
                until is None or head[0] < until or (inclusive and head[0] == until)
            )

        ran = 0
        self._running = True
        try:
            while max_events is None or ran < max_events:
                head = self._head()
                if not due(head):
                    break
                heapq.heappop(self._queue)
                event = head[2]
                event._in_queue = False
                self._live -= 1
                self._now = event.time
                self.events_processed += 1
                started = perf_counter()
                event.action()
                wall = perf_counter() - started
                for listener in self._dispatch_listeners:
                    listener(self, event, wall)
                ran += 1
        finally:
            self._running = False
        # The clock reaches ``until`` only when nothing due is left
        # behind (``max_events`` can stop the run short of it).
        if until is not None and self._now < until and not due(self._head()):
            self._now = until
        return ran

    def scheduler_stats(self) -> dict:
        return {"scheduler": "heap", "inserts": self._seq, "pending": self._live}


def install(patch) -> None:
    """Make ``Topology`` (hence every ``TopologyBuilder`` generator and
    everything built on one) construct this simulator. ``patch`` is a
    ``pytest.MonkeyPatch``."""
    patch.setattr("repro.netsim.topology.Simulator", Simulator)


@contextmanager
def event_core(name: str) -> Iterator[None]:
    """Networks built inside the block run on the shipped event core
    (``"wheel"``) or on this one (``"heap"``) — the two names the
    suites' parameter ids have always used."""
    if name == "wheel":
        yield
        return
    assert name == "heap", name
    with pytest.MonkeyPatch.context() as patch:
        install(patch)
        yield
