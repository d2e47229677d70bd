"""Free-list arena for pooled :class:`~repro.netsim.engine.Event` records.

The mega-storm steady state is an allocation treadmill: every workload
op materialises an ``Event``, dispatches it once, and drops it — a
quarter-microsecond of allocator and GC traffic per event that dwarfs
the few field writes the event actually needs. The native core breaks
the treadmill twice over. On the timer wheel, ``schedule_bulk`` keeps
*pure* buckets of the caller's own ``(time, action)`` tuples and
dispatches them — batched, or one by one — without any ``Event`` ever
existing (see ``docs/performance.md``). Where real events *are* still
needed — the heap scheduler (the equivalence oracle), bulk items beyond
the wheel horizon, and pure slots that need per-event dispatch (a
profiled or listened-to run, ``max_events``, a run bound inside the
slot), which materialize into sorted
events — those events are marked *pooled* (the caller never receives
a reference, so no handle can outlive dispatch) and the engine returns
them here after they fire. The next materialization resets the
recycled records in place — ten field writes instead of an allocation.

Recycling granularity follows the dispatch path: when a whole
materialized slot of pooled events has been dispatched, the engine
hands the *list itself* back via :meth:`EventArena.release_block`, so
recycling costs O(1) per slot, not O(events); the heap scheduler
releases one event at a time through :meth:`EventArena.release`.

Use-after-recycle is guarded twice over:

* only *pooled* events are ever recycled, and pooled events are
  unreachable outside the engine by construction — ``schedule_bulk``
  returns a count, not the events;
* every acquisition bumps the event's ``gen`` counter, so a stale
  handle (should one ever exist) can detect the new incarnation and
  :meth:`Event.cancel_if` refuses to cancel it.

``REPRO_NATIVE=0`` disables the arena (and the engine's batch slot
dispatch) entirely — the pure-Python escape hatch for debugging; see
``docs/performance.md``.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netsim.engine import Event

#: Master switch for the native-speed event core (arena pooling and
#: batch slot dispatch). Read once at import; individual simulators can
#: override via ``Simulator(native=...)``.
NATIVE = os.environ.get("REPRO_NATIVE", "1") != "0"

#: Pool ceiling in events. Sized above the mega storm's in-flight
#: window (~113k pending events) so a full drain recycles everything;
#: beyond the cap, released events fall back to ordinary GC.
POOL_CAP = 1 << 17

#: Per-block ceiling for single-event releases (the heap path), so the
#: fill block stays cache-friendly and list growth stays amortised.
_FILL_BLOCK = 4096


class EventArena:
    """A free list of recycled events, stored as blocks of lists.

    Blocks are whole consumed wheel slots (``release_block``) or
    incrementally-filled lists (``release``). Acquisition pops from the
    newest block — LIFO keeps recently-touched records hot in cache.
    """

    __slots__ = ("blocks", "total", "cap", "acquired", "recycled", "dropped")

    def __init__(self, cap: int = POOL_CAP) -> None:
        #: Non-empty lists of recycled events; the engine pops from
        #: ``blocks[-1]`` inline on its bulk-schedule fast path.
        self.blocks: List[List["Event"]] = []
        self.total = 0
        self.cap = cap
        self.acquired = 0
        self.recycled = 0
        self.dropped = 0

    def acquire(self) -> "Event | None":
        """Pop one recycled event, or None when the pool is empty.

        The caller owns the record and must reset every field (and the
        ``gen`` bump happens at acquisition — see the module docstring).
        """
        blocks = self.blocks
        if not blocks:
            return None
        block = blocks[-1]
        event = block.pop()
        if not block:
            blocks.pop()
        self.total -= 1
        self.acquired += 1
        return event

    def release(self, event: "Event") -> None:
        """Recycle one dispatched pooled event (heap-scheduler path)."""
        if self.total >= self.cap:
            self.dropped += 1
            return
        blocks = self.blocks
        if blocks and len(blocks[-1]) < _FILL_BLOCK:
            blocks[-1].append(event)
        else:
            blocks.append([event])
        self.total += 1
        self.recycled += 1

    def release_block(self, events: List["Event"]) -> None:
        """Recycle a fully-dispatched slot of pooled events in O(1).

        The caller relinquishes the list itself; every entry must be a
        dispatched pooled event (the engine's batch commit guarantees
        this — clean slots hold nothing else).
        """
        n = len(events)
        if not n:
            return
        if self.total + n > self.cap:
            self.dropped += n
            return
        self.blocks.append(events)
        self.total += n
        self.recycled += n

    def clear(self) -> None:
        """Drop every pooled record (test isolation hook)."""
        self.blocks.clear()
        self.total = 0

    def stats(self) -> dict:
        return {
            "pooled": self.total,
            "acquired": self.acquired,
            "recycled": self.recycled,
            "dropped": self.dropped,
            "cap": self.cap,
        }


#: Process-wide arena shared by every native-mode simulator: the bench
#: harness runs heap and wheel back to back and repeats runs, and a
#: shared pool means the steady state (every run after the first)
#: allocates ~zero event objects. Ownership is not pooled state — the
#: engine resets ``owner`` (and every other field) on acquisition.
ARENA = EventArena()
