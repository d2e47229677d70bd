"""Discrete-event simulation engine.

A deterministic, single-threaded event loop. Events are ordered by
``(time, sequence)`` where ``sequence`` is a monotonically increasing
insertion counter, so simultaneous events fire in schedule order and
every run with the same seed and schedule is bit-for-bit reproducible.

Two interchangeable schedulers back the loop (``Simulator(scheduler=)``):

* ``"heap"`` (default) — a binary heap. O(log n) per operation with a
  Python-level ``Event.__lt__`` on every sift, which dominates wall
  time once hundreds of thousands of events are pending.
* ``"wheel"`` — a timer wheel: near-future events land in per-slot
  buckets by O(1) append and each slot is sorted once when the cursor
  reaches it; far-future events overflow into a small heap and cascade
  into the wheel as their slot comes within the horizon. Dispatch
  order is identical to the heap's (same ``(time, seq)`` order), which
  ``tests/properties/test_scheduler_equivalence.py`` pins.

Seeding contract
----------------

All stochastic behaviour in the substrate draws from ``Simulator.rng``
(a private :class:`random.Random`), never from the global ``random``
module, so a run is a pure function of its seed and its schedule. The
generator is either seeded from the ``seed`` argument or injected
directly via ``rng=`` (the two are mutually exclusive). Derived
components that need their own reproducible stream — one per partition
worker in :mod:`repro.netsim.parallel`, for example — must split the
master seed with :func:`derive_seed` rather than re-using it or
reaching for global randomness; ``derive_seed`` is stable across
processes and Python versions (unlike ``hash``), which is what makes a
sharded run reproducible from the one master seed.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from bisect import bisect_left, bisect_right, insort
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from time import perf_counter
from typing import Callable, Optional

from repro.errors import SimulationError
from repro.netsim.arena import ARENA, NATIVE

#: Below this queue size, compaction is never worth the heapify cost.
_COMPACT_MIN_QUEUE = 64

def derive_seed(seed: int, *names: object) -> int:
    """Derive a child seed from ``seed`` and a namespace path.

    Stable across processes and Python versions (sha256, not ``hash``),
    so partition workers spawned with ``multiprocessing`` agree with an
    in-process rerun. Distinct paths give independent 64-bit streams:
    ``derive_seed(seed, "worker", rank)``.
    """
    digest = hashlib.sha256(
        ("|".join([str(seed), *map(str, names)])).encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


#: Total-order key shared by both schedulers. ``attrgetter`` builds the
#: ``(time, seq)`` tuple in C, so wheel-slot sorts avoid the Python
#: ``Event.__lt__`` the heap pays on every sift.
_EVENT_KEY = attrgetter("time", "seq")

#: Time key for bulk-item scans (e.g. the atomic past-time prescan).
_ITEM_TIME = itemgetter(0)

#: Action of a bulk ``(time, action)`` item (per-run tallies).
_ITEM_ACTION = itemgetter(1)


def _run_tally(run: list) -> dict:
    """``{action: [count, t_last]}`` over a time-sorted run of bulk
    ``(time, action)`` tuples. Counting runs in C; each action's last
    op is found by walking back from the end, which stops within a few
    entries when the actions interleave."""
    counts = Counter(map(_ITEM_ACTION, run))
    tally: dict = {}
    missing = len(counts)
    for time, action in reversed(run):
        if action not in tally:
            tally[action] = [counts[action], time]
            missing -= 1
            if not missing:
                break
    return tally


@dataclass(order=True, slots=True)
class Event:
    """A scheduled callback.

    Events compare by ``(time, seq)`` so the schedulers are
    deterministic. Cancelled events are skipped when they come due; the
    owning simulator additionally compacts its queue when cancelled
    events pile up (see :meth:`Simulator._note_cancelled`).
    """

    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)
    name: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)
    #: The simulator whose queue holds this event (None once popped or
    #: for hand-built events), so cancellation can keep live/cancelled
    #: bookkeeping exact.
    owner: Optional["Simulator"] = field(compare=False, default=None, repr=False)
    _in_queue: bool = field(compare=False, default=False, repr=False)
    #: Incarnation counter, bumped each time the arena hands the record
    #: out for reuse. A holder that captured ``(event, event.gen)`` can
    #: tell a recycled record from the one it scheduled.
    gen: int = field(compare=False, default=0, repr=False)
    #: True for events scheduled through :meth:`Simulator.schedule_bulk`
    #: on a native-mode simulator. Pooled events are unreachable outside
    #: the engine (bulk scheduling returns a count, not the events), so
    #: recycling them after dispatch is safe by construction.
    pooled: bool = field(compare=False, default=False, repr=False)

    def cancel(self) -> None:
        """Mark the event so the engine skips it when it comes due."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.owner is not None and self._in_queue:
            self.owner._note_cancelled()

    def cancel_if(self, gen: int) -> bool:
        """Cancel only if this record is still incarnation ``gen``.

        The recycle-safe form of :meth:`cancel` for holders of a pooled
        record: capture ``event.gen`` at schedule time and pass it back
        here — a record the arena has since handed to someone else is
        left alone. Returns True if the cancellation applied.
        """
        if self.gen != gen:
            return False
        self.cancel()
        return True


#: Sentinel returned by ``TimerWheel.advance(..., allow_pure=True)``
#: when the open slot is *pure* — it still holds lazy bulk tuples
#: beside its Events. Only the fast dispatch loop asks for it (to run
#: the segmented batch dispatcher before paying materialization); every
#: other caller gets pure slots resolved transparently.
_PURE_SLOT = Event(0.0, -1, lambda: None, "__pure_slot__")


class TimerWheel:
    """A single-level timer wheel with an overflow heap.

    The wheel covers ``num_slots × granularity`` seconds of simulated
    future (the *horizon*). An event within the horizon is appended to
    the bucket for its slot — O(1), no comparisons. When the cursor
    reaches a slot, its bucket is sorted once by ``(time, seq)`` and
    becomes the *open slot*, consumed front to back. Events beyond the
    horizon go to a plain heap of ``(time, seq, event)`` tuples (tuple
    comparison stays in C) and *cascade* into buckets as the cursor
    approaches their slot, so an event is only ever promoted once.

    Dispatch order is exactly the heap scheduler's ``(time, seq)``
    order: slots partition time monotonically, each slot is sorted, and
    a late insert into the already-open slot is placed by bisection
    after the consumed prefix — its time is ``>= now``, so it can never
    sort before an already-dispatched entry.

    **Pure buckets.** On a native-mode simulator, ``schedule_bulk``
    stores in-horizon entries as references to the caller's raw
    ``(time, action)`` tuples instead of :class:`Event` objects. They
    sit *beside* the bucket's Event list, in ``_bucket_meta[index]`` =
    ``[name, base_seq, tally, tuples]``, and a bucket with such a
    record is *pure*. The tally — ``{action: [count, t_last]}`` — is
    built during the bulk scan, so the batch dispatcher consumes an
    undisturbed pure slot in O(distinct actions) without touching the
    entries again. Pure entries are unreachable outside the engine
    (bulk scheduling returns a count), hence uncancellable. Every
    ordinary insert path appends its Event to the bucket's Event list
    whether or not the bucket is pure; the Events of a pure bucket are
    its *strangers*, and the batch dispatcher cuts the tuples into runs
    around them (see ``Simulator._batch_slot``).
    """

    __slots__ = (
        "sim",
        "granularity",
        "num_slots",
        "_scale",
        "_buckets",
        "_bucket_entries",
        "_overflow",
        "_cursor",
        "_open",
        "_open_pos",
        "_open_meta",
        "_open_lazy",
        "_bucket_meta",
        "slots_scanned",
        "cascades",
        "wheel_inserts",
        "overflow_inserts",
    )

    def __init__(
        self,
        sim: "Simulator",
        granularity: float = 0.001,
        num_slots: int = 8192,
    ) -> None:
        if granularity <= 0:
            raise SimulationError(
                f"wheel granularity must be positive, got {granularity}"
            )
        if num_slots < 2:
            raise SimulationError(f"wheel needs >= 2 slots, got {num_slots}")
        self.sim = sim
        self.granularity = granularity
        self.num_slots = num_slots
        self._scale = 1.0 / granularity
        self._buckets: list[list[Event]] = [[] for _ in range(num_slots)]
        self._bucket_entries = 0
        self._overflow: list[tuple[float, int, Event]] = []
        self._cursor = 0
        self._open: list[Event] = []
        self._open_pos = 0
        #: Metadata of a *pure* open slot — ``[name, base_seq, tally,
        #: tuples]``, moved out of ``_bucket_meta`` when the slot opened
        #: — or None. While it is set, the slot's pending content is
        #: the merge of ``_open[_open_pos:]`` (its strangers, sorted)
        #: and the last ``_open_lazy`` tuples. Only the segmented batch
        #: dispatcher consumes that form; every per-event reader
        #: resolves it into sorted Events first.
        self._open_meta: Optional[list] = None
        #: Lazy tuples of the open slot not yet dispatched (0 unless
        #: the open slot is pure).
        self._open_lazy = 0
        #: Per-bucket purity marker: non-None ⇔ the bucket holds lazy
        #: ``(time, action)`` bulk tuples beside its Events, and the
        #: entry is ``[name, base_seq, tally, tuples]``. ``base_seq`` is
        #: the seq of ``tuples[0]`` (the tuples are seq-consecutive in
        #: list order); ``tally`` maps action -> ``[count, t_last]`` and
        #: is built during the bulk scan so an undisturbed slot is
        #: batched without walking the tuples (None once the tuples
        #: have been time-sorted for segmented dispatch).
        self._bucket_meta: list = [None] * num_slots
        self.slots_scanned = 0
        self.cascades = 0
        self.wheel_inserts = 0
        self.overflow_inserts = 0

    def __len__(self) -> int:
        """Total entries held (live + not-yet-skipped cancelled)."""
        return (
            len(self._open) - self._open_pos
            + self._open_lazy
            + self._bucket_entries
            + len(self._overflow)
        )

    def insert(self, event: Event) -> None:
        slot = int(event.time * self._scale)
        cursor = self._cursor
        if slot <= cursor:
            # Lands in (or before) the open slot. Its time is >= now,
            # so bisecting after the consumed prefix preserves order.
            insort(self._open, event, lo=self._open_pos, key=_EVENT_KEY)
            self.wheel_inserts += 1
        elif slot < cursor + self.num_slots:
            self._buckets[slot % self.num_slots].append(event)
            self._bucket_entries += 1
            self.wheel_inserts += 1
        else:
            heapq.heappush(self._overflow, (event.time, event.seq, event))
            self.overflow_inserts += 1

    def _cascade(self) -> None:
        """Promote overflow events whose slot entered the horizon."""
        overflow = self._overflow
        if not overflow:
            return
        cursor = self._cursor
        limit = cursor + self.num_slots
        scale = self._scale
        while overflow and int(overflow[0][0] * scale) < limit:
            event = heapq.heappop(overflow)[2]
            self.cascades += 1
            slot = int(event.time * scale)
            if slot <= cursor:
                insort(self._open, event, lo=self._open_pos, key=_EVENT_KEY)
            else:
                self._buckets[slot % self.num_slots].append(event)
                self._bucket_entries += 1

    def _resolve_open(self) -> None:
        """Turn what is left of a pure open slot into sorted Events:
        the pending lazy tuples become real (pooled where possible)
        Events and are merged with the pending strangers. Taken when
        the batch dispatcher declines the slot or a caller needs
        per-event access."""
        name, base_seq, _, tuples = self._open_meta
        first = len(tuples) - self._open_lazy
        bulk_event = self.sim._bulk_event
        open_ = self._open
        pos = self._open_pos
        pending = open_[pos:]
        # Position i carries seq base_seq + i. A time sort (segmented
        # dispatch) keeps that numbering faithful to (time, seq) order.
        pending.extend(
            bulk_event(time, seq, action, name)
            for seq, (time, action) in enumerate(tuples[first:], base_seq + first)
        )
        pending.sort(key=_EVENT_KEY)
        # In place: the consumed prefix stays for end-of-slot recycling.
        open_[pos:] = pending
        self._open_meta = None
        self._open_lazy = 0

    def advance(
        self, limit_slot: Optional[int] = None, allow_pure: bool = False
    ) -> Optional[Event]:
        """Position at the next live event and return it, or None.

        The event is *not* removed: callers that dispatch it must pair
        this with :meth:`consume` (``peek``-style callers simply don't).
        Cancelled events encountered on the way are dropped with the
        simulator's cancellation bookkeeping kept exact.

        ``limit_slot`` bounds cursor movement: the scan stops (returning
        None) rather than move past that slot. ``run(until=...)`` passes
        the slot containing ``until`` so a far-future overflow event
        cannot drag the cursor beyond the run window — if it did, every
        event scheduled afterwards (all with earlier times) would land
        in the open slot's bisect-insert path instead of an O(1) bucket
        append, silently degrading the wheel into a sorted list. Events
        at or before ``until`` always sit at or before its slot, so the
        bound never hides a due event.

        With ``allow_pure=True`` (the fast dispatch loop), a pure open
        slot returns the ``_PURE_SLOT`` sentinel instead of being
        materialized — the caller must either run the batch dispatcher
        over the slot or call :meth:`advance` again (which resolves
        it). All other callers get pure slots resolved transparently.
        """
        sim = self.sim
        if self._open_meta is not None:
            if allow_pure:
                return _PURE_SLOT
            self._resolve_open()
        while True:
            open_ = self._open
            pos = self._open_pos
            size = len(open_)
            while pos < size:
                event = open_[pos]
                if not event.cancelled:
                    self._open_pos = pos
                    return event
                event._in_queue = False
                sim._cancelled -= 1
                pos += 1
            if size:
                # Slot fully consumed: every entry was dispatched or
                # cancel-skipped, so dispatched pooled events can go
                # back to the arena (the strangers of a slot the batch
                # dispatcher took included; its tuples never were
                # Events).
                arena = sim._arena
                if arena is not None:
                    recycled = [event for event in open_ if event.pooled]
                    if recycled:
                        arena.release_block(recycled)
                del open_[:]
            self._open_pos = 0
            # Open slot exhausted — move the cursor. When every bucket
            # is empty, jump straight to the overflow head's slot
            # instead of scanning potentially millions of empty slots.
            if self._bucket_entries:
                target = self._cursor + 1
            elif self._overflow:
                head_slot = int(self._overflow[0][0] * self._scale)
                target = max(self._cursor + 1, head_slot)
            else:
                return None
            if limit_slot is not None and target > limit_slot:
                return None
            self._cursor = target
            self.slots_scanned += 1
            self._cascade()
            index = self._cursor % self.num_slots
            bucket = self._buckets[index]
            if bucket:
                self._bucket_entries -= len(bucket)
                self._buckets[index] = []
                bucket.sort(key=_EVENT_KEY)
                self._open = bucket
            meta = self._bucket_meta[index]
            if meta is not None:
                self._bucket_meta[index] = None
                self._open_meta = meta
                self._open_lazy = lazy = len(meta[3])
                self._bucket_entries -= lazy
                if allow_pure:
                    return _PURE_SLOT
                self._resolve_open()

    def consume(self) -> None:
        """Remove the event the last :meth:`advance` returned."""
        self._open_pos += 1

    def peek_times(self, k: int) -> list[float]:
        """Times of the next up-to-``k`` pending events, ascending.

        :meth:`advance` positions the cursor on the first live event
        (resolving a pure open slot and skipping cancelled entries);
        the remainder of the open slot is already time-sorted. Forward
        buckets are scanned in slot order — Events with possible
        cancellations, plus the raw ``(time, action)`` tuples of a pure
        bucket — and because slots partition time monotonically the
        scan stops at the first slot boundary with k candidates
        collected. The overflow heap only matters if the
        in-horizon buckets run dry first: post-cascade, every overflow
        time is at or past the wheel horizon, hence after every bucket
        time.
        """
        first = self.advance()
        if first is None:
            return []
        out = [first.time]
        for event in self._open[self._open_pos + 1 :]:
            if len(out) >= k:
                return out[:k]
            if not event.cancelled:
                out.append(event.time)
        metas = self._bucket_meta
        for slot in range(self._cursor + 1, self._cursor + self.num_slots):
            if len(out) >= k:
                return out[:k]
            index = slot % self.num_slots
            times = [e.time for e in self._buckets[index] if not e.cancelled]
            meta = metas[index]
            if meta is not None:
                times.extend(map(_ITEM_TIME, meta[3]))
            times.sort()
            out.extend(times)
        if len(out) < k and self._overflow:
            out.extend(
                heapq.nsmallest(
                    k - len(out),
                    (
                        entry[0]
                        for entry in self._overflow
                        if not entry[2].cancelled
                    ),
                )
            )
        return out[:k]

    def compact(self) -> None:
        """Drop cancelled entries everywhere (wheel analogue of the
        heap's :meth:`Simulator._compact`). Lazy bulk tuples are only
        counted: they are unreachable, so none can be cancelled."""
        live_open = []
        for event in self._open[self._open_pos :]:
            if event.cancelled:
                event._in_queue = False
            else:
                live_open.append(event)
        self._open = live_open
        self._open_pos = 0
        self._bucket_entries = sum(
            len(meta[3]) for meta in self._bucket_meta if meta is not None
        )
        for index, bucket in enumerate(self._buckets):
            if not bucket:
                continue
            live = []
            for event in bucket:
                if event.cancelled:
                    event._in_queue = False
                else:
                    live.append(event)
            self._buckets[index] = live
            self._bucket_entries += len(live)
        live_overflow = []
        for entry in self._overflow:
            if entry[2].cancelled:
                entry[2]._in_queue = False
            else:
                live_overflow.append(entry)
        heapq.heapify(live_overflow)
        self._overflow = live_overflow

    def stats(self) -> dict:
        total_inserts = self.wheel_inserts + self.overflow_inserts
        return {
            "granularity": self.granularity,
            "num_slots": self.num_slots,
            "slots_scanned": self.slots_scanned,
            "cascades": self.cascades,
            "wheel_inserts": self.wheel_inserts,
            "overflow_inserts": self.overflow_inserts,
            "wheel_insert_share": (
                self.wheel_inserts / total_inserts if total_inserts else 0.0
            ),
        }


class PhaseProfiler:
    """Wall-clock phase accounting for a simulator's ``run()`` windows.

    Attach with ``sim.profiler = PhaseProfiler()``; ``run()`` then takes
    a profiled loop that times every event action (*dispatch*) and
    attributes the rest of the loop — slot scans, bucket sorts,
    cascades, heap sifts, cancellation skips — to scheduler *advance*.
    The parallel worker layers two more phases on top of these
    (*sync_wait* for coordinator-pipe blocking and *idle* for the
    remainder) to reach a full breakdown of worker wall time; see
    :meth:`repro.netsim.parallel.sync.SyncStats.phase_breakdown`.

    Two phases live *outside* the ``run()`` loop and are accumulated at
    their call sites instead:

    * ``alloc_seconds`` — event construction/recycling wall time in
      ``schedule_at``/``schedule_bulk`` calls made *between* run
      windows (bulk workload builds, the parallel worker's import
      injection). Scheduling done from inside a dispatched action stays
      charged to *dispatch* — it is part of that event's work — so the
      phases never double-count.
    * ``accounting_seconds`` — metrics flush/snapshot wall time
      (registry collection, telemetry export), accumulated by the
      observability layer at snapshot boundaries.

    The unprofiled fast paths are untouched: with ``profiler`` left
    ``None`` the engine dispatches through the same inlined loops as
    before, so profiling is strictly opt-in.
    """

    __slots__ = (
        "dispatch_seconds",
        "advance_seconds",
        "alloc_seconds",
        "accounting_seconds",
        "events",
        "windows",
    )

    def __init__(self) -> None:
        self.dispatch_seconds = 0.0
        self.advance_seconds = 0.0
        self.alloc_seconds = 0.0
        self.accounting_seconds = 0.0
        self.events = 0
        self.windows = 0

    def add(self, dispatch: float, advance: float, events: int) -> None:
        self.dispatch_seconds += dispatch
        self.advance_seconds += advance
        self.events += events
        self.windows += 1

    def as_dict(self) -> dict:
        return {
            "dispatch_seconds": self.dispatch_seconds,
            "advance_seconds": self.advance_seconds,
            "alloc_seconds": self.alloc_seconds,
            "accounting_seconds": self.accounting_seconds,
            "events": self.events,
            "windows": self.windows,
        }


class Simulator:
    """A seeded discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed for the simulator's private :class:`random.Random`. All
        stochastic substrate behaviour (link loss, jitter, workload
        generators that accept a simulator) draws from this generator,
        which makes whole-system runs reproducible (see the module
        docstring's seeding contract).
    rng:
        An explicit :class:`random.Random` to use instead of seeding a
        fresh one — the injection point for callers that manage their
        own derived streams (partition workers pass
        ``random.Random(derive_seed(seed, "worker", rank))``). Mutually
        exclusive with a non-default ``seed``.
    scheduler:
        ``"heap"`` (default) or ``"wheel"``. Both dispatch in the same
        deterministic ``(time, seq)`` order; the wheel trades the
        heap's O(log n) Python-comparison sifts for O(1) bucket
        inserts plus one C-keyed sort per slot, which wins once the
        pending set is large (see ``docs/performance.md``).
    wheel_granularity / wheel_slots:
        Wheel tuning (ignored for the heap): slot width in simulated
        seconds and slot count. The product is the wheel horizon;
        events beyond it sit in the overflow heap until they cascade.
    native:
        Enable the native-speed event core (arena-pooled events from
        :mod:`repro.netsim.arena` plus batch slot dispatch). Defaults
        to the process-wide ``REPRO_NATIVE`` setting; pass an explicit
        bool to override per simulator (equivalence tests run the same
        workload both ways).
    """

    def __init__(
        self,
        seed: int = 0,
        scheduler: str = "heap",
        wheel_granularity: float = 0.001,
        wheel_slots: int = 8192,
        rng: Optional[random.Random] = None,
        native: Optional[bool] = None,
    ) -> None:
        if scheduler not in ("heap", "wheel"):
            raise SimulationError(
                f"unknown scheduler {scheduler!r} (expected 'heap' or 'wheel')"
            )
        if rng is not None and seed != 0:
            raise SimulationError("pass either seed or rng, not both")
        self._native = NATIVE if native is None else bool(native)
        self._arena = ARENA if self._native else None
        #: Batch dispatch tallies (wheel scheduler, native mode): bulk
        #: ops folded into their groups, the runs they formed and the
        #: slots that held them; ordinary events dispatched between the
        #: runs of a pure slot; bulk ops dispatched one by one straight
        #: from their tuples.
        self.batched_events = 0
        self.batched_runs = 0
        self.batched_slots = 0
        self.stranger_events = 0
        self.peeled_ops = 0
        self._now = 0.0
        self._seq = 0
        self._queue: list[Event] = []
        self._live = 0
        self._cancelled = 0
        self._running = False
        self.rng = rng if rng is not None else random.Random(seed)
        self.events_processed = 0
        self.scheduler = scheduler
        self._wheel: Optional[TimerWheel] = (
            TimerWheel(self, granularity=wheel_granularity, num_slots=wheel_slots)
            if scheduler == "wheel"
            else None
        )
        #: Observability hooks called as ``fn(sim, event, wall_seconds)``
        #: after each event executes (see :mod:`repro.obs.hooks`). The
        #: dispatch loop takes the zero-overhead path when empty.
        self._dispatch_listeners: list[Callable[["Simulator", Event, float], None]] = []
        #: Opt-in phase accounting; assign a :class:`PhaseProfiler` to
        #: route ``run()`` through the profiled loop.
        self.profiler: Optional[PhaseProfiler] = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def reseed(self, seed: int) -> None:
        """Replace the RNG with a freshly seeded one. Used by partition
        workers to switch to their derived per-worker stream after the
        (seed-consuming) topology build, so build-time draws stay
        identical across workers while run-time draws are independent."""
        self.rng = random.Random(seed)

    def schedule(
        self,
        delay: float,
        action: Callable[[], None],
        name: str = "",
    ) -> Event:
        """Schedule ``action`` to run ``delay`` seconds from now.

        Returns the :class:`Event`, which can be cancelled.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        arena = self._arena
        if arena is not None and arena.blocks:
            event = arena.acquire()
            event.gen += 1
            event.time = self._now + delay
            event.seq = self._seq
            event.action = action
            event.name = name
            event.cancelled = False
            event.owner = self
            event._in_queue = True
            event.pooled = False
        else:
            event = Event(self._now + delay, self._seq, action, name, False, self, True)
        wheel = self._wheel
        if wheel is None:
            heapq.heappush(self._queue, event)
        else:
            # Inlined TimerWheel.insert() bucket-append common case —
            # one less call per event on the bulk-scheduling path.
            slot = int(event.time * wheel._scale)
            cursor = wheel._cursor
            if cursor < slot < cursor + wheel.num_slots:
                wheel._buckets[slot % wheel.num_slots].append(event)
                wheel._bucket_entries += 1
                wheel.wheel_inserts += 1
            else:
                wheel.insert(event)
        self._live += 1
        return event

    def schedule_at(
        self,
        time: float,
        action: Callable[[], None],
        name: str = "",
    ) -> Event:
        """Schedule ``action`` at absolute simulated time ``time``.

        Implemented directly rather than via :meth:`schedule` — bulk
        workload generators (the bench harness schedules 10^6 events up
        front) sit on this path, so it skips the extra call frame and
        delay round-trip.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past (time={time}, now={self._now})"
            )
        profiler = self.profiler
        started = (
            perf_counter() if profiler is not None and not self._running else 0.0
        )
        self._seq += 1
        arena = self._arena
        if arena is not None and arena.blocks:
            event = arena.acquire()
            event.gen += 1
            event.time = time
            event.seq = self._seq
            event.action = action
            event.name = name
            event.cancelled = False
            event.owner = self
            event._in_queue = True
            event.pooled = False
        else:
            event = Event(time, self._seq, action, name, False, self, True)
        wheel = self._wheel
        if wheel is None:
            heapq.heappush(self._queue, event)
        else:
            # Inlined TimerWheel.insert() bucket-append common case —
            # see schedule().
            slot = int(time * wheel._scale)
            cursor = wheel._cursor
            if cursor < slot < cursor + wheel.num_slots:
                wheel._buckets[slot % wheel.num_slots].append(event)
                wheel._bucket_entries += 1
                wheel.wheel_inserts += 1
            else:
                wheel.insert(event)
        self._live += 1
        if started:
            profiler.alloc_seconds += perf_counter() - started
        return event

    def schedule_bulk(
        self,
        items: list[tuple[float, Callable[[], None]]],
        name: str = "",
    ) -> int:
        """Schedule many ``(time, action)`` pairs in one call.

        The workload-generator fast path: one call amortises the
        per-event frame, sequencing, and validation costs of
        :meth:`schedule_at` across the whole batch. Dispatch order —
        including ties, which keep input order — is exactly that of a
        sequential loop of ``schedule_at(time, action)`` calls over
        ``items``. (Sequence numbers may be assigned per wheel bucket
        rather than globally in input order, but within every bucket
        they ascend in input order and equal times always share a
        bucket, so the observable ``(time, seq)`` dispatch order is
        identical on both schedulers.)

        On a native-mode simulator, in-horizon wheel entries are not
        materialized at all: each pure bucket holds references to the
        caller's ``(time, action)`` tuples, and a side tally built
        during this single input-order scan lets the batch dispatcher
        consume an undisturbed slot in O(distinct actions) without a
        single Event object ever existing (see ``_batch_slot``, which
        also handles slots that ordinary events share; a slot that
        needs per-event dispatch is materialized from the arena's free
        list on demand). Heap-scheduler and out-of-horizon entries come from
        the arena free list (*pooled* — the engine recycles them after
        dispatch, which is safe because this method returns a count, so
        no caller can hold a reference).

        Returns the number of events scheduled.
        """
        n = len(items)
        if n == 0:
            return 0
        profiler = self.profiler
        started = (
            perf_counter() if profiler is not None and not self._running else 0.0
        )
        now = self._now
        # Atomic validation: one C-level scan up front, so a past-time
        # item rejects the whole batch with nothing scheduled.
        if min(items, key=_ITEM_TIME)[0] < now:
            raise SimulationError(
                f"cannot schedule in the past "
                f"(time={min(items, key=_ITEM_TIME)[0]}, now={now})"
            )
        seq = self._seq
        arena = self._arena
        pooled = arena is not None
        reused = 0
        wheel = self._wheel
        if wheel is None:
            # Consume one free-list block at a time as a local list: the
            # hot loop then pays a single truthiness test per event
            # instead of re-indexing the arena's block stack.
            if pooled:
                blocks = arena.blocks
                pool = blocks.pop() if blocks else None
            else:
                blocks = None
                pool = None
            queue = self._queue
            push = heapq.heappush
            for time, action in items:
                seq += 1
                if pool:
                    event = pool.pop()
                    reused += 1
                    event.gen += 1
                    event.time = time
                    event.seq = seq
                    event.action = action
                    event.name = name
                    event.cancelled = False
                    event.owner = self
                    event._in_queue = True
                    event.pooled = True
                    if not pool:
                        pool = blocks.pop() if blocks else None
                else:
                    event = Event(time, seq, action, name, False, self, True, 0, pooled)
                push(queue, event)
            if pool:
                blocks.append(pool)
            if reused:
                arena.total -= reused
                arena.acquired += reused
        else:
            buckets = wheel._buckets
            metas = wheel._bucket_meta
            num_slots = wheel.num_slots
            scale = wheel._scale
            cursor = wheel._cursor
            limit = cursor + num_slots
            overflow = 0
            if pooled:
                # Native fast path: one input-order scan (the items are
                # iterated in allocation order — perfect locality) does
                # ALL the per-item work. In-horizon items land in pure
                # buckets as references to the caller's own tuples (no
                # allocation at all) while the per-bucket action tally
                # is folded on the fly; dispatch then never revisits
                # them. base_seq stays None until the post-scan
                # assignment, which doubles as the this-call marker.
                touched: list[list] = []
                fb_seq = seq  # fallback events take seqs (seq, seq+nf]
                for item in items:
                    time = item[0]
                    slot = int(time * scale)
                    if cursor < slot < limit:
                        index = slot % num_slots
                        meta = metas[index]
                        if meta is None:
                            # First tuple of this bucket. Events already
                            # in it (and any that follow) are strangers.
                            meta = [name, None, {item[1]: [1, time]}, [item]]
                            metas[index] = meta
                            touched.append(meta)
                        elif meta[1] is None:
                            # Pure bucket this call opened: append the
                            # caller's tuple itself, fold the tally.
                            meta[3].append(item)
                            tally = meta[2]
                            try:
                                entry = tally[item[1]]
                            except KeyError:
                                tally[item[1]] = [1, time]
                            else:
                                entry[0] += 1
                                if time > entry[1]:
                                    entry[1] = time
                        else:
                            # Pure bucket of an earlier bulk call (seq
                            # range already fixed): join as a stranger.
                            fb_seq += 1
                            buckets[index].append(
                                self._bulk_event(time, fb_seq, item[1], name)
                            )
                    else:
                        fb_seq += 1
                        wheel.insert(self._bulk_event(time, fb_seq, item[1], name))
                        overflow += 1
                # Reserve seq ranges for the pure buckets: consecutive
                # from the first free seq after the fallbacks, one run
                # per bucket in touch order. Ranges never interleave
                # with the fallback seqs, within-bucket order is input
                # order, and ties never straddle buckets (equal times
                # share a slot) — so (time, seq) dispatch order matches
                # a sequential schedule_at loop exactly.
                base = fb_seq + 1
                for meta in touched:
                    meta[1] = base
                    base += len(meta[3])
                seq += n
            else:
                # Escape hatch (REPRO_NATIVE=0): classic materialized
                # events; purity is never set, so batch dispatch and the
                # arena stay out of the picture entirely.
                for time, action in items:
                    seq += 1
                    event = Event(time, seq, action, name, False, self, True)
                    slot = int(time * scale)
                    if cursor < slot < limit:
                        index = slot % num_slots
                        buckets[index].append(event)
                    else:
                        wheel.insert(event)
                        overflow += 1
            appended = n - overflow
            wheel._bucket_entries += appended
            wheel.wheel_inserts += appended
        self._seq = seq
        self._live += n
        if started:
            profiler.alloc_seconds += perf_counter() - started
        return n

    def _bulk_event(self, time: float, seq: int, action, name: str) -> Event:
        """Materialize one bulk item as a (pooled if possible) Event:
        schedule_bulk's inserts outside the wheel's buckets and into an
        earlier call's pure bucket, and a pure slot being resolved."""
        arena = self._arena
        event = arena.acquire() if arena is not None else None
        if event is not None:
            event.gen += 1
            event.time = time
            event.seq = seq
            event.action = action
            event.name = name
            event.cancelled = False
            event.owner = self
            event._in_queue = True
            event.pooled = True
            return event
        return Event(
            time, seq, action, name, False, self, True, 0, arena is not None
        )

    def peek_time(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or None."""
        if self._wheel is not None:
            event = self._wheel.advance()
            return None if event is None else event.time
        while self._queue and self._queue[0].cancelled:
            dead = heapq.heappop(self._queue)
            dead._in_queue = False
            self._cancelled -= 1
        if not self._queue:
            return None
        return self._queue[0].time

    def peek_times(self, k: int) -> list[float]:
        """Times of the next up-to-``k`` pending events, ascending,
        without dispatching anything. The sharded runner's grant
        ladders are built from these. O(k log k) on the heap (a
        candidate-frontier walk over the heap array); on the wheel one
        :meth:`TimerWheel.advance` for the exact head, then an
        in-order scan of the open slot and forward buckets — slots
        partition time monotonically, so the scan stops as soon as k
        candidates are in hand at a slot boundary."""
        if k <= 0:
            return []
        if k == 1:
            head = self.peek_time()
            return [] if head is None else [head]
        if self._wheel is not None:
            return self._wheel.peek_times(k)
        head = self.peek_time()  # clears cancelled events off the top
        if head is None:
            return []
        queue = self._queue
        out: list[float] = []
        frontier = [(queue[0].time, 0)]
        while frontier and len(out) < k:
            when, at = heapq.heappop(frontier)
            if not queue[at].cancelled:
                out.append(when)
            for child in (2 * at + 1, 2 * at + 2):
                if child < len(queue):
                    heapq.heappush(frontier, (queue[child].time, child))
        return out

    def _note_cancelled(self) -> None:
        """Bookkeeping for an in-queue cancellation: keep ``pending()``
        O(1) and compact the queue once cancelled events outnumber live
        ones (otherwise long-lived runs that churn timers leak)."""
        self._live -= 1
        self._cancelled += 1
        if self._wheel is not None:
            if (
                len(self._wheel) >= _COMPACT_MIN_QUEUE
                and self._cancelled * 2 > len(self._wheel)
            ):
                self._wheel.compact()
                self._cancelled = 0
            return
        if (
            len(self._queue) >= _COMPACT_MIN_QUEUE
            and self._cancelled * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        for event in self._queue:
            if event.cancelled:
                event._in_queue = False
        self._queue = [event for event in self._queue if not event.cancelled]
        heapq.heapify(self._queue)
        self._cancelled = 0

    def _dispatch(self, event: Event) -> None:
        """Fire one live, already-popped event."""
        self._live -= 1
        self._now = event.time
        self.events_processed += 1
        if self._dispatch_listeners:
            started = perf_counter()
            event.action()
            wall = perf_counter() - started
            for listener in self._dispatch_listeners:
                listener(self, event, wall)
        else:
            event.action()

    def step(self) -> bool:
        """Run the single next event. Returns False if none remain."""
        if self._wheel is not None:
            event = self._wheel.advance()
            if event is None:
                return False
            self._wheel.consume()
            event._in_queue = False
            self._dispatch(event)
            return True
        while self._queue:
            event = heapq.heappop(self._queue)
            event._in_queue = False
            if event.cancelled:
                self._cancelled -= 1
                continue
            self._dispatch(event)
            return True
        return False

    def add_dispatch_listener(
        self, listener: Callable[["Simulator", Event, float], None]
    ) -> None:
        """Register ``listener(sim, event, wall_seconds)`` to run after
        every dispatched event (metrics/profiling hook)."""
        self._dispatch_listeners.append(listener)

    def remove_dispatch_listener(
        self, listener: Callable[["Simulator", Event, float], None]
    ) -> None:
        self._dispatch_listeners.remove(listener)

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        inclusive: bool = True,
    ) -> int:
        """Run events until the queue drains, ``until`` passes, or
        ``max_events`` have fired. Returns the number of events run.

        ``until`` is inclusive by default: an event scheduled exactly at
        ``until`` runs, and the clock is advanced to ``until`` afterwards
        even if no event lands exactly there.

        ``inclusive=False`` makes ``until`` an *exclusive* horizon:
        events strictly before it run, events at exactly ``until`` stay
        queued, and the clock still advances to ``until``. This is the
        conservative-synchronization hook: a partition worker granted
        LBTS horizon ``H`` may safely dispatch everything below ``H``
        (cross-partition traffic arrives at ``>= H`` by the lookahead
        argument) but must not touch ``H`` itself, where an in-flight
        remote packet could still land.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        try:
            if self.profiler is not None:
                ran = self._run_profiled(until, max_events, inclusive)
            elif self._wheel is not None:
                ran = self._run_wheel(until, max_events, inclusive)
            else:
                ran = self._run_heap(until, max_events, inclusive)
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return ran

    def _run_heap(
        self, until: Optional[float], max_events: Optional[int], inclusive: bool = True
    ) -> int:
        ran = 0
        # One heap touch per iteration: discard cancelled events from
        # the head, then pop-and-dispatch in the same pass (the seed
        # peeked via peek_time() and then re-examined the heap top
        # inside step() — two inspections per event).
        while True:
            if max_events is not None and ran >= max_events:
                break
            queue = self._queue  # _compact() may rebind the list
            while queue and queue[0].cancelled:
                dead = heapq.heappop(queue)
                dead._in_queue = False
                self._cancelled -= 1
            if not queue:
                break
            if until is not None and (
                queue[0].time > until or (not inclusive and queue[0].time >= until)
            ):
                break
            event = heapq.heappop(queue)
            event._in_queue = False
            self._dispatch(event)
            ran += 1
            if event.pooled:
                arena = self._arena
                if arena is not None:
                    arena.release(event)
        return ran

    def _offer_run(self, tally: dict, n_ops: int) -> Optional[set]:
        """Offer one run of bulk ops to its batch groups.

        ``tally`` maps action -> ``[count, t_last]`` over exactly the
        run's ``n_ops`` tuples. Actions resolve to their groups
        (``action.batch_group`` — see
        :class:`repro.core.blocks.BlockChannelGroup`), and each group is
        asked whether it can absorb its share under the worst-case
        all-drops-first ordering. Admission is all-or-nothing and the
        scan is side-effect-free: on any refusal nothing happened and
        the refusers are returned — the groups that declined, plus None
        when some action carries no ``batch_group`` at all.

        On commit (returns None) the clock jumps to the run's last op
        and each group applies its aggregate delta once. Aggregation is
        order-independent (pure arithmetic over commuting ±1 ops), so
        the run's internal order never matters.
        """
        # Per-group aggregates: [delta_sum, drop_sum, n_ops, t_last].
        groups: dict = {}
        refusers = set()
        for action, (count, t_last) in tally.items():
            group = getattr(action, "batch_group", None)
            if group is None:
                refusers.add(None)
                continue
            delta = action.batch_delta
            entry = groups.get(group)
            if entry is None:
                groups[group] = entry = [0, 0, 0, 0.0]
            entry[0] += delta * count
            if delta < 0:
                entry[1] -= delta * count
            entry[2] += count
            if t_last > entry[3]:
                entry[3] = t_last
        for group, entry in groups.items():
            if not group.can_batch(entry[1]):
                refusers.add(group)
        if refusers:
            return refusers
        self._now = max(entry[3] for entry in groups.values())
        self._live -= n_ops
        self.events_processed += n_ops
        self.batched_events += n_ops
        self.batched_runs += 1
        for group, entry in groups.items():
            group.run_batch(entry[0], entry[2], entry[3])
        return None

    def _batch_slot(
        self, limit_slot: Optional[int], max_events: Optional[int]
    ) -> int:
        """Dispatch a *pure* open wheel slot run by run.

        Called by ``_run_wheel`` when ``advance()`` reports a pure open
        slot: lazy bulk tuples (unreachable, hence uncancellable) beside
        the slot's ordinary Events, its *strangers*. A slot without live
        strangers is one run, offered to its batch groups through the
        tally ``schedule_bulk`` folded while filling the bucket — O(
        distinct actions), the tuples are never touched or sorted.

        Otherwise the tuples are time-sorted once (stable, so list order
        is ``(time, seq)`` order) and cut at every live stranger by
        bisection. A time tie is decided by seq: the tuples hold one
        reserved seq range, so a stranger older than it goes before the
        tied tuples and a newer one after. Each run between two
        strangers is offered like a whole slot; the stranger is
        dispatched between runs, and the first live stranger is re-read
        after every action, so whatever it scheduled into (or cancelled
        in) the open slot takes its place in the order.

        A run some group refuses (first slot of a wave: no live record
        yet) is *peeled*: dispatched op by op, straight from the tuple
        with no Event, through the first op of every refuser, then
        offered once more; refused again, the rest of the run is peeled.

        Equivalence with per-event dispatch is proven in
        ``tests/properties/test_scheduler_equivalence.py``. Returns the
        number of events consumed; 0 = fall back (``max_events``, a
        dispatch listener, or a run bound inside this slot —
        ``limit_slot``, the slot holding ``until``, is this one — need
        per-event dispatch), and the caller's next ``advance()``
        materializes the slot, strangers merged in.
        """
        wheel = self._wheel
        if (
            max_events is not None
            or self._dispatch_listeners
            or (limit_slot is not None and limit_slot <= wheel._cursor)
        ):
            return 0
        meta = wheel._open_meta
        base_seq = meta[1]
        tuples = meta[3]
        n = len(tuples)
        tpos = n - wheel._open_lazy
        ran = 0
        batched = False
        head = None  # the stranger `cut` was computed for
        cut = n  # the current run is tuples[tpos:cut]
        offers = 0  # offers made to the current run
        waiting: Optional[set] = None  # refusers the peel has yet to pass
        while tpos < n:
            open_ = wheel._open  # compact() may rebind the list
            pos = wheel._open_pos
            size = len(open_)
            while pos < size and open_[pos].cancelled:
                open_[pos]._in_queue = False
                self._cancelled -= 1
                pos += 1
            wheel._open_pos = pos
            stranger = open_[pos] if pos < size else None
            if meta[2] is not None:
                # Undisturbed so far: input order, scan-time tally.
                if stranger is None:
                    offers = 1
                    waiting = self._offer_run(meta[2], n)
                    if waiting is None:
                        batched = True
                        ran += n
                        wheel._open_lazy = 0
                        break
                tuples.sort(key=_ITEM_TIME)
                meta[2] = None
            if stranger is not head:
                head = stranger
                if stranger is None:
                    cut = n
                else:
                    bisect = bisect_left if stranger.seq < base_seq else bisect_right
                    cut = bisect(tuples, stranger.time, tpos, n, key=_ITEM_TIME)
            if tpos == cut:
                wheel._open_pos = pos + 1
                stranger._in_queue = False
                self._live -= 1
                self._now = stranger.time
                self.events_processed += 1
                self.stranger_events += 1
                stranger.action()
                offers = 0
            elif not offers or (offers == 1 and not waiting):
                offers += 1
                waiting = self._offer_run(_run_tally(tuples[tpos:cut]), cut - tpos)
                if waiting is None:
                    batched = True
                    ran += cut - tpos
                    tpos = cut
                    wheel._open_lazy = n - tpos
                continue
            else:
                time, action = tuples[tpos]
                tpos += 1
                wheel._open_lazy = n - tpos
                self._live -= 1
                self._now = time
                self.events_processed += 1
                self.peeled_ops += 1
                action()
                if waiting:
                    waiting.discard(getattr(action, "batch_group", None))
            ran += 1
            if wheel._open_meta is not meta:
                # The action peeked at the queue, which resolved the
                # rest of the slot into Events: back to the plain loop.
                break
        if wheel._open_meta is meta:
            wheel._open_meta = None
        if batched:
            self.batched_slots += 1
        return ran

    def _run_wheel(
        self, until: Optional[float], max_events: Optional[int], inclusive: bool = True
    ) -> int:
        # Fully inlined dispatch loop. The common case — a live event
        # already positioned in the open slot — runs with no method
        # calls besides the action itself; advance() only fires on slot
        # boundaries, cancellations, and cascades. The heap loop keeps
        # its shape: it is the equivalence oracle, not the fast path.
        ran = 0
        wheel = self._wheel
        advance = wheel.advance
        limit_slot = None if until is None else int(until * wheel._scale)
        while True:
            if max_events is not None and ran >= max_events:
                break
            open_ = wheel._open
            pos = wheel._open_pos
            if pos < len(open_):
                event = open_[pos]
                if event.cancelled:
                    event = advance(limit_slot, True)
                    if event is None:
                        break
                    if event is _PURE_SLOT:
                        batched = self._batch_slot(limit_slot, max_events)
                        if batched:
                            ran += batched
                            continue
                        # Declined: materialize + merge, then re-peek.
                        event = advance(limit_slot)
                        if event is None:
                            break
            else:
                event = advance(limit_slot, True)
                if event is None:
                    break
                if event is _PURE_SLOT:
                    # advance() just opened a pure slot: hand it to the
                    # batch dispatcher; if that declines, the follow-up
                    # advance() materializes it for per-event dispatch.
                    batched = self._batch_slot(limit_slot, max_events)
                    if batched:
                        ran += batched
                        continue
                    event = advance(limit_slot)
                    if event is None:
                        break
            if until is not None and (
                event.time > until or (not inclusive and event.time >= until)
            ):
                break
            wheel._open_pos += 1  # consume(): advance left the cursor here
            event._in_queue = False
            # _dispatch(), inlined:
            self._live -= 1
            self._now = event.time
            self.events_processed += 1
            if self._dispatch_listeners:
                started = perf_counter()
                event.action()
                wall = perf_counter() - started
                for listener in self._dispatch_listeners:
                    listener(self, event, wall)
            else:
                event.action()
            ran += 1
        return ran

    def _run_profiled(
        self, until: Optional[float], max_events: Optional[int], inclusive: bool = True
    ) -> int:
        # Scheduler-agnostic dispatch loop with phase timing: every
        # action is timed individually (dispatch wall) and the rest of
        # the loop — advance/cascade/sort for the wheel, sift/skip for
        # the heap — is charged to scheduler advance. Dispatch order is
        # identical to the fast loops (same (time, seq) discipline);
        # only wall-clock observation is added.
        profiler = self.profiler
        listeners = self._dispatch_listeners
        wheel = self._wheel
        limit_slot = (
            None if until is None or wheel is None else int(until * wheel._scale)
        )
        ran = 0
        dispatch_wall = 0.0
        loop_started = perf_counter()
        while True:
            if max_events is not None and ran >= max_events:
                break
            if wheel is not None:
                event = wheel.advance(limit_slot)
                if event is None:
                    break
            else:
                queue = self._queue  # _compact() may rebind the list
                while queue and queue[0].cancelled:
                    dead = heapq.heappop(queue)
                    dead._in_queue = False
                    self._cancelled -= 1
                if not queue:
                    break
                event = queue[0]
            if until is not None and (
                event.time > until or (not inclusive and event.time >= until)
            ):
                break
            if wheel is not None:
                wheel.consume()
            else:
                heapq.heappop(self._queue)
            event._in_queue = False
            self._live -= 1
            self._now = event.time
            self.events_processed += 1
            started = perf_counter()
            event.action()
            wall = perf_counter() - started
            dispatch_wall += wall
            for listener in listeners:
                listener(self, event, wall)
            ran += 1
        total = perf_counter() - loop_started
        profiler.add(
            dispatch=dispatch_wall,
            advance=max(0.0, total - dispatch_wall),
            events=ran,
        )
        return ran

    def pending(self) -> int:
        """Number of live (non-cancelled) events in the queue. O(1):
        maintained incrementally by schedule/cancel/step."""
        return self._live

    def scheduler_stats(self) -> dict:
        """Counters describing scheduler behaviour (for perf reports
        and the obs gauges). Shape depends on the active scheduler."""
        if self._wheel is None:
            stats = {
                "scheduler": "heap",
                "inserts": self._seq,
                "pending": self._live,
            }
        else:
            stats = self._wheel.stats()
            stats["scheduler"] = "wheel"
            stats["pending"] = self._live
        stats["native"] = self._native
        stats["batched_events"] = self.batched_events
        stats["batched_runs"] = self.batched_runs
        stats["batched_slots"] = self.batched_slots
        stats["stranger_events"] = self.stranger_events
        stats["peeled_ops"] = self.peeled_ops
        if self._arena is not None:
            stats["arena"] = self._arena.stats()
        return stats


class PeriodicTask:
    """A repeating task bound to a simulator.

    Used for protocol timers (IGMP/ECMP periodic queries, keepalives).
    The task reschedules itself after each firing until stopped. The
    first firing happens ``interval`` seconds after :meth:`start`
    (optionally jittered to avoid global synchronization, per RFC-style
    timer advice).
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        action: Callable[[], None],
        name: str = "",
        jitter: float = 0.0,
    ) -> None:
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive, got {interval}")
        self._sim = sim
        self._interval = interval
        self._action = action
        self._name = name
        self._jitter = jitter
        self._event: Optional[Event] = None
        self._stopped = True

    @property
    def running(self) -> bool:
        return not self._stopped

    def start(self) -> None:
        if not self._stopped:
            return
        self._stopped = False
        self._schedule_next()

    def stop(self) -> None:
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _schedule_next(self) -> None:
        delay = self._interval
        if self._jitter:
            delay += self._sim.rng.uniform(-self._jitter, self._jitter)
            delay = max(delay, 1e-9)
        self._event = self._sim.schedule(delay, self._fire, name=self._name)

    def _fire(self) -> None:
        if self._stopped:
            return
        self._action()
        if not self._stopped:
            self._schedule_next()


def call_repeatedly(
    sim: Simulator,
    interval: float,
    action: Callable[[], None],
    name: str = "",
    jitter: float = 0.0,
) -> PeriodicTask:
    """Convenience: create and start a :class:`PeriodicTask`."""
    task = PeriodicTask(sim, interval, action, name=name, jitter=jitter)
    task.start()
    return task
