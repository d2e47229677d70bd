"""Discrete-event simulation engine.

A deterministic, single-threaded event loop. Events are ordered by
``(time, sequence)`` where ``sequence`` is a monotonically increasing
insertion counter, so simultaneous events fire in schedule order and
every run with the same seed and schedule is bit-for-bit reproducible.

One scheduler backs the loop: a *sparse slot calendar*
(:class:`TimerWheel`). Simulated time is cut into slots of
``wheel_granularity`` seconds; only occupied slots exist, as buckets in
a dict keyed by absolute slot number beside a min-heap of those
numbers. An insert is an O(1) append to its bucket, a slot is sorted
once (in C, by ``(time, seq)``) when the loop reaches it, and the loop
steps from one occupied slot straight to the next — so a keepalive
thirty seconds out and a flash crowd of thousands of events per
millisecond cost the same per event, and there is no horizon, ring
size or overflow structure to tune. ``schedule_bulk`` tallies its
items in chunked array passes and leaves, per slot, an index into the
caller's list; :meth:`Simulator._batch_slot` folds whole runs of them
into one call per batch group, and the ``(time, action)`` items are
read one by one only when a slot needs per-event dispatch. There is
one run loop; the observability hooks are dispatch listeners on it.

The plain form of all this — a binary heap of events popped one at a
time — is ``tests/oracles/scheduler.py``; the equivalence suites under
``tests/properties/`` hold the two to the same dispatch order, clock
and counters.

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
import random
from bisect import bisect_left, bisect_right, insort
from collections import Counter
from dataclasses import dataclass, field
from heapq import heappop, heappush
from math import isfinite
from operator import attrgetter, itemgetter
from time import perf_counter
from typing import Callable, Optional

from repro.errors import SimulationError

#: Below this many held entries, compaction is never worth the rebuild.
_COMPACT_MIN_QUEUE = 64


def derive_seed(seed: int, *names: object) -> int:
    """Derive a child seed from ``seed`` and a namespace path.

    Stable across processes and Python versions (sha256, not ``hash``),
    so a derived stream never depends on the interpreter's hash seed.
    Distinct paths give independent 64-bit streams:
    ``derive_seed(seed, "worker", rank)``.
    """
    digest = hashlib.sha256(
        ("|".join([str(seed), *map(str, names)])).encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


def check_scheduler(scheduler: str) -> None:
    """Validate the frozen ``scheduler=`` keyword.

    ``benchmarks/e2e`` passes ``scheduler="wheel"`` to ``Simulator``,
    ``Topology``, ``TopologyBuilder.isp`` and ``ParallelRunner``, so
    those four still accept the keyword; ``"wheel"`` is its only legal
    value and nothing stores it.
    """
    if scheduler == "heap":
        raise SimulationError(
            "the heap scheduler is no longer shipped: it is the reference "
            "implementation in tests/oracles/scheduler.py"
        )
    if scheduler != "wheel":
        raise SimulationError(
            f"unknown scheduler {scheduler!r} (the only scheduler is 'wheel')"
        )


#: The total dispatch order. ``attrgetter`` builds the ``(time, seq)``
#: tuple in C, so slot sorts and open-slot bisection never call back
#: into Python.
_EVENT_KEY = attrgetter("time", "seq")

#: Time of a bulk ``(time, action)`` item.
_ITEM_TIME = itemgetter(0)

#: Action of a bulk ``(time, action)`` item (per-run tallies).
_ITEM_ACTION = itemgetter(1)

#: Items per array pass of ``schedule_bulk``: its temporaries are a few
#: arrays of this length, however long the list it is given.
_BULK_CHUNK = 1 << 16

#: Slot numbers from here up do not fit an int64 array pass (nor a
#: packed ``(slot, action)`` sort key); such items become Events.
_FAR_SLOT = 1 << 62


def _time_error(time: float, past: str = "") -> SimulationError:
    """The error for a rejected time: ``past`` for a finite time before
    now, otherwise the one for a time no slot can number — NaN, ±inf,
    or finite but beyond the calendar's range."""
    if past and isfinite(time):
        return SimulationError(past)
    return SimulationError(
        f"cannot schedule at time={time}: times must be finite "
        "and within the calendar's range"
    )


class _ActionCodes(dict):
    """Action -> dense int code, numbered in order of first lookup."""

    __slots__ = ()

    def __missing__(self, action) -> int:
        code = self[action] = len(self)
        return code


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


@dataclass(eq=False, slots=True)
class Event:
    """A scheduled callback.

    Dispatch order is ``(time, seq)``. Cancelled events are skipped
    when they come due; the owning simulator additionally compacts its
    calendar when cancelled events pile up (see
    :meth:`Simulator._note_cancelled`).
    """

    time: float
    seq: int
    action: Callable[[], None]
    name: str = ""
    cancelled: bool = False
    #: The simulator whose calendar holds this event (None for
    #: hand-built events), so cancellation can keep live/cancelled
    #: bookkeeping exact.
    owner: Optional["Simulator"] = field(default=None, repr=False)
    #: False once dispatched: cancelling a fired event counts nothing.
    _in_queue: bool = field(default=False, repr=False)

    def cancel(self) -> None:
        """Mark the event so the engine skips it when it comes due."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.owner is not None and self._in_queue:
            self.owner._note_cancelled()


class _BulkRecord:
    """The bulk entries one ``schedule_bulk`` call left in one slot.

    ``index`` holds the positions of the slot's ``size`` items in the
    caller's ``items`` list; in input order they carry the seqs
    ``base_seq`` to ``base_seq + size - 1``. ``tally`` maps action ->
    ``[count, t_last]`` over them, so an undisturbed slot is batched
    from it alone (None once the tuples have been time-sorted for
    segmented dispatch). ``tuples`` — the caller's ``(time, action)``
    items themselves — stays None until a reader that needs the
    entries one by one calls :meth:`materialize`.
    """

    __slots__ = ("name", "base_seq", "tally", "size", "items", "index", "tuples")

    def __init__(self, name: str, base_seq: int, tally: dict, items: list, index) -> None:
        self.name = name
        self.base_seq = base_seq
        self.tally = tally
        self.size = len(index)
        self.items = items
        self.index = index
        self.tuples = None

    def materialize(self) -> list:
        """The slot's ``(time, action)`` items, built once, in input
        order (the batch dispatcher may then time-sort the list in
        place); the record lets go of the caller's list and the index."""
        if self.tuples is None:
            index = self.index
            index.sort()
            self.tuples = list(map(self.items.__getitem__, index.tolist()))
            self.items = self.index = None
        return self.tuples


#: Sentinel returned by ``TimerWheel.advance(..., allow_pure=True)``
#: when the open slot is *pure* — it still holds lazy bulk entries
#: beside its Events. Only the run loop asks for it (to run the
#: segmented batch dispatcher before paying materialization); every
#: other caller gets pure slots resolved transparently.
_PURE_SLOT = Event(0.0, -1, lambda: None, "__pure_slot__")


class TimerWheel:
    """A sparse slot calendar. (The name, like the ``wheel_*`` stat
    names, is kept from the fixed ring of slots this replaced.)

    Slot ``int(time / granularity)`` is an absolute number, not a ring
    index. ``_buckets`` maps the number of each occupied future slot to
    its unsorted list of events — an insert is one dict probe and an
    append, at any distance from now — and ``_slots`` is a min-heap of
    those numbers: plain ints, compared in C, one push per bucket
    rather than per event. When the open slot runs out, :meth:`advance`
    pops the next occupied number, sorts that bucket once by ``(time,
    seq)`` and consumes it front to back; empty stretches of simulated
    time are never visited, so there is no horizon beyond which events
    need a second structure. A slot number can sit in the heap more
    than once (a slot's Event list and its bulk record are created
    independently); :meth:`advance` drains the repeats with the first.

    Dispatch order is exactly ``(time, seq)``: slots partition time
    monotonically, each slot is sorted, and a late insert into the
    already-open slot is placed by bisection after the consumed prefix
    — its time is ``>= now``, so it can never sort before an
    already-dispatched entry.

    **Pure buckets.** ``schedule_bulk`` stores no :class:`Event` and no
    tuple for its entries: a slot's share of the caller's list is a
    :class:`_BulkRecord` — an index into that list and the tally
    ``{action: [count, t_last]}`` its array passes computed — in
    ``_bucket_meta[slot]``, *beside* the slot's Event list, and a slot
    with such a record is *pure*. The batch dispatcher consumes an
    undisturbed pure slot in O(distinct actions) from the tally; the
    ``(time, action)`` items are looked up only for per-event dispatch
    (:meth:`_BulkRecord.materialize`). Pure entries are unreachable
    outside the engine (bulk scheduling returns a count), hence
    uncancellable.
    Every ordinary insert appends its Event to the slot's Event list
    whether or not the slot is pure; the Events of a pure slot are its
    *strangers*, and the batch dispatcher cuts the tuples into runs
    around them (see ``Simulator._batch_slot``).
    """

    __slots__ = (
        "sim",
        "granularity",
        "_scale",
        "_buckets",
        "_bucket_meta",
        "_slots",
        "_cursor",
        "_open",
        "_open_pos",
        "_open_meta",
        "_open_lazy",
        "slots_scanned",
    )

    def __init__(self, sim: "Simulator", granularity: float) -> None:
        if granularity <= 0:
            raise SimulationError(
                f"wheel granularity must be positive, got {granularity}"
            )
        self.sim = sim
        self.granularity = granularity
        self._scale = 1.0 / granularity
        #: Events of every occupied slot after the cursor, by slot.
        self._buckets: dict[int, list[Event]] = {}
        #: Per-slot purity record, keyed like ``_buckets``: present ⇔
        #: the slot holds lazy bulk entries beside its Events.
        self._bucket_meta: dict[int, _BulkRecord] = {}
        #: Min-heap of the keys of ``_buckets`` and ``_bucket_meta``.
        self._slots: list[int] = []
        #: The open slot's number; every stored slot is later.
        self._cursor = 0
        self._open: list[Event] = []
        self._open_pos = 0
        #: The record of a *pure* open slot, moved out of
        #: ``_bucket_meta`` when the slot opened, or None. While it is
        #: set, the slot's pending content is the merge of
        #: ``_open[_open_pos:]`` (its strangers, sorted) and the last
        #: ``_open_lazy`` bulk entries. Only the segmented batch
        #: dispatcher consumes that form; every per-event reader
        #: resolves it into sorted Events first.
        self._open_meta: Optional[_BulkRecord] = None
        #: Lazy bulk entries of the open slot not yet dispatched (0
        #: unless the open slot is pure).
        self._open_lazy = 0
        #: Occupied slots opened so far — never more than the events
        #: scheduled, however far apart they lie.
        self.slots_scanned = 0

    def __len__(self) -> int:
        """Entries held (live + not-yet-skipped cancelled), counted
        from the structure itself; the engine's own running total is
        ``sim._live + sim._cancelled``."""
        return (
            len(self._open) - self._open_pos
            + self._open_lazy
            + sum(map(len, self._buckets.values()))
            + sum(meta.size for meta in self._bucket_meta.values())
        )

    def insert(self, event: Event) -> None:
        """Place ``event``: by bisection in the open slot, by append in
        any later one. (``Simulator.schedule``/``schedule_at`` inline
        this.)"""
        slot = int(event.time * self._scale)
        if slot <= self._cursor:
            # Lands in (or before) the open slot. Its time is >= now,
            # so bisecting after the consumed prefix preserves order.
            insort(self._open, event, lo=self._open_pos, key=_EVENT_KEY)
            return
        bucket = self._buckets.get(slot)
        if bucket is None:
            self._buckets[slot] = [event]
            heappush(self._slots, slot)
        else:
            bucket.append(event)

    def _resolve_open(self) -> None:
        """Turn what is left of a pure open slot into sorted Events:
        the pending lazy entries become real Events and are merged with
        the pending strangers. Taken when the batch dispatcher declines
        the slot or a caller needs per-event access."""
        meta = self._open_meta
        name, base_seq, tuples = meta.name, meta.base_seq, meta.materialize()
        first = meta.size - self._open_lazy
        sim = self.sim
        pending = self._open[self._open_pos :]
        # Position i carries seq base_seq + i. A time sort (segmented
        # dispatch) keeps that numbering faithful to (time, seq) order.
        pending.extend(
            Event(time, seq, action, name, False, sim, True)
            for seq, (time, action) in enumerate(tuples[first:], base_seq + first)
        )
        pending.sort(key=_EVENT_KEY)
        self._open = pending
        self._open_pos = 0
        self._open_meta = None
        self._open_lazy = 0

    def advance(
        self, limit_slot: Optional[int] = None, allow_pure: bool = False
    ) -> Optional[Event]:
        """Position at the next live event and return it, or None.

        The event is *not* removed: the run loop steps ``_open_pos``
        past it when it dispatches (``peek``-style callers simply
        don't). Cancelled events encountered on the way are dropped
        with the simulator's cancellation bookkeeping kept exact.

        ``limit_slot`` bounds cursor movement: the scan stops (returning
        None) rather than open a slot past it. ``run(until=...)`` passes
        the slot containing ``until`` so a far-future event cannot drag
        the cursor beyond the run window — if it did, every event
        scheduled afterwards (all with earlier times) would land in the
        open slot's bisect-insert path instead of an O(1) bucket
        append, silently degrading the calendar into a sorted list.
        Events at or before ``until`` always sit at or before its slot,
        so the bound never hides a due event.

        With ``allow_pure=True`` (the run loop), a pure open slot
        returns the ``_PURE_SLOT`` sentinel instead of being
        materialized — the caller must either run the batch dispatcher
        over the slot or call :meth:`advance` again (which resolves
        it). All other callers get pure slots resolved transparently.
        """
        sim = self.sim
        if self._open_meta is not None:
            if allow_pure:
                return _PURE_SLOT
            self._resolve_open()
        slots = self._slots
        while True:
            open_ = self._open
            pos = self._open_pos
            size = len(open_)
            while pos < size:
                event = open_[pos]
                if not event.cancelled:
                    self._open_pos = pos
                    return event
                sim._cancelled -= 1
                pos += 1
            open_.clear()
            self._open_pos = 0
            # Open slot exhausted: step to the next occupied one.
            if not slots or (limit_slot is not None and slots[0] > limit_slot):
                return None
            slot = heappop(slots)
            while slots and slots[0] == slot:
                heappop(slots)
            self._cursor = slot
            self.slots_scanned += 1
            bucket = self._buckets.pop(slot, None)
            if bucket is not None:
                bucket.sort(key=_EVENT_KEY)
                self._open = bucket
            meta = self._bucket_meta.pop(slot, None)
            if meta is not None:
                self._open_meta = meta
                self._open_lazy = meta.size
                if allow_pure:
                    return _PURE_SLOT
                self._resolve_open()

    def peek_times(self, k: int) -> list[float]:
        """Times of the next up-to-``k`` pending events, ascending.

        :meth:`advance` positions the cursor on the first live event
        (resolving a pure open slot and skipping cancelled entries);
        the remainder of the open slot is already time-sorted. The
        stored slots are then read in slot order — Events with possible
        cancellations, plus the ``(time, action)`` items of a pure slot
        — and because slots partition time monotonically the scan
        stops at the first slot boundary with k candidates collected.
        """
        first = self.advance()
        if first is None:
            return []
        out = [first.time]
        for event in self._open[self._open_pos + 1 :]:
            if len(out) >= k:
                return out
            if not event.cancelled:
                out.append(event.time)
        # A copy of the slot heap, popped only as far as needed.
        slots = self._slots[:]
        last = None
        while slots and len(out) < k:
            slot = heappop(slots)
            if slot == last:
                continue
            last = slot
            times = [e.time for e in self._buckets.get(slot, ()) if not e.cancelled]
            meta = self._bucket_meta.get(slot)
            if meta is not None:
                times.extend(map(_ITEM_TIME, meta.materialize()))
            times.sort()
            out.extend(times)
        return out[:k]

    def compact(self) -> None:
        """Drop cancelled entries everywhere, with the buckets they
        emptied and those buckets' slot numbers. Lazy bulk entries are
        unreachable, so none can be cancelled."""
        self._open = [e for e in self._open[self._open_pos :] if not e.cancelled]
        self._open_pos = 0
        buckets = self._buckets
        for slot, bucket in list(buckets.items()):
            live = [event for event in bucket if not event.cancelled]
            if live:
                buckets[slot] = live
            else:
                del buckets[slot]
        # A sorted list is a valid heap.
        self._slots = sorted(buckets.keys() | self._bucket_meta.keys())


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
    scheduler:
        Frozen: ``"wheel"``, the only scheduler (see
        :func:`check_scheduler`).
    wheel_granularity:
        Slot width of the calendar in simulated seconds. Dispatch order
        does not depend on it; it trades sort size against slot count.
        The 1 ms default suits packet-level traffic; bulk-scheduled
        storms want coarser slots (50 ms) so batch dispatch sees full
        buckets.
    rng:
        An explicit :class:`random.Random` to use instead of seeding a
        fresh one — the injection point for callers that manage their
        own derived streams (partition workers pass
        ``random.Random(derive_seed(seed, "worker", rank))``). Mutually
        exclusive with a non-default ``seed``.
    """

    def __init__(
        self,
        seed: int = 0,
        scheduler: str = "wheel",
        wheel_granularity: float = 0.001,
        rng: Optional[random.Random] = None,
    ) -> None:
        check_scheduler(scheduler)
        if rng is not None and seed != 0:
            raise SimulationError("pass either seed or rng, not both")
        #: Batch dispatch tallies: bulk ops folded into their groups,
        #: the runs they formed and the slots that held them; ordinary
        #: events dispatched between the runs of a pure slot; bulk ops
        #: dispatched one by one straight from their tuples.
        self.batched_events = 0
        self.batched_runs = 0
        self.batched_slots = 0
        self.stranger_events = 0
        self.peeled_ops = 0
        #: Current simulated time in seconds. A plain attribute, read
        #: on every hop: only the run loop and the batch dispatcher
        #: write it.
        self.now = 0.0
        self._seq = 0
        self._live = 0
        self._cancelled = 0
        self._running = False
        self.rng = rng if rng is not None else random.Random(seed)
        self.events_processed = 0
        self._wheel = TimerWheel(self, wheel_granularity)
        #: Observability hooks called as ``fn(sim, event, wall_seconds)``
        #: after each event executes (see :mod:`repro.obs.hooks`). The
        #: run loop times nothing while the list is empty.
        self._dispatch_listeners: list[Callable[["Simulator", Event, float], None]] = []

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
            raise _time_error(delay, f"cannot schedule in the past (delay={delay})")
        time = self.now + delay
        # TimerWheel.insert(), inlined: one call less per event. The
        # slot is numbered first, so a NaN or infinite time is refused
        # before anything has changed.
        wheel = self._wheel
        try:
            slot = int(time * wheel._scale)
        except (ValueError, OverflowError):
            raise _time_error(time) from None
        self._seq += 1
        event = Event(time, self._seq, action, name, False, self, True)
        if slot > wheel._cursor:
            bucket = wheel._buckets.get(slot)
            if bucket is None:
                wheel._buckets[slot] = [event]
                heappush(wheel._slots, slot)
            else:
                bucket.append(event)
        else:
            insort(wheel._open, event, lo=wheel._open_pos, key=_EVENT_KEY)
        self._live += 1
        return event

    def schedule_at(
        self,
        time: float,
        action: Callable[[], None],
        name: str = "",
    ) -> Event:
        """Schedule ``action`` at absolute simulated time ``time``.

        Implemented directly rather than via :meth:`schedule` —
        workload generators schedule 10^6 events up front through this
        — so it skips the extra call frame and delay round-trip.
        """
        if time < self.now:
            raise _time_error(
                time, f"cannot schedule in the past (time={time}, now={self.now})"
            )
        # TimerWheel.insert(), inlined — see schedule().
        wheel = self._wheel
        try:
            slot = int(time * wheel._scale)
        except (ValueError, OverflowError):
            raise _time_error(time) from None
        self._seq += 1
        event = Event(float(time), self._seq, action, name, False, self, True)
        if slot > wheel._cursor:
            bucket = wheel._buckets.get(slot)
            if bucket is None:
                wheel._buckets[slot] = [event]
                heappush(wheel._slots, slot)
            else:
                bucket.append(event)
        else:
            insort(wheel._open, event, lo=wheel._open_pos, key=_EVENT_KEY)
        self._live += 1
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
        ``items``. (Sequence numbers are assigned per slot rather than
        globally in input order, but within every slot they ascend in
        input order and equal times always share a slot, so the
        observable ``(time, seq)`` dispatch order is identical.)

        Entries past the open slot become neither Events nor tuples:
        the items are read in fixed-size chunks of array passes (times,
        slots, one sort by ``(slot, action)``), and each slot they fill
        gets a pure record — the positions of its items in ``items``
        and a tally ``{action: [count, t_last]}`` — that lets the batch
        dispatcher consume an undisturbed slot in O(distinct actions)
        without ever looking at those items again (see ``_batch_slot``,
        which also handles slots that ordinary events share; a slot
        that needs per-event dispatch reads its items then). Items that
        land in the open slot, or in a slot an earlier call made pure,
        are scheduled as ordinary Events. This method returns a count,
        so no caller can hold — or cancel — one of its entries.

        ``items`` is the engine's until its entries are dispatched: the
        pure records read the ``(time, action)`` pairs from the list
        when a slot comes due, so the caller must not change it (nor
        the pairs) in the meantime. The times must be floats, as every
        caller passes them: a time becomes ``now`` as given.

        A past or non-finite time rejects the whole batch with a
        :class:`SimulationError`, before anything is scheduled.

        Returns the number of events scheduled.
        """
        n = len(items)
        if n == 0:
            return 0
        # First use only, like networkx in Topology.graph(): importing
        # repro and building a network stay numpy-free.
        import numpy as np

        wheel = self._wheel
        metas = wheel._bucket_meta
        scale = wheel._scale
        cursor = wheel._cursor
        now = self.now
        action_codes = _ActionCodes()
        code_of = action_codes.__getitem__
        index_type = np.int32 if n < 1 << 31 else np.int64
        # Pass 1, one chunk at a time, stores nothing, so a bad item in
        # any chunk rejects the whole batch. It sorts each chunk by
        # (slot, action) and folds every run of equal keys into the
        # slot's tally; Python loops over those runs, never the items.
        fallbacks: list[int] = []  # positions of items that become Events
        fresh: dict[int, list] = {}  # slot -> [index parts, tally]
        touched: list[int] = []  # fresh slots, in the order first touched
        for lo in range(0, n, _BULK_CHUNK):
            chunk = items[lo : lo + _BULK_CHUNK]
            m = len(chunk)
            times = np.fromiter(map(_ITEM_TIME, chunk), np.float64, m)
            scaled = times * scale
            finite = np.isfinite(scaled)
            if not finite.all():
                raise _time_error(chunk[int(finite.argmin())][0])
            earliest = float(times.min())
            if earliest < now:
                raise SimulationError(
                    f"cannot schedule in the past (time={earliest}, now={now})"
                )
            codes = np.fromiter(map(code_of, map(_ITEM_ACTION, chunk)), np.int64, m)
            slots = np.minimum(scaled, float(_FAR_SLOT)).astype(np.int64)
            low = int(slots.min())
            width = len(action_codes)
            if (int(slots.max()) - low + 1) * width < _FAR_SLOT:
                key = (slots - low) * width + codes
            else:
                # Slots too far apart to pack beside the codes: rank them.
                key = np.unique(slots, return_inverse=True)[1].reshape(-1) * width + codes
            order = np.argsort(key)
            starts = np.flatnonzero(np.diff(key[order], prepend=-1))
            # Per (slot, action) run: count, last time, first position;
            # listed by slot, then by first position, because a tally
            # lists its actions in the order the slot's items first use
            # them and the batch groups apply in that order.
            counts = np.diff(starts, append=m)
            lasts = np.maximum.reduceat(times[order], starts)
            firsts = np.minimum.reduceat(order, starts)
            run_slots = slots[order[starts]]
            by_first = np.lexsort((firsts, run_slots))
            counts = counts[by_first].tolist()
            lasts = lasts[by_first].tolist()
            firsts = firsts[by_first].tolist()
            actions = list(map(_ITEM_ACTION, map(chunk.__getitem__, firsts)))
            heads = np.flatnonzero(np.diff(run_slots, prepend=-1)).tolist()
            heads.append(len(counts))
            run_slots = run_slots.tolist()
            starts = starts.tolist()
            starts.append(m)
            order += lo
            index = order.astype(index_type)
            born = []  # the first run of each slot this chunk touched first
            for a, b in zip(heads, heads[1:]):  # runs a..b-1 share a slot
                slot = run_slots[a]
                if slot <= cursor or slot >= _FAR_SLOT or slot in metas:
                    # The open slot, a pure slot of an earlier call (its
                    # seq range is fixed), or out of the packed range.
                    fallbacks.extend(order[starts[a] : starts[b]].tolist())
                    continue
                part = index[starts[a] : starts[b]]
                record = fresh.get(slot)
                if record is None:
                    # One chunk's runs in one slot have distinct actions.
                    tally = {actions[r]: [counts[r], lasts[r]] for r in range(a, b)}
                    fresh[slot] = [[part], tally]
                    born.append(a)
                    continue
                record[0].append(part)
                tally = record[1]
                for r in range(a, b):
                    entry = tally.get(actions[r])
                    if entry is None:
                        tally[actions[r]] = [counts[r], lasts[r]]
                    else:
                        entry[0] += counts[r]
                        if lasts[r] > entry[1]:
                            entry[1] = lasts[r]
            born.sort(key=firsts.__getitem__)
            touched.extend(map(run_slots.__getitem__, born))
        # Pass 2 stores: the fallback Events take the next seqs in
        # input order, then each fresh slot, in the order the input
        # first touched it, one consecutive range in input order. Ties
        # never straddle slots (equal times share one), so (time, seq)
        # dispatch order matches a sequential schedule_at loop exactly.
        seq = self._seq
        fallbacks.sort()
        for position in fallbacks:
            time, action = items[position]
            seq += 1
            wheel.insert(Event(time, seq, action, name, False, self, True))
        heap = wheel._slots
        for slot in touched:
            parts, tally = fresh[slot]
            index = parts[0] if len(parts) == 1 else np.concatenate(parts)
            metas[slot] = _BulkRecord(name, seq + 1, tally, items, index)
            heappush(heap, slot)
            seq += len(index)
        self._seq = seq
        self._live += n
        return n

    def peek_time(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or None."""
        event = self._wheel.advance()
        return None if event is None else event.time

    def peek_times(self, k: int) -> list[float]:
        """Times of the next up-to-``k`` pending events, ascending,
        without dispatching anything. The sharded runner's grant
        ladders are built from these (see
        :meth:`TimerWheel.peek_times`)."""
        if k <= 0:
            return []
        return self._wheel.peek_times(k)

    def _note_cancelled(self) -> None:
        """Bookkeeping for an in-queue cancellation: keep ``pending()``
        O(1) and compact the calendar once cancelled events outnumber
        live ones (otherwise long-lived runs that churn timers leak)."""
        self._live -= 1
        self._cancelled += 1
        held = self._live + self._cancelled
        if held >= _COMPACT_MIN_QUEUE and self._cancelled * 2 > held:
            self._wheel.compact()
            self._cancelled = 0

    def step(self) -> bool:
        """Run the single next event. Returns False if none remain."""
        return self.run(max_events=1) == 1

    def add_dispatch_listener(
        self, listener: Callable[["Simulator", Event, float], None]
    ) -> None:
        """Register ``listener(sim, event, wall_seconds)`` to run after
        every dispatched event (metrics/profiling hook). While any
        listener is installed, bulk slots are dispatched event by event
        so that each one is seen."""
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
        even if no event lands exactly there — unless ``max_events``
        stopped the run with events inside the window still pending, in
        which case the clock stays at the last event run.

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
        wheel = self._wheel
        advance = wheel.advance
        limit_slot = None if until is None else int(until * wheel._scale)
        ran = 0
        self._running = True
        try:
            # The common case — a live event already positioned in the
            # open slot — runs with no method calls besides the action
            # itself; advance() only fires on slot boundaries and
            # cancellations.
            while max_events is None or ran < max_events:
                open_ = wheel._open  # compact() may rebind the list
                pos = wheel._open_pos
                if pos < len(open_) and not open_[pos].cancelled:
                    event = open_[pos]
                else:
                    event = advance(limit_slot, True)
                    if event is _PURE_SLOT:
                        # Offer the slot to the batch dispatcher; if it
                        # declines, the follow-up advance() materializes
                        # it for per-event dispatch.
                        batched = self._batch_slot(limit_slot, max_events)
                        if batched:
                            ran += batched
                            continue
                        event = advance(limit_slot)
                    if event is None:
                        break
                if until is not None and (
                    event.time > until
                    or (not inclusive and event.time >= until)
                ):
                    break
                wheel._open_pos += 1  # advance left the cursor on it
                event._in_queue = False
                self._live -= 1
                self.now = event.time
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
        finally:
            self._running = False
        if until is not None and self.now < until:
            if max_events is not None and ran >= max_events:
                # Stopped by the cap: the clock may not pass an event
                # that is still due inside the window.
                head = advance(limit_slot)
                if head is not None and (
                    head.time < until or (inclusive and head.time == until)
                ):
                    return ran
            self.now = float(until)
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
        self.now = max(entry[3] for entry in groups.values())
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

        Called by ``run()`` when ``advance()`` reports a pure open
        slot: lazy bulk entries (unreachable, hence uncancellable)
        beside the slot's ordinary Events, its *strangers*. A slot
        without live strangers is one run, offered to its batch groups
        through the tally ``schedule_bulk`` computed — O(distinct
        actions): its ``(time, action)`` tuples are never even built.

        Otherwise the tuples are built (:meth:`_BulkRecord.materialize`)
        and time-sorted once (stable, so list order
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
        base_seq = meta.base_seq
        tuples = meta.tuples  # None while the slot is undisturbed
        n = meta.size
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
                self._cancelled -= 1
                pos += 1
            wheel._open_pos = pos
            stranger = open_[pos] if pos < size else None
            if meta.tally is not None:
                # Undisturbed so far: the tally schedule_bulk computed.
                if stranger is None:
                    offers = 1
                    waiting = self._offer_run(meta.tally, n)
                    if waiting is None:
                        batched = True
                        ran += n
                        wheel._open_lazy = 0
                        break
                tuples = meta.materialize()
                tuples.sort(key=_ITEM_TIME)
                meta.tally = None
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
                self.now = stranger.time
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
                self.now = time
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

    def pending(self) -> int:
        """Number of live (non-cancelled) events in the queue. O(1):
        maintained incrementally by schedule/cancel/dispatch."""
        return self._live

    def scheduler_stats(self) -> dict:
        """Counters describing scheduler behaviour (for perf reports
        and the obs gauges)."""
        wheel = self._wheel
        return {
            "scheduler": "wheel",
            "granularity": wheel.granularity,
            "slots_scanned": wheel.slots_scanned,
            # Every scheduled event is exactly one calendar insert;
            # nothing overflows (the key is frozen by benchmarks/e2e).
            "wheel_inserts": self._seq,
            "overflow_inserts": 0,
            "pending": self._live,
            "batched_events": self.batched_events,
            "batched_runs": self.batched_runs,
            "batched_slots": self.batched_slots,
            "stranger_events": self.stranger_events,
            "peeled_ops": self.peeled_ops,
        }


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
