"""Discrete-event simulation engine.

A deterministic, single-threaded event loop. Events are ordered by
``(time, sequence)`` where ``sequence`` is a monotonically increasing
insertion counter, so simultaneous events fire in schedule order and
every run with the same seed and schedule is bit-for-bit reproducible.

The :class:`Simulator` is a *sparse slot calendar*. Simulated time is
cut into slots of ``wheel_granularity`` seconds; only occupied slots
exist, as buckets in a dict keyed by absolute slot number beside a
min-heap of those numbers. An insert is an O(1) append to its bucket,
a slot is sorted once (in C, by ``(time, seq)``) when the loop reaches
it, and the loop steps from one occupied slot straight to the next —
so a keepalive thirty seconds out and a flash crowd of thousands of
events per millisecond cost the same per event, and there is no
horizon, ring size or overflow structure to tune. A slot holds
:class:`Event` objects and at most one :class:`_BulkRecord`: what a
``schedule_bulk`` call left there, an index into the caller's list and
a tally, computed in chunked array passes. One reader consumes a
record, :meth:`Simulator._run_bulk`: it folds whole runs of bulk
entries into one call per batch group and dispatches the rest one by
one from their ``(time, action)`` tuples, never as Events. There is
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


def _slot_times(events, record: Optional["_BulkRecord"], k: int) -> list[float]:
    """The first up-to-``k`` pending times of one slot, ascending: its
    live Events' and its bulk record's undispatched entries'."""
    times = [event.time for event in events if not event.cancelled]
    if record is not None:
        times += map(_ITEM_TIME, record.sort()[record.pos : record.pos + k])
    times.sort()
    return times[:k]


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
    from it alone. ``tuples`` — the caller's ``(time, action)`` items
    themselves — stays None until a reader that needs them one by one
    calls :meth:`sort`; the first ``pos`` of them have been dispatched.
    """

    __slots__ = ("name", "base_seq", "tally", "size", "items", "index", "tuples", "pos")

    def __init__(self, name: str, base_seq: int, tally: dict, items: list, index) -> None:
        self.name = name
        self.base_seq = base_seq
        self.tally = tally
        self.size = len(index)
        self.items = items
        self.index = index
        self.tuples = None
        self.pos = 0

    def sort(self) -> list:
        """The slot's ``(time, action)`` items in ``(time, seq)`` order,
        built once: taken in input order, then stably time-sorted.
        Position ``i`` then carries seq ``base_seq + i``, a renumbering
        inside the reserved range that keeps the order. The record lets
        go of the caller's list, the index and the tally."""
        if self.tuples is None:
            index = self.index
            index.sort()
            self.tuples = list(map(self.items.__getitem__, index.tolist()))
            self.tuples.sort(key=_ITEM_TIME)
            self.items = self.index = self.tally = None
        return self.tuples


class Simulator:
    """A seeded discrete-event simulator on a sparse slot calendar.

    Slot ``int(time / granularity)`` is an absolute number, not a ring
    index. ``_buckets`` maps the number of each occupied future slot to
    its unsorted list of Events — an insert is one dict probe and an
    append, at any distance from now — and ``_slots`` is a min-heap of
    those numbers: plain ints, compared in C, one push per bucket
    rather than per event. When the open slot runs out,
    :meth:`_advance` pops the next occupied number, sorts that bucket
    once by ``(time, seq)`` and consumes it front to back. Dispatch
    order is exactly ``(time, seq)``: slots partition time
    monotonically, each slot is sorted, and a late insert into the
    open slot is placed by bisection after the consumed prefix — its
    time is ``>= now``, so it never sorts before a dispatched entry.

    A slot ``schedule_bulk`` filled also has a :class:`_BulkRecord` in
    ``_bucket_meta``; the slot's Events are then its *strangers*. A
    slot number sits in the heap twice when a slot has both (each
    pushes it); :meth:`_advance` drains the repeat. Bulk entries are
    unreachable outside the engine (``schedule_bulk`` returns a count),
    hence uncancellable, and only :meth:`_run_bulk` dispatches them.

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
        if wheel_granularity <= 0:
            raise SimulationError(
                f"wheel granularity must be positive, got {wheel_granularity}"
            )
        #: Batch dispatch tallies: bulk ops folded into their groups,
        #: the runs they formed and the slots that held them; ordinary
        #: events dispatched between the bulk entries of a slot; bulk
        #: ops dispatched one by one straight from their tuples.
        self.batched_events = 0
        self.batched_runs = 0
        self.batched_slots = 0
        self.stranger_events = 0
        self.peeled_ops = 0
        #: Current simulated time in seconds. A plain attribute, read
        #: on every hop: only the run loop and the bulk dispatcher
        #: write it.
        self.now = 0.0
        self._seq = 0
        self._live = 0
        self._cancelled = 0
        self._running = False
        self.rng = rng if rng is not None else random.Random(seed)
        self.events_processed = 0
        self._granularity = wheel_granularity
        self._scale = 1.0 / wheel_granularity
        #: Events of every occupied slot after the open one, by slot.
        self._buckets: dict[int, list[Event]] = {}
        #: The bulk record of every such slot that has one, by slot.
        self._bucket_meta: dict[int, _BulkRecord] = {}
        #: Min-heap of the keys of ``_buckets`` and ``_bucket_meta``.
        self._slots: list[int] = []
        #: The open slot's number; every stored slot is later.
        self._cursor = 0
        #: The open slot's Events, sorted; ``_open_pos`` is the first
        #: not yet dispatched.
        self._open: list[Event] = []
        self._open_pos = 0
        #: The open slot's bulk record while it has entries left.
        self._open_bulk: Optional[_BulkRecord] = None
        #: Occupied slots opened so far — never more than the events
        #: scheduled, however far apart they lie.
        self.slots_scanned = 0
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
        # The slot is numbered first, so a NaN or infinite time is
        # refused before anything has changed.
        try:
            slot = int(time * self._scale)
        except (ValueError, OverflowError):
            raise _time_error(time) from None
        self._seq += 1
        event = Event(time, self._seq, action, name, False, self, True)
        if slot > self._cursor:
            bucket = self._buckets.get(slot)
            if bucket is None:
                self._buckets[slot] = [event]
                heappush(self._slots, slot)
            else:
                bucket.append(event)
        else:
            # In (or before) the open slot. Its time is >= now, so
            # bisecting after the consumed prefix preserves order.
            insort(self._open, event, lo=self._open_pos, key=_EVENT_KEY)
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
        # The insert of schedule(), inlined: one call less per event.
        try:
            slot = int(time * self._scale)
        except (ValueError, OverflowError):
            raise _time_error(time) from None
        self._seq += 1
        event = Event(float(time), self._seq, action, name, False, self, True)
        if slot > self._cursor:
            bucket = self._buckets.get(slot)
            if bucket is None:
                self._buckets[slot] = [event]
                heappush(self._slots, slot)
            else:
                bucket.append(event)
        else:
            insort(self._open, event, lo=self._open_pos, key=_EVENT_KEY)
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
        gets a :class:`_BulkRecord` — the positions of its items in
        ``items`` and a tally ``{action: [count, t_last]}`` — that lets
        :meth:`_run_bulk` consume an undisturbed slot in O(distinct
        actions) without ever looking at those items again. Items that
        land in the open slot, or in a slot an earlier call gave a
        record, go through :meth:`schedule_at`. This method returns a
        count, so no caller can hold — or cancel — one of its entries.

        ``items`` is the engine's until its entries are dispatched: the
        records read the ``(time, action)`` pairs from the list when a
        slot needs them one by one, so the caller must not change it
        (nor the pairs) in the meantime. The times must be floats, as
        every caller passes them: a time becomes ``now`` as given.

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

        metas = self._bucket_meta
        scale = self._scale
        cursor = self._cursor
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
        fallbacks.sort()
        for position in fallbacks:
            self.schedule_at(*items[position], name)
        seq = self._seq
        heap = self._slots
        for slot in touched:
            parts, tally = fresh[slot]
            index = parts[0] if len(parts) == 1 else np.concatenate(parts)
            metas[slot] = _BulkRecord(name, seq + 1, tally, items, index)
            heappush(heap, slot)
            seq += len(index)
        self._seq = seq
        self._live += n - len(fallbacks)
        return n

    def peek_time(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or None."""
        return self._head_time()

    def peek_times(self, k: int) -> list[float]:
        """Times of the next up-to-``k`` pending events, ascending,
        without dispatching anything. The sharded runner's grant
        ladders are built from these.

        :meth:`_advance` positions the open slot on its first live
        Event; the stored slots are then read in slot order, and
        because slots partition time monotonically the scan stops at
        the first slot boundary with ``k`` times collected.
        """
        if k <= 0:
            return []
        self._advance()
        out = _slot_times(self._open[self._open_pos :], self._open_bulk, k)
        # A copy of the slot heap, popped only as far as needed.
        slots = self._slots[:]
        last = None
        while slots and len(out) < k:
            slot = heappop(slots)
            if slot != last:
                last = slot
                out += _slot_times(
                    self._buckets.get(slot, ()), self._bucket_meta.get(slot), k
                )
        return out[:k]

    def _head_time(self, limit_slot: Optional[int] = None) -> Optional[float]:
        """Time of the next pending entry, Event or bulk, in slots up
        to ``limit_slot``; None if there is none."""
        event = self._advance(limit_slot)
        record = self._open_bulk
        if record is not None and record.pos < record.size:
            time = record.sort()[record.pos][0]
            if event is None or time < event.time:
                return time
        return None if event is None else event.time

    def _advance(self, limit_slot: Optional[int] = None) -> Optional[Event]:
        """Return the open slot's first live Event, or None, dropping
        the cancelled ones before it with the cancellation bookkeeping
        kept exact. The Event is *not* removed: the run loop steps
        ``_open_pos`` past it when it dispatches it.

        An open slot out of Events is replaced by the next occupied one
        — unless bulk entries remain in it (``_open_bulk``, which the
        caller reads itself) or that slot lies past ``limit_slot``.
        ``run(until=...)`` passes the slot containing ``until``, so a
        far-future event cannot drag the cursor beyond the run window —
        if it did, every event scheduled afterwards (all with earlier
        times) would land in the open slot's bisect-insert path instead
        of an O(1) bucket append, silently degrading the calendar into
        a sorted list. Events at or before ``until`` always sit at or
        before its slot, so the bound never hides a due event.
        """
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
                self._cancelled -= 1
                pos += 1
            open_.clear()
            self._open_pos = 0
            record = self._open_bulk
            if record is not None:
                if record.pos < record.size:
                    return None
                self._open_bulk = None
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
            self._open_bulk = self._bucket_meta.pop(slot, None)

    def _compact(self) -> None:
        """Drop cancelled Events everywhere, with the buckets they
        emptied and those buckets' slot numbers. Bulk entries are
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

    def _note_cancelled(self) -> None:
        """Bookkeeping for an in-queue cancellation: keep ``pending()``
        O(1) and compact the calendar once cancelled events outnumber
        live ones (otherwise long-lived runs that churn timers leak)."""
        self._live -= 1
        self._cancelled += 1
        held = self._live + self._cancelled
        if held >= _COMPACT_MIN_QUEUE and self._cancelled * 2 > held:
            self._compact()
            self._cancelled = 0

    def step(self) -> bool:
        """Run the single next event. Returns False if none remain."""
        return self.run(max_events=1) == 1

    def add_dispatch_listener(
        self, listener: Callable[["Simulator", Event, float], None]
    ) -> None:
        """Register ``listener(sim, event, wall_seconds)`` to run after
        every dispatched event (metrics/profiling hook). While any
        listener is installed, bulk entries are dispatched one by one
        so that each is seen, as a transient :class:`Event`."""
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
        which case the clock stays at the last event run. A NaN or
        infinite ``until`` is refused before anything runs.

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
        limit_slot = None
        if until is not None:
            try:
                limit_slot = int(until * self._scale)
            except (ValueError, OverflowError):
                raise _time_error(until) from None
        advance = self._advance
        ran = 0
        self._running = True
        try:
            # The common case — a live event already positioned in the
            # open slot, no bulk entries beside it — runs with no method
            # calls besides the action itself; advance() and the bulk
            # dispatcher fire only on slot boundaries, cancellations and
            # slots holding bulk entries.
            while max_events is None or ran < max_events:
                open_ = self._open  # _compact() may rebind the list
                pos = self._open_pos
                if self._open_bulk is None and pos < len(open_) and not open_[pos].cancelled:
                    event = open_[pos]
                else:
                    event = advance(limit_slot)
                    if self._open_bulk is not None:
                        batch = self._run_bulk(
                            until, inclusive, None if max_events is None else max_events - ran
                        )
                        if not batch:  # the rest of the slot lies past until
                            break
                        ran += batch
                        continue
                    if event is None:
                        break
                if until is not None and (
                    event.time > until
                    or (not inclusive and event.time >= until)
                ):
                    break
                self._open_pos += 1  # advance left the cursor on it
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
                head = self._head_time(limit_slot)
                if head is not None and (head < until or (inclusive and head == until)):
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

    def _run_bulk(
        self, until: Optional[float], inclusive: bool, budget: Optional[int]
    ) -> int:
        """Dispatch the open slot in ``(time, seq)`` order while it has
        bulk entries: the one reader of a :class:`_BulkRecord`.

        Called by ``run()`` once :meth:`_advance` has positioned the
        open slot on its first live Event, its first *stranger*. A slot
        without live strangers, with no ``until`` inside it, no
        ``budget`` (what is left of ``max_events``) and no dispatch
        listener is one run, offered to its batch groups through the
        tally ``schedule_bulk`` computed — O(distinct actions): its
        ``(time, action)`` tuples are never even built.

        Otherwise the tuples are built in ``(time, seq)`` order
        (:meth:`_BulkRecord.sort`) and cut by bisection at ``until`` and
        at every live stranger. A time tie is decided by seq: the
        tuples hold one reserved seq range, so a stranger older than it
        goes before the tied tuples and a newer one after. Each run
        between two cuts is offered like a whole slot; the stranger is
        dispatched between runs, and the first live stranger is re-read
        after every action, so whatever it scheduled into (or cancelled
        in) the open slot takes its place in the order.

        A run some group refuses (first slot of a wave: no live record
        yet) is *peeled*: dispatched op by op, straight from the tuple
        with no Event, through the first op of every refuser, then
        offered once more; refused again, the rest of the run is
        peeled. Under a ``budget`` or a dispatch listener every op is
        peeled, and a listener is handed a transient Event carrying the
        op's place in the reserved range as its seq.

        Equivalence with per-event dispatch is proven in
        ``tests/properties/test_scheduler_equivalence.py``. Returns the
        number of entries dispatched — 0 only when the next one lies
        past ``until``, where the rest of the slot waits for the next
        run.
        """
        record = self._open_bulk
        n = record.size
        listeners = self._dispatch_listeners
        per_op = budget is not None or bool(listeners)
        # Whether until falls inside this slot (else it is past it).
        bounded = until is not None and int(until * self._scale) <= self._cursor
        offers = 0  # offers made to the current run
        waiting: Optional[set] = None  # refusers the peel has yet to pass
        if (
            record.tuples is None
            and self._open_pos == len(self._open)
            and not (per_op or bounded)
        ):
            offers = 1
            waiting = self._offer_run(record.tally, n)
            if waiting is None:
                self._open_bulk = None
                self.batched_slots += 1
                return n
        tuples = record.sort()
        base_seq = record.base_seq
        tpos = record.pos
        ucut = n  # tuples[ucut:] lie past until
        if bounded:
            bisect = bisect_right if inclusive else bisect_left
            ucut = bisect(tuples, until, tpos, n, key=_ITEM_TIME)
        head = None  # the stranger `cut` was computed for
        cut = ucut  # the current run is tuples[tpos:cut]
        ran = 0
        batched = False
        while tpos < n and (budget is None or ran < budget):
            open_ = self._open  # _compact() may rebind the list
            pos = self._open_pos
            size = len(open_)
            while pos < size and open_[pos].cancelled:
                self._cancelled -= 1
                pos += 1
            self._open_pos = pos
            stranger = open_[pos] if pos < size else None
            if stranger is not head:
                head = stranger
                cut = ucut
                if stranger is not None:
                    bisect = bisect_left if stranger.seq < base_seq else bisect_right
                    cut = bisect(tuples, stranger.time, tpos, ucut, key=_ITEM_TIME)
            if tpos == cut:
                if stranger is None or (
                    until is not None
                    and (stranger.time > until or (not inclusive and stranger.time >= until))
                ):
                    break  # the until cut
                self._open_pos = pos + 1
                stranger._in_queue = False
                time, action, event = stranger.time, stranger.action, stranger
                self.stranger_events += 1
                offers = 0
            elif not per_op and (not offers or (offers == 1 and not waiting)):
                offers += 1
                waiting = self._offer_run(_run_tally(tuples[tpos:cut]), cut - tpos)
                if waiting is None:
                    batched = True
                    ran += cut - tpos
                    tpos = record.pos = cut
                continue
            else:
                time, action = tuples[tpos]
                event = None
                tpos = record.pos = tpos + 1
                self.peeled_ops += 1
                if waiting:
                    waiting.discard(getattr(action, "batch_group", None))
            self._live -= 1
            self.now = time
            self.events_processed += 1
            if listeners:
                if event is None:
                    event = Event(time, base_seq + tpos - 1, action, record.name)
                started = perf_counter()
                action()
                wall = perf_counter() - started
                for listener in listeners:
                    listener(self, event, wall)
            else:
                action()
            ran += 1
        if self._open_bulk is record and record.pos == n:
            self._open_bulk = None
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
        return {
            "scheduler": "wheel",
            "granularity": self._granularity,
            "slots_scanned": self.slots_scanned,
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
        if not (interval > 0 and isfinite(interval)):
            raise SimulationError(
                f"periodic interval must be positive and finite, got {interval}"
            )
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
