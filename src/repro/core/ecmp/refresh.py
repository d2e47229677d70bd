"""Due-deadline ring for coalesced UDP soft-state refresh.

Walking every channel record on every tick to find the few UDP-mode
records actually due to expire is O(total state) per tick, the §5.3
cost the soft-state design is supposed to avoid (that walk is the
specification, ``tests/oracles/refresh.py``). This ring applies the
wheel-bucket idiom from :mod:`repro.netsim.engine` instead: entries are
hashed into coarse time buckets by expiry deadline, and a tick pops
only the buckets whose window has fully passed.

Deadlines are *lazy*: a record's ``updated_at`` is bumped on every
refresh response without touching the ring. When an entry's bucket
comes due, the caller revalidates against the live record — if the
record was refreshed meanwhile, the entry is simply rescheduled at its
new deadline. Because a bucket's start is never later than any
deadline hashed into it, an entry is always examined no later than the
tick on which the full-table scan would have expired it, so expiry
timing is identical to the scan's (compared at every tick by
``tests/properties/test_refresh_equivalence.py``); a refreshed entry
costs at most one extra examination per refresh interval.
"""

from __future__ import annotations

from typing import Hashable, Iterator


class RefreshRing:
    """Sparse bucket ring of (channel, neighbor) refresh deadlines.

    ``granularity`` is the refresh tick interval: bucket ``b`` covers
    deadlines in ``[b*g, (b+1)*g)``, and :meth:`due` pops every bucket
    whose window starts strictly before ``now``. Entries are deduped —
    an entry lives in at most one bucket, tracked membership in a set;
    :meth:`discard` is lazy (the bucket slot is skipped when popped).

    Popped-but-undispositioned keys are staged in ``_pending`` rather
    than handed to the generator's stack alone: if a :meth:`due`
    iteration is abandoned partway (an exception, a crash injected
    mid-tick, a clock jump straddling the deadline), the keys already
    popped from their buckets are *not* lost — the next :meth:`due`
    call re-yields them, and :meth:`rebuild` re-buckets them. Without
    the staging area an abandoned iteration would strand keys tracked
    in ``_entries`` but resident in no bucket: dead entries that never
    expire and block :meth:`add` from ever re-arming the key.
    """

    __slots__ = ("granularity", "_buckets", "_entries", "_pending")

    def __init__(self, granularity: float) -> None:
        if granularity <= 0:
            raise ValueError(f"granularity must be positive, got {granularity}")
        self.granularity = granularity
        self._buckets: dict[int, list] = {}
        self._entries: set = set()
        #: Keys popped by :meth:`due` awaiting a discard/reschedule
        #: disposition. A dict (insertion-ordered) so the re-yield
        #: order after an abandoned iteration is deterministic.
        self._pending: dict = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def _bucket_of(self, deadline: float) -> int:
        return int(deadline // self.granularity)

    def add(self, key: Hashable, deadline: float) -> bool:
        """Track ``key`` with ``deadline``; False if already tracked
        (the existing entry stays — lazy revalidation will catch the
        moved deadline when its bucket comes due)."""
        if key in self._entries:
            return False
        self._entries.add(key)
        self._buckets.setdefault(self._bucket_of(deadline), []).append(key)
        return True

    def reschedule(self, key: Hashable, deadline: float) -> None:
        """Re-bucket a key just popped by :meth:`due` (still tracked)."""
        self._pending.pop(key, None)
        self._buckets.setdefault(self._bucket_of(deadline), []).append(key)

    def discard(self, key: Hashable) -> None:
        """Stop tracking ``key``; its bucket slot is skipped lazily."""
        self._entries.discard(key)
        self._pending.pop(key, None)

    def due(self, now: float) -> Iterator[Hashable]:
        """Pop and yield every tracked entry whose bucket window starts
        before ``now``, plus any entry popped by an earlier, abandoned
        iteration that never received a disposition. The caller must
        either :meth:`discard` or :meth:`reschedule` each yielded key;
        keys are staged in ``_pending`` until then, so an abandoned
        iteration loses nothing."""
        if self._buckets:
            granularity = self.granularity
            entries = self._entries
            pending = self._pending
            for bucket in sorted(self._buckets):
                if bucket * granularity >= now:
                    break
                for key in self._buckets.pop(bucket):
                    if key in entries:
                        pending[key] = None
        for key in list(self._pending):
            # Re-check per yield: the caller's disposition of an
            # earlier key may have discarded this one.
            if key in self._pending and key in self._entries:
                yield key

    def rebuild(self, granularity: float, deadline_of) -> None:
        """Re-bucket every tracked entry under a new ``granularity``
        (used when the refresh interval changes, and by crash/restart
        recovery to re-arm entries stranded mid-tick);
        ``deadline_of(key)`` supplies each entry's current deadline."""
        if granularity <= 0:
            raise ValueError(f"granularity must be positive, got {granularity}")
        self.granularity = granularity
        keys = [key for keys in self._buckets.values() for key in keys]
        keys.extend(self._pending)
        self._buckets = {}
        self._pending = {}
        seen = set()
        for key in keys:
            if key in self._entries and key not in seen:
                seen.add(key)
                self._buckets.setdefault(
                    self._bucket_of(deadline_of(key)), []
                ).append(key)
