"""Unit tests for the FIB data-plane lookup cache.

``MulticastFib.lookup`` interns its verdict per ``(S, E, iif)`` triple;
these tests pin the cache-hit accounting, the invalidation paths (table
mutations *and* raw attribute writes on installed entries — the
protocol layer re-syncs entries by assigning ``entry.outgoing`` /
``entry.incoming_interface`` directly), exact drop counters on cache
hits, and the size guard.
"""

from repro.inet.addr import parse_address, ssm_address
from repro.routing.fib import _LOOKUP_CACHE_MAX, FibEntry, MulticastFib

S = parse_address("10.0.0.1")
E = ssm_address(42)


def _fib_with_entry(iif: int = 1, oifs: tuple[int, ...] = (2, 3)) -> MulticastFib:
    fib = MulticastFib()
    entry = fib.install(S, E, incoming_interface=iif)
    for oif in oifs:
        entry.add_outgoing(oif)
    return fib


class TestLookupCacheHits:
    def test_repeated_lookup_hits_cache_and_interns_result(self):
        fib = _fib_with_entry()
        first = fib.lookup(S, E, 1)
        second = fib.lookup(S, E, 1)
        assert first == [2, 3]
        assert second is first  # one shared list, not a rebuild
        assert fib.lookups == 2
        assert fib.lookup_cache_hits == 1

    def test_drop_counters_stay_exact_on_cache_hits(self):
        fib = _fib_with_entry(iif=1)
        other = ssm_address(99)
        for _ in range(3):
            assert fib.lookup(S, other, 1) == []  # no entry
        for _ in range(4):
            assert fib.lookup(S, E, 0) == []  # wrong incoming interface
        assert fib.no_match_drops == 3
        assert fib.iif_drops == 4
        assert fib.lookup_cache_hits == 2 + 3

    def test_distinct_iifs_cache_independently(self):
        fib = _fib_with_entry(iif=1)
        assert fib.lookup(S, E, 1) == [2, 3]
        assert fib.lookup(S, E, 2) == []
        assert fib.lookup_cache_hits == 0
        assert fib.iif_drops == 1


class TestInvalidation:
    def test_install_invalidates_no_match_verdict(self):
        fib = MulticastFib()
        assert fib.lookup(S, E, 1) == []
        assert fib.no_match_drops == 1
        entry = fib.install(S, E, incoming_interface=1)
        entry.add_outgoing(5)
        assert fib.lookup(S, E, 1) == [5]
        assert fib.no_match_drops == 1

    def test_remove_invalidates_ok_verdict(self):
        fib = _fib_with_entry()
        assert fib.lookup(S, E, 1) == [2, 3]
        assert fib.remove(S, E)
        assert fib.lookup(S, E, 1) == []
        assert fib.no_match_drops == 1

    def test_bitmap_helpers_invalidate(self):
        fib = _fib_with_entry(oifs=(2,))
        assert fib.lookup(S, E, 1) == [2]
        entry = fib.get(S, E)
        entry.add_outgoing(4)
        assert fib.lookup(S, E, 1) == [2, 4]
        entry.remove_outgoing(2)
        assert fib.lookup(S, E, 1) == [4]
        assert fib.lookup_cache_hits == 0

    def test_raw_outgoing_assignment_invalidates(self):
        # protocol.py prunes by assigning entry.outgoing = 0 directly.
        fib = _fib_with_entry()
        assert fib.lookup(S, E, 1) == [2, 3]
        fib.get(S, E).outgoing = 0
        assert fib.lookup(S, E, 1) == []

    def test_raw_incoming_interface_assignment_invalidates(self):
        # protocol.py re-syncs the RPF interface the same way.
        fib = _fib_with_entry(iif=1)
        assert fib.lookup(S, E, 1) == [2, 3]
        assert fib.lookup(S, E, 0) == []
        assert fib.iif_drops == 1
        fib.get(S, E).incoming_interface = 0
        assert fib.lookup(S, E, 0) == [2, 3]
        assert fib.lookup(S, E, 1) == []
        assert fib.iif_drops == 2

    def test_unchanged_writes_keep_the_cache(self):
        fib = _fib_with_entry(iif=1, oifs=(2, 3))
        first = fib.lookup(S, E, 1)
        entry = fib.get(S, E)
        before = fib.invalidations
        entry.incoming_interface = 1
        entry.outgoing = 0b1100
        entry.add_outgoing(3)
        entry.remove_outgoing(7)
        assert fib.invalidations == before
        assert fib.lookup(S, E, 1) is first
        entry.add_outgoing(7)
        assert fib.invalidations == before + 1
        assert fib.lookup(S, E, 1) == [2, 3, 7]

    def test_invalidations_count_table_and_entry_mutations(self):
        fib = MulticastFib()
        entry = fib.install(S, E, incoming_interface=1)  # 1: new entry
        assert fib.install(S, E, incoming_interface=1) is entry  # existing: none
        entry.outgoing = 0b100  # 2
        entry.incoming_interface = 2  # 3
        fib.remove(S, E)  # 4
        assert not fib.remove(S, E)  # nothing there: none
        assert fib.invalidations == 4

    def test_removed_entry_no_longer_touches_the_fib(self):
        fib = _fib_with_entry()
        entry = fib.get(S, E)
        fib.remove(S, E)
        assert fib.lookup(S, E, 1) == []
        cache_before = dict(fib._lookup_cache)
        entry.add_outgoing(7)  # orphaned entry: must not clear the cache
        assert fib._lookup_cache == cache_before


class TestOifInterning:
    def test_outgoing_interfaces_is_memoized(self):
        entry = FibEntry(source=S, dest_suffix=42, incoming_interface=1, outgoing=0b110)
        first = entry.outgoing_interfaces()
        assert entry.outgoing_interfaces() is first
        entry.add_outgoing(5)
        rebuilt = entry.outgoing_interfaces()
        assert rebuilt is not first
        assert rebuilt == [1, 2, 5]


class TestCacheBound:
    def test_cache_never_exceeds_the_guard(self):
        fib = MulticastFib()
        for k in range(_LOOKUP_CACHE_MAX + 10):
            fib.lookup(S, ssm_address(k), 0)
        assert len(fib._lookup_cache) <= _LOOKUP_CACHE_MAX
        assert fib.no_match_drops == _LOOKUP_CACHE_MAX + 10
