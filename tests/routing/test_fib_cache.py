"""Unit tests for the FIB data-plane lookup.

``MulticastFib.lookup`` remembers nothing per lookup: it probes the
table by the channel the ``(S, E)`` pair names, compares the incoming
interface and returns the interned interface tuple of the entry's
*current* outgoing bitmap. These tests pin what that buys — every write (table mutation,
bitmap helper, raw ``entry.outgoing`` / ``entry.incoming_interface``
assignment, the way the protocol layer syncs entries) is visible at the
very next lookup, the drop counters are exact, equal bitmaps share one
tuple, and a flood of unknown ``(S, E)`` pairs leaves no state behind.

The file and the older case names date from the per-``(S, E, iif)``
verdict cache these cases were first written against. The cache is
gone; what the cases check — an earlier answer never outlives a write —
is not, and ``lookup_cache_hits`` survives as the count of lookups
answered without building an egress tuple.
"""

import random

import pytest

from repro.errors import ForwardingError
from repro.inet.addr import parse_address, ssm_address
from repro.routing.fib import FibEntry, MulticastFib

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
        assert first == (2, 3)
        assert second is first  # one shared tuple, not a rebuild
        assert fib.lookups == 2
        # ``lookup_cache_hits`` counts lookups answered without
        # building an egress tuple: only the first one built.
        assert fib.lookup_cache_hits == 1

    def test_drop_counters_stay_exact_on_cache_hits(self):
        fib = _fib_with_entry(iif=1)
        other = ssm_address(99)
        for _ in range(3):
            assert fib.lookup(S, other, 1) == ()  # no entry
        for _ in range(4):
            assert fib.lookup(S, E, 0) == ()  # wrong incoming interface
        assert fib.no_match_drops == 3
        assert fib.iif_drops == 4
        assert fib.lookups == 7
        assert fib.lookup_cache_hits == 7  # a drop builds nothing

    def test_distinct_iifs_cache_independently(self):
        fib = _fib_with_entry(iif=1)
        assert fib.lookup(S, E, 1) == (2, 3)
        assert fib.lookup(S, E, 2) == ()
        assert fib.lookup(S, E, 1) == (2, 3)
        assert fib.iif_drops == 1
        assert fib.no_match_drops == 0

    def test_miss_on_a_non_ssm_destination_is_an_error_not_a_drop(self):
        fib = _fib_with_entry()
        with pytest.raises(ForwardingError):
            fib.lookup(S, parse_address("224.0.0.1"), 1)
        with pytest.raises(ForwardingError):
            fib.get(S, parse_address("10.0.0.9"))
        with pytest.raises(ForwardingError):
            fib.remove(S, parse_address("10.0.0.9"))
        assert fib.no_match_drops == 0


class TestInvalidation:
    """A write invalidates every earlier answer: the next lookup reads
    the entry as it now is."""

    def test_install_invalidates_no_match_verdict(self):
        fib = MulticastFib()
        assert fib.lookup(S, E, 1) == ()
        assert fib.no_match_drops == 1
        entry = fib.install(S, E, incoming_interface=1)
        entry.add_outgoing(5)
        assert fib.lookup(S, E, 1) == (5,)
        assert fib.no_match_drops == 1

    def test_remove_invalidates_ok_verdict(self):
        fib = _fib_with_entry()
        assert fib.lookup(S, E, 1) == (2, 3)
        assert fib.remove(S, E)
        assert fib.lookup(S, E, 1) == ()
        assert fib.no_match_drops == 1

    def test_bitmap_helpers_invalidate(self):
        fib = _fib_with_entry(oifs=(2,))
        assert fib.lookup(S, E, 1) == (2,)
        entry = fib.get(S, E)
        entry.add_outgoing(4)
        assert fib.lookup(S, E, 1) == (2, 4)
        entry.remove_outgoing(2)
        assert fib.lookup(S, E, 1) == (4,)

    def test_raw_outgoing_assignment_invalidates(self):
        # protocol.py flips bits with ``entry.outgoing |= bit`` /
        # ``&= ~bit`` and prunes by assigning 0 directly.
        fib = _fib_with_entry()
        assert fib.lookup(S, E, 1) == (2, 3)
        entry = fib.get(S, E)
        entry.outgoing = 0
        assert fib.lookup(S, E, 1) == ()
        entry.outgoing |= 1 << 7
        assert fib.lookup(S, E, 1) == (7,)
        assert fib.no_match_drops == fib.iif_drops == 0  # on-tree, empty egress

    def test_raw_incoming_interface_assignment_invalidates(self):
        # protocol.py re-syncs the RPF interface the same way.
        fib = _fib_with_entry(iif=1)
        assert fib.lookup(S, E, 1) == (2, 3)
        assert fib.lookup(S, E, 0) == ()
        assert fib.iif_drops == 1
        fib.get(S, E).incoming_interface = 0
        assert fib.lookup(S, E, 0) == (2, 3)
        assert fib.lookup(S, E, 1) == ()
        assert fib.iif_drops == 2

    def test_unchanged_writes_keep_the_cache(self):
        fib = _fib_with_entry(iif=1, oifs=(2, 3))
        first = fib.lookup(S, E, 1)
        entry = fib.get(S, E)
        entry.incoming_interface = 1
        entry.outgoing = 0b1100
        entry.add_outgoing(3)
        entry.remove_outgoing(7)
        assert fib.lookup(S, E, 1) is first
        entry.add_outgoing(7)
        assert fib.lookup(S, E, 1) == (2, 3, 7)

    def test_removed_entry_no_longer_touches_the_fib(self):
        fib = _fib_with_entry()
        entry = fib.get(S, E)
        fib.remove(S, E)
        entry.add_outgoing(7)  # orphaned entry: the table does not see it
        assert fib.lookup(S, E, 1) == ()
        assert fib.install(S, E, 1) is not entry
        assert fib.lookup(S, E, 1) == ()  # a fresh entry, empty egress


class TestEgressInterning:
    def test_equal_bitmaps_on_different_entries_share_one_tuple(self):
        fib = MulticastFib()
        for suffix in (1, 2, 3):
            fib.install(S, ssm_address(suffix), 0).outgoing = 0b10110
        fib.install(S, ssm_address(4), 0).outgoing = 0b00110
        a, b, c = (fib.lookup(S, ssm_address(suffix), 0) for suffix in (1, 2, 3))
        assert a == (1, 2, 4)
        assert a is b is c
        assert fib.lookup(S, ssm_address(4), 0) == (1, 2)
        assert fib.egress(fib.get(S, ssm_address(2))) is a  # emit_local / subcast
        # Two distinct bitmaps forwarded on: two tuples built, ever.
        assert fib.lookups - fib.lookup_cache_hits == 2

    def test_a_membership_change_and_back_rebuilds_nothing(self):
        fib = _fib_with_entry(oifs=(2, 3))
        entry = fib.get(S, E)
        before = fib.lookup(S, E, 1)
        entry.add_outgoing(9)
        assert fib.lookup(S, E, 1) == (2, 3, 9)
        entry.remove_outgoing(9)
        assert fib.lookup(S, E, 1) is before

    def test_table_is_bounded_by_the_entries_it_serves_not_by_history(self):
        """Membership churn walks one entry through far more bitmaps
        than it ever holds at once. The egress table is emptied when it
        outgrows the entries (64 + 2 per entry), so it cannot grow with
        the history — and an emptied table only costs a rebuild."""
        rng = random.Random(0xE6)
        fib = MulticastFib()
        entries = [fib.install(S, ssm_address(suffix), 0) for suffix in (1, 2, 3)]
        bound = 64 + 2 * len(entries) + 1
        peak = 0
        for _ in range(5_000):
            entry = rng.choice(entries)
            entry.outgoing = rng.getrandbits(20)
            assert fib.lookup(S, entry.dest_address, 0) == entry.outgoing_interfaces()
            peak = max(peak, len(fib._egress))
        assert 64 < peak <= bound
        # Few bitmaps, however many lookups: nothing is ever dropped.
        steady = MulticastFib()
        entry = steady.install(S, E, 0)
        for k in range(5_000):
            entry.outgoing = 1 << (k % 8) | 1 << 9
            steady.lookup(S, E, 0)
        assert len(steady._egress) == 8
        assert steady.lookups - steady.lookup_cache_hits == 8

    def test_entry_method_agrees_with_the_interned_tuple(self):
        entry = FibEntry(source=S, dest_suffix=42, incoming_interface=1, outgoing=0b100110)
        assert entry.outgoing_interfaces() == (1, 2, 5)
        assert MulticastFib().egress(entry) == (1, 2, 5)
        entry.outgoing = 0
        assert MulticastFib().egress(entry) == ()
        entry.outgoing = 0xFFFFFFFF
        assert MulticastFib().egress(entry) == tuple(range(32))


class TestSpoofFloodLeavesNothingBehind:
    def test_random_lookups_grow_no_state_and_real_ones_keep_answering(self):
        """The robustness property the old cache's size guard
        approximated: 10,000 lookups of random (S, E) pairs — a spoof
        flood — allocate nothing that outlives the call, and lookups of
        installed channels interleaved with the flood are unaffected."""
        rng = random.Random(0xF10D)
        fib = MulticastFib()
        installed = []
        for suffix in range(1, 9):
            dest = ssm_address(suffix)
            fib.install(S, dest, 1).outgoing = rng.getrandbits(4) << 2 | 0b100
            installed.append((dest, fib.lookup(S, dest, 1)))

        def footprint():
            return {
                name: len(value)
                for name, value in vars(fib).items()
                if hasattr(value, "__len__")
            }

        before = footprint()
        lookups, hits = fib.lookups, fib.lookup_cache_hits
        answered = 0
        for k in range(10_000):
            source = rng.getrandbits(32)
            dest = ssm_address(rng.getrandbits(24) | 1 << 23)  # never installed
            assert fib.lookup(source, dest, rng.randrange(32)) == ()
            if k % 100 == 0:
                dest, expected = installed[k // 100 % len(installed)]
                assert fib.lookup(S, dest, 1) is expected
                answered += 1
        assert footprint() == before
        assert fib.no_match_drops == 10_000
        assert fib.lookups - lookups == 10_000 + answered
        assert fib.lookup_cache_hits - hits == 10_000 + answered
