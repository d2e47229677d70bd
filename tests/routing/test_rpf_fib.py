"""Unit tests for the multicast FIB."""

import pytest

from repro.errors import ForwardingError
from repro.inet.addr import parse_address, ssm_address
from repro.routing.fib import FIB_ENTRY_BYTES, FibEntry, MulticastFib

S = parse_address("10.0.0.1")
E = ssm_address(7)


class TestFibEntry:
    def test_packs_to_exactly_12_bytes(self):
        """Figure 5: "An EXPRESS FIB entry can be represented in 12
        bytes"."""
        entry = FibEntry(source=S, dest_suffix=7, incoming_interface=3, outgoing=0b1010)
        assert len(entry.pack()) == FIB_ENTRY_BYTES == 12

    def test_pack_unpack_round_trip(self):
        entry = FibEntry(source=S, dest_suffix=0xABCDEF, incoming_interface=31, outgoing=0xFFFFFFFF)
        assert FibEntry.unpack(entry.pack()) == entry

    def test_field_widths_enforced(self):
        with pytest.raises(ForwardingError):
            FibEntry(source=S, dest_suffix=1 << 24, incoming_interface=0)
        with pytest.raises(ForwardingError):
            FibEntry(source=S, dest_suffix=0, incoming_interface=32)
        with pytest.raises(ForwardingError):
            FibEntry(source=1 << 32, dest_suffix=0, incoming_interface=0)

    def test_outgoing_bitmap_operations(self):
        entry = FibEntry(source=S, dest_suffix=1, incoming_interface=0)
        entry.add_outgoing(2)
        entry.add_outgoing(5)
        assert entry.has_outgoing(2)
        assert entry.outgoing_interfaces() == (2, 5)
        assert entry.fanout() == 2
        entry.remove_outgoing(2)
        assert entry.outgoing_interfaces() == (5,)
        with pytest.raises(ForwardingError):
            entry.add_outgoing(32)

    def test_dest_address_reconstruction(self):
        entry = FibEntry(source=S, dest_suffix=7, incoming_interface=0)
        assert entry.dest_address == E

    def test_unpack_wrong_size_rejected(self):
        with pytest.raises(ForwardingError):
            FibEntry.unpack(b"\x00" * 11)


class TestMulticastFib:
    def test_install_lookup_forwarding(self):
        fib = MulticastFib()
        entry = fib.install(S, E, incoming_interface=1)
        entry.add_outgoing(2)
        entry.add_outgoing(3)
        assert fib.lookup(S, E, 1) == (2, 3)

    def test_iif_mismatch_drops(self):
        """§3.4: the incoming-interface check prevents data loops."""
        fib = MulticastFib()
        fib.install(S, E, incoming_interface=1).add_outgoing(2)
        assert fib.lookup(S, E, 0) == ()
        assert fib.iif_drops == 1

    def test_no_match_counted_and_dropped(self):
        """§3.4: no rendezvous fallback, no broadcast — count and drop."""
        fib = MulticastFib()
        assert fib.lookup(S, E, 0) == ()
        assert fib.no_match_drops == 1

    def test_channels_with_same_e_different_s_are_distinct(self):
        """§2: "two channels (S,E) and (S',E) are unrelated"."""
        s2 = parse_address("10.0.0.2")
        fib = MulticastFib()
        fib.install(S, E, 0).add_outgoing(1)
        fib.install(s2, E, 0).add_outgoing(2)
        assert fib.lookup(S, E, 0) == (1,)
        assert fib.lookup(s2, E, 0) == (2,)

    def test_install_is_idempotent(self):
        fib = MulticastFib()
        a = fib.install(S, E, 0)
        b = fib.install(S, E, 0)
        assert a is b and len(fib) == 1

    def test_remove(self):
        fib = MulticastFib()
        fib.install(S, E, 0)
        assert fib.remove(S, E)
        assert not fib.remove(S, E)
        assert len(fib) == 0

    def test_memory_accounting(self):
        fib = MulticastFib()
        for suffix in range(10):
            fib.install(S, ssm_address(suffix), 0)
        assert fib.memory_bytes() == 120

    def test_non_ssm_destination_rejected(self):
        fib = MulticastFib()
        with pytest.raises(ForwardingError):
            fib.install(S, parse_address("224.0.0.1"), 0)

    def test_channels_listing(self):
        fib = MulticastFib()
        fib.install(S, E, 0)
        assert fib.channels() == [(S, E)]
