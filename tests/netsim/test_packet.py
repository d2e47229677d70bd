"""Unit tests for the packet model."""

import pytest

from repro.netsim.packet import Packet


class TestPacketBasics:
    def test_defaults(self):
        packet = Packet(src=1, dst=2)
        assert packet.proto == "data"
        assert packet.size == 64
        assert packet.ttl == 64
        assert packet.headers == {}

    def test_packets_compare_by_identity(self):
        a, b = Packet(src=1, dst=2), Packet(src=1, dst=2)
        assert a != b and a == a
        assert a.copy() != a
        assert len({a, b, a}) == 2

    def test_copy_shares_payload_but_not_headers(self):
        payload = {"k": 1}
        packet = Packet(src=1, dst=2, payload=payload, headers={"h": 1})
        dup = packet.copy()
        assert dup.payload is payload
        dup.headers["h"] = 2
        assert packet.headers["h"] == 1

    def test_copy_preserves_wire_fields(self):
        packet = Packet(src=1, dst=2, proto="ecmp", size=128, ttl=9, created_at=3.5)
        dup = packet.copy()
        assert (dup.src, dup.dst, dup.proto, dup.size, dup.ttl, dup.created_at) == (
            1, 2, "ecmp", 128, 9, 3.5,
        )


class TestEncapsulation:
    def test_encapsulate_wraps_and_adds_overhead(self):
        inner = Packet(src=1, dst=2, size=100)
        outer = inner.encapsulate(outer_src=10, outer_dst=20)
        assert outer.proto == "ipip"
        assert outer.size == 120
        assert outer.payload is inner
        assert outer.src == 10 and outer.dst == 20

    def test_decapsulate_returns_inner(self):
        inner = Packet(src=1, dst=2)
        outer = inner.encapsulate(outer_src=10, outer_dst=20)
        assert outer.decapsulate() is inner

    def test_decapsulate_non_tunnel_raises(self):
        packet = Packet(src=1, dst=2, payload=b"raw")
        with pytest.raises(ValueError):
            packet.decapsulate()

    def test_is_encapsulated(self):
        inner = Packet(src=1, dst=2)
        assert not inner.is_encapsulated()
        assert inner.encapsulate(10, 20).is_encapsulated()

    def test_nested_encapsulation(self):
        inner = Packet(src=1, dst=2, size=50)
        mid = inner.encapsulate(3, 4)
        outer = mid.encapsulate(5, 6)
        assert outer.size == 90
        assert outer.decapsulate().decapsulate() is inner
