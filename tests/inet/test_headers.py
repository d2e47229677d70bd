"""Unit tests for the IPv4/UDP header codecs."""

import pytest

from repro.errors import CodecError
from repro.inet.headers import (
    ETHERNET_TCP_SEGMENT,
    IP_HEADER_BYTES,
    IPv4Header,
    UDPHeader,
    internet_checksum,
)


class TestChecksum:
    def test_known_vector(self):
        # RFC 1071 example-style: checksum of a buffer plus its checksum
        # verifies to zero.
        data = bytes(range(20))
        checksum = internet_checksum(data)
        patched = data[:10] + checksum.to_bytes(2, "big") + data[12:]
        # Recompute over buffer with checksum in place of original bytes:
        # simpler invariant: checksum of (data + checksum-as-bytes) == 0
        assert internet_checksum(data + checksum.to_bytes(2, "big")) == 0

    def test_odd_length_padded(self):
        assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")

    def test_empty(self):
        assert internet_checksum(b"") == 0xFFFF


class TestIPv4Header:
    def test_round_trip(self):
        header = IPv4Header(src=0x0A000001, dst=0xE8000001, proto=17, total_length=100, ttl=32)
        data = header.pack()
        assert len(data) == IP_HEADER_BYTES
        parsed = IPv4Header.unpack(data)
        assert parsed == header

    def test_checksum_verified_on_unpack(self):
        data = bytearray(IPv4Header(src=1, dst=2, proto=6).pack())
        data[8] ^= 0xFF  # corrupt the TTL
        with pytest.raises(CodecError):
            IPv4Header.unpack(bytes(data))

    def test_truncated_rejected(self):
        with pytest.raises(CodecError):
            IPv4Header.unpack(b"\x45\x00")

    def test_wrong_version_rejected(self):
        data = bytearray(IPv4Header(src=1, dst=2, proto=6).pack())
        data[0] = (6 << 4) | 5
        with pytest.raises(CodecError):
            IPv4Header.unpack(bytes(data))

    def test_field_ranges_enforced(self):
        with pytest.raises(CodecError):
            IPv4Header(src=1, dst=2, proto=6, total_length=70000).pack()
        with pytest.raises(CodecError):
            IPv4Header(src=1, dst=2, proto=6, ttl=300).pack()


class TestUDPHeader:
    def test_round_trip_with_payload(self):
        payload = b"count-message-bytes"
        data = UDPHeader(src_port=1234, dst_port=4321).pack(payload)
        header, parsed_payload = UDPHeader.unpack(data)
        assert header.src_port == 1234
        assert header.dst_port == 4321
        assert parsed_payload == payload

    def test_checksum_detects_corruption(self):
        data = bytearray(UDPHeader(src_port=1, dst_port=2).pack(b"hello"))
        data[-1] ^= 0xFF
        with pytest.raises(CodecError):
            UDPHeader.unpack(bytes(data))

    def test_length_field_validated(self):
        data = bytearray(UDPHeader(src_port=1, dst_port=2).pack(b"hello"))
        data[4:6] = (9999).to_bytes(2, "big")
        with pytest.raises(CodecError):
            UDPHeader.unpack(bytes(data))

    def test_port_range(self):
        with pytest.raises(CodecError):
            UDPHeader(src_port=70000, dst_port=1).pack()

    def test_truncated(self):
        with pytest.raises(CodecError):
            UDPHeader.unpack(b"\x00\x01")

    def test_mss_constant_matches_paper(self):
        """§5.3's segment arithmetic uses 1480-byte TCP segments."""
        assert ETHERNET_TCP_SEGMENT == 1480
