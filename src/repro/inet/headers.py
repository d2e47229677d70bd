"""IPv4 and UDP header codecs.

The simulator moves packets as Python objects, but the wire-format
codecs matter for two reasons: (1) the control-bandwidth analyses in
§5.3 are in real bytes ("92 16-byte Count messages fit in a 1480-byte
maximum-sized TCP segment on Ethernet"), and (2) the FIB entry format
(Figure 5) is defined at the bit level. These structs give the tests
and benchmarks a ground truth for sizes and layouts.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.errors import CodecError
from repro.netsim.packet import IP_HEADER_BYTES

#: Ethernet MTU payload available to IP.
ETHERNET_MTU = 1500
#: MSS used by the paper: 1500 - 20 (IP)  == 1480 bytes of TCP segment.
ETHERNET_TCP_SEGMENT = 1480

UDP_HEADER_LEN = 8

_IPV4_STRUCT = struct.Struct("!BBHHHBBHII")
_UDP_STRUCT = struct.Struct("!HHHH")


def internet_checksum(data: bytes) -> int:
    """RFC 1071 internet checksum (one's-complement sum of 16-bit words)."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for (word,) in struct.iter_unpack("!H", data):
        total += word
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


@dataclass
class IPv4Header:
    """A minimal IPv4 header (no options).

    ``total_length`` covers header plus payload, as on the wire.
    """

    src: int
    dst: int
    proto: int
    total_length: int = IP_HEADER_BYTES
    ttl: int = 64
    identification: int = 0
    dscp: int = 0

    def pack(self) -> bytes:
        if not 0 <= self.total_length <= 0xFFFF:
            raise CodecError(f"total_length {self.total_length} out of range")
        if not 0 <= self.ttl <= 255:
            raise CodecError(f"ttl {self.ttl} out of range")
        version_ihl = (4 << 4) | (IP_HEADER_BYTES // 4)
        without_checksum = _IPV4_STRUCT.pack(
            version_ihl,
            self.dscp,
            self.total_length,
            self.identification,
            0,  # flags/fragment offset: never fragmented in this model
            self.ttl,
            self.proto,
            0,  # checksum placeholder
            self.src,
            self.dst,
        )
        checksum = internet_checksum(without_checksum)
        return without_checksum[:10] + struct.pack("!H", checksum) + without_checksum[12:]

    @classmethod
    def unpack(cls, data: bytes) -> "IPv4Header":
        if len(data) < IP_HEADER_BYTES:
            raise CodecError(f"IPv4 header truncated: {len(data)} bytes")
        fields = _IPV4_STRUCT.unpack(data[:IP_HEADER_BYTES])
        version_ihl = fields[0]
        if version_ihl >> 4 != 4:
            raise CodecError(f"not IPv4 (version {version_ihl >> 4})")
        if internet_checksum(data[:IP_HEADER_BYTES]) != 0:
            raise CodecError("IPv4 header checksum mismatch")
        return cls(
            src=fields[8],
            dst=fields[9],
            proto=fields[6],
            total_length=fields[2],
            ttl=fields[5],
            identification=fields[3],
            dscp=fields[1],
        )


@dataclass
class UDPHeader:
    """A UDP header; checksum computed over header+payload only (the
    pseudo-header is omitted — sufficient for simulation ground truth)."""

    src_port: int
    dst_port: int
    length: int = UDP_HEADER_LEN

    def pack(self, payload: bytes = b"") -> bytes:
        for port in (self.src_port, self.dst_port):
            if not 0 <= port <= 0xFFFF:
                raise CodecError(f"port {port} out of range")
        length = UDP_HEADER_LEN + len(payload)
        if length > 0xFFFF:
            raise CodecError(f"UDP datagram too large: {length}")
        without_checksum = _UDP_STRUCT.pack(self.src_port, self.dst_port, length, 0)
        checksum = internet_checksum(without_checksum + payload)
        if checksum == 0:
            checksum = 0xFFFF
        return _UDP_STRUCT.pack(self.src_port, self.dst_port, length, checksum) + payload

    @classmethod
    def unpack(cls, data: bytes) -> tuple["UDPHeader", bytes]:
        if len(data) < UDP_HEADER_LEN:
            raise CodecError(f"UDP header truncated: {len(data)} bytes")
        src_port, dst_port, length, checksum = _UDP_STRUCT.unpack(data[:UDP_HEADER_LEN])
        if length < UDP_HEADER_LEN or length > len(data):
            raise CodecError(f"UDP length field {length} inconsistent")
        payload = data[UDP_HEADER_LEN:length]
        if checksum != 0:
            verify = _UDP_STRUCT.pack(src_port, dst_port, length, 0) + payload
            expected = internet_checksum(verify)
            if expected == 0:
                expected = 0xFFFF
            if checksum != expected:
                raise CodecError("UDP checksum mismatch")
        header = cls(src_port=src_port, dst_port=dst_port, length=length)
        return header, payload
