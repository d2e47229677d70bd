"""The multicast Forwarding Information Base.

Figure 5 of the paper defines the EXPRESS FIB entry: 32-bit source
address, 24-bit channel destination suffix (the low bits of the 232/8
address), 5-bit incoming interface, and a 32-bit outgoing-interface
bitmap — 93 bits, stored in 12 bytes. "The FIB entry ... must be
consulted for every multicast packet. Because of this, FIB memory is
generally the most expensive memory in a high-performance router"
(§5.1), which is why the cost model of Figure 6 and the ``FIG5``/
``FIG6`` benchmarks key off this exact size.

:class:`MulticastFib` is the data-plane table: exact ``(S, E)`` match,
incoming-interface check, fanout to the outgoing set, and the paper's
"counted and dropped" behaviour for non-matching EXPRESS packets
(§3.4) — never forwarded to a rendezvous point, never broadcast.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.errors import ForwardingError
from repro.inet.addr import channel_suffix, format_address, is_ssm, ssm_address
from repro.netsim.node import MAX_INTERFACES

#: Exact wire size of one EXPRESS FIB entry (Figure 5).
FIB_ENTRY_BYTES = 12

_PACK = struct.Struct("!I3sBI")


@dataclass(slots=True)
class FibEntry:
    """One EXPRESS forwarding entry.

    Attributes
    ----------
    source:
        32-bit unicast source address S.
    dest_suffix:
        24-bit channel number (low bits of the 232/8 destination E).
    incoming_interface:
        RPF interface index toward S (5 bits; <= 31).
    outgoing:
        Bitmap of interfaces to forward matching packets out of; read
        afresh at every lookup, so any write shows at the next packet.
    """

    source: int
    dest_suffix: int
    incoming_interface: int
    outgoing: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.source <= 0xFFFFFFFF:
            raise ForwardingError(f"source {self.source:#x} not 32-bit")
        if not 0 <= self.dest_suffix < (1 << 24):
            raise ForwardingError(f"dest suffix {self.dest_suffix:#x} not 24-bit")
        if not 0 <= self.incoming_interface < MAX_INTERFACES:
            raise ForwardingError(f"incoming interface {self.incoming_interface} not 5-bit")
        if not 0 <= self.outgoing <= 0xFFFFFFFF:
            raise ForwardingError(f"outgoing bitmap {self.outgoing:#x} not 32-bit")

    # -- bitmap helpers ------------------------------------------------------

    def add_outgoing(self, ifindex: int) -> None:
        self.outgoing |= _bit(ifindex)

    def remove_outgoing(self, ifindex: int) -> None:
        self.outgoing &= ~_bit(ifindex)

    def has_outgoing(self, ifindex: int) -> bool:
        return bool(self.outgoing & _bit(ifindex))

    def outgoing_interfaces(self) -> tuple[int, ...]:
        """The outgoing interface indexes, ascending, built per call
        (the data plane shares tuples: :meth:`MulticastFib.egress`)."""
        return tuple(i for i in range(MAX_INTERFACES) if self.outgoing >> i & 1)

    def fanout(self) -> int:
        return bin(self.outgoing).count("1")

    # -- wire format (Figure 5) ------------------------------------------------

    def pack(self) -> bytes:
        """Pack to the exact 12-byte layout of Figure 5: 4 bytes source |
        3 bytes dest suffix | 1 byte holding the 5-bit incoming interface
        (high bits; low 3 bits pad) | 4 bytes outgoing bitmap."""
        dest_bytes = self.dest_suffix.to_bytes(3, "big")
        iif_byte = (self.incoming_interface & 0x1F) << 3
        return _PACK.pack(self.source, dest_bytes, iif_byte, self.outgoing)

    @classmethod
    def unpack(cls, data: bytes) -> "FibEntry":
        if len(data) != FIB_ENTRY_BYTES:
            raise ForwardingError(
                f"FIB entry must be {FIB_ENTRY_BYTES} bytes, got {len(data)}"
            )
        source, dest_bytes, iif_byte, outgoing = _PACK.unpack(data)
        return cls(source, int.from_bytes(dest_bytes, "big"), iif_byte >> 3, outgoing)

    @property
    def dest_address(self) -> int:
        """The full 232/8 destination address E."""
        return ssm_address(self.dest_suffix)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        channel = f"{format_address(self.source)},{format_address(self.dest_address)}"
        oifs = self.outgoing_interfaces()
        return f"<FibEntry ({channel}) iif={self.incoming_interface} oif={oifs}>"


def _bit(ifindex: int) -> int:
    if not 0 <= ifindex < MAX_INTERFACES:
        raise ForwardingError(f"interface {ifindex} out of bitmap range")
    return 1 << ifindex


class MulticastFib:
    """Exact-match (S, E) forwarding table for one router.

    Keyed by the full ``(source, dest)`` address pair: a per-packet
    lookup is a dict probe, the incoming-interface compare and a probe
    of the egress table, which holds one interface tuple per distinct
    outgoing bitmap, shared by every entry with that bitmap (multicast
    state has few distinct egress sets — P3FA, PAPERS.md). A tuple is a
    pure function of its bitmap, so no write invalidates anything; the
    table never grows with the (S, E) pairs a flood presents, and
    :meth:`egress` empties it when it outgrows the entries it serves.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[int, int], FibEntry] = {}
        self._egress: dict[int, tuple[int, ...]] = {}
        #: §3.4: a packet matching no entry "is simply counted and dropped".
        self.no_match_drops = 0
        #: Incoming-interface check failures (loop prevention).
        self.iif_drops = 0
        self.lookups = 0
        #: Lookups answered without building an egress tuple: every drop,
        #: and every match whose bitmap was already in the egress table.
        self.lookup_cache_hits = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[FibEntry]:
        return iter(self._entries.values())

    @staticmethod
    def _key(source: int, dest: int) -> tuple[int, int]:
        if not is_ssm(dest):
            raise ForwardingError(f"{format_address(dest)} is not an EXPRESS destination")
        return (source, dest)

    def install(self, source: int, dest: int, incoming_interface: int) -> FibEntry:
        """Create (or return the existing) entry for channel (S, E)."""
        key = self._key(source, dest)
        entry = self._entries.get(key)
        if entry is None:
            suffix = channel_suffix(dest)
            entry = self._entries[key] = FibEntry(source, suffix, incoming_interface)
        return entry

    def remove(self, source: int, dest: int) -> bool:
        """Delete the entry for (S, E); True if it existed."""
        return self._entries.pop(self._key(source, dest), None) is not None

    def get(self, source: int, dest: int) -> Optional[FibEntry]:
        return self._entries.get(self._key(source, dest))

    def egress(self, entry: FibEntry) -> tuple[int, ...]:
        """The shared interface tuple for ``entry``'s current bitmap."""
        oifs = self._egress.get(entry.outgoing)
        if oifs is None:
            if len(self._egress) > 64 + 2 * len(self._entries):
                self._egress.clear()  # mostly bitmaps churn left behind
            oifs = self._egress[entry.outgoing] = entry.outgoing_interfaces()
        return oifs

    def lookup(self, source: int, dest: int, arriving_ifindex: int) -> tuple[int, ...]:
        """Data-plane lookup: the outgoing interfaces for a packet after
        the exact-match and incoming-interface checks, or ``()`` with a
        drop counter bumped. This mirrors the §3.4 fast path: no
        rendezvous fallback, no broadcast, nothing kept per lookup."""
        self.lookups += 1
        entry = self._entries.get((source, dest))
        if entry is None:
            self._key(source, dest)  # only a 232/8 miss is a drop
            self.no_match_drops += 1
        elif entry.incoming_interface != arriving_ifindex:
            self.iif_drops += 1
        else:
            oifs = self._egress.get(entry.outgoing)
            if oifs is None:
                return self.egress(entry)
            self.lookup_cache_hits += 1
            return oifs
        self.lookup_cache_hits += 1
        return ()

    def memory_bytes(self) -> int:
        """Fast-path memory footprint at Figure 5's 12 bytes/entry."""
        return len(self._entries) * FIB_ENTRY_BYTES

    def channels(self) -> list[tuple[int, int]]:
        """All (source, dest_address) pairs with entries installed."""
        return list(self._entries)
