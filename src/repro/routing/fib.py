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


@dataclass
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
        Bitmap of interfaces to forward matching packets out of.
    """

    source: int
    dest_suffix: int
    incoming_interface: int
    outgoing: int = 0

    #: Owning :class:`MulticastFib` (set by ``install``); lets attribute
    #: writes invalidate the fib's interned lookup results.
    _owner = None
    #: Memoized ``outgoing_interfaces()`` result; any write to
    #: ``outgoing`` clears it (see ``__setattr__``).
    _oif_list = None

    def __setattr__(self, name: str, value) -> None:
        # Catch *every* mutation path — the protocol layer assigns
        # ``entry.outgoing`` / ``entry.incoming_interface`` directly,
        # not only via the bitmap helpers. A write that leaves the
        # value as it was changes no lookup result and keeps the cache.
        if name == "outgoing" or name == "incoming_interface":
            if self.__dict__.get(name) == value:
                return
            object.__setattr__(self, name, value)
            object.__setattr__(self, "_oif_list", None)
            owner = self._owner
            if owner is not None:
                owner._invalidate_lookups()
        else:
            object.__setattr__(self, name, value)

    def __post_init__(self) -> None:
        if not 0 <= self.source <= 0xFFFFFFFF:
            raise ForwardingError(f"source {self.source:#x} not 32-bit")
        if not 0 <= self.dest_suffix < (1 << 24):
            raise ForwardingError(f"dest suffix {self.dest_suffix:#x} not 24-bit")
        if not 0 <= self.incoming_interface < MAX_INTERFACES:
            raise ForwardingError(
                f"incoming interface {self.incoming_interface} exceeds 5-bit field"
            )
        if not 0 <= self.outgoing <= 0xFFFFFFFF:
            raise ForwardingError(f"outgoing bitmap {self.outgoing:#x} not 32-bit")

    # -- bitmap helpers ------------------------------------------------------

    def add_outgoing(self, ifindex: int) -> None:
        self._check_if(ifindex)
        self.outgoing |= 1 << ifindex

    def remove_outgoing(self, ifindex: int) -> None:
        self._check_if(ifindex)
        self.outgoing &= ~(1 << ifindex)

    def has_outgoing(self, ifindex: int) -> bool:
        self._check_if(ifindex)
        return bool(self.outgoing & (1 << ifindex))

    def outgoing_interfaces(self) -> list[int]:
        """The interned outgoing-interface list (do not mutate)."""
        cached = self._oif_list
        if cached is None:
            cached = [i for i in range(MAX_INTERFACES) if self.outgoing & (1 << i)]
            object.__setattr__(self, "_oif_list", cached)
        return cached

    def fanout(self) -> int:
        return bin(self.outgoing).count("1")

    @staticmethod
    def _check_if(ifindex: int) -> None:
        if not 0 <= ifindex < MAX_INTERFACES:
            raise ForwardingError(f"interface {ifindex} out of bitmap range")

    # -- wire format (Figure 5) ------------------------------------------------

    def pack(self) -> bytes:
        """Pack to the exact 12-byte layout of Figure 5.

        Layout: 4 bytes source | 3 bytes dest suffix | 1 byte holding
        the 5-bit incoming interface (high bits; low 3 bits pad) |
        4 bytes outgoing bitmap.
        """
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
        return cls(
            source=source,
            dest_suffix=int.from_bytes(dest_bytes, "big"),
            incoming_interface=iif_byte >> 3,
            outgoing=outgoing,
        )

    @property
    def dest_address(self) -> int:
        """The full 232/8 destination address E."""
        return ssm_address(self.dest_suffix)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FibEntry ({format_address(self.source)},"
            f"{format_address(self.dest_address)}) iif={self.incoming_interface}"
            f" oif={self.outgoing_interfaces()}>"
        )


#: Interned empty result shared by every drop path (do not mutate).
_NO_OIFS: list[int] = []

#: Lookup-cache size guard: adversarial workloads (spoof floods with
#: random (S, E)) would otherwise grow the cache without bound.
_LOOKUP_CACHE_MAX = 4096


class MulticastFib:
    """Exact-match (S, E) forwarding table for one router.

    Data-plane lookups intern their results: repeated packets for the
    same ``(S, E, iif)`` triple — the steady-state common case — reuse
    one cached verdict and one shared outgoing-interface list instead
    of re-validating the destination and rebuilding the list per
    packet. Any table or entry mutation invalidates the cache; the
    drop counters stay exact on cache hits.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[int, int], FibEntry] = {}
        #: §3.4: a packet matching no entry "is simply counted and dropped".
        self.no_match_drops = 0
        #: Incoming-interface check failures (loop prevention).
        self.iif_drops = 0
        self.lookups = 0
        #: (source, dest, iif) -> ("ok" | "no_match" | "iif", oif list)
        self._lookup_cache: dict[tuple[int, int, int], tuple[str, list[int]]] = {}
        self.lookup_cache_hits = 0
        #: Table or entry mutations that dropped the interned lookups.
        self.invalidations = 0

    def _invalidate_lookups(self) -> None:
        self.invalidations += 1
        if self._lookup_cache:
            self._lookup_cache.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[FibEntry]:
        return iter(self._entries.values())

    @staticmethod
    def _key(source: int, dest: int) -> tuple[int, int]:
        if not is_ssm(dest):
            raise ForwardingError(
                f"{format_address(dest)} is not an EXPRESS destination"
            )
        return (source, channel_suffix(dest))

    def install(self, source: int, dest: int, incoming_interface: int) -> FibEntry:
        """Create (or return the existing) entry for channel (S, E)."""
        key = self._key(source, dest)
        entry = self._entries.get(key)
        if entry is None:
            entry = FibEntry(
                source=source,
                dest_suffix=key[1],
                incoming_interface=incoming_interface,
            )
            entry._owner = self
            self._entries[key] = entry
            self._invalidate_lookups()
        return entry

    def remove(self, source: int, dest: int) -> bool:
        """Delete the entry for (S, E); True if it existed."""
        entry = self._entries.pop(self._key(source, dest), None)
        if entry is None:
            return False
        entry._owner = None
        self._invalidate_lookups()
        return True

    def get(self, source: int, dest: int) -> Optional[FibEntry]:
        return self._entries.get(self._key(source, dest))

    def lookup(self, source: int, dest: int, arriving_ifindex: int) -> list[int]:
        """Data-plane lookup: the outgoing interface list for a packet,
        after the exact-match and incoming-interface checks.

        Returns an empty list (and bumps the drop counters) for packets
        that must be dropped. This mirrors the §3.4 fast path: no
        rendezvous fallback, no broadcast.
        """
        self.lookups += 1
        cache_key = (source, dest, arriving_ifindex)
        hit = self._lookup_cache.get(cache_key)
        if hit is not None:
            self.lookup_cache_hits += 1
            verdict, oifs = hit
            if verdict == "no_match":
                self.no_match_drops += 1
            elif verdict == "iif":
                self.iif_drops += 1
            return oifs
        entry = self._entries.get(self._key(source, dest))
        if len(self._lookup_cache) >= _LOOKUP_CACHE_MAX:
            self._lookup_cache.clear()
        if entry is None:
            self.no_match_drops += 1
            self._lookup_cache[cache_key] = ("no_match", _NO_OIFS)
            return _NO_OIFS
        if entry.incoming_interface != arriving_ifindex:
            self.iif_drops += 1
            self._lookup_cache[cache_key] = ("iif", _NO_OIFS)
            return _NO_OIFS
        oifs = entry.outgoing_interfaces()
        self._lookup_cache[cache_key] = ("ok", oifs)
        return oifs

    def memory_bytes(self) -> int:
        """Fast-path memory footprint at Figure 5's 12 bytes/entry."""
        return len(self._entries) * FIB_ENTRY_BYTES

    def channels(self) -> list[tuple[int, int]]:
        """All (source, dest_address) pairs with entries installed."""
        return [(s, ssm_address(e)) for (s, e) in self._entries]
