"""The FIB as one object per entry.

Specification of ``repro.routing.fib.MulticastFib``: a dict from the
``(S, E)`` address pair to a :class:`FibEntry` record of its own, whose
``incoming_interface`` / ``outgoing`` fields are written in place —
what the shipped table holds as a key tuple and an object per entry
where it keeps a shared row under the interned channel. The lookup, the
egress table (one interface tuple per distinct bitmap, emptied when it
outgrows the entries) and every counter are as shipped, so the two
tables agree counter for counter, ``lookup_cache_hits`` included.

``tests/properties/test_fib_equivalence.py`` drives both through the
same random operations. The protocol's writers — ``graft``, ``prune``,
``set_incoming`` — are written here the way the protocol used to write
entries: through the entry object.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.errors import ForwardingError
from repro.inet.addr import channel_suffix, format_address, is_ssm
from repro.routing.fib import FibEntry


class ReferenceFib:
    """Exact-match (S, E) forwarding table, one entry object per pair."""

    def __init__(self) -> None:
        self._entries: dict[tuple[int, int], FibEntry] = {}
        self._egress: dict[int, tuple[int, ...]] = {}
        self.no_match_drops = 0
        self.iif_drops = 0
        self.lookups = 0
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
        key = self._key(source, dest)
        entry = self._entries.get(key)
        if entry is None:
            suffix = channel_suffix(dest)
            entry = self._entries[key] = FibEntry(source, suffix, incoming_interface)
        return entry

    def remove(self, source: int, dest: int) -> bool:
        return self._entries.pop(self._key(source, dest), None) is not None

    def get(self, source: int, dest: int) -> Optional[FibEntry]:
        return self._entries.get(self._key(source, dest))

    # -- the protocol's writes, through the entry --------------------------------

    def graft(self, source: int, dest: int, incoming_interface: int, bits: int) -> None:
        self.install(source, dest, incoming_interface).outgoing |= bits

    def prune(self, source: int, dest: int, bits: int) -> Optional[int]:
        entry = self.get(source, dest)
        if entry is None:
            return None
        entry.outgoing &= ~bits
        return entry.outgoing

    def set_incoming(self, source: int, dest: int, incoming_interface: int) -> None:
        self._entries[self._key(source, dest)].incoming_interface = incoming_interface

    # -- reads ------------------------------------------------------------------

    def egress(self, entry: FibEntry) -> tuple[int, ...]:
        oifs = self._egress.get(entry.outgoing)
        if oifs is None:
            if len(self._egress) > 64 + 2 * len(self._entries):
                self._egress.clear()
            oifs = self._egress[entry.outgoing] = entry.outgoing_interfaces()
        return oifs

    def egress_of(self, source: int, dest: int) -> Optional[tuple[int, ...]]:
        entry = self.get(source, dest)
        return None if entry is None else self.egress(entry)

    def lookup(self, source: int, dest: int, arriving_ifindex: int) -> tuple[int, ...]:
        self.lookups += 1
        entry = self._entries.get((source, dest))
        if entry is None:
            self._key(source, dest)
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
        return len(self._entries) * 12

    def channels(self) -> list[tuple[int, int]]:
        return list(self._entries)
