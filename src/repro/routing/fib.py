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

The table holds what Fig. 5 holds and no more: it is keyed by the
interned :class:`~repro.core.channel.Channel` — the (S, E) half of the
entry, one object per channel per process, already validated — and
each value is a *row*, the ``(incoming interface, outgoing bitmap)``
pair, interned per FIB so that every entry with the same row shares one
tuple (multicast state has few distinct rows — P3FA's low egress
diversity, PAPERS.md). A row is never changed in place: a forwarding
flip or an RPF change points the entry at another row.
:class:`FibEntry` is the 12-byte record itself, and the handle that
:meth:`MulticastFib.install` and :meth:`~MulticastFib.get` hand out.
"""

from __future__ import annotations

import struct
from typing import Iterator, Optional

from repro.core.channel import Channel, interned_channel
from repro.errors import ChannelError, ForwardingError
from repro.inet.addr import channel_suffix, format_address, is_ssm, ssm_address
from repro.netsim.node import MAX_INTERFACES

#: Exact wire size of one EXPRESS FIB entry (Figure 5).
FIB_ENTRY_BYTES = 12

_PACK = struct.Struct("!I3sBI")

#: A FIB value: (incoming interface, outgoing bitmap), shared.
Row = tuple[int, int]


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

    Built by hand (or by :meth:`unpack`), an entry is a plain record.
    Handed out by a :class:`MulticastFib`, it is a handle on the entry
    that FIB holds for the channel: ``incoming_interface`` and
    ``outgoing`` read the channel's current row and writing either
    points the channel at another row, so a write shows at the next
    packet. Once the FIB holds no entry for the channel, the handle
    reads the values it was handed or last wrote, and writes touch
    nothing else.
    """

    __slots__ = ("source", "dest_suffix", "_incoming", "_outgoing", "_fib", "_channel")

    def __init__(
        self, source: int, dest_suffix: int, incoming_interface: int, outgoing: int = 0
    ) -> None:
        if not 0 <= source <= 0xFFFFFFFF:
            raise ForwardingError(f"source {source:#x} not 32-bit")
        if not 0 <= dest_suffix < (1 << 24):
            raise ForwardingError(f"dest suffix {dest_suffix:#x} not 24-bit")
        if not 0 <= incoming_interface < MAX_INTERFACES:
            raise ForwardingError(f"incoming interface {incoming_interface} not 5-bit")
        if not 0 <= outgoing <= 0xFFFFFFFF:
            raise ForwardingError(f"outgoing bitmap {outgoing:#x} not 32-bit")
        self.source = source
        self.dest_suffix = dest_suffix
        self._incoming = incoming_interface
        self._outgoing = outgoing
        self._fib: Optional[MulticastFib] = None
        self._channel = None

    @classmethod
    def _handle(cls, fib: "MulticastFib", channel: Channel, row: Row) -> "FibEntry":
        entry = cls.__new__(cls)
        entry.source = channel.source
        entry.dest_suffix = channel.group & 0x00FFFFFF
        entry._incoming, entry._outgoing = row
        entry._fib = fib
        entry._channel = channel
        return entry

    def _row(self) -> Optional[Row]:
        """The row the FIB holds for this handle's channel, if any."""
        fib = self._fib
        return fib._entries.get(self._channel) if fib is not None else None

    @property
    def incoming_interface(self) -> int:
        row = self._row()
        return self._incoming if row is None else row[0]

    @incoming_interface.setter
    def incoming_interface(self, value: int) -> None:
        row = self._row()
        self._incoming = value
        if row is not None:
            self._fib._store(self._channel, value, row[1])

    @property
    def outgoing(self) -> int:
        row = self._row()
        return self._outgoing if row is None else row[1]

    @outgoing.setter
    def outgoing(self, value: int) -> None:
        row = self._row()
        self._outgoing = value
        if row is not None:
            self._fib._store(self._channel, row[0], value)

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
        return _interfaces(self.outgoing)

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

    def _fields(self) -> tuple[int, int, int, int]:
        return (self.source, self.dest_suffix, self.incoming_interface, self.outgoing)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FibEntry):
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # type: ignore[assignment]  # a mutable record

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        channel = f"{format_address(self.source)},{format_address(self.dest_address)}"
        oifs = self.outgoing_interfaces()
        return f"<FibEntry ({channel}) iif={self.incoming_interface} oif={oifs}>"


def _bit(ifindex: int) -> int:
    if not 0 <= ifindex < MAX_INTERFACES:
        raise ForwardingError(f"interface {ifindex} out of bitmap range")
    return 1 << ifindex


def _interfaces(outgoing: int) -> tuple[int, ...]:
    return tuple(i for i in range(MAX_INTERFACES) if outgoing >> i & 1)


class MulticastFib:
    """Exact-match (S, E) forwarding table for one router.

    Keyed by the interned channel, valued by a shared row (see the
    module docstring). A per-packet lookup is a dict probe, the
    incoming-interface compare and a probe of the egress table, which
    holds one interface tuple per distinct outgoing bitmap, shared by
    every entry with that bitmap. A tuple is a pure function of its
    bitmap and a row of its two fields, so no write invalidates
    anything; neither the egress nor the row table grows with the
    (S, E) pairs a flood presents, and when one outgrows the entries it
    serves, the egress table empties and the row table keeps only the
    rows in use.

    The protocol's writers (:meth:`graft`, :meth:`prune`,
    :meth:`set_incoming`, :meth:`remove`) and the data plane's readers
    (:meth:`lookup`, :meth:`egress_of`) name the channel by its interned
    :class:`Channel`. :meth:`install` and :meth:`get` name it by the
    address pair ``source, dest`` and hand out a :class:`FibEntry`
    handle; ``remove`` and ``lookup`` take the pair in place of the
    channel too. The pair costs a probe of the intern table first.
    """

    def __init__(self) -> None:
        self._entries: dict[Channel, Row] = {}
        #: Every row in use (and some left behind), as its own key: the
        #: interning table.
        self._rows: dict[Row, Row] = {}
        self._egress: dict[int, tuple[int, ...]] = {}
        #: The handle last handed out, handed out again for its channel.
        self._last: Optional[FibEntry] = None
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

    def __contains__(self, channel: Channel) -> bool:
        return channel in self._entries

    def __iter__(self) -> Iterator[FibEntry]:
        for channel in self._entries:
            yield self._handle(channel)

    # -- the channel an address pair names -------------------------------------

    @staticmethod
    def _find(source: int, dest: int) -> Optional[Channel]:
        """The interned channel of (S, E), or None when nobody interned
        it; ForwardingError when ``dest`` is no EXPRESS destination."""
        channel = interned_channel((source, dest))
        if channel is None and not is_ssm(dest):
            raise ForwardingError(f"{format_address(dest)} is not an EXPRESS destination")
        return channel

    @classmethod
    def _intern(cls, source: int, dest: int) -> Channel:
        channel = cls._find(source, dest)
        if channel is None:
            try:
                channel = Channel.of(source, channel_suffix(dest))
            except ChannelError as exc:
                raise ForwardingError(str(exc)) from None
        return channel

    # -- writes -----------------------------------------------------------------

    def _store(self, channel: Channel, incoming_interface: int, outgoing: int) -> None:
        """Point ``channel``'s entry at the shared row of these values.

        The interning table holds every row in use and, until it
        outgrows twice the entries, rows churn has left behind; then it
        is rebuilt from the rows in use, which keeps it a superset of
        them — so two entries with equal rows always share one."""
        row = (incoming_interface, outgoing)
        rows = self._rows
        shared = rows.get(row)
        if shared is None:
            if len(rows) > 2 * len(self._entries):
                live = self._entries.values()
                rows = self._rows = dict(zip(live, live))
            shared = rows[row] = row
        self._entries[channel] = shared

    def _handle(self, channel: Channel) -> FibEntry:
        handle = self._last
        if handle is None or handle._channel is not channel:
            handle = self._last = FibEntry._handle(self, channel, self._entries[channel])
        return handle

    def install(self, source: int, dest: int, incoming_interface: int) -> FibEntry:
        """Create (or return the existing) entry for channel (S, E), on
        ``incoming_interface`` if it is new, and hand out its handle."""
        channel = self._intern(source, dest)
        if channel not in self._entries:
            if not 0 <= incoming_interface < MAX_INTERFACES:
                raise ForwardingError(f"incoming interface {incoming_interface} not 5-bit")
            self._store(channel, incoming_interface, 0)
        return self._handle(channel)

    def graft(self, channel: Channel, incoming_interface: int, bits: int) -> None:
        """Set ``bits`` in ``channel``'s outgoing bitmap, installing its
        entry on ``incoming_interface`` first if it has none — the
        protocol's forwarding flip to on (``bits`` 0 installs only)."""
        row = self._entries.get(channel)
        if row is None:
            self._store(channel, incoming_interface, bits)
        elif row[1] | bits != row[1]:
            self._store(channel, row[0], row[1] | bits)

    def prune(self, channel: Channel, bits: int) -> Optional[int]:
        """Clear ``bits`` in ``channel``'s outgoing bitmap; the bitmap
        left, or None when the channel has no entry."""
        row = self._entries.get(channel)
        if row is None:
            return None
        outgoing = row[1] & ~bits
        if outgoing != row[1]:
            self._store(channel, row[0], outgoing)
        return outgoing

    def set_incoming(self, channel: Channel, incoming_interface: int) -> None:
        """Move ``channel``'s installed entry to another RPF interface."""
        row = self._entries[channel]
        if row[0] != incoming_interface:
            self._store(channel, incoming_interface, row[1])

    def remove(self, channel, dest: Optional[int] = None) -> bool:
        """Delete ``channel``'s entry — called as ``remove(source, dest)``,
        the entry of that address pair; True if it existed."""
        if dest is not None:
            channel = self._find(channel, dest)
        last = self._last
        if last is not None and last._channel is channel:
            self._last = None
        return self._entries.pop(channel, None) is not None

    # -- reads ------------------------------------------------------------------

    def get(self, source: int, dest: int) -> Optional[FibEntry]:
        """A handle on channel (S, E)'s entry, or None."""
        channel = self._find(source, dest)
        if channel not in self._entries:
            return None
        return self._handle(channel)

    def egress(self, entry: FibEntry) -> tuple[int, ...]:
        """The shared interface tuple for ``entry``'s current bitmap."""
        return self._egress_tuple(entry.outgoing)

    def egress_of(self, channel: Optional[Channel]) -> Optional[tuple[int, ...]]:
        """The shared interface tuple of ``channel``'s entry whatever
        interface the packet came in on — the source's own emit, a
        subcast relay — or None when there is no entry. No counter
        moves."""
        row = self._entries.get(channel)
        if row is None:
            return None
        oifs = self._egress.get(row[1])
        return oifs if oifs is not None else self._egress_tuple(row[1])

    def _egress_tuple(self, outgoing: int) -> tuple[int, ...]:
        oifs = self._egress.get(outgoing)
        if oifs is None:
            if len(self._egress) > 64 + 2 * len(self._entries):
                self._egress.clear()  # mostly bitmaps churn left behind
            oifs = self._egress[outgoing] = _interfaces(outgoing)
        return oifs

    def lookup(
        self, channel, arriving_ifindex: int, pair_ifindex: Optional[int] = None
    ) -> tuple[int, ...]:
        """Data-plane lookup: the outgoing interfaces for a packet of
        ``channel`` (None: a pair nobody interned) that arrived on
        ``arriving_ifindex``, after the exact-match and
        incoming-interface checks, or ``()`` with a drop counter bumped.
        This mirrors the §3.4 fast path: no rendezvous fallback, no
        broadcast, nothing kept per lookup. Called as ``lookup(source,
        dest, arriving_ifindex)`` it names the channel by its address
        pair."""
        if pair_ifindex is not None:
            pair = (channel, arriving_ifindex)
            channel = interned_channel(pair)
            if channel is None:
                self._find(*pair)  # only a 232/8 miss is a drop
            arriving_ifindex = pair_ifindex
        self.lookups += 1
        row = self._entries.get(channel)
        if row is None:
            self.no_match_drops += 1
        elif row[0] != arriving_ifindex:
            self.iif_drops += 1
        else:
            oifs = self._egress.get(row[1])
            if oifs is None:
                return self._egress_tuple(row[1])
            self.lookup_cache_hits += 1
            return oifs
        self.lookup_cache_hits += 1
        return ()

    def memory_bytes(self) -> int:
        """Fast-path memory footprint at Figure 5's 12 bytes/entry."""
        return len(self._entries) * FIB_ENTRY_BYTES

    def channels(self) -> list[tuple[int, int]]:
        """All (source, dest_address) pairs with entries installed."""
        return [(channel.source, channel.group) for channel in self._entries]
