"""The channel value type and per-host channel allocation.

"A multicast channel is a datagram delivery service identified by a
tuple (S, E) where S is the sender's source address and E is a channel
destination address. Only the source host S may send to (S, E)" (§2).

Channels with the same E but different S are unrelated; equality and
hashing therefore cover both components. Each source host can allocate
its 2^24 channel numbers autonomously — "duplicate allocation is an
issue only at a single host, which the host operating system can avoid
with a local database of allocated channels" (§2.2.1);
:class:`ChannelAllocator` is that local database.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterator, Optional

from repro.errors import ChannelError
from repro.inet.addr import (
    CHANNELS_PER_SOURCE,
    channel_suffix,
    format_address,
    is_ssm,
    is_unicast,
    ssm_address,
)

# ---------------------------------------------------------------------------
# Channel interning
#
# Channels key every hot dict in the system (channel tables, block
# membership, key caches), and the same (S, E) pair is rebuilt at every
# layer: codec decode, data-plane delivery. Interning gives all of those
# one canonical object — the validation and hash are paid once per
# distinct channel per process — and lets the columnar state tables
# address channels by a dense integer id instead of the object itself.
#
# Only the control plane interns (:meth:`Channel.of` at allocation and
# decode, :func:`intern_channel` where channel state is created), so the
# tables grow with control-plane work, never with data traffic. The data
# plane only probes: a flood of packets for channels nobody joined
# leaves no trace.
# ---------------------------------------------------------------------------

#: The 7 wire bytes of (source, suffix) -> canonical Channel, filled by
#: :meth:`Channel.of`.
_OF_MEMO: dict = {}

#: (source, group) -> canonical Channel, filled alongside ``_OF_MEMO``.
_PAIR_MEMO: dict = {}

#: Canonical Channel -> dense integer id, in interning order.
_CHANNEL_IDS: dict = {}

#: The data plane's probe: ``interned_channel((source, group))`` is the
#: canonical :class:`Channel` of a pair some node holds (or held) state
#: for, else None — and a packet for a pair nobody interned has nobody
#: to be delivered to. One dict probe, no Python frame, never a write.
interned_channel = _PAIR_MEMO.get

#: The decoder's probe, by :attr:`Channel.wire`; on a miss it interns
#: through :func:`channel_from_wire`.
wire_channel = _OF_MEMO.get


def channel_from_wire(wire: bytes) -> "Channel":
    """The canonical channel of a message header's 7 channel bytes:
    source(4) dest-suffix(3). Raises :class:`ChannelError` for a source
    no channel can have."""
    return Channel.of(int.from_bytes(wire[:4], "big"), int.from_bytes(wire[4:], "big"))


def intern_channel(channel: "Channel") -> "Channel":
    """The canonical object for ``channel``'s pair, interned on first
    use: what makes a hand-built ``Channel(source=…, group=…)`` visible
    to :data:`interned_channel`."""
    return _PAIR_MEMO.get((channel.source, channel.group)) or Channel.of(
        channel.source, channel.suffix
    )


def channel_id(channel: "Channel") -> int:
    """Dense integer id for ``channel``, assigned on first use.

    Ids are process-global and monotonically assigned, so they can
    index parallel arrays (see ``core/ecmp/state.py``) and key caches
    with plain-int hashing.
    """
    cid = _CHANNEL_IDS.get(channel)
    if cid is None:
        cid = len(_CHANNEL_IDS)
        _CHANNEL_IDS[channel] = cid
    return cid


class Channel(namedtuple("Channel", "source group wire")):
    """An EXPRESS channel (S, E).

    Attributes
    ----------
    source:
        The single designated source's unicast address S.
    group:
        The channel destination address E, in 232.0.0.0/8.
    wire:
        How every ECMP message names the channel on the wire — source(4)
        dest-suffix(3) — derived from the two, built once and copied on
        encode.

    An immutable tuple: channels key every hot dict in the control and
    data planes (channel tables, FIB caches, block membership), and a
    tuple is hashed and compared without a Python frame.
    """

    __slots__ = ()

    def __new__(cls, source: int, group: int) -> "Channel":
        if not is_unicast(source):
            raise ChannelError(
                f"channel source {format_address(source)} must be unicast"
            )
        if not is_ssm(group):
            raise ChannelError(
                f"channel destination {format_address(group)} must be in 232/8"
            )
        wire = source.to_bytes(4, "big") + group.to_bytes(4, "big")[1:]
        return tuple.__new__(cls, (source, group, wire))

    def __getnewargs__(self) -> tuple[int, int]:
        return self.source, self.group

    def __repr__(self) -> str:
        return f"Channel(source={self.source}, group={self.group})"

    @property
    def suffix(self) -> int:
        """The 24-bit channel number within the source's space."""
        return channel_suffix(self.group)

    @classmethod
    def of(cls, source: int, suffix: int) -> "Channel":
        """The canonical channel ``suffix`` of host ``source``.

        Interned: repeated calls with the same pair return the same
        object, the one :data:`interned_channel` finds for the data
        plane by (src, dst), so there is exactly one canonical
        ``Channel`` per distinct (S, E) in the process.
        """
        group = ssm_address(suffix)
        if cls is not Channel:  # subclasses get no interning
            return cls(source=source, group=group)
        channel = _PAIR_MEMO.get((source, group))
        if channel is None:
            channel = _PAIR_MEMO[(source, group)] = cls(source=source, group=group)
            _OF_MEMO[channel.wire] = channel
        return channel

    def __str__(self) -> str:
        return f"({format_address(self.source)},{format_address(self.group)})"


class ChannelAllocator:
    """A source host's local database of allocated channel numbers.

    Allocation is sequential with explicit release; allocating a
    specific suffix that is already held raises :class:`ChannelError`.
    """

    def __init__(self, source: int) -> None:
        if not is_unicast(source):
            raise ChannelError(f"{format_address(source)} is not a unicast address")
        self.source = source
        self._allocated: set[int] = set()
        self._next = 1  # leave suffix 0 unused (reads as "no channel")

    def allocate(self, suffix: Optional[int] = None) -> Channel:
        """Allocate a channel, either a specific ``suffix`` or the next
        free one."""
        if suffix is not None:
            if suffix in self._allocated:
                raise ChannelError(f"channel suffix {suffix} already allocated")
            self._allocated.add(suffix)
            return Channel.of(self.source, suffix)
        if len(self._allocated) >= CHANNELS_PER_SOURCE - 1:
            raise ChannelError("all 2^24 channels allocated")
        while self._next in self._allocated:
            self._next = (self._next + 1) % CHANNELS_PER_SOURCE or 1
        suffix = self._next
        self._allocated.add(suffix)
        self._next = (self._next + 1) % CHANNELS_PER_SOURCE or 1
        return Channel.of(self.source, suffix)

    def release(self, channel: Channel) -> None:
        if channel.source != self.source:
            raise ChannelError(f"{channel} does not belong to this source")
        self._allocated.discard(channel.suffix)

    def allocated(self) -> Iterator[Channel]:
        for suffix in sorted(self._allocated):
            yield Channel.of(self.source, suffix)

    def __len__(self) -> int:
        return len(self._allocated)

    def __contains__(self, channel: Channel) -> bool:
        return channel.source == self.source and channel.suffix in self._allocated
