"""A single-producer/single-consumer byte ring with length-prefixed frames.

Sharded runs are in-process: the coordinator calls its partition
workers directly and nothing here moves their messages. The ring
survives only because the frozen ``benchmarks/e2e`` probe measures it
(``netsim.parallel.ring_mb_per_s``) over a process-local buffer;
ROADMAP item 5 removes it once the benchmark-version change (item 3)
drops that probe.
"""

from __future__ import annotations

import struct

from repro.errors import SimulationError


class TransportError(SimulationError):
    """A ring frame cannot be moved: it does not fit, or none is there."""


#: Ring header: write_pos(8) read_pos(8), padded to one cache line so
#: the data region never shares a line with the counters. Each field
#: lives at its own fixed offset and is written with a single whole-word
#: store: producer and consumer update *disjoint* words, never a
#: read-modify-write of the whole header.
_U64 = struct.Struct("<Q")
_OFF_WRITE = 0
_OFF_READ = 8
_HEADER_SIZE = 64
_LEN_PREFIX = struct.Struct("<I")


class RingBuffer:
    """One byte ring over ``segment.buf`` (any object with a writable
    ``buf`` of at least ``64 + capacity`` zeroed bytes).

    Layout: a 64-byte header (monotonic ``write_pos``/``read_pos`` byte
    counters) followed by ``capacity`` data bytes. Positions are
    *monotonic* — the ring offset is ``pos % capacity`` — so fullness is
    simply ``write_pos - read_pos`` and the empty/full ambiguity of
    wrapped indices never arises. The producer owns ``write_pos``, the
    consumer ``read_pos``, and payload bytes are written before the
    counter moves.

    Frames are ``u32 length + payload`` and may wrap around the
    physical end of the data region. There is no peer to wait for: a
    frame larger than the free space, or a :meth:`recv_frame` on an
    empty ring, raises :class:`TransportError`.
    """

    def __init__(self, segment, capacity: int) -> None:
        self.capacity = capacity
        self.buf = segment.buf

    # -- counter access ----------------------------------------------------

    def _load(self, offset: int) -> int:
        return _U64.unpack_from(self.buf, offset)[0]

    def _store(self, offset: int, value: int) -> None:
        # One 8-byte copy. ``pack_into`` zeroes its destination before
        # it packs, so a reader of this word between the two steps
        # would see 0: ``write_pos - read_pos`` then goes negative and
        # the reader steps back into bytes it has already consumed.
        self.buf[offset : offset + 8] = _U64.pack(value)

    def _positions(self) -> tuple[int, int]:
        return self._load(_OFF_WRITE), self._load(_OFF_READ)

    # -- raw byte movement -------------------------------------------------

    def _copy_in(self, pos: int, data) -> None:
        at = pos % self.capacity
        first = min(len(data), self.capacity - at)
        base = _HEADER_SIZE
        self.buf[base + at : base + at + first] = data[:first]
        if first < len(data):
            self.buf[base : base + len(data) - first] = data[first:]

    def _copy_out(self, pos: int, count: int) -> bytes:
        at = pos % self.capacity
        first = min(count, self.capacity - at)
        base = _HEADER_SIZE
        out = bytes(self.buf[base + at : base + at + first])
        if first < count:
            out += bytes(self.buf[base : base + count - first])
        return out

    # -- framing -----------------------------------------------------------

    def send_frame(self, payload: bytes) -> None:
        data = _LEN_PREFIX.pack(len(payload)) + payload
        write_pos, read_pos = self._positions()
        free = self.capacity - (write_pos - read_pos)
        if len(data) > free:
            raise TransportError(
                f"a {len(data)}-byte frame does not fit the ring's "
                f"{free} free bytes"
            )
        self._copy_in(write_pos, data)
        # Publish after the payload bytes are in place.
        self._store(_OFF_WRITE, write_pos + len(data))

    def recv_frame(self) -> bytes:
        write_pos, read_pos = self._positions()
        if write_pos == read_pos:
            raise TransportError("recv_frame on an empty ring")
        (length,) = _LEN_PREFIX.unpack(self._copy_out(read_pos, _LEN_PREFIX.size))
        frame = self._copy_out(read_pos + _LEN_PREFIX.size, length)
        self._store(_OFF_READ, read_pos + _LEN_PREFIX.size + length)
        return frame
