"""The byte ring the frozen ``benchmarks/e2e`` probe measures: framing,
wraparound, single-write position stores, the errors that replace
waiting for a peer, and a hypothesis fuzz against a deque oracle."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.parallel.transport import RingBuffer, TransportError


class LocalSegment:
    """A process-local segment, the way the probe builds one."""

    def __init__(self, size: int) -> None:
        self.buf = memoryview(bytearray(size))


def make_ring(capacity: int) -> RingBuffer:
    return RingBuffer(LocalSegment(64 + capacity), capacity)


@pytest.fixture
def ring():
    return make_ring(64)


class TestRingFraming:
    def test_roundtrip(self, ring):
        ring.send_frame(b"hello")
        ring.send_frame(b"")
        assert ring.recv_frame() == b"hello"
        assert ring.recv_frame() == b""
        write_pos, read_pos = ring._positions()
        assert write_pos == read_pos == 4 + 5 + 4

    def test_position_words_are_stored_in_one_write(self, ring):
        # ``struct.pack_into`` clears its destination before packing, so
        # a read between the two steps would see 0 for a position:
        # ``write_pos - read_pos`` then goes negative and the reader
        # steps back into consumed bytes. Every store must be a single
        # whole-word assignment of the final value.
        writes = []

        class Recording:
            def __setitem__(self, key, value):
                writes.append((key.start, key.stop, bytes(value)))

        real = ring.buf
        ring.buf = Recording()
        try:
            ring._store(0, 7)
            ring._store(8, 1 << 40)
        finally:
            ring.buf = real
        assert writes == [
            (0, 8, (7).to_bytes(8, "little")),
            (8, 16, (1 << 40).to_bytes(8, "little")),
        ]
        ring._store(8, 1 << 40)
        assert ring._load(8) == 1 << 40

    def test_wraparound(self, ring):
        # 24-byte frames (4 length + 20 payload) against a 64-byte
        # ring: the write position laps the capacity within 3 frames,
        # so payloads land split across the physical end.
        for i in range(10):
            payload = bytes([i]) * 20
            ring.send_frame(payload)
            assert ring.recv_frame() == payload
        assert ring._positions()[0] > 64  # monotonic counters lapped


class TestNoPeer:
    def test_frame_that_does_not_fit_raises(self, ring):
        ring.send_frame(b"x" * 40)  # 44 of 64 bytes used
        with pytest.raises(TransportError, match="does not fit"):
            ring.send_frame(b"y" * 30)
        # Nothing was written: the queued frame is intact and alone.
        assert ring.recv_frame() == b"x" * 40
        with pytest.raises(TransportError, match="empty"):
            ring.recv_frame()

    def test_recv_on_empty_ring_raises(self, ring):
        with pytest.raises(TransportError, match="empty"):
            ring.recv_frame()


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.one_of(st.binary(min_size=0, max_size=100), st.none()), max_size=40
    ),
    capacity=st.integers(min_value=8, max_value=96),
)
def test_ring_matches_deque_oracle(ops, capacity):
    """Any interleaving of sends (bytes) and recvs (None) behaves like a
    byte-budgeted deque: a send that fits is queued, one that does not
    raises and changes nothing, a recv returns the oldest frame or
    raises on empty — across wraparound."""
    ring = make_ring(capacity)
    oracle: deque = deque()
    used = 0
    for op in ops:
        if op is None:
            if oracle:
                frame = oracle.popleft()
                used -= 4 + len(frame)
                assert ring.recv_frame() == frame
            else:
                with pytest.raises(TransportError):
                    ring.recv_frame()
        elif used + 4 + len(op) <= capacity:
            ring.send_frame(op)
            oracle.append(op)
            used += 4 + len(op)
        else:
            with pytest.raises(TransportError):
                ring.send_frame(op)
    while oracle:
        assert ring.recv_frame() == oracle.popleft()
