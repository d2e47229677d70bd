"""Shared-memory ring transport: wraparound, streaming frames,
backpressure, crash detection, and a hypothesis fuzz against a deque
oracle."""

import os
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.netsim.parallel.transport import (
    DEFAULT_RING_BYTES,
    RingBuffer,
    TransportError,
    transport_choice,
)


@pytest.fixture
def ring():
    ring = RingBuffer.create(capacity=64)
    yield ring
    ring.close(unlink=True)


class TestTransportChoice:
    def test_default_is_shm(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRANSPORT", raising=False)
        assert transport_choice() == "shm"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRANSPORT", "pipe")
        assert transport_choice() == "pipe"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRANSPORT", "pipe")
        assert transport_choice("shm") == "shm"

    def test_unknown_rejected(self):
        with pytest.raises(SimulationError, match="unknown transport"):
            transport_choice("tcp")


class TestRingFraming:
    def test_roundtrip_and_generation(self, ring):
        ring.send_frame(b"hello")
        ring.send_frame(b"")
        assert ring.recv_frame() == b"hello"
        assert ring.recv_frame() == b""
        assert ring._generation() == 2
        assert not ring.readable()

    def test_position_words_are_stored_in_one_write(self, ring):
        # The peer process polls these words while they are written.
        # ``struct.pack_into`` clears its destination before packing, so
        # a poll could read 0 for a position: ``write_pos - read_pos``
        # then goes negative and the reader steps back into consumed
        # bytes (seen as a garbled RESULT frame about once in a hundred
        # four-worker runs). Every store must be a single whole-word
        # assignment of the final value.
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

    def test_frame_larger_than_ring_streams_through(self, ring):
        payload = os.urandom(10 * 64 + 13)
        got = []
        reader = threading.Thread(
            target=lambda: got.append(ring.recv_frame())
        )
        reader.start()
        ring.send_frame(payload)  # must stream: 653 bytes through 64
        reader.join(timeout=10)
        assert got == [payload]

    def test_backpressure_blocks_then_drains(self, ring):
        # Fill the ring completely, then start a writer that needs
        # space; it must block until the reader drains, not corrupt.
        ring.send_frame(b"x" * 60)  # 64 bytes with the prefix: full
        done = threading.Event()

        def writer():
            ring.send_frame(b"y" * 30)
            done.set()

        thread = threading.Thread(target=writer)
        thread.start()
        assert not done.wait(timeout=0.05)  # genuinely blocked
        assert ring.recv_frame() == b"x" * 60
        assert ring.recv_frame() == b"y" * 30
        thread.join(timeout=10)
        assert done.is_set()

    def test_default_capacity_constant(self):
        assert DEFAULT_RING_BYTES == 1 << 20


class TestCrashDetection:
    def test_recv_raises_when_peer_dead_and_ring_empty(self, ring):
        with pytest.raises(TransportError, match="peer died"):
            ring.recv_frame(alive=lambda: False)

    def test_recv_raises_mid_frame(self, ring):
        # Length prefix promises 100 bytes but the peer died after
        # landing 10: the generation counter never advanced, and the
        # body read must raise instead of hanging forever.
        ring._copy_in(0, b"\x64\x00\x00\x00" + b"z" * 10)
        ring._store(0, 14)  # publish write_pos only; generation stays 0
        with pytest.raises(TransportError, match="awaiting frame body"):
            ring.recv_frame(alive=lambda: False)
        assert ring._generation() == 0

    def test_recv_raises_on_closed_ring(self, ring):
        ring.mark_closed()
        with pytest.raises(TransportError, match="peer died"):
            ring.recv_frame(alive=None)

    def test_complete_frame_wins_over_dead_peer(self, ring):
        # A full frame already in the ring must be delivered even if
        # the producer has since exited.
        ring.send_frame(b"last words")
        ring.mark_closed()
        assert ring.recv_frame(alive=lambda: False) == b"last words"

    def test_send_raises_when_reader_dead_and_ring_full(self, ring):
        ring.send_frame(b"x" * 60)
        with pytest.raises(TransportError, match="peer died"):
            ring.send_frame(b"more", alive=lambda: False)


class TestAttach:
    def test_attach_sees_frames_and_does_not_unlink(self):
        ring = RingBuffer.create(capacity=128)
        try:
            ring.send_frame(b"cross-process")
            other = RingBuffer.attach(ring.name, 128)
            assert other.recv_frame() == b"cross-process"
            other.send_frame(b"reply")
            assert ring.recv_frame() == b"reply"
            other.close(unlink=False)
            # The segment must still exist for the creator.
            assert RingBuffer.attach(ring.name, 128).shm.size >= 128
        finally:
            ring.close(unlink=True)


@settings(max_examples=60, deadline=None)
@given(
    frames=st.lists(st.binary(min_size=0, max_size=200), max_size=30),
    capacity=st.integers(min_value=8, max_value=96),
)
def test_ring_matches_deque_oracle(frames, capacity):
    """Any interleaving of sends (producer thread) and recvs must
    deliver exactly the sent frames, in order, byte-for-byte — across
    wraparound, streaming, and backpressure regimes."""
    ring = RingBuffer.create(capacity=capacity)
    try:
        received = []

        def drain():
            for _ in frames:
                received.append(ring.recv_frame())

        reader = threading.Thread(target=drain)
        reader.start()
        for frame in frames:
            ring.send_frame(frame)
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert received == frames
        assert ring._generation() == len(frames)
    finally:
        ring.close(unlink=True)
