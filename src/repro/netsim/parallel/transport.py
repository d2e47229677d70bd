"""Coordinator/worker frame transports for the sharded runner.

The sync protocol speaks length-delimited binary *frames* (see the
frame codecs in :mod:`repro.netsim.parallel.codec`); this module moves
those frames between the coordinator and its workers. Three
implementations share one interface:

* :class:`PipeTransport` — one ``multiprocessing`` pipe per worker,
  frames as ``send_bytes``/``recv_bytes`` payloads. The portable
  baseline (and the ``REPRO_TRANSPORT=pipe`` escape hatch).
* :class:`ShmTransport` — one :class:`RingBuffer` pair per worker over
  ``multiprocessing.shared_memory``: length-prefixed frames, monotonic
  byte counters, a frame generation counter, and futex-free
  spin-then-sleep waits. Zero pickle and zero syscalls on the hot
  loop; the default for ``mode="mp"``.
* the inline runner's ``InlineTransport`` (in
  :mod:`repro.netsim.parallel.runner`) — in-process byte queues that
  route commands through the *same* encoded frames as the process
  transports, so frame counts and codec coverage are identical across
  all three (the determinism tests rely on it).

Crash safety: a worker dying mid-frame must surface as a
:class:`TransportError`, never a hang. The ring reader distinguishes
"writer still mid-frame" from "writer gone" by the generation counter
(frames fully published) combined with an ``alive`` probe supplied by
the coordinator (the child process' liveness).

``REPRO_TRANSPORT`` (``shm`` or ``pipe``) forces the mp transport
choice process-wide.
"""

from __future__ import annotations

import os
import struct
import time
from typing import Callable, Optional

from repro.errors import SimulationError


class TransportError(SimulationError):
    """A transport endpoint failed (peer died, ring closed)."""


def transport_choice(requested: Optional[str] = None) -> str:
    """Resolve the mp transport name: explicit argument beats the
    ``REPRO_TRANSPORT`` environment override beats the shm default."""
    choice = requested or os.environ.get("REPRO_TRANSPORT") or "shm"
    if choice not in ("shm", "pipe"):
        raise SimulationError(
            f"unknown transport {choice!r} (expected 'shm' or 'pipe')"
        )
    return choice


#: Ring header: write_pos(8) read_pos(8) frames_written(8) closed(1),
#: padded to one cache line so the data region never shares a line
#: with the counters. Each field lives at its own fixed offset and is
#: written with a single-field pack — producer and consumer update
#: *disjoint* words, never a read-modify-write of the whole header
#: (which would let one side clobber the other's concurrent advance).
_U64 = struct.Struct("<Q")
_OFF_WRITE = 0
_OFF_READ = 8
_OFF_GEN = 16
_OFF_CLOSED = 24
_HEADER_SIZE = 64
_LEN_PREFIX = struct.Struct("<I")

#: Default per-direction ring capacity. Export batches of the block
#: storms run a few KiB per frame; 1 MiB absorbs bursts without the
#: writer ever blocking, while keeping a 4-worker run under 8 MiB.
DEFAULT_RING_BYTES = 1 << 20

#: Spin iterations before the waiter starts sleeping, and the sleep
#: quantum once it does. The spin phase covers the common case (the
#: peer is actively producing); the sleep bounds CPU burn when a shard
#: goes quiet for a long grant.
_SPIN_ROUNDS = 2000
_SLEEP_SECONDS = 50e-6
#: How often (in sleep iterations) a blocked endpoint probes peer
#: liveness — frequent enough that a crashed worker surfaces in well
#: under a second, rare enough to stay off the hot path.
_ALIVE_EVERY = 200


class RingBuffer:
    """One single-producer/single-consumer byte ring in shared memory.

    Layout: a 64-byte header (monotonic ``write_pos``/``read_pos`` byte
    counters, a ``frames_written`` generation counter, a ``closed``
    flag) followed by ``capacity`` data bytes. Positions are *monotonic*
    — the ring offset is ``pos % capacity`` — so fullness is simply
    ``write_pos - read_pos`` and the empty/full ambiguity of wrapped
    indices never arises. Each counter has exactly one writer (producer
    owns ``write_pos``/``frames_written``/``closed``, consumer owns
    ``read_pos``), and payload bytes are written before the counter
    publish, so a reader never observes a length prefix whose bytes are
    not yet in place.

    Frames are ``u32 length + payload`` and *stream*: a frame larger
    than the free space (or the whole ring) is written in chunks as the
    reader drains, and read in chunks as the writer lands them — one
    code path covers both backpressure and the frame-larger-than-ring
    case. ``alive`` (an optional callable) is probed while blocked; if
    it reports the peer dead and no complete frame is pending, the
    endpoint raises :class:`TransportError` instead of spinning
    forever.
    """

    def __init__(self, shm, capacity: int) -> None:
        self.shm = shm
        self.capacity = capacity
        self.buf = shm.buf

    @classmethod
    def create(cls, capacity: int = DEFAULT_RING_BYTES) -> "RingBuffer":
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(
            create=True, size=_HEADER_SIZE + capacity
        )
        ring = cls(shm, capacity)
        shm.buf[:_HEADER_SIZE] = bytes(_HEADER_SIZE)
        return ring

    @classmethod
    def attach(cls, name: str, capacity: int) -> "RingBuffer":
        from multiprocessing import shared_memory

        # CPython < 3.13 registers attached segments with the resource
        # tracker as if this process owned them. The tracker cache is a
        # plain set shared with the creator, so unregistering after the
        # fact would cancel the creator's entry — instead suppress the
        # registration itself (3.13+ exposes track=False for this).
        try:
            shm = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:  # pragma: no cover - interpreter-dependent
            from multiprocessing import resource_tracker

            original = resource_tracker.register
            resource_tracker.register = lambda *args, **kwargs: None
            try:
                shm = shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original
        return cls(shm, capacity)

    @property
    def name(self) -> str:
        return self.shm.name

    # -- counter access ----------------------------------------------------

    def _load(self, offset: int) -> int:
        return _U64.unpack_from(self.buf, offset)[0]

    def _store(self, offset: int, value: int) -> None:
        # One 8-byte copy. ``pack_into`` zeroes its destination before
        # it packs, and the peer polling this word would see the 0: a
        # reader then takes ``write_pos - read_pos`` negative and steps
        # its own position back into bytes it has already consumed.
        self.buf[offset : offset + 8] = _U64.pack(value)

    def _positions(self) -> tuple[int, int]:
        return self._load(_OFF_WRITE), self._load(_OFF_READ)

    def _generation(self) -> int:
        return self._load(_OFF_GEN)

    def _closed(self) -> bool:
        return bool(self.buf[_OFF_CLOSED])

    def readable(self) -> bool:
        write_pos, read_pos = self._positions()
        return write_pos > read_pos

    def mark_closed(self) -> None:
        self.buf[_OFF_CLOSED] = 1

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

    def _wait(self, ready: Callable[[], bool], alive, what: str) -> None:
        for _ in range(_SPIN_ROUNDS):
            if ready():
                return
        sleeps = 0
        while not ready():
            time.sleep(_SLEEP_SECONDS)
            sleeps += 1
            if sleeps % _ALIVE_EVERY == 0:
                if self._closed() or (alive is not None and not alive()):
                    if ready():  # drained concurrently with the probe
                        return
                    raise TransportError(
                        f"ring peer died while {what} "
                        f"(generation {self._generation()})"
                    )

    # -- framing -----------------------------------------------------------

    def send_frame(self, payload: bytes, alive=None) -> None:
        data = _LEN_PREFIX.pack(len(payload)) + payload
        sent = 0
        while sent < len(data):
            write_pos, read_pos = self._positions()
            free = self.capacity - (write_pos - read_pos)
            if free == 0:
                def _space() -> bool:
                    write_pos, read_pos = self._positions()
                    return write_pos - read_pos < self.capacity

                self._wait(_space, alive, "awaiting ring space")
                continue
            chunk = data[sent : sent + free]
            self._copy_in(write_pos, chunk)
            sent += len(chunk)
            # Publish after the payload bytes are in place; only the
            # producer-owned word is touched.
            self._store(_OFF_WRITE, write_pos + len(chunk))
        self._store(_OFF_GEN, self._generation() + 1)

    def _read_exact(self, count: int, alive, what: str) -> bytes:
        out = b""
        while len(out) < count:
            write_pos, read_pos = self._positions()
            available = write_pos - read_pos
            if available == 0:
                self._wait(self.readable, alive, what)
                continue
            take = min(count - len(out), available)
            out += self._copy_out(read_pos, take)
            # Release the bytes; only the consumer-owned word moves.
            self._store(_OFF_READ, read_pos + take)
        return out

    def recv_frame(self, alive=None) -> bytes:
        head = self._read_exact(
            _LEN_PREFIX.size, alive, "awaiting a frame"
        )
        (length,) = _LEN_PREFIX.unpack(head)
        return self._read_exact(length, alive, "awaiting frame body")

    def close(self, unlink: bool = False) -> None:
        self.buf = None
        try:
            self.shm.close()
        except Exception:  # pragma: no cover - double close
            pass
        if unlink:
            try:
                self.shm.unlink()
            except Exception:  # pragma: no cover - already unlinked
                pass


# -- endpoints (the worker-facing half) ------------------------------------


class PipeEndpoint:
    """Frames over one ``multiprocessing`` pipe connection."""

    def __init__(self, conn) -> None:
        self.conn = conn
        self.frames_sent = 0
        self.frames_received = 0

    def send(self, frame: bytes) -> None:
        self.conn.send_bytes(frame)
        self.frames_sent += 1

    def recv(self) -> bytes:
        try:
            frame = self.conn.recv_bytes()
        except EOFError as exc:
            raise TransportError("pipe peer closed") from exc
        self.frames_received += 1
        return frame

    def poll(self, timeout: float = 0.0) -> bool:
        return self.conn.poll(timeout)

    def close(self) -> None:
        self.conn.close()


class ShmEndpoint:
    """Frames over a ring pair: ``rx`` is read, ``tx`` is written."""

    def __init__(self, rx: RingBuffer, tx: RingBuffer, alive=None) -> None:
        self.rx = rx
        self.tx = tx
        self.alive = alive
        self.frames_sent = 0
        self.frames_received = 0

    @classmethod
    def attach(
        cls, rx_name: str, tx_name: str, capacity: int
    ) -> "ShmEndpoint":
        return cls(
            RingBuffer.attach(rx_name, capacity),
            RingBuffer.attach(tx_name, capacity),
        )

    def send(self, frame: bytes) -> None:
        self.tx.send_frame(frame, alive=self.alive)
        self.frames_sent += 1

    def recv(self) -> bytes:
        frame = self.rx.recv_frame(alive=self.alive)
        self.frames_received += 1
        return frame

    def poll(self, timeout: float = 0.0) -> bool:
        if self.rx.readable():
            return True
        if timeout <= 0.0:
            return False
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.rx.readable():
                return True
            time.sleep(_SLEEP_SECONDS)
        return self.rx.readable()

    def close(self, unlink: bool = False) -> None:
        self.rx.close(unlink=unlink)
        self.tx.close(unlink=unlink)



# -- coordinator-side transports -------------------------------------------


class CoordinatorTransport:
    """Coordinator-side frame interface over N workers.

    ``send_frame(rank, frame)`` / ``recv_frame(rank)`` move one frame;
    ``wait_any(ranks)`` blocks until at least one of the given ranks
    has a frame pending and returns the readable subset (in rank
    order, so the coordinator's processing order is deterministic).
    """

    endpoints: list

    @property
    def frames_sent(self) -> int:
        return sum(e.frames_sent for e in self.endpoints)

    @property
    def frames_received(self) -> int:
        return sum(e.frames_received for e in self.endpoints)

    def send_frame(self, rank: int, frame: bytes) -> None:
        self.endpoints[rank].send(frame)

    def recv_frame(self, rank: int) -> bytes:
        return self.endpoints[rank].recv()

    def poll(self, rank: int) -> bool:
        return self.endpoints[rank].poll()


class PipeTransport(CoordinatorTransport):
    """One mp child per rank, one pipe per child."""

    name = "pipe"

    def __init__(self, plan_n: int, spawn) -> None:
        import multiprocessing as mp

        try:
            ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            ctx = mp.get_context()
        self.endpoints = []
        self.procs = []
        for rank in range(plan_n):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=spawn, args=(("pipe", child), rank), daemon=True
            )
            proc.start()
            child.close()
            self.endpoints.append(PipeEndpoint(parent))
            self.procs.append(proc)

    def wait_any(self, ranks: list[int]) -> list[int]:
        from multiprocessing.connection import wait

        conns = {self.endpoints[r].conn: r for r in ranks}
        while True:
            ready = wait(list(conns), timeout=1.0)
            if ready:
                return sorted(conns[c] for c in ready)
            for rank in ranks:
                if not self.procs[rank].is_alive():
                    raise TransportError(
                        f"worker {rank} died without a reply"
                    )

    def close(self) -> None:
        for endpoint in self.endpoints:
            try:
                endpoint.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for proc in self.procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - hang guard
                proc.terminate()


class ShmTransport(CoordinatorTransport):
    """One mp child per rank, one shared-memory ring pair per child."""

    name = "shm"

    def __init__(
        self,
        plan_n: int,
        spawn,
        ring_bytes: int = DEFAULT_RING_BYTES,
    ) -> None:
        import multiprocessing as mp

        try:
            ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            ctx = mp.get_context()
        self.endpoints = []
        self.procs = []
        self._rings: list[RingBuffer] = []
        for rank in range(plan_n):
            to_worker = RingBuffer.create(ring_bytes)
            to_coord = RingBuffer.create(ring_bytes)
            self._rings += [to_worker, to_coord]
            proc = ctx.Process(
                target=spawn,
                args=(
                    ("shm", to_worker.name, to_coord.name, ring_bytes),
                    rank,
                ),
                daemon=True,
            )
            proc.start()
            endpoint = ShmEndpoint(rx=to_coord, tx=to_worker)
            endpoint.alive = proc.is_alive
            self.endpoints.append(endpoint)
            self.procs.append(proc)

    def wait_any(self, ranks: list[int]) -> list[int]:
        spins = 0
        while True:
            ready = [r for r in ranks if self.endpoints[r].rx.readable()]
            if ready:
                return ready
            spins += 1
            if spins > _SPIN_ROUNDS:
                time.sleep(_SLEEP_SECONDS)
                if spins % (_SPIN_ROUNDS + _ALIVE_EVERY) == 0:
                    for rank in ranks:
                        if not self.procs[rank].is_alive():
                            if self.endpoints[rank].rx.readable():
                                continue
                            raise TransportError(
                                f"worker {rank} died without a reply "
                                "(generation "
                                f"{self.endpoints[rank].rx._generation()})"
                            )

    def close(self) -> None:
        for endpoint in self.endpoints:
            endpoint.tx.mark_closed()
        for proc in self.procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - hang guard
                proc.terminate()
        for ring in self._rings:
            ring.close(unlink=True)


def connect_endpoint(descriptor) -> object:
    """Child-process side: turn the spawn descriptor into an endpoint."""
    kind = descriptor[0]
    if kind == "pipe":
        return PipeEndpoint(descriptor[1])
    if kind == "shm":
        _kind, rx_name, tx_name, capacity = descriptor
        return ShmEndpoint.attach(rx_name, tx_name, capacity)
    raise SimulationError(f"unknown endpoint descriptor {kind!r}")
