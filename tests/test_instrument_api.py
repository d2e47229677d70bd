"""The calls ``benchmarks/e2e/probes.py`` makes into ``src/``, as it makes them.

The benchmark is frozen: it cannot follow an API change, so a change
that breaks one of these shapes breaks the instrument every claim is
judged with. ``probe_fib`` fills a FIB by address pair, looks every
channel up and removes and reinstalls it, and weighs the FIB it built;
``probe_state`` finds or creates a downstream record through
``ChannelState(channel).downstream`` and writes its fields;
``workloads.py`` samples ``STATE_BANK.live_rows`` and ``trace.py`` wraps
``StateBank.alloc`` and the FIB's ``lookup`` / ``install`` / ``remove``
by class attribute. Records hold their own fields, so ``StateBank`` is
an inert stand-in that keeps those two reads working: no live rows, and
an ``alloc`` that nothing calls. ``probe_parallel`` runs an in-process
sharded scenario with ``mode="inline"`` (the only mode left) and reads
its sync totals, pushes 4 KiB frames through a ``RingBuffer`` over a
process-local buffer, and round-trips packets carrying ECMP message
objects through the cross-partition codec.
"""

import gc
import tracemalloc

import pytest

from repro.core.channel import Channel
from repro.core.ecmp.messages import Count, CountQuery, EcmpBatch
from repro.core.ecmp.state import STATE_BANK, ChannelState, DownstreamRecord, StateBank
from repro.errors import SimulationError
from repro.inet.addr import parse_address
from repro.netsim.packet import Packet
from repro.netsim.parallel import ParallelRunner, ScenarioSpec
from repro.netsim.parallel.codec import decode_packet, encode_packet
from repro.netsim.parallel.transport import RingBuffer
from repro.routing import MulticastFib
from tests.test_global_state_census import seeded_run

SOURCE = parse_address("10.0.0.1")


def test_probe_fib_shapes():
    channels = [Channel.of(SOURCE, suffix) for suffix in range(1, 201)]
    fib = MulticastFib()
    for channel in channels:
        fib.install(channel.source, channel.group, 0).add_outgoing(1)
    for channel in channels:
        assert fib.lookup(channel.source, channel.group, 0) == (1,)
    for channel in channels:
        assert fib.remove(channel.source, channel.group)
        fib.install(channel.source, channel.group, 0)
    assert len(fib) == len(channels)
    assert all(fib.lookup(c.source, c.group, 0) == () for c in channels)
    assert fib.lookups == 2 * len(channels)
    assert fib.lookup_cache_hits == fib.lookups - 2  # tuples built: (1,) and ()
    for name in ("lookup", "install", "remove"):
        assert callable(getattr(MulticastFib, name))


def test_probe_fib_weighs_under_the_fig5_budget():
    """``routing.fib.bytes_per_entry``, measured the probe's way."""
    channels = [Channel.of(SOURCE, suffix) for suffix in range(1, 2001)]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        measured = MulticastFib()
        for channel in channels:
            measured.install(channel.source, channel.group, 0).add_outgoing(1)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held / len(channels) <= 60


def test_probe_state_shapes():
    channel = Channel.of(SOURCE, 7)
    state = ChannelState(channel)
    created = {}
    for i, count in enumerate((3, 1, 4, 1, 5, 9, 2, 6)):
        neighbor = f"n{i % 3}"
        record = state.downstream.get(neighbor)
        if record is None:
            record = state.downstream[neighbor] = state.new_record()
            created[neighbor] = record
        record.count = count
        record.validated = True
        record.updated_at = 1.0
    # One record per neighbor, created on its first write and found on
    # every later one.
    assert list(created) == ["n0", "n1", "n2"]
    assert all(state.downstream[name] is record for name, record in created.items())
    assert {name: r.count for name, r in state.downstream.items()} == {
        "n0": 2, "n1": 6, "n2": 9,
    }
    assert all(
        record == DownstreamRecord(count=record.count, updated_at=1.0)
        for record in created.values()
    )
    assert STATE_BANK.live_rows == 0
    assert callable(StateBank.alloc)


def test_no_run_allocates_a_bank_row(monkeypatch):
    """What ``trace.py``'s ``state.alloc`` span counts: nothing, over a
    run with keyless and keyed joins, a block and a CountQuery."""
    calls = []
    monkeypatch.setattr(StateBank, "alloc", lambda bank: calls.append(bank))
    seeded_run()
    assert calls == []
    assert STATE_BANK.live_rows == 0


class _LocalSegment:
    """What the probe hands ``RingBuffer``: an object with a ``.buf``."""

    def __init__(self, size: int) -> None:
        self.buf = memoryview(bytearray(size))


def test_probe_parallel_shapes():
    edges = tuple(sorted(f"e{t}_{s}" for t in range(2) for s in range(3)))
    spec = ScenarioSpec(
        topology="isp",
        topology_kwargs={
            "n_transit": 4, "stubs_per_transit": 3, "hosts_per_stub": 1,
            "core_delay": 0.04,
        },
        source="h0_0_0",
        blocks=edges,
        opgen=("block_storm", {
            "n_subs": 200, "n_blocks": len(edges),
            "packets": 4, "join_window": 0.1, "leave_window": 0.1,
            "packet_spacing": 0.15, "burst": 2, "seed": 0,
        }),
        duration=1.5,
        seed=0,
    )
    result = ParallelRunner(spec, 2, scheduler="wheel", mode="inline").run()
    sync = result.sync_totals()
    assert sync["sync_rounds"] > 0
    assert 0 <= sync["null_messages"] <= sync["sync_rounds"]
    assert result.message_totals()["sync_messages_per_event"] > 0
    with pytest.raises(SimulationError, match="ROADMAP item 3"):
        ParallelRunner(spec, 2, scheduler="wheel", mode="mp")

    capacity = 10_000
    ring = RingBuffer(_LocalSegment(capacity + 4096), capacity)
    payload = bytes(range(256)) * 16
    for _ in range(5):  # 5 x 4100 bytes: the third frame wraps
        ring.send_frame(payload)
        assert ring.recv_frame() == payload

    channel = Channel.of(SOURCE, 9)
    for message in (
        Count(channel=channel, count_id=1, count=7),
        EcmpBatch(messages=(
            Count(channel=channel, count_id=1, count=3),
            CountQuery(channel=channel, count_id=2, timeout=1.5),
        )),
    ):
        packet = Packet(src=1, dst=2, proto="ecmp", size=60)
        packet.headers["ecmp"] = message
        packet.headers["reliable"] = True
        out = decode_packet(encode_packet(packet))
        assert out.headers == {"ecmp": message, "reliable": True}
