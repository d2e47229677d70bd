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
an ``alloc`` that nothing calls.
"""

import gc
import tracemalloc

from repro.core.channel import Channel
from repro.core.ecmp.state import STATE_BANK, ChannelState, DownstreamRecord, StateBank
from repro.inet.addr import parse_address
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
