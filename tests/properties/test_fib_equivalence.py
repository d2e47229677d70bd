"""Property suite: the shipped FIB ≡ one object per entry.

``repro.routing.fib.MulticastFib`` keys its entries by the interned
``Channel`` and values each with a row, ``(incoming interface, outgoing
bitmap)``, interned per FIB so that every entry with the same row
shares one tuple; a write points the entry at another row and never
changes one in place. The specification is ``tests/oracles/fib.py``: an
``(S, E)`` key tuple and a mutable ``FibEntry`` per entry.

Each case drives both tables through one seeded random sequence over a
small pool of channels, interfaces and bits (so that rows are shared
and shared rows are written): the protocol's writers (``graft``,
``prune``, ``set_incoming``, ``remove``), installs and handle writes
(``outgoing`` / ``incoming_interface`` assignment, the bitmap helpers),
and lookups that hit, fail the incoming-interface check, or match
nothing — by channel, by address pair and, for a pair nobody interned,
by ``None`` as the forwarder passes it. After every step the two agree
on every lookup and egress result, every entry in ``channels()`` order,
and every counter, ``lookup_cache_hits`` included. Changing a shared
row in place (one entry's bit flip showing on every entry that shares
its row) fails it.
"""

import random

import pytest

from repro.core.channel import Channel
from repro.inet.addr import parse_address, ssm_address
from repro.routing.fib import MulticastFib
from tests.oracles.fib import ReferenceFib

SOURCES = [parse_address("10.0.0.1"), parse_address("10.0.7.3")]
POOL = [Channel.of(source, suffix) for source in SOURCES for suffix in range(1, 7)]
#: A pair no node interns: only ever looked up, so always a no-match.
STRANGER = (parse_address("10.9.9.9"), ssm_address(0xBEEF))
IFACES = (0, 1, 2)
BITS = (1 << 1, 1 << 2, 1 << 5, (1 << 1) | (1 << 5))
STEPS = 600


def snapshot(fib) -> dict:
    return {
        "entries": [
            (e.source, e.dest_suffix, e.incoming_interface, e.outgoing) for e in fib
        ],
        "channels": fib.channels(),
        "counters": (fib.lookups, fib.lookup_cache_hits, fib.no_match_drops, fib.iif_drops),
        "len": len(fib),
        "memory": fib.memory_bytes(),
    }


def step(rng: random.Random, fib: MulticastFib, ref: ReferenceFib):
    """One random operation on both tables; what each returned."""
    channel = rng.choice(POOL)
    pair = (channel.source, channel.group)
    installed = ref.get(*pair) is not None
    assert (channel in fib) == installed
    roll = rng.randrange(10)
    if roll == 0:
        iif, bits = rng.choice(IFACES), rng.choice(BITS)
        return fib.graft(channel, iif, bits), ref.graft(*pair, iif, bits)
    if roll == 1:
        bits = rng.choice(BITS)
        return fib.prune(channel, bits), ref.prune(*pair, bits)
    if roll == 2 and installed:
        iif = rng.choice(IFACES)
        return fib.set_incoming(channel, iif), ref.set_incoming(*pair, iif)
    if roll == 3:
        iif = rng.choice(IFACES)
        shipped, reference = fib.install(*pair, iif), ref.install(*pair, iif)
        return shipped._fields(), reference._fields()
    if roll == 4 and installed:
        write, bits, iif = rng.randrange(4), rng.choice(BITS), rng.choice(IFACES)
        shipped, reference = fib.get(*pair), ref.get(*pair)
        for entry in (shipped, reference):
            if write == 0:
                entry.outgoing = bits
            elif write == 1:
                entry.incoming_interface = iif
            elif write == 2:
                entry.add_outgoing(5)
            else:
                entry.remove_outgoing(1)
        return shipped._fields(), reference._fields()
    if roll == 5:
        if rng.random() < 0.5:
            return fib.remove(channel), ref.remove(*pair)
        return fib.remove(*pair), ref.remove(*pair)
    if roll == 6:
        return fib.egress_of(channel), ref.egress_of(*pair)
    if roll == 7 and installed:
        return fib.egress(fib.get(*pair)), ref.egress(ref.get(*pair))
    # A lookup: a hit, an incoming-interface drop or a no-match.
    kind = rng.randrange(4)
    if kind == 3:
        source, dest = STRANGER
        iif = rng.choice(IFACES)
        shipped = fib.lookup(None, iif) if rng.random() < 0.5 else fib.lookup(source, dest, iif)
        return shipped, ref.lookup(source, dest, iif)
    iif = ref.get(*pair).incoming_interface if installed and kind < 2 else rng.choice(IFACES)
    if rng.random() < 0.5:
        return fib.lookup(channel, iif), ref.lookup(*pair, iif)
    return fib.lookup(*pair, iif), ref.lookup(*pair, iif)


@pytest.mark.parametrize("case", range(6))
def test_every_operation_agrees_with_the_per_entry_table(case):
    rng = random.Random(0xF1B + case)
    fib, ref = MulticastFib(), ReferenceFib()
    shared = 0
    for _ in range(STEPS):
        shipped, reference = step(rng, fib, ref)
        assert shipped == reference
        assert snapshot(fib) == snapshot(ref)
        rows = list(fib._entries.values())
        # Interned: one row object per distinct row.
        assert len({id(row) for row in rows}) == len(set(rows))
        shared = max(shared, len(rows) - len(set(rows)))
    # The sequence exercised what it claims to: entries sharing rows,
    # hits and both kinds of drop.
    assert shared > 0
    assert ref.lookups > ref.iif_drops + ref.no_match_drops
    assert ref.iif_drops > 0 and ref.no_match_drops > 0
