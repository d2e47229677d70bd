"""A host-independent budget for state at rest: bytes, not seconds.

§5 of the paper prices one standing channel at a router — Fig. 5's
12-byte FIB entry, §5.2's 200 bytes of management state — and argues
the total "scales linearly". ``benchmarks/test_t2_mgmt_state.py``
reproduces that *accounting* exactly; this test weighs what the
implementation actually holds, so that the next thing kept per channel
for nothing fails here in seconds instead of showing up as peak RSS in
a benchmark nobody reads for memory. The figure is a property of the
code, not of the host (it does move a few bytes between CPython
versions, hence the slack in the ceilings).

Tree: T2's (``balanced_tree(2, 2)`` + ``src``, the four leaves as
hosts). 100 channels warm every table up; then, under
``tracemalloc``, 1,000 keyless and 1,000 keyed channels are each
joined by all four leaves and settled. Traced heap growth ÷ growth of
Σ ``len(agent.channels)`` — eight (node, channel) states a channel —
everything included (channel state, downstream records, FIB entries,
subscription handles, key caches, the intern tables):

================================  =======  =====  ===================
bytes per (node, channel) state   keyless  keyed  idle verdict queues
================================  =======  =====  ===================
paper: §5.2's 192 B (+ 8 B key)
plus Fig. 5's 12 B FIB entry          204    212  —
parent of this test (PR 18)         1,631  1,794  14,700
the control plane of PR 19            766    882  0
``Channel`` a tuple that carries its
7 wire bytes, interned by them
(PR 24; CPython 3.11)                 756    873  0
a lone downstream record held in
two slots of its ``ChannelState``;
FIB entries keyed by the interned
``Channel``, valued by shared rows;
a slotted ``ChannelKey``              585    635  0
key caches keyed by the ``Channel``
(no channel-id table); measured in
a fresh interpreter                   578    627  0
records hold their own fields; no
bank                                  517    566  0
no ``ChannelState.created_at``
(written once, read by one test)      509    558  0
no ``_by_upstream`` index; verdict
and §6 fields held by their
machines                              453    534  0
drained verdict tables given back     421    502  0
keyless host joins table no
verdict entry and hear no OK          420    501  0
================================  =======  =====  ===================

What went, in bytes per state on this tree: an empty 760-byte ``deque``
left in ``pending_verdicts`` by every forwarded join, on seven nodes of
a channel's eight (−665); ``ChannelState`` as a dict-backed dataclass
with two eager §6 maps no TREE_ONLY network writes (−176); a
``__dict__`` per subscription handle (−24, i.e. −48 a handle); a
private copy of the channel key in every record validated against the
cached one (−16, keyed only, and only at the source here: four
simultaneous joiners leave the routers nothing cached to validate
against — staggered joiners save it at every merge point); a
``dict`` for the downstream records of the five states of eight that
hold one (−104, the two slots that replace it included); an ``(S, E)``
key tuple and a ``FibEntry`` for each FIB entry, on four nodes of eight
(−60); a ``__dict__`` per decoded channel key (−60, keyed only); a
row of a process-wide record bank beside every downstream record
(−61); a creation stamp no code read (−8); a per-upstream index of the
channels routed via each neighbour, which the general query now walks
the table for (−32); ``ChannelState``'s pending key and two §6 maps,
now per-channel tables of ``Verdicts`` and ``Counting`` with entries
only for the channels that use them (−24); the slots a dict keeps
after its last entry leaves, which ``Verdicts`` now gives back by
replacing a drained table: ``pending`` after the keyless batch,
``pending_keys`` after the keyed one (−32 on each figure). The growth
is lumpy — dict
resizes land inside one batch or the next (successive 1,000-channel
batches on one network read 580–920) — so the figure belongs to exactly
this sequence, in a fresh interpreter (:func:`measure_fresh`); it
repeats exactly.
"""

import gc
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

from repro import ExpressNetwork, TopologyBuilder
from repro.core.channel import Channel
from repro.core.keys import make_key
from repro.inet.addr import parse_address
from repro.routing.fib import MulticastFib

LEAVES = [f"d2_{i}" for i in range(4)]
WARM_UP = 100
CHANNELS = 1000
#: Bytes per (node, channel) state, (keyless, keyed).
CEILING = (454, 561)
#: Interned channels in the FIB measurement, and bytes per entry.
FIB_CHANNELS = 10_000
FIB_CEILING = 60


def build() -> ExpressNetwork:
    topo = TopologyBuilder.balanced_tree(depth=2, fanout=2)
    topo.add_node("src")
    topo.add_link("src", "r", delay=0.001)
    net = ExpressNetwork(topo, hosts=LEAVES + ["src"])
    net.run(until=0.1)
    return net


def join_channels(net: ExpressNetwork, n: int, keyed: bool) -> None:
    source = net.source("src")
    for _ in range(n):
        channel = source.allocate_channel()
        key = None
        if keyed:
            key = make_key(channel)
            source.channel_key(channel, key)
        for leaf in LEAVES:
            net.host(leaf).subscribe(channel, key=key)
    net.settle()


def states(net: ExpressNetwork) -> int:
    return sum(len(agent.channels) for agent in net.ecmp_agents.values())


def bytes_per_state(net: ExpressNetwork, keyed: bool) -> float:
    """Traced heap growth per (node, channel) state across one batch of
    settled joins. Call with ``tracemalloc`` running."""
    gc.collect()
    heap_before, _ = tracemalloc.get_traced_memory()
    states_before = states(net)
    join_channels(net, CHANNELS, keyed)
    gc.collect()
    heap_after, _ = tracemalloc.get_traced_memory()
    grown = states(net) - states_before
    assert grown == CHANNELS * (len(LEAVES) + 4)  # 4 hosts, d1_0, d1_1, r, src
    return (heap_after - heap_before) / grown


def measure() -> dict:
    """Bytes per keyless and keyed state, and what the settled network
    still holds for verdicts and subscriptions. Run it through
    :func:`measure_fresh`."""
    net = build()
    join_channels(net, WARM_UP // 2, keyed=False)
    join_channels(net, WARM_UP // 2, keyed=True)
    tracemalloc.start()
    try:
        keyless = bytes_per_state(net, keyed=False)
        keyed = bytes_per_state(net, keyed=True)
    finally:
        tracemalloc.stop()
    return {
        "keyless": keyless,
        "keyed": keyed,
        "verdict_tables": sum(len(a.verdicts.pending) for a in net.ecmp_agents.values()),
        "subscriptions": {
            host: [h.status for h in net.ecmp_agents[host].subscriptions.values()]
            for host in LEAVES
        },
    }


def measure_fresh() -> dict:
    """:func:`measure` in a new interpreter. In a process that has run
    other networks, the module-level intern tables are already grown —
    or resize inside the traced window — and the same sequence read
    576 / 953 B where a fresh process reads its own figure."""
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import json; from tests.core.test_state_budget import measure; "
            "print(json.dumps(measure()))",
        ],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    return json.loads(done.stdout)


def fib_bytes_per_entry() -> float:
    """Traced heap growth per entry of a FIB that forwards
    ``FIB_CHANNELS`` channels, interned beforehand as the protocol's
    are, on one interface each — one row, shared by every entry.

    The empty FIB is built before the window opens. Its own few hundred
    bytes are no entry's, and they shrink from one call to the next in
    one process (320, 312, 304 B on CPython 3.11), so inside the window
    they made the figure depend on what the process had run before."""
    source = parse_address("10.0.0.1")
    channels = [Channel.of(source, suffix) for suffix in range(1, FIB_CHANNELS + 1)]
    fib = MulticastFib()
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for channel in channels:
            fib.graft(channel, 1, 1 << 2)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(fib) == FIB_CHANNELS
    return (held - before) / FIB_CHANNELS


def test_a_standing_channel_stays_inside_its_byte_budget():
    held = measure_fresh()
    keyless, keyed = held["keyless"], held["keyed"]
    print(
        f"\nstate budget: {keyless:.0f} B keyless / {keyed:.0f} B keyed per "
        f"(node, channel) state; FIB {fib_bytes_per_entry():.1f} B per entry"
    )
    assert keyless <= CEILING[0], (
        f"{keyless:.0f} B per keyless (node, channel) state, budget "
        f"{CEILING[0]}: something new is held per standing channel"
    )
    assert keyed <= CEILING[1], (
        f"{keyed:.0f} B per keyed (node, channel) state, budget {CEILING[1]}"
    )
    # Every join was answered, so no verdict is in flight and no queue
    # may stand for one.
    assert held["verdict_tables"] == 0
    for host in LEAVES:
        assert held["subscriptions"][host] == ["active"] * (WARM_UP + 2 * CHANNELS)


def test_a_fib_entry_is_a_key_and_a_shared_row():
    """Fig. 5's entry is 12 bytes. A dict slot keyed by the interned
    channel is the floor of this FIB: no key tuple and no entry object
    per entry, and the row is one tuple shared by every entry holding
    it (169.5 B an entry before, measured by the benchmark's probe)."""
    per_entry = fib_bytes_per_entry()
    assert per_entry <= FIB_CEILING, (
        f"{per_entry:.1f} B per FIB entry, budget {FIB_CEILING}: the FIB "
        f"holds something new per entry"
    )


def test_the_fib_figure_does_not_depend_on_what_ran_before():
    """FIG6 publishes this figure, so it must read the same whether the
    process has measured before or not: the empty FIB's own bytes, which
    shrink from one call to the next, stay out of the window."""
    first = fib_bytes_per_entry()
    assert [fib_bytes_per_entry() for _ in range(3)] == [first] * 3
