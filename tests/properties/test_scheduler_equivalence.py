"""Property test: the shipped event core ≡ the plain heap.

``repro.netsim.engine.Simulator`` — sparse slot calendar, lazy bulk
tuples, segmented batch dispatch — must be *observationally identical*
to ``tests/oracles/scheduler.py``, a binary heap popped one event at a
time: for any workload, the same seed dispatches the same events in
the same ``(time, seq)`` order, leaves the same protocol state behind,
and counts the same ``events_processed``. The heap is the oracle, so
any divergence is a bug in the shipped core. In parameter ids and
function arguments ``"wheel"`` names the shipped core and ``"heap"``
the oracle.

Three layers of checking:

* raw engine traces (dispatch order as ``(time, seq, name)`` tuples)
  over randomized schedules that include mid-dispatch scheduling,
  cancellation, and events seconds to minutes beyond the dense part of
  the timeline;
* full-stack ``ExpressNetwork`` runs: settled ChannelState tables
  (the ``test_batching_equivalence`` snapshot) must match;
* ``events_processed`` equality on every comparison.

Seeded ``random.Random`` instances keep those sequences deterministic,
matching the idiom of the other property tests. The last section —
segmented batch dispatch, where bulk tuples share calendar slots with
ordinary events — is driven by hypothesis instead: the interleavings
that matter there (exact time ties, events scheduled into the open
slot, a bound falling inside a slot) are found by search, not by a
handful of seeds.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ExpressNetwork, TopologyBuilder
from repro.netsim.engine import PhaseProfiler, Simulator
from tests.oracles import scheduler as oracle
from tests.oracles.scheduler import event_core

SIMULATORS = {"wheel": Simulator, "heap": oracle.Simulator}

N_ENGINE_CASES = 8
N_NETWORK_CASES = 6


# ---------------------------------------------------------------------------
# raw engine equivalence
# ---------------------------------------------------------------------------


def run_engine_trace(scheduler: str, seed: int) -> tuple[list, int]:
    """Drive one randomized schedule; return (dispatch trace, count).

    The workload deliberately mixes near events (open-slot and bucket
    paths), far events (slots a minute and more of empty time away),
    simultaneous events (seq tie-break), mid-dispatch scheduling
    (insert at or after the open slot), and cancellations (lazy skip +
    compaction).
    """
    rng = random.Random(seed)
    sim = SIMULATORS[scheduler]()
    trace = []
    cancellable = []

    def record(tag):
        trace.append((sim.now, tag))
        # Mid-dispatch behaviour: sometimes schedule follow-ups
        # (including zero-delay, landing in the open slot) and
        # sometimes cancel a pending event.
        roll = rng.random()
        if roll < 0.30:
            delay = rng.choice([0.0, 0.0004, 0.003, 0.9, 40.0])
            cancellable.append(
                sim.schedule(delay, lambda t=f"{tag}+f": record(t), name=str(tag))
            )
        elif roll < 0.45 and cancellable:
            cancellable.pop(rng.randrange(len(cancellable))).cancel()

    for i in range(120):
        # Spread across regimes: sub-slot, the dense first fifth of a
        # second, seconds out, a minute out.
        when = rng.choice(
            [
                rng.uniform(0.0, 0.002),
                rng.uniform(0.0, 0.2),
                rng.uniform(0.3, 5.0),
                rng.uniform(50.0, 90.0),
            ]
        )
        event = sim.schedule_at(when, lambda t=i: record(t), name=str(i))
        if rng.random() < 0.2:
            cancellable.append(event)
    # Duplicate timestamps: seq must break the tie identically.
    for j in range(10):
        sim.schedule_at(0.5, lambda t=f"dup{j}": record(t))
    sim.run()
    return trace, sim.events_processed


@pytest.mark.parametrize("case", range(N_ENGINE_CASES))
def test_dispatch_trace_matches_heap(case):
    seed = 0x3E51 + case
    heap_trace, heap_count = run_engine_trace("heap", seed)
    wheel_trace, wheel_count = run_engine_trace("wheel", seed)
    assert wheel_trace == heap_trace
    assert wheel_count == heap_count


def test_bounded_run_matches_heap():
    """run(until=...) segment by segment — the calendar's cursor bound
    (limit_slot) must not reorder or drop events at window edges."""

    def drive(scheduler):
        rng = random.Random(0xB0B)
        sim = SIMULATORS[scheduler]()
        out = []
        for i in range(200):
            sim.schedule_at(
                rng.uniform(0.0, 3.0), lambda t=i: out.append((sim.now, t))
            )
        # Far-future event beyond every window: its slot must not
        # drag the cursor forward (the degradation the bound fixes).
        sim.schedule_at(500.0, lambda: out.append((sim.now, "far")))
        for until in (0.25, 0.5, 0.500001, 1.0, 2.9999, 3.0, 600.0):
            sim.run(until=until)
            out.append(("mark", until, sim.now, sim.events_processed))
        return out

    assert drive("wheel") == drive("heap")


def test_max_events_matches_heap():
    def drive(scheduler):
        rng = random.Random(7)
        sim = SIMULATORS[scheduler]()
        out = []
        for i in range(50):
            sim.schedule_at(rng.uniform(0.0, 1.0), lambda t=i: out.append(t))
        while sim.run(max_events=7):
            out.append(("chunk", sim.events_processed))
        # Capped and bounded at once: the clock stops with the cap
        # unless the window is empty behind it.
        for i in range(30):
            sim.schedule_at(
                sim.now + rng.uniform(0.0, 1.0), lambda t=i: out.append(t)
            )
        while sim.pending():
            ran = sim.run(until=sim.now + 0.3, max_events=4)
            out.append(("window", ran, sim.now, sim.pending()))
        return out

    assert drive("wheel") == drive("heap")


# ---------------------------------------------------------------------------
# full-stack equivalence
# ---------------------------------------------------------------------------


def snapshot(net: ExpressNetwork) -> dict:
    """Every agent's full channel table, in comparable form (same shape
    as test_batching_equivalence's snapshot)."""
    table = {}
    for name, agent in sorted(net.ecmp_agents.items()):
        for channel, state in agent.channels.items():
            downstream = {
                peer: (record.count, record.validated)
                for peer, record in state.downstream.items()
                if record.count > 0
            }
            table[(name, channel)] = (state.upstream, state.advertised, downstream)
    return table


def drive_network(scheduler: str, seed: int) -> tuple[dict, int]:
    rng = random.Random(seed)
    with event_core(scheduler):
        topo = TopologyBuilder.isp(
            n_transit=3, stubs_per_transit=2, hosts_per_stub=2, seed=7
        )
    net = ExpressNetwork(topo)
    net.run(until=0.01)

    hosts = sorted(net.host_names)
    source = net.source(hosts[0])
    channels = [source.allocate_channel() for _ in range(3)]
    subscribers = hosts[1:]
    # One aggregated block rides along so block_adjust sits in the
    # compared workload too.
    block = net.subscriber_block("e0_0")

    when = 0.05
    for _ in range(40):
        when += rng.uniform(0.002, 0.12)
        roll = rng.random()
        host = rng.choice(subscribers)
        channel = rng.choice(channels)
        if roll < 0.55:
            net.sim.schedule_at(
                when, lambda h=host, c=channel: net.host(h).subscribe(c)
            )
        elif roll < 0.8:
            net.sim.schedule_at(
                when, lambda h=host, c=channel: net.host(h).unsubscribe(c)
            )
        elif roll < 0.9:
            n = rng.randint(1, 50)
            net.sim.schedule_at(when, lambda c=channel, k=n: block.join(c, k))
        else:
            n = rng.randint(1, 50)
            net.sim.schedule_at(when, lambda c=channel, k=n: block.leave(c, k))
    net.run(until=when)
    net.settle(3.0)
    return snapshot(net), net.sim.events_processed


@pytest.mark.parametrize("case", range(N_NETWORK_CASES))
def test_network_state_tables_match_heap(case):
    seed = 0x4EE1 + case
    heap_table, heap_events = drive_network("heap", seed)
    wheel_table, wheel_events = drive_network("wheel", seed)
    assert wheel_table == heap_table
    assert wheel_events == heap_events


# ---------------------------------------------------------------------------
# schedule_bulk ≡ sequential schedule_at
# ---------------------------------------------------------------------------


def bulk_items(seed: int, n: int = 150) -> list:
    """Randomized (time, tag) pairs mixing open-slot, near, far, and
    duplicate timestamps (tie-break coverage), shuffled so submission
    order disagrees with time order."""
    rng = random.Random(seed)
    times = (
        [rng.uniform(0.0, 0.002) for _ in range(n // 4)]
        + [rng.uniform(0.0, 0.2) for _ in range(n // 2)]
        + [rng.uniform(0.3, 40.0) for _ in range(n // 4)]
        + [0.07] * 12  # ties: input order must be preserved
    )
    rng.shuffle(times)
    return [(t, i) for i, t in enumerate(times)]


@pytest.mark.parametrize("scheduler", ["heap", "wheel"])
@pytest.mark.parametrize("coarse", [True, False])
@pytest.mark.parametrize("case", range(4))
def test_schedule_bulk_matches_sequential_schedule_at(scheduler, coarse, case):
    """The shipped ``schedule_bulk`` against a sequential ``schedule_at``
    loop on ``scheduler`` — on the shipped core itself and on the
    oracle, whose ``schedule_bulk`` *is* that loop — at the two slot
    widths with real callers: the 1 ms default, where most items get a
    bucket of their own, and ``mega_block_storm``'s 50 ms, where they
    share a handful of pure buckets and the ties sit among them."""
    items = bulk_items(0xB17C + case)
    granularity = 0.05 if coarse else 0.001

    def drive(core: str, bulk: bool) -> tuple[list, int]:
        sim = SIMULATORS[core](wheel_granularity=granularity)
        out = []
        if bulk:
            sim.schedule_bulk(
                [(t, lambda g=tag: out.append((sim.now, g))) for t, tag in items],
                name="bulk",
            )
        else:
            for t, tag in items:
                sim.schedule_at(t, lambda g=tag: out.append((sim.now, g)), name="bulk")
        sim.run()
        return out, sim.events_processed

    assert drive("wheel", bulk=True) == drive(scheduler, bulk=False)


@pytest.mark.parametrize("scheduler", ["heap", "wheel"])
def test_schedule_bulk_rejects_past_times_atomically(scheduler):
    from repro.errors import SimulationError

    sim = SIMULATORS[scheduler]()
    sim.schedule_at(1.0, lambda: None)
    sim.run(until=0.5)
    with pytest.raises(SimulationError):
        sim.schedule_bulk([(0.6, lambda: None), (0.1, lambda: None)])
    # Nothing from the rejected batch was scheduled.
    assert sim.pending() == 1


@pytest.mark.parametrize("case", range(3))
def test_bulk_interleaved_with_singles_and_cancels_matches_heap(case):
    """schedule_bulk mixed with schedule_at into the *same* buckets
    (strangers in pure buckets) plus cancellations must stay
    trace-identical to the heap oracle."""
    seed = 0x51A7 + case

    def drive(scheduler: str) -> tuple[list, int]:
        rng = random.Random(seed)
        sim = SIMULATORS[scheduler]()
        out = []

        def rec(tag):
            out.append((sim.now, tag))

        sim.schedule_bulk(
            [
                (rng.uniform(0.0, 0.25), lambda g=f"b{i}": rec(g))
                for i in range(80)
            ]
        )
        cancellable = []
        for i in range(40):
            # Same time range: many land in buckets that are pure.
            event = sim.schedule_at(
                rng.uniform(0.0, 0.25), lambda g=f"s{i}": rec(g)
            )
            if rng.random() < 0.4:
                cancellable.append(event)
        for event in cancellable[::2]:
            event.cancel()
        # A second bulk call over the same window (stale-pure buckets).
        sim.schedule_bulk(
            [
                (rng.uniform(0.0, 0.25), lambda g=f"b2_{i}": rec(g))
                for i in range(40)
            ],
            name="second",
        )
        sim.run()
        return out, sim.events_processed

    assert drive("wheel") == drive("heap")


# ---------------------------------------------------------------------------
# batch slot dispatch ≡ per-event dispatch
# ---------------------------------------------------------------------------


def drive_block_storm(
    scheduler: str,
    seed: int = 3,
    joins: int = 4000,
    leaves: int = 500,
    streaming: bool = False,
):
    """A miniature mega storm: block join/leave ops bulk-scheduled with
    coarse calendar slots so shipped-core runs exercise batch slot
    dispatch. With ``streaming`` the source sends and real hosts come
    and go *during* the join wave, over Nagle-timer batching links, so every slot of the wave also holds ordinary
    events. Returns comparable end state + the stats dict."""
    rng = random.Random(seed)
    with event_core(scheduler):
        topo = TopologyBuilder.isp(
            n_transit=3, stubs_per_transit=2, hosts_per_stub=1, seed=7,
            wheel_granularity=0.05,
        )
    net = ExpressNetwork(topo)
    hosts = sorted(net.host_names)
    source = net.source(hosts[0])
    channel = source.allocate_channel()
    blocks = [net.subscriber_block(n) for n in sorted(net.topo.nodes) if n.startswith("e")]
    net.run(until=0.01)
    base = net.sim.now
    work = [
        (base + 0.1 + 2.0 * i / joins, blocks[i % len(blocks)].join_op(channel))
        for i in range(joins)
    ]
    work += [
        (base + 2.3 + 0.5 * i / leaves, blocks[i % len(blocks)].leave_op(channel))
        for i in range(leaves)
    ]
    rng.shuffle(work)
    net.sim.schedule_bulk(work, name="op")
    if streaming:
        for j in range(40):
            net.sim.schedule_at(base + 0.12 + 0.05 * j, lambda: source.send(channel))
        for i, name in enumerate(hosts[1:]):
            host = net.host(name)
            net.sim.schedule_at(base + 0.3 + 0.31 * i, lambda h=host: h.subscribe(channel))
            net.sim.schedule_at(base + 1.1 + 0.17 * i, lambda h=host: h.unsubscribe(channel))
    net.sim.schedule_at(base + 3.0, lambda: source.send(channel))
    net.run(until=base + 3.4)
    def record_times(block):
        state = block.agent.channels.get(channel)
        record = state.downstream.get(block.pseudo) if state else None
        return record.updated_at if record is not None else None

    state = (
        [(b.count(channel), b.deliveries, record_times(b)) for b in blocks],
        snapshot(net),
        net.sim.events_processed,
    )
    return state, net.sim.scheduler_stats()


def test_batch_slot_dispatch_matches_per_event():
    heap_state, _ = drive_block_storm("heap")
    wheel_state, wheel_stats = drive_block_storm("wheel")
    assert wheel_state == heap_state
    # The shipped run actually used batch dispatch.
    assert wheel_stats["batched_events"] > 0
    assert wheel_stats["batched_slots"] > 0


def test_streaming_during_the_join_wave_still_batches():
    """benchmarks/e2e Finding 5: an eighth-scale storm whose join wave
    shares every calendar slot with data packets, Counts and flush
    timers used to be dispatched per event throughout
    (``batched_events`` 0). It must settle exactly as the per-event
    oracle does, with at least nine tenths of all events folded into
    batched runs."""
    storm = dict(joins=62_500, leaves=7_800, streaming=True)
    shipped_state, stats = drive_block_storm("wheel", **storm)
    oracle_state, _ = drive_block_storm("heap", **storm)
    assert shipped_state == oracle_state
    assert stats["batched_runs"] > 5 * stats["batched_slots"]
    assert stats["batched_events"] >= 0.9 * shipped_state[2]


# ---------------------------------------------------------------------------
# segmented batch dispatch: bulk tuples sharing slots with strangers
# ---------------------------------------------------------------------------

#: Storm times sit on a grid of ten points per 50 ms calendar slot, so
#: bulk ops and ordinary events tie exactly, and often.
GRID = 0.005
STORM_AT = 0.1
N_GRID = 60
STORM_END = 1.0

STRANGER_KINDS = (
    "timer", "timer", "cancelled", "canceller", "spawn", "send", "peek",
    "compact", "bulk",
)

storm_ops = st.lists(
    st.tuples(
        st.integers(0, N_GRID - 1),  # grid point
        st.integers(0, 1),  # block
        # Mostly joins: leaves that drain a block and plain callables
        # (no batch group) make a run refuse, which must stay the
        # exception for batched runs of some length to occur.
        st.sampled_from(("join",) * 12 + ("leave",) * 3 + ("plain",)),
    ),
    min_size=30,
    max_size=150,
)
strangers = st.lists(
    st.tuples(
        st.integers(0, N_GRID - 1),  # grid point
        st.booleans(),  # half a grid step later: no tie
        st.sampled_from(STRANGER_KINDS),
        st.integers(0, 3),  # kind-specific argument
    ),
    max_size=25,
)
run_modes = st.sampled_from(("plain", "plain", "plain", "listener", "profiled"))
run_segments = st.lists(
    st.one_of(
        # (until as a grid point: inside a slot, inclusive, max_events, mode)
        st.tuples(st.integers(0, N_GRID), st.booleans(), st.none(), run_modes),
        st.tuples(st.integers(0, N_GRID), st.booleans(), st.none(), run_modes),
        st.tuples(st.none(), st.just(True), st.integers(1, 40), run_modes),
        st.tuples(st.integers(0, N_GRID), st.booleans(), st.integers(1, 40), run_modes),
    ),
    max_size=4,
)


@st.composite
def storm_scenarios(draw):
    """A bulk storm with strangers scheduled before it (older seqs),
    between its two bulk calls and after it (newer seqs), and a plan of
    bounded/observed run segments ahead of the final plain run."""
    return {
        "prejoin": draw(st.integers(0, 3)),
        "older": draw(strangers),
        "bulk1": draw(storm_ops),
        "between": draw(strangers),
        "bulk2": draw(st.one_of(st.just([]), storm_ops)),
        "newer": draw(strangers),
        "segments": draw(run_segments),
    }


def drive_storm_scenario(scheduler: str, scenario: dict):
    """Run ``scenario`` on one event core; return everything observable:
    the ordinary events' dispatch trace (each entry carries the block
    state it saw, so a bulk op on the wrong side of a tie shows), the
    marks taken between run segments, and the final state."""
    with event_core(scheduler):
        topo = TopologyBuilder.isp(
            n_transit=2, stubs_per_transit=1, hosts_per_stub=1, seed=7,
            wheel_granularity=0.05,
        )
    net = ExpressNetwork(topo)
    sim = net.sim
    source = net.source("h0_0_0")
    channel = source.allocate_channel()
    blocks = [net.subscriber_block("e0_0"), net.subscriber_block("e1_0")]
    net.run(until=0.01)
    if scenario["prejoin"]:
        # Blocks with a live record batch from the first slot on; with
        # none, the first slot's runs are refused and peeled.
        for block in blocks:
            block.join(channel, scenario["prejoin"])
        net.run(until=0.05)
    trace: list = []
    cancellable: list = []

    def records():
        out = []
        for block in blocks:
            state = block.agent.channels.get(channel)
            record = state.downstream.get(block.pseudo) if state else None
            out.append(
                (block.count(channel),)
                if record is None
                else (block.count(channel), record.count, record.updated_at)
            )
        return out

    def rec(tag):
        trace.append((sim.now, tag, sim.events_processed, records()))

    def at(grid, half=False):
        return STORM_AT + grid * GRID + (GRID / 2 if half else 0.0)

    def bulk_items(ops, start=0.0, tag="b"):
        items = []
        for i, (grid, which, kind) in enumerate(ops):
            when = max(at(grid), start)
            if kind == "join":
                action = blocks[which].join_op(channel)
            elif kind == "leave":
                action = blocks[which].leave_op(channel)
            else:
                action = lambda t=f"{tag}{i}": rec(t)
            items.append((when, action))
        return items

    def fire(tag, kind, arg):
        rec(tag)
        if kind == "canceller" and cancellable:
            cancellable.pop(arg % len(cancellable)).cancel()
        elif kind == "spawn":
            # Delay 0 and half a step land in the open slot.
            delay = (0.0, GRID / 2, GRID, 11 * GRID)[arg]
            cancellable.append(
                sim.schedule(delay, lambda: rec(tag + "+spawn"), name="spawn")
            )
        elif kind == "send":
            source.send(channel)
        elif kind == "peek":
            # Reads the queue from inside an action: a pure open slot
            # must resolve under the batch dispatcher's feet.
            trace.append(
                ("peek", sim.peek_time(), tuple(sim.peek_times(4)), sim.pending())
            )
            if scheduler == "wheel":
                assert len(sim._wheel) == sim.pending() + sim._cancelled
        elif kind == "compact":
            # The oracle never compacts: nothing to force there.
            if scheduler == "wheel":
                sim._wheel.compact()
                sim._cancelled = 0
        elif kind == "bulk":
            # A bulk call from inside the run: its items land in the
            # open slot, in stranger-holding pure buckets and beyond.
            ops = [(0, j % 2, ("join", "plain", "leave")[j % 3]) for j in range(6)]
            items = bulk_items(ops, tag=tag + "+b")
            sim.schedule_bulk(
                [(sim.now + j * arg * GRID, a) for j, (_, a) in enumerate(items)],
                name="late-op",
            )

    def schedule_strangers(group, label):
        for i, (grid, half, kind, arg) in enumerate(group):
            tag = f"{label}{i}:{kind}"
            event = sim.schedule_at(
                at(grid, half), lambda t=tag, k=kind, a=arg: fire(t, k, a), name=kind
            )
            if kind == "cancelled":
                event.cancel()
            elif arg % 2:
                cancellable.append(event)

    schedule_strangers(scenario["older"], "o")
    sim.schedule_bulk(bulk_items(scenario["bulk1"]), name="op")
    schedule_strangers(scenario["between"], "m")
    if scenario["bulk2"]:
        sim.schedule_bulk(bulk_items(scenario["bulk2"], tag="c"), name="op2")
    schedule_strangers(scenario["newer"], "n")

    seen: list = []

    def listener(_sim, event, _wall):
        seen.append((event.time, event.name))

    for until, inclusive, max_events, mode in scenario["segments"]:
        if mode == "listener":
            sim.add_dispatch_listener(listener)
        elif mode == "profiled":
            sim.profiler = PhaseProfiler()
        bound = None if until is None else at(until)
        if bound is not None and bound < sim.now:
            bound = sim.now
        if bound is None and max_events is None:
            bound = STORM_END  # protocol timers never run dry
        ran = sim.run(until=bound, max_events=max_events, inclusive=inclusive)
        if mode == "listener":
            sim.remove_dispatch_listener(listener)
        sim.profiler = None
        trace.append(
            ("mark", ran, sim.now, sim.events_processed, sim.pending(),
             sim.peek_time(), tuple(sim.peek_times(5)))
        )
    sim.run(until=STORM_END)
    final = (
        records(),
        [block.deliveries for block in blocks],
        {name: a.block_fast_updates for name, a in net.ecmp_agents.items()},
        snapshot(net),
        sim.now,
        sim.events_processed,
        sim.pending(),
    )
    return trace, seen, final, sim.scheduler_stats()


STORM_SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@STORM_SETTINGS
@given(scenario=storm_scenarios())
def test_segmented_batch_dispatch_matches_heap(scenario):
    heap_trace, heap_seen, heap_final, _ = drive_storm_scenario("heap", scenario)
    wheel_trace, wheel_seen, wheel_final, stats = drive_storm_scenario(
        "wheel", scenario
    )
    assert wheel_trace == heap_trace
    assert wheel_seen == heap_seen
    assert wheel_final == heap_final
    # The counters partition what the batch dispatcher consumed.
    assert stats["batched_runs"] >= stats["batched_slots"]
    assert (stats["batched_events"] > 0) == (stats["batched_runs"] > 0)


def test_segmented_dispatch_is_exercised():
    """One fixed storm, checked for *how* it was dispatched: ties on
    both sides of the reserved seq range, strangers between runs, a
    refused first run peeled and re-offered. Guards the property test
    above against passing on the materializing fallback alone."""
    ops = [(g, b, "join") for g in range(40) for b in (0, 1)] * 3
    scenario = {
        "prejoin": 0,
        "older": [(g, False, "timer", 0) for g in (3, 12, 25)],
        "bulk1": ops,
        "between": [],
        "bulk2": [],
        "newer": [(5, False, "spawn", 1), (12, False, "timer", 0), (31, True, "send", 0)],
        "segments": [],
    }
    heap = drive_storm_scenario("heap", scenario)
    wheel = drive_storm_scenario("wheel", scenario)
    assert wheel[:3] == heap[:3]
    stats = wheel[3]
    assert stats["peeled_ops"] > 0
    assert stats["stranger_events"] > 0
    assert stats["batched_runs"] > stats["batched_slots"] > 0
    total = stats["batched_events"] + stats["peeled_ops"]
    assert total == len(ops)
    assert stats["batched_events"] > 0.9 * len(ops)
