"""Layer probes: one layer's public functions timed in isolation.

Every (P) metric of ``BENCHMARK.json`` comes from here. A probe runs
its operation in batches for ``SLICE_S`` seconds, five times, and
reports the median cost with the spread of the five (0.5 s of looping
per probe; ``--quick`` shortens the slices). Codec, state, FIB and
event-throughput probes replay what a one-eighth-scale
``channel_churn`` run actually put through the ECMP codec (captured by
``trace.capture_codec``) rather than synthetic records, so the mix of
plain and keyed Counts, responses and batch sizes is the workload's.

Three probes are anchored to figures in the paper and printed beside
them. ``netsim.parallel`` has no end-to-end workload on a two-core
host (a coordinator plus workers would measure the host's scheduler),
so its codec, ring and sync-protocol costs are probed here in one
process; a speed-up is not measurable on fewer than four cores and is
not reported.
"""

from __future__ import annotations

import gc
import statistics
import tracemalloc
from time import perf_counter

from common import build_isp, stream
from repro import SUBSCRIBER_ID, ExpressNetwork, Simulator
from repro.core.ecmp import Count
from repro.core.ecmp.messages import EcmpBatch, decode_message, encode_batch, encode_message
from repro.core.ecmp.protocol import IP_OVERHEAD
from repro.core.ecmp.state import ChannelState
from repro.netsim.packet import Packet
from repro.netsim.parallel import ParallelRunner, ScenarioSpec
from repro.netsim.parallel.codec import decode_packet, encode_packet
from repro.netsim.parallel.transport import RingBuffer
from repro.netsim.topology import Topology
from repro.obs import Observability
from repro.routing import MulticastFib, UnicastRouting
from trace import capture_codec
from workloads import ChannelChurn, LiveEvent

REPS = 5
SLICE_S = 0.1
QUICK_SLICE_S = 0.02
#: TCP segment payload the paper's batching figure assumes (§5.3).
SEGMENT_BYTES = 1480


def _noop() -> None:
    pass


def _measure(batch, slice_s: float, per_second: float = 1.0) -> tuple[float, float]:
    """``batch()`` performs some operations and returns ``(seconds,
    operations)``. Returns the median cost per operation over ``REPS``
    slices, in units of ``1 / per_second`` seconds (1e9 for ns), and
    the spread (max - min) / median."""
    # Park everything built so far (the capture, the probe's fixtures)
    # outside the collector's reach, as the workloads do before their
    # timed window; the collector stays on for what the probe allocates.
    gc.collect()
    gc.freeze()
    costs = []
    for _ in range(REPS):
        seconds = ops = 0
        while seconds < slice_s:
            s, n = batch()
            seconds += s
            ops += n
        costs.append(seconds / ops)
    mid = statistics.median(costs)
    return mid * per_second, (max(costs) - min(costs)) / mid


def _records(message) -> int:
    return len(message.messages) if isinstance(message, EcmpBatch) else 1


# -- netsim.engine ------------------------------------------------------------


def probe_engine(seed: int, slice_s: float) -> dict:
    rng = stream(seed, "probe", "engine")
    delays = [rng.random() * 0.5 for _ in range(10_000)]
    sim = Simulator(scheduler="wheel")

    def schedule_dispatch():
        started = perf_counter()
        for delay in delays:
            sim.schedule(delay, _noop)
        sim.run(until=sim.now + 0.5)
        return perf_counter() - started, len(delays)

    def timer_cancel():
        started = perf_counter()
        for delay in delays:
            sim.schedule(1.0 + delay, _noop).cancel()
        sim.run(until=sim.now + 1.5)
        return perf_counter() - started, len(delays)

    bulk = Simulator(scheduler="wheel", wheel_granularity=0.05)

    def bulk_schedule():
        base = bulk.now + 0.001
        items = [(base + delay, _noop) for delay in delays]
        started = perf_counter()
        bulk.schedule_bulk(items)
        bulk.run(until=base + 0.5)
        return perf_counter() - started, len(items)

    return {
        "netsim.engine.schedule_dispatch_ns": _measure(schedule_dispatch, slice_s, 1e9),
        "netsim.engine.timer_cancel_ns": _measure(timer_cancel, slice_s, 1e9),
        "netsim.engine.bulk_schedule_ns": _measure(bulk_schedule, slice_s, 1e9),
    }


# -- routing.fib ----------------------------------------------------------------


def probe_fib(channels: list, slice_s: float) -> dict:
    fib = MulticastFib()
    for channel in channels:
        fib.install(channel.source, channel.group, 0).add_outgoing(1)

    def lookup_hit():
        started = perf_counter()
        for channel in channels:
            fib.lookup(channel.source, channel.group, 0)
        return perf_counter() - started, len(channels)

    def install_remove():
        started = perf_counter()
        for channel in channels:
            fib.remove(channel.source, channel.group)
            fib.install(channel.source, channel.group, 0)
        return perf_counter() - started, len(channels)

    lookup_hit()  # fill the lookup cache: the probe measures hits
    out = {
        "routing.fib.lookup_hit_ns": _measure(lookup_hit, slice_s, 1e9),
        "routing.fib.install_remove_ns": _measure(install_remove, slice_s, 1e9),
    }
    gc.collect()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    measured = MulticastFib()
    for channel in channels:
        measured.install(channel.source, channel.group, 0).add_outgoing(1)
    held = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    out["routing.fib.bytes_per_entry"] = (held / len(channels), 0.0)
    return out


# -- core.ecmp ------------------------------------------------------------------


def probe_codec(captured: dict, slice_s: float) -> dict:
    messages, frames = captured["messages"], captured["frames"]
    records_out = sum(_records(m) for m in messages)
    records_in = sum(_records(decode_message(f)) for f in frames)

    def encode():
        started = perf_counter()
        for message in messages:
            encode_message(message)
        return perf_counter() - started, records_out

    def decode():
        started = perf_counter()
        for frame in frames:
            decode_message(frame)
        return perf_counter() - started, records_in

    plain = next(
        m for m in _flatten(messages) if isinstance(m, Count) and m.key is None
    )
    fit = 1
    while len(encode_batch([plain] * (fit + 1))) <= SEGMENT_BYTES:
        fit += 1
    return {
        "core.ecmp.messages.encode_ns_per_record": _measure(encode, slice_s, 1e9),
        "core.ecmp.messages.decode_ns_per_record": _measure(decode, slice_s, 1e9),
        "core.ecmp.messages.counts_per_segment": (float(fit), 0.0),
    }


def _flatten(messages):
    for message in messages:
        if isinstance(message, EcmpBatch):
            yield from message.messages
        else:
            yield message


def _subscriber_counts(captured: dict) -> list:
    return [
        m for m in _flatten(captured["messages"])
        if isinstance(m, Count) and m.count_id == SUBSCRIBER_ID
    ]


def probe_state(captured: dict, slice_s: float) -> dict:
    """Replays the captured subscriber Counts as downstream-record
    writes: find or create the (channel, neighbor) record, then set
    count, validation and timestamp, the write ``_apply_subscriber_count``
    performs."""
    counts = _subscriber_counts(captured)
    states = {m.channel: ChannelState(m.channel) for m in counts}
    writes = [(states[m.channel], f"n{i % 8}", m.count) for i, m in enumerate(counts)]

    def write():
        started = perf_counter()
        for state, neighbor, count in writes:
            record = state.downstream.get(neighbor)
            if record is None:
                record = state.downstream[neighbor] = state.new_record()
            record.count = count
            record.validated = True
            record.updated_at = 1.0
        return perf_counter() - started, len(writes)

    return {"core.ecmp.state.record_write_ns": _measure(write, slice_s, 1e9)}


def probe_t4(captured: dict, slice_s: float) -> dict:
    """§5.3's set-up: one router with eight neighbours sending it
    subscribe and unsubscribe events, here as real wire frames carrying
    the captured Count sequence mapped onto this router's channels."""
    neighbors = [f"e{i}" for i in range(8)]
    topo = Topology(scheduler="wheel")
    for name in ["hub", "up", "s"] + neighbors:
        topo.add_node(name)
    topo.add_link("up", "hub", delay=0.0001)
    topo.add_link("s", "up", delay=0.0001)
    for name in neighbors:
        topo.add_link("hub", name, delay=0.0001)
    net = ExpressNetwork(topo, hosts=["s"] + neighbors, wire_format=True)
    net.run(until=0.01)
    source = net.source("s")
    hub = topo.node("hub")
    agent = net.ecmp_agents["hub"]
    ifindex = {n: hub.interface_to(topo.node(n)).index for n in neighbors}
    mapped: dict = {}
    packets = []
    for i, captured_count in enumerate(_subscriber_counts(captured)):
        channel = mapped.get(captured_count.channel)
        if channel is None:
            channel = mapped[captured_count.channel] = source.allocate_channel()
        neighbor = neighbors[i % len(neighbors)]
        message = Count(channel, SUBSCRIBER_ID, min(captured_count.count, 1))
        packet = Packet(
            src=topo.node(neighbor).address, dst=hub.address, proto="ecmp",
            payload=encode_message(message), size=IP_OVERHEAD + message.wire_size(),
        )
        packet.headers["reliable"] = True
        packets.append((packet, ifindex[neighbor]))

    def replay():
        handle = agent.handle_packet
        started = perf_counter()
        for packet, index in packets:
            handle(packet, index)
        seconds = perf_counter() - started
        net.run(until=net.sim.now + 1.0)  # drain the upstream sends, untimed
        return seconds, len(packets)

    per_event, spread = _measure(replay, slice_s)
    return {"core.ecmp.protocol.t4_events_per_s": (1.0 / per_event, spread)}


# -- routing.unicast, core.accounting -------------------------------------------


def probe_spf(seed: int, slice_s: float) -> dict:
    topo = build_isp(seed, 8, 4, 4)
    routing = UnicastRouting(topo)
    names = list(topo.nodes)
    link = topo.link_between("t0", "t1")

    def recompute_all():
        runs = routing.spf_counters()["spf_runs"]
        started = perf_counter()
        link.up = not link.up
        routing.recompute()
        for dest in names:
            routing.next_hop("t2", dest)
        seconds = perf_counter() - started
        return seconds, routing.spf_counters()["spf_runs"] - runs

    return {"routing.unicast.spf_ms_per_tree": _measure(recompute_all, slice_s, 1e3)}


def probe_accounting(seed: int, slice_s: float) -> dict:
    """Final-hop delivery to a subscriber block: a data packet handed
    to the edge router's forwarder tallies into the pending delivery
    view; reading the block's counter flushes it."""
    topo = build_isp(seed, 2, 2, 1)
    net = ExpressNetwork(topo, wire_format=True)
    source = net.source("h0_0_0")
    channel = source.allocate_channel()
    block = net.subscriber_block("e1_0")
    net.run(until=0.01)
    block.join(channel, 1000)
    net.settle(1.0)
    edge = topo.node("e1_0")
    forwarder = net.forwarders["e1_0"]
    uplink = edge.interface_to(topo.node("t1")).index
    packets = [
        Packet(src=channel.source, dst=channel.group, proto="data", size=1356)
        for _ in range(2000)
    ]

    def pend_flush():
        before = block.deliveries
        started = perf_counter()
        for packet in packets:
            forwarder.handle_packet(packet, uplink)
            block.deliveries
        seconds = perf_counter() - started
        if block.deliveries - before != 1000 * len(packets):
            raise SystemExit("accounting probe: block deliveries do not add up")
        return seconds, len(packets)

    return {"core.accounting.pend_flush_ns": _measure(pend_flush, slice_s, 1e9)}


# -- netsim.parallel --------------------------------------------------------------

RING_BYTES = 1 << 20


class _LocalSegment:
    """Process-local stand-in for the shared-memory segment under a
    ``RingBuffer`` (which only ever touches ``.buf``): the ring's
    framing and copy path is the same, but nothing is created under
    ``/dev/shm`` and no resource-tracker process is started, so the
    benchmark stays inside its checkout and leaves no process behind."""

    def __init__(self, size: int) -> None:
        self.buf = memoryview(bytearray(size))


def probe_parallel(captured: dict, seed: int, slice_s: float, quick: bool) -> dict:
    packets = []
    for message in captured["messages"][:2000]:
        packet = Packet(src=1, dst=2, proto="ecmp", size=IP_OVERHEAD + message.wire_size())
        packet.headers["ecmp"] = message
        packet.headers["reliable"] = True
        packets.append(packet)

    def codec_frame():
        started = perf_counter()
        for packet in packets:
            decode_packet(encode_packet(packet))
        return perf_counter() - started, len(packets)

    payload = bytes(4096)
    ring = RingBuffer(_LocalSegment(RING_BYTES + 4096), RING_BYTES)

    def ring_pass():
        started = perf_counter()
        for _ in range(200):
            ring.send_frame(payload)
            ring.recv_frame()
        return perf_counter() - started, 200 * len(payload)

    per_byte, ring_spread = _measure(ring_pass, slice_s)

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
            "n_subs": 2_000 if quick else 20_000, "n_blocks": len(edges),
            "packets": 20, "join_window": 0.1, "leave_window": 0.1,
            "packet_spacing": 0.15, "burst": 2, "seed": seed,
        }),
        duration=5.6,
        seed=seed,
    )
    result = ParallelRunner(spec, 2, scheduler="wheel", mode="inline").run()
    sync = result.sync_totals()
    return {
        "netsim.parallel.codec_frame_us": _measure(codec_frame, slice_s, 1e6),
        "netsim.parallel.ring_mb_per_s": (1.0 / per_byte / 1e6, ring_spread),
        "netsim.parallel.sync_msgs_per_event": (
            result.message_totals()["sync_messages_per_event"], 0.0
        ),
        "netsim.parallel.null_ratio": (
            sync["null_messages"] / sync["sync_rounds"] if sync["sync_rounds"] else 0.0, 0.0
        ),
    }


# -- obs ------------------------------------------------------------------------


def probe_obs(seed: int) -> dict:
    """Eighth-scale ``live_event``, identical rounds with and without
    an ``Observability`` attached: wall per operation, on over off."""
    cost = {}
    for label, obs in (("off", None), ("on", Observability())):
        wl = LiveEvent(seed, 0.125, obs=obs)
        wl.setup()
        timed = wl.round(0)
        cost[label] = timed.wall / timed.ops
    return {"obs.overhead_ratio": (cost["on"] / cost["off"], 0.0)}


# -- entry point ------------------------------------------------------------------


def capture(seed: int) -> dict:
    """What an eighth-scale ``channel_churn`` set-up and round put
    through the ECMP codec."""
    wl = ChannelChurn(seed, 0.125)
    with capture_codec() as captured:
        try:
            wl.setup()
            wl.round(0)
        finally:
            wl.close()
    if not captured["messages"] or not captured["frames"]:
        raise SystemExit("probes: the capture run put nothing through the codec")
    return captured


def run_probes(seed: int, quick: bool) -> dict:
    slice_s = QUICK_SLICE_S if quick else SLICE_S
    captured = capture(seed)
    channels = list(dict.fromkeys(m.channel for m in _flatten(captured["messages"])))
    measured = {}
    measured.update(probe_engine(seed, slice_s))
    measured.update(probe_fib(channels, slice_s))
    measured.update(probe_codec(captured, slice_s))
    measured.update(probe_state(captured, slice_s))
    measured.update(probe_t4(captured, slice_s))
    measured.update(probe_spf(seed, slice_s))
    measured.update(probe_accounting(seed, slice_s))
    measured.update(probe_parallel(captured, seed, slice_s, quick))
    measured.update(probe_obs(seed))
    metrics = {name: value for name, (value, _) in measured.items()}
    anchors = [
        "paper anchors (measured on this host's Python substrate | the authors' figure):",
        f"  core.ecmp.protocol.t4_events_per_s      {metrics['core.ecmp.protocol.t4_events_per_s']:>12,.0f} /s"
        "  | §5.3: 33,000 events/s sustained at 43% of a 400 MHz P-II (4,500/s at 4%)",
        f"  core.ecmp.messages.counts_per_segment   {metrics['core.ecmp.messages.counts_per_segment']:>12,.0f}"
        f"     | §5.3: 92 Counts per {SEGMENT_BYTES}-byte segment (ours carry a 2-byte record length)",
        f"  routing.fib.bytes_per_entry             {metrics['routing.fib.bytes_per_entry']:>12,.1f} B"
        "   | Fig. 5: 12 B per entry (ours is a Python object, not a packed row)",
    ]
    return {
        "metrics": metrics,
        "spread": {name: spread for name, (_, spread) in measured.items()},
        "captured": {
            "messages": len(captured["messages"]),
            "frames": len(captured["frames"]),
            "channels": len(channels),
        },
        "anchors": anchors,
    }
