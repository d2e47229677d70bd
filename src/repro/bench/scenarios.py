"""Parameterized performance scenarios for the perf harness.

Each scenario builds an :class:`ExpressNetwork`, drives a workload,
and returns a flat metrics dict for ``BENCH_perf.json``. The scenarios
cover the hot paths this repo optimizes:

* **join_storm** — control-plane subscription processing: every host
  joins one channel in a short window (the paper's Super Bowl start).
* **link_flap_churn** — routing reconvergence under link events with
  membership churn running (``repro.workloads.churn``); this is the
  scenario the incremental-SPF ≥5× Dijkstra saving is measured on.
* **steady_fanout** — the data plane: a source streaming to a fully
  subscribed balanced tree, exercising the FIB lookup with its shared
  egress tuples and the zero-copy fan-out path.
* **mega_join_storm** — scheduler scale: a 10^5 (quick) / 10^6 (full)
  member join storm over aggregated subscriber blocks, bulk-scheduled;
  gates the event core's absolute throughput.
* **channel_surf** — control-plane state scale: thousands of standing
  channels (the §2.2 TV-distribution shape) while UDP-mode hosts zap
  between Zipf-popular channels; zap throughput over the zapping
  window is reported as ``zap_events_per_sec`` (CI-gated), next to
  the refresh ring's examination count and the standing-record
  volume a full-table refresh would have walked.
* **router_crash_storm** — soft-state robustness: a seeded
  :mod:`repro.faults` chaos plan (transit-router crash/restart cycles,
  a partition/heal, a latency spike, a wire-mutation window, a
  forged-key join flood, and a counting-inflation attack) runs against
  a subscribed ISP network, and the
  :class:`~repro.faults.monitor.FaultMonitor` SLOs —
  ``convergence_seconds`` / ``resync_bytes`` / ``blast_radius`` /
  ``orphaned_state`` — are reported and CI-gated (ceiling gates:
  lower is better).

Wall-clock throughput numbers reflect the Python substrate and the
host machine; the JSON file exists so future PRs can diff *relative*
movement, and so the counter-based metrics (Dijkstra runs, in-place
fan-out fraction, cache hits) — which are machine-independent — can be
asserted exactly.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import random
from functools import partial
from itertools import accumulate
from time import perf_counter
from typing import Optional

from repro.core.ecmp.protocol import EcmpAgent, NeighborMode
from repro.core.keys import make_key
from repro.core.network import ExpressNetwork
from repro.faults import FaultInjector, FaultMonitor, seeded_crash_storm
from repro.netsim.engine import derive_seed
from repro.netsim.topology import TopologyBuilder
from repro.obs.hooks import Observability
from repro.obs.registry import percentile
from repro.workloads.churn import poisson_churn, schedule_churn


def _latency_summary(obs: Observability) -> dict:
    """p50/p99 end-to-end delivery latency across every subscriber."""
    family = obs.registry.get("delivery_latency_seconds")
    samples: list[float] = []
    if family is not None:
        for _, child in family.children():
            samples.extend(child.samples)
    return {
        "count": len(samples),
        "p50_seconds": percentile(samples, 50),
        "p99_seconds": percentile(samples, 99),
    }


def _spf_timing(obs: Observability, link_events: int) -> dict:
    family = obs.registry.get("spf_recompute_seconds")
    samples: list[float] = []
    if family is not None:
        for _, child in family.children():
            samples.extend(child.samples)
    total = sum(samples)
    return {
        "recomputes": len(samples),
        "total_seconds": total,
        "mean_seconds": total / len(samples) if samples else 0.0,
        "p99_seconds": percentile(samples, 99),
        "per_link_event_seconds": total / link_events if link_events else 0.0,
    }


def _fanout_stats(net: ExpressNetwork) -> dict:
    forwarded = 0
    inplace = 0
    for forwarder in net.forwarders.values():
        forwarded += forwarder.stats.get("multicast_forwarded")
        inplace += forwarder.stats.get("fanout_inplace")
    return {
        "multicast_forwarded": forwarded,
        "fanout_inplace": inplace,
        "inplace_fraction": inplace / forwarded if forwarded else 0.0,
    }


def _fib_cache_stats(net: ExpressNetwork) -> dict:
    lookups = sum(fib.lookups for fib in net.fibs.values())
    hits = sum(fib.lookup_cache_hits for fib in net.fibs.values())
    return {
        "fib_lookups": lookups,
        "fib_lookup_cache_hits": hits,
        "fib_cache_hit_fraction": hits / lookups if lookups else 0.0,
    }


def _ecmp_wire_stats(net: ExpressNetwork) -> dict:
    """Control-plane wire accounting summed over every agent: logical
    messages (what the protocol decided to say) against wire packets
    (what actually crossed links, post-coalescing)."""
    totals = {
        "msgs_tx": 0,
        "bytes_tx": 0,
        "wire_sends": 0,
        "bytes_on_wire": 0,
        "msgs_coalesced": 0,
        "batch_flushes": 0,
        "batches_rx": 0,
        "batch_records_tx": 0,
    }
    for agent in net.ecmp_agents.values():
        for key in totals:
            totals[key] += agent.stats.get(key)
    link_packets = sum(link.ecmp_wire_packets for link in net.topo.links)
    link_bytes = sum(link.ecmp_wire_bytes for link in net.topo.links)
    wire = totals["wire_sends"]
    return {
        "ecmp_msgs_logical": totals["msgs_tx"],
        "ecmp_bytes_logical": totals["bytes_tx"],
        "ecmp_wire_sends": wire,
        "ecmp_bytes_on_wire": totals["bytes_on_wire"],
        "ecmp_msgs_coalesced": totals["msgs_coalesced"],
        "ecmp_batch_flushes": totals["batch_flushes"],
        "ecmp_batches_rx": totals["batches_rx"],
        "ecmp_batch_records_tx": totals["batch_records_tx"],
        "ecmp_msgs_per_wire_send": totals["msgs_tx"] / wire if wire else 0.0,
        "link_ecmp_wire_packets": link_packets,
        "link_ecmp_wire_bytes": link_bytes,
    }


def join_storm(quick: bool = True, seed: int = 0) -> dict:
    """Every host joins one channel within a short window, then the
    source streams a burst to the fully built tree."""
    n_transit = 4 if quick else 8
    stubs = 3 if quick else 4
    hosts_per_stub = 2 if quick else 3
    packets = 20 if quick else 100
    obs = Observability()
    topo = TopologyBuilder.isp(
        n_transit=n_transit,
        stubs_per_transit=stubs,
        hosts_per_stub=hosts_per_stub,
        seed=seed,
    )
    net = ExpressNetwork(topo, obs=obs)
    host_names = sorted(net.host_names)
    source = net.source(host_names[0])
    channel = source.allocate_channel()
    subscribers = host_names[1:]
    for index, name in enumerate(subscribers):
        net.sim.schedule_at(
            0.001 + 0.5 * index / max(len(subscribers), 1),
            lambda n=name: net.host(n).subscribe(channel),
            name="bench-join",
        )
    for k in range(packets):
        net.sim.schedule_at(
            1.0 + 0.01 * k, lambda: source.send(channel), name="bench-send"
        )
    started = perf_counter()
    net.run(until=2.5)
    wall = perf_counter() - started
    events = net.sim.events_processed
    return {
        "params": {
            "topology": f"isp({n_transit},{stubs},{hosts_per_stub})",
            "nodes": len(topo.nodes),
            "subscribers": len(subscribers),
            "packets": packets,
        },
        "wall_seconds": wall,
        "sim_events": events,
        "events_per_sec": events / wall if wall else 0.0,
        "subscribed": sum(
            1 for n in subscribers if net.host(n).is_subscribed(channel)
        ),
        "delivery_latency": _latency_summary(obs),
        "ecmp_wire": _ecmp_wire_stats(net),
        **_fanout_stats(net),
        **_fib_cache_stats(net),
    }


def link_flap_churn(quick: bool = True, seed: int = 0) -> dict:
    """Membership churn plus repeated link failures/recoveries.

    The churn stream comes from :mod:`repro.workloads.churn`; core and
    stub links flap on a fixed cadence while hosts join and leave. The
    key outputs are the incremental-SPF counters (``spf_runs`` against
    the from-scratch baseline of ``recompute_count × |V|``) and the
    control-plane wire counters: the identical workload is driven twice,
    once batched and once with ``batching=False``, and the wire-message
    reduction between the two runs is reported (the §5 argument that
    TCP-mode sessions amortize per-channel control traffic).
    """
    n_transit = 4 if quick else 8
    stubs = 3 if quick else 4
    hosts_per_stub = 2 if quick else 3
    flaps = 6 if quick else 24
    duration = 6.0 if quick else 20.0
    # Enough channels that one link flap re-homes many channels toward
    # the same new upstream — the coalescing opportunity batching exists
    # to capture. Channels share a few source hosts deliberately: ECMP
    # keeps per-channel state (so flap churn scales with channels) while
    # unicast SPF keeps per-destination trees (so the incremental-SPF
    # measurement keeps its small hot destination set).
    n_sources = 3
    channels_per_source = 6 if quick else 11

    def drive(batching: bool) -> tuple[ExpressNetwork, Observability, dict, float]:
        obs = Observability()
        topo = TopologyBuilder.isp(
            n_transit=n_transit,
            stubs_per_transit=stubs,
            hosts_per_stub=hosts_per_stub,
            seed=seed,
        )
        net = ExpressNetwork(topo, obs=obs, batching=batching)
        host_names = sorted(net.host_names)
        # Several source hosts in different stubs: several RPF
        # destination trees stay cached, so stub-link flaps exercise the
        # partial (dirty-set) invalidation path, not just the full one.
        stride = max(len(host_names) // n_sources, 1)
        sources = [net.source(host_names[i * stride]) for i in range(n_sources)]
        channels = [
            s.allocate_channel()
            for s in sources
            for _ in range(channels_per_source)
        ]
        n_channels = len(channels)
        total_churn = 0
        source_names = {s.name for s in sources}
        for index, channel in enumerate(channels):
            subscribers = [
                name for i, name in enumerate(host_names) if i % n_channels == index
            ]
            events = poisson_churn(
                [n for n in subscribers if n not in source_names],
                duration=duration,
                mean_off_time=duration / 4,
                mean_on_time=duration / 4,
                seed=seed + index,
            )
            schedule_churn(net, channel, events)
            total_churn += len(events)
        # Dense membership underneath the churn: every host joins every
        # channel in a short window, so each flap re-homes per-channel
        # state at every transit node it touches — the §5 control-churn
        # shape batching is built for.
        for index, channel in enumerate(channels):
            for j, name in enumerate(host_names):
                if name in source_names:
                    continue
                net.sim.schedule_at(
                    0.001 + 0.2 * ((j * n_channels + index) % 97) / 97.0,
                    lambda n=name, c=channel: net.host(n).subscribe(c),
                    name="bench-bulk-join",
                )
        # Flap transit-transit links and a transit-stub link in
        # rotation; t2-t3 sits off the chorded shortest paths toward
        # the t0-region source, so its flaps leave some cached trees
        # clean — both partial (dirty-set) and full invalidation paths
        # get exercised.
        flap_targets = [
            topo.link_between("t0", "t1"),
            topo.link_between("t0", "e0_0"),
            topo.link_between("t2", "t3"),
        ]
        for k in range(flaps):
            link = flap_targets[k % len(flap_targets)]
            at = duration * (k + 0.5) / flaps
            net.sim.schedule_at(at, link.fail, name="bench-fail")
            net.sim.schedule_at(at + 0.15, link.recover, name="bench-recover")
        started = perf_counter()
        net.run(until=duration + 1.0)
        wall = perf_counter() - started
        params = {
            "topology": f"isp({n_transit},{stubs},{hosts_per_stub})",
            "nodes": len(topo.nodes),
            "channels": n_channels,
            "churn_events": total_churn,
            "link_events": 2 * flaps,
            "duration": duration,
        }
        return net, obs, params, wall

    net, obs, params, wall = drive(batching=True)
    baseline_net, _, _, _ = drive(batching=False)
    spf = net.routing.spf_counters()
    nodes = params["nodes"]
    baseline = spf["recompute_count"] * nodes
    ratio = baseline / spf["spf_runs"] if spf["spf_runs"] else float("inf")
    link_events = params["link_events"]
    wire = _ecmp_wire_stats(net)
    unbatched_wire = _ecmp_wire_stats(baseline_net)
    reduction = (
        unbatched_wire["ecmp_wire_sends"] / wire["ecmp_wire_sends"]
        if wire["ecmp_wire_sends"]
        else float("inf")
    )
    return {
        "params": params,
        "wall_seconds": wall,
        "sim_events": net.sim.events_processed,
        "events_per_sec": net.sim.events_processed / wall if wall else 0.0,
        "spf": spf,
        "dijkstra_runs": spf["spf_runs"],
        "dijkstra_baseline_equivalent": baseline,
        "dijkstra_savings_ratio": ratio,
        "spf_timing": _spf_timing(obs, link_events),
        "ecmp_wire": wire,
        "ecmp_wire_unbatched": unbatched_wire,
        "wire_message_reduction": reduction,
    }


def steady_fanout(quick: bool = True, seed: int = 0) -> dict:
    """A source streams to a fully subscribed balanced tree — the §5.3
    shape scaled down — measuring pure data-plane throughput."""
    depth = 5 if quick else 7
    packets = 60 if quick else 300
    obs = Observability()
    topo = TopologyBuilder.balanced_tree(depth=depth, fanout=2, seed=seed)
    leaves = [name for name, node in topo.nodes.items() if len(node.interfaces) == 1]
    net = ExpressNetwork(topo, hosts=["r"] + leaves, obs=obs)
    source = net.source("r")
    channel = source.allocate_channel()
    received = [0]

    def on_data(_packet) -> None:
        received[0] += 1

    for leaf in leaves:
        net.host(leaf).subscribe(channel, on_data=on_data)
    net.settle(1.0)
    for k in range(packets):
        net.sim.schedule_at(
            net.sim.now + 0.002 * k, lambda: source.send(channel), name="bench-send"
        )
    started = perf_counter()
    net.run(until=net.sim.now + 0.002 * packets + 1.0)
    wall = perf_counter() - started
    events = net.sim.events_processed
    return {
        "params": {
            "topology": f"balanced_tree(depth={depth},fanout=2)",
            "nodes": len(topo.nodes),
            "subscribers": len(leaves),
            "packets": packets,
        },
        "wall_seconds": wall,
        "sim_events": events,
        "events_per_sec": events / wall if wall else 0.0,
        "packets_delivered": received[0],
        "deliveries_per_sec": received[0] / wall if wall else 0.0,
        "delivery_latency": _latency_summary(obs),
        **_fanout_stats(net),
        **_fib_cache_stats(net),
    }


def mega_join_storm(quick: bool = True, seed: int = 0) -> dict:
    """§5.2 at full scale: a Super Bowl-sized audience joining one
    channel, modeled with aggregated subscriber blocks (100k members in
    quick mode, one million in full mode).

    The join/leave times are deterministically shuffled so scheduler
    inserts arrive in random time order. Runs uninstrumented (no
    ``Observability``) and with GC paused over the measured region so
    the number is the event core's; correctness is checked
    arithmetically instead (final membership and per-member
    deliveries).
    """
    n_subs = 100_000 if quick else 1_000_000
    n_leaves = n_subs // 8
    packets = 20
    # Best-of-3 in quick mode smooths scheduler-external noise (the
    # quick run is short enough for wall-clock jitter to matter); the
    # full run is long enough to self-average.
    repeats = 3 if quick else 1
    # Coarse calendar slots (50 ms vs the 1 ms default) so the bulk
    # storm fills each bucket with ~1000+ ops: batch slot dispatch
    # amortizes its per-slot group bookkeeping over the whole bucket.
    # Dispatch order is granularity-independent.
    wheel_granularity = 0.05

    def drive() -> dict:
        topo = TopologyBuilder.isp(
            n_transit=4, stubs_per_transit=3, hosts_per_stub=1,
            seed=seed, wheel_granularity=wheel_granularity,
        )
        net = ExpressNetwork(topo)
        source = net.source(sorted(net.host_names)[0])
        channel = source.allocate_channel()
        edge_routers = sorted(n for n in topo.nodes if n.startswith("e"))
        blocks = [net.subscriber_block(name) for name in edge_routers]
        net.run(until=0.01)  # control-plane startup out of the way
        base = net.sim.now
        n_blocks = len(blocks)

        # Batchable bound ops (see repro.core.blocks.BlockOp): the
        # engine's batch dispatcher folds a whole calendar slot of
        # these into one arithmetic update per (block, channel).
        join_acts = [b.join_op(channel) for b in blocks]
        leave_acts = [b.leave_op(channel) for b in blocks]
        work = [
            (base + 0.1 + 4.0 * i / n_subs, join_acts[i % n_blocks])
            for i in range(n_subs)
        ]
        work += [
            (base + 4.2 + 0.8 * i / n_leaves, leave_acts[i % n_blocks])
            for i in range(n_leaves)
        ]
        # Shuffle deterministically: a real audience does not arrive
        # pre-sorted. schedule_bulk preserves input order for ties
        # (dispatch matches a sequential schedule_at loop), so the
        # shuffle is order-safe.
        random.Random(seed + 1).shuffle(work)

        sim = net.sim
        gc_was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            started = perf_counter()
            sim.schedule_bulk(work, name="bench-op")
            schedule_at = sim.schedule_at
            for k in range(packets):
                schedule_at(base + 5.2 + 0.005 * k, partial(source.send, channel))
            before = sim.events_processed
            net.run(until=base + 5.6)
            wall = perf_counter() - started
        finally:
            if gc_was_enabled:
                gc.enable()
        events = sim.events_processed - before

        members = sum(b.count(channel) for b in blocks)
        deliveries = sum(b.deliveries for b in blocks)
        expected_members = n_subs - n_leaves
        if members != expected_members:
            raise RuntimeError(
                f"final membership {members} != {expected_members}"
            )
        if deliveries != packets * members:
            raise RuntimeError(
                f"block deliveries {deliveries} != {packets * members}"
            )
        return {
            "wall": wall,
            "events": events,
            "nodes": len(topo.nodes),
            "blocks": n_blocks,
            "members": members,
            "deliveries": deliveries,
            "fast_updates": sum(
                a.block_fast_updates for a in net.ecmp_agents.values()
            ),
            "no_match_drops": sum(f.no_match_drops for f in net.fibs.values()),
            "stats": sim.scheduler_stats(),
        }

    best = drive()
    for _ in range(repeats - 1):
        again = drive()
        if again["events"] != best["events"]:
            raise RuntimeError("repeat diverged")
        if again["wall"] < best["wall"]:
            best = again
    try:
        import resource

        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except ImportError:  # non-POSIX
        peak_rss_kb = 0
    return {
        "params": {
            "topology": "isp(4,3,1)",
            "nodes": best["nodes"],
            "subscribers": n_subs,
            "leaves": n_leaves,
            "blocks": best["blocks"],
            "packets": packets,
            "repeats": repeats,
        },
        "wall_seconds": best["wall"],
        "sim_events": best["events"],
        "events_per_sec": best["events"] / best["wall"] if best["wall"] else 0.0,
        "scheduler_stats": best["stats"],
        "peak_rss_kb": peak_rss_kb,
        # How much of the storm went through batch slot dispatch (also
        # inside scheduler_stats).
        "batched_events": best["stats"]["batched_events"],
        "batched_slots": best["stats"]["batched_slots"],
        "members_final": best["members"],
        "members_expected": n_subs - n_leaves,
        "block_deliveries": best["deliveries"],
        "deliveries_expected": packets * (n_subs - n_leaves),
        "block_fast_updates": best["fast_updates"],
        "fib_no_match_drops": best["no_match_drops"],
    }


def channel_surf(quick: bool = True, seed: int = 0) -> dict:
    """Massive standing channel state under Zipf channel-surfing.

    The §2.2 TV-distribution shape: thousands of channels each with a
    persistent TCP-mode tail subscriber (standing per-channel state at
    every on-tree router, zero refresh traffic under TREE_ONLY), while
    a handful of UDP-mode "surfer" hosts zap — leave the current
    channel, join a Zipf-popular draw — on a sub-second cadence with
    the soft-state refresh interval cranked down to match. The zapping
    is the work; the standing tail is what a refresh that walked the
    whole table would pay for on every tick, and the ring does not.

    The workload (channel set, tail joins, zap schedule) is seeded via
    ``derive_seed``. Only the zapping window is timed; setup/settle is
    untimed. Reported:

    * ``zap_events_per_sec`` — zap throughput (the CI-gated floor),
    * ``refresh_records_examined`` — records the refresh ticks and
      general-query replies touched inside the window, next to
    * ``refresh_ticks`` (ticks per router in the window) and
      ``standing_records`` (downstream records held by routers when
      the window opens): a full-table refresh examines every record
      twice per tick, so ``2 × refresh_ticks × standing_records`` is
      the host-independent yardstick the smoke test holds the ring's
      examinations under 1 % of.
    """
    n_transit = 3
    stubs = 2
    hosts_per_stub = 2
    n_sources = 3
    channels_per_source = 600 if quick else 2000
    n_surfers = 4 if quick else 8
    refresh_interval = 0.4  # vs the 60 s default: zapping-speed leases
    join_window = 4.0
    churn_duration = 20.0 if quick else 30.0
    zap_spacing = 0.6  # mean seconds between one surfer's zaps

    n_channels = n_sources * channels_per_source
    host_names = sorted(
        f"h{t}_{s}_{k}"
        for t in range(n_transit)
        for s in range(stubs)
        for k in range(hosts_per_stub)
    )
    source_names = [f"h{t}_0_0" for t in range(n_sources)]
    others = [name for name in host_names if name not in source_names]
    surfers = others[:n_surfers]
    tails = others[n_surfers:]

    # Zipf channel popularity (exponent ~1 — channel-surfing audiences
    # concentrate on the head but the tail keeps getting sampled).
    cumulative = list(
        accumulate(1.0 / (rank + 1) ** 1.05 for rank in range(n_channels))
    )
    total_weight = cumulative[-1]

    # The zap schedule: (time, surfer, channel rank). Seeded per
    # surfer via derive_seed so adding a surfer never perturbs another
    # surfer's stream.
    churn_start = join_window + 2.0
    churn_end = churn_start + churn_duration
    zap_plan: list[tuple[float, str, int]] = []
    for surfer in surfers:
        rng = random.Random(derive_seed(seed, "channel_surf", surfer))
        at = churn_start + zap_spacing * rng.random()
        while at < churn_end:
            draw = bisect.bisect_left(cumulative, rng.random() * total_weight)
            zap_plan.append((at, surfer, draw))
            at += zap_spacing * (0.5 + rng.random())
    zap_plan.sort()

    prior_interval = EcmpAgent.UDP_QUERY_INTERVAL
    EcmpAgent.UDP_QUERY_INTERVAL = refresh_interval
    try:
        topo = TopologyBuilder.isp(
            n_transit=n_transit,
            stubs_per_transit=stubs,
            hosts_per_stub=hosts_per_stub,
            seed=seed,
        )
        net = ExpressNetwork(topo, wire_format=True)
        sources = [net.source(name) for name in source_names]
        channels = [
            s.allocate_channel()
            for s in sources
            for _ in range(channels_per_source)
        ]
        # §3.2 per-interface mode selection: each surfer's access link
        # runs ECMP in UDP mode on both ends, so surfer membership is
        # soft state at the edge router — refreshed by general queries,
        # expired on silence.
        for surfer in surfers:
            t, s, _k = surfer[1:].split("_")
            edge = f"e{t}_{s}"
            net.ecmp_agents[surfer].set_neighbor_mode(edge, NeighborMode.UDP)
            net.ecmp_agents[edge].set_neighbor_mode(surfer, NeighborMode.UDP)
        # Standing state: every channel keeps one TCP-mode tail
        # subscriber for the whole run, joins spread across the setup
        # window (untimed).
        for index, channel in enumerate(channels):
            net.sim.schedule_at(
                0.001 + join_window * index / n_channels,
                lambda n=tails[index % len(tails)], c=channel: (
                    net.host(n).subscribe(c)
                ),
                name="bench-tail-join",
            )

        current: dict[str, Optional[object]] = {name: None for name in surfers}

        def zap(surfer: str, channel) -> None:
            previous = current[surfer]
            if previous is not None:
                net.host(surfer).unsubscribe(previous)
            net.host(surfer).subscribe(channel)
            current[surfer] = channel

        for at, surfer, draw in zap_plan:
            net.sim.schedule_at(
                at,
                lambda s=surfer, c=channels[draw]: zap(s, c),
                name="bench-zap",
            )

        net.run(until=churn_start)  # build + settle: untimed
        agents = net.ecmp_agents.values()
        standing_records = sum(
            len(state.downstream)
            for agent in agents
            if agent.role == "router"
            for state in agent.channels.values()
        )
        examined_before = sum(
            a.stats.get("refresh_records_examined") for a in agents
        )
        started = perf_counter()
        net.run(until=churn_end)
        wall = perf_counter() - started
        examined = (
            sum(a.stats.get("refresh_records_examined") for a in agents)
            - examined_before
        )
    finally:
        EcmpAgent.UDP_QUERY_INTERVAL = prior_interval

    zap_events = len(zap_plan)
    return {
        "params": {
            "topology": f"isp({n_transit},{stubs},{hosts_per_stub})",
            "nodes": len(net.topo.nodes),
            "channels": n_channels,
            "surfers": len(surfers),
            "tails": len(tails),
            "zap_events": zap_events,
            "refresh_interval": refresh_interval,
            "churn_duration": churn_duration,
        },
        "wall_seconds": wall,
        "sim_events": net.sim.events_processed,
        "events_per_sec": net.sim.events_processed / wall if wall else 0.0,
        "zap_events": zap_events,
        "zap_events_per_sec": zap_events / wall if wall else 0.0,
        "refresh_records_examined": examined,
        "refresh_ticks": round(churn_duration / refresh_interval),
        "standing_records": standing_records,
        "ecmp_wire": _ecmp_wire_stats(net),
    }


def mega_join_storm_parallel(
    quick: bool = True, seed: int = 0, workers: Optional[int] = None
) -> dict:
    """The block join storm sharded across worker processes.

    The identical declarative workload (a :data:`~repro.netsim.parallel.
    scenario.OPGENS` ``block_storm`` spec) is run twice: once on a
    single-process simulator (the oracle and the baseline the
    speedup is measured against) and once through
    :class:`~repro.netsim.parallel.runner.ParallelRunner` with one
    worker process per partition. The sharded run must
    produce settled ``ChannelState`` tables, block membership, delivery
    counts, and dispatch totals identical to the single-process run
    (:func:`~repro.netsim.parallel.runner.assert_equivalent`; a
    divergence is a hard error, not a metric). ``partition_speedup`` is
    single-process wall over the sharded round-loop wall — partition
    build/spawn is a fixed cost excluded from both sides (scheduling is
    untimed in the single run too).

    The ISP core delay is raised to 40 ms so the conservative-sync
    lookahead (= the smallest cut-link delay) keeps the round count —
    and with it the null-message overhead — proportionate; see
    ``docs/performance.md`` for why cut delay bounds the speedup.

    A second sharded pass runs the identical spec with distributed
    telemetry attached (schema v5): the engine phase profiler, periodic
    registry snapshots merged into one fleet scrape, cross-shard trace
    stitching, and the convergence monitor. That pass reports
    ``phase_breakdown`` (fractions of worker wall time; must sum to
    ~1), ``null_message_ratio``, ``sync_efficiency`` (the productive —
    non-``sync_wait``/``idle`` — fraction CI gates with
    ``--floor-sync-efficiency``), ``settle_seconds``, and the merged
    scrape/trace evidence (``shards_in_scrape``,
    ``cross_shard_traces``). The *plain* pass keeps the speedup
    measurement exactly as before — telemetry is opt-in and charges
    nothing to the gated numbers.

    Schema v7 adds the sync-tax economics: the timed pass runs the
    demand-driven multi-window protocol over the default transport
    (shm ring unless ``REPRO_TRANSPORT``/CI says otherwise — the
    ``transport`` field records which), and an additional *eager*
    lockstep baseline pass (inline — message counts are
    transport-independent, and its wall clock is never used) yields
    ``null_ratio_reduction`` and ``sync_message_reduction``, the
    host-independent ratios CI gates with
    ``--floor-null-ratio-reduction`` / ``--floor-sync-msg-reduction``.
    """
    from repro.netsim.parallel import (
        ParallelRunner,
        ScenarioSpec,
        TelemetryConfig,
        assert_equivalent,
        run_single,
    )

    n_subs = 300_000 if quick else 1_000_000
    n_workers = workers if workers is not None else 4
    packets = 60
    # The paper's regional-audience shape: the channel's subscribers
    # live in two of the four transit domains (the EXPRESS model —
    # unsubscribed regions receive no traffic at all), so after the
    # churn burst converges the other two shards are permanently
    # quiet. Demand-driven sync stops contacting them; the eager
    # baseline heartbeats every shard every round, which is exactly
    # the tax ``sync_message_reduction`` measures.
    edge_routers = tuple(sorted(f"e{t}_{s}" for t in range(2) for s in range(3)))
    spec = ScenarioSpec(
        topology="isp",
        topology_kwargs={
            "n_transit": 4,
            "stubs_per_transit": 3,
            "hosts_per_stub": 1,
            "core_delay": 0.04,
        },
        source="h0_0_0",
        n_channels=1,
        blocks=edge_routers,
        opgen=(
            "block_storm",
            {
                "n_subs": n_subs,
                "n_blocks": len(edge_routers),
                "packets": packets,
                # The paper's single-source regime: compress the
                # subscription churn into a front-loaded burst and
                # stretch the data phase, so most of the run is a
                # steady state where only the shards a packet touches
                # have work. The dense default shape (churn smeared
                # over the whole run) forces every conservative
                # protocol into lockstep — each shard has a pending
                # event inside every lookahead window, so the round
                # count is the CMB optimum and no grant policy can cut
                # it; see docs/performance.md ("the sync tax").
                "join_window": 0.1,
                "leave_window": 0.1,
                "packet_spacing": 0.15,
                "burst": 2,
                "seed": seed,
            },
        ),
        duration=5.6,
        seed=seed,
    )
    single = run_single(spec)
    runner = ParallelRunner(spec, n_workers, mode="mp")
    result = runner.run()
    try:
        assert_equivalent(result.merged, single)
    except AssertionError as exc:
        raise RuntimeError(f"sharded run diverged from single-process: {exc}") from exc
    n_leaves = int(n_subs * 0.125)
    expected_members = n_subs - n_leaves
    members = sum(
        sum(block["counts"].values()) for block in result.merged["blocks"].values()
    )
    deliveries = sum(
        block["deliveries"] for block in result.merged["blocks"].values()
    )
    if members != expected_members:
        raise RuntimeError(f"final membership {members} != {expected_members}")
    if deliveries != packets * members:
        raise RuntimeError(
            f"block deliveries {deliveries} != {packets * members}"
        )
    single_wall = single["wall_seconds"]
    parallel_wall = result.wall_seconds
    events = result.merged["events"]
    sync = result.sync_totals()
    messages = result.message_totals()
    null_ratio = (
        sync["null_messages"] / sync["sync_rounds"] if sync["sync_rounds"] else 0.0
    )

    # Eager lockstep baseline: the pre-demand protocol (every worker,
    # every round, one window, a null message whenever a report carries
    # neither exports nor dispatched work) on the identical spec.
    # Message economics are
    # protocol-deterministic and transport-independent (pinned by the
    # property suite), so the baseline runs inline — no spawn cost, and
    # its wall clock is never used for anything.
    eager = ParallelRunner(
        spec, n_workers, mode="inline", sync_mode="eager"
    ).run()
    try:
        assert_equivalent(eager.merged, single)
    except AssertionError as exc:
        raise RuntimeError(
            f"eager baseline diverged from single-process: {exc}"
        ) from exc
    eager_sync = eager.sync_totals()
    eager_messages = eager.message_totals()
    eager_null_ratio = (
        eager_sync["null_messages"] / eager_sync["sync_rounds"]
        if eager_sync["sync_rounds"]
        else 0.0
    )

    # Post-mortem hook: when REPRO_ROUNDS_DUMP names a file, write the
    # per-round grant ladders and frame counts of both passes as JSON
    # lines. CI sets it and uploads the file when the job fails, so a
    # reduction-floor regression arrives with the protocol transcript
    # that produced it.
    dump_path = os.environ.get("REPRO_ROUNDS_DUMP")
    if dump_path:
        os.makedirs(os.path.dirname(dump_path) or ".", exist_ok=True)
        with open(dump_path, "w", encoding="utf-8") as fh:
            for pass_name, res in (("demand", result), ("eager", eager)):
                for trace in res.round_traces:
                    row = {"pass": pass_name, **trace.as_dict()}
                    fh.write(json.dumps(row) + "\n")

    # Telemetered pass: same spec, same workers, full distributed
    # telemetry. Kept separate from the timed pass above so the
    # partition_speedup gate measures the uninstrumented fast path.
    telemetered = ParallelRunner(
        spec, n_workers, mode="mp",
        telemetry=TelemetryConfig(profile=True, snapshot_every=8),
    ).run()
    phases = telemetered.phase_totals()
    breakdown_sum = sum(phases["phase_breakdown"].values())
    if abs(breakdown_sum - 1.0) > 0.01:
        raise RuntimeError(
            f"phase breakdown sums to {breakdown_sum:.4f}, not ~1.0"
        )
    shard_values: set[str] = set()
    shard_series = 0
    for family in telemetered.telemetry.registry().collect():
        if "shard" not in family.labelnames:
            continue
        at = family.labelnames.index("shard")
        for values, _child in family.children():
            shard_values.add(values[at])
            shard_series += 1
    if len(shard_values) != n_workers:
        raise RuntimeError(
            f"merged scrape covers shards {sorted(shard_values)}, "
            f"expected {n_workers}"
        )
    cross_traces = telemetered.telemetry.tracer().cross_shard_traces()
    if not cross_traces:
        raise RuntimeError("no causal trace crossed a shard boundary")
    telemetry_block = {
        "wall_seconds": telemetered.wall_seconds,
        "overhead_vs_plain": (
            telemetered.wall_seconds / parallel_wall - 1.0 if parallel_wall else 0.0
        ),
        "phase_seconds": phases["phase_seconds"],
        "events_per_second": {
            str(rank): eps for rank, eps in phases["events_per_second"].items()
        },
        "snapshots_ingested": telemetered.telemetry.snapshots_ingested,
        "shard_series": shard_series,
        "shards_in_scrape": sorted(shard_values),
        "cross_shard_traces": len(cross_traces),
        "quiesced_at": telemetered.quiesced_at,
    }
    return {
        "params": {
            "topology": "isp(4,3,1) core_delay=0.04",
            "nodes": sum(len(p) for p in result.plan.parts),
            "subscribers": n_subs,
            "leaves": n_leaves,
            "blocks": len(edge_routers),
            "packets": packets,
            "workers": result.plan.n,
        },
        "partition_plan": result.plan.summary(),
        "wall_seconds": parallel_wall,
        "sim_events": events,
        "events_per_sec": events / parallel_wall if parallel_wall else 0.0,
        "single_process": {
            "wall_seconds": single_wall,
            "sim_events": single["events"],
            "events_per_sec": single["events"] / single_wall if single_wall else 0.0,
        },
        "partition_speedup": single_wall / parallel_wall if parallel_wall else 0.0,
        # Host/harness diagnostics: when "cores_limited" is present the
        # workers time-sliced fewer cores than processes and the
        # speedup measures the host, not the protocol (the quick gate
        # is relaxed accordingly); "setup_dominated" means spawn+build
        # outweighed the round loop — scale the workload up.
        "setup_seconds": result.setup_seconds,
        "cores_available": result.cores_available,
        "warnings": list(result.warnings),
        "transport": result.transport,
        "sync_mode": result.sync_mode,
        "sync_rounds": result.rounds,
        "sync": sync,
        # Host-independent sync-message economics, and how they compare
        # to the eager lockstep baseline (the "sync tax" cut the
        # reduction gates pin; see docs/performance.md).
        "sync_messages_per_event": messages["sync_messages_per_event"],
        "frames_per_round": messages["frames_per_round"],
        "demand_null_ratio": null_ratio,
        "sync_baseline": {
            "sync_mode": "eager",
            "sync_rounds": eager.rounds,
            "sync": eager_sync,
            "null_message_ratio": eager_null_ratio,
            "sync_messages_per_event": eager_messages["sync_messages_per_event"],
            "frames_per_round": eager_messages["frames_per_round"],
        },
        # A demand run with *zero* nulls would divide by zero; clamp
        # its ratio to the resolution of one null per report so the
        # reduction stays finite (and the gate can't fail on perfect).
        "null_ratio_reduction": (
            eager_null_ratio
            / max(null_ratio, 1.0 / max(sync["sync_rounds"], 1))
        ),
        "sync_message_reduction": (
            eager_messages["sync_messages_per_event"]
            / messages["sync_messages_per_event"]
            if messages["sync_messages_per_event"]
            else 0.0
        ),
        "phase_breakdown": phases["phase_breakdown"],
        "null_message_ratio": phases["null_message_ratio"],
        "sync_efficiency": phases["sync_efficiency"],
        "settle_seconds": telemetered.settle_seconds,
        "telemetry": telemetry_block,
        "members_final": members,
        "members_expected": expected_members,
        "block_deliveries": deliveries,
        "deliveries_expected": packets * expected_members,
        "equivalent_to_single_process": True,
    }


def router_crash_storm(quick: bool = True, seed: int = 0) -> dict:
    """Soft-state recovery under a seeded chaos plan (schema v9).

    An ISP network with UDP-mode host edges carries a subscribed
    audience (one channel key-authenticated); once settled, a
    :class:`~repro.faults.plan.FaultPlan` fires transit-router
    crash/restart cycles through the real protocol (links drop,
    :meth:`EcmpAgent.lose_state` wipes the victim, neighbors resync on
    recovery), plus a stub partition/heal, a core latency spike, a
    wire-mutation window duplicating/reordering/dropping frames on a
    UDP edge, a forged-key join flood (§3.3 authentication DoS), and a
    counting-inflation attack. The
    :class:`~repro.faults.monitor.FaultMonitor` scores the run:
    ``convergence_seconds`` (last state write after the last fault),
    ``resync_bytes`` (recovery re-announcement cost), ``blast_radius``
    (fraction of agents churned), and ``orphaned_state`` (must settle
    to zero — the scenario raises on leftovers). The final CountQuery
    must return the honest subscriber count: the inflation attack may
    not survive settlement.
    """
    n_transit = 3 if quick else 5
    stubs = 2 if quick else 3
    hosts_per_stub = 2 if quick else 3
    crashes = 2 if quick else 5
    downtime = 4.0
    spacing = 12.0
    channels_per_source = 2 if quick else 4
    refresh_interval = 1.0

    saved_interval = EcmpAgent.UDP_QUERY_INTERVAL
    EcmpAgent.UDP_QUERY_INTERVAL = refresh_interval
    try:
        obs = Observability()
        topo = TopologyBuilder.isp(
            n_transit=n_transit,
            stubs_per_transit=stubs,
            hosts_per_stub=hosts_per_stub,
            seed=seed,
        )
        obs.bind_simulator(topo.sim)
        net = ExpressNetwork(topo, obs=obs, wire_format=True, edge_udp=True)
        host_names = sorted(net.host_names)
        net.start()
        net.settle(2.0)

        # Two sources in different transit regions; the last host stays
        # unsubscribed and plays the forged-key attacker.
        sources = [net.source(host_names[0]), net.source(host_names[-2])]
        source_names = {s.name for s in sources}
        attacker = host_names[-1]
        channels = [
            s.allocate_channel()
            for s in sources
            for _ in range(channels_per_source)
        ]
        keyed_channel = channels[0]
        key = make_key(keyed_channel)
        sources[0].channel_key(keyed_channel, key)
        subscribers = [
            n for n in host_names if n not in source_names and n != attacker
        ]
        for j, name in enumerate(subscribers):
            for index, channel in enumerate(channels):
                net.sim.schedule(
                    0.05 * ((j * len(channels) + index) % 37),
                    lambda n=name, c=channel: net.host(n).subscribe(
                        c, key=key if c == keyed_channel else None
                    ),
                    name="bench-join",
                )
        net.settle(5.0 + 2 * refresh_interval)

        monitor = FaultMonitor(net)
        monitor.begin()
        storm_start = net.sim.now + 2.0
        # Crash victims exclude t0 so the composed link faults on
        # t0-attached links never race a crash of their own endpoint.
        victims = [f"t{t}" for t in range(1, n_transit)]
        plan = seeded_crash_storm(
            seed, victims, storm_start, crashes, downtime=downtime, spacing=spacing
        )
        mutated_link_host = subscribers[0]
        edge_of = {
            name: topo.node(name).neighbors()[0].name for name in host_names
        }
        plan.partition(storm_start + 5.0, "t0", edge_of[host_names[0]])
        plan.heal(storm_start + 8.0, "t0", edge_of[host_names[0]])
        plan.latency_spike(storm_start + 6.0, "t0", "t1", factor=10.0, duration=5.0)
        plan.wire_mutate(
            storm_start + 3.0,
            edge_of[mutated_link_host],
            mutated_link_host,
            duration=8.0,
            drop=0.05,
            duplicate=0.2,
            reorder=0.2,
        )
        plan.join_flood(
            storm_start + 4.0,
            attacker,
            keyed_channel,
            attempts=150 if quick else 400,
            interval=0.005,
        )
        plan.count_inflate(
            storm_start + 7.0,
            subscribers[1],
            channels[-1],
            count=1_000_000,
            repeats=3,
        )
        injector = FaultInjector(net, plan, monitor=monitor)
        injector.arm()

        storm_end = max(event.at + event.duration for event in plan)
        settle_window = 20.0 + 4 * refresh_interval
        events_before = net.sim.events_processed
        started = perf_counter()
        net.run(until=storm_end + settle_window)
        wall = perf_counter() - started
        sim_events = net.sim.events_processed - events_before
        slo = monitor.report(injector)

        if slo["orphaned_state"]:
            raise RuntimeError(
                f"router_crash_storm left {slo['orphaned_state']} orphaned "
                "state entries after settlement"
            )
        expected = len(subscribers)
        for channel in channels:
            active = net.subscriber_hosts(channel)
            if len(active) != expected:
                raise RuntimeError(
                    f"{channel} lost subscribers across the storm: "
                    f"{len(active)}/{expected} still active"
                )
        # The counting-inflation attack must not survive settlement:
        # the honest refresh overwrote it (untimed verification pass).
        totals: list[int] = []
        sources[-1].count_query(
            channels[-1],
            1,
            timeout=5.0,
            callback=lambda total, partial: totals.append(total),
        )
        net.settle(10.0)
        if not totals or totals[0] != expected:
            raise RuntimeError(
                f"count_query after inflation attack returned {totals}, "
                f"expected [{expected}]"
            )

        return {
            "params": {
                "topology": f"isp({n_transit},{stubs},{hosts_per_stub})",
                "nodes": len(topo.nodes),
                "channels": len(channels),
                "subscribers": expected,
                "crashes": crashes,
                "downtime": downtime,
                "fault_events": len(plan),
                "refresh_interval": refresh_interval,
            },
            "wall_seconds": wall,
            "sim_events": sim_events,
            "events_per_sec": sim_events / wall if wall else 0.0,
            "convergence_seconds": slo["convergence_seconds"],
            "resync_bytes": slo["resync_bytes"],
            "resync_counts": slo["resync_counts"],
            "blast_radius": slo["blast_radius"],
            "orphaned_state": slo["orphaned_state"],
            "faults": slo,
            "ecmp_wire": _ecmp_wire_stats(net),
        }
    finally:
        EcmpAgent.UDP_QUERY_INTERVAL = saved_interval


SCENARIOS = {
    "join_storm": join_storm,
    "link_flap_churn": link_flap_churn,
    "steady_fanout": steady_fanout,
    "mega_join_storm": mega_join_storm,
    "channel_surf": channel_surf,
    "router_crash_storm": router_crash_storm,
    "mega_join_storm_parallel": mega_join_storm_parallel,
}

#: Scenarios that accept the ``workers`` parameter (``--workers N``).
PARALLEL_SCENARIOS = {"mega_join_storm_parallel"}


def run_scenarios(
    quick: bool = True,
    seed: int = 0,
    only: Optional[list[str]] = None,
    workers: Optional[int] = None,
) -> dict[str, dict]:
    """Run the selected scenarios; returns ``{name: metrics}``."""
    names = list(SCENARIOS) if not only else only
    results = {}
    for name in names:
        kwargs = {"quick": quick, "seed": seed}
        if name in PARALLEL_SCENARIOS and workers is not None:
            kwargs["workers"] = workers
        results[name] = SCENARIOS[name](**kwargs)
    return results
