"""What one workload process does: set up, open the timed window, run
rounds, check, and report. ``run.py`` starts one fresh interpreter per
job and calls one of the three job functions here; nothing measured
ever shares a process with another measurement, because the program
keeps process-wide tables (``STATE_BANK``, ``ARENA``, channel
interning) that must not leak from one run into the next.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import time
from time import perf_counter

from common import OUT_DIR, chain_digest, supported_percentile
from repro.obs.registry import percentile
from trace import Tracer
from workloads import WORKLOADS

#: One-eighth scale for ``--quick``.
QUICK_SCALE = 0.125


#: A run's timed window is split over this many fresh processes. One
#: process's speed shifts by several percent with where its heap and
#: code happen to land; rounds pooled from several processes see
#: through that.
PARTS = 3
#: Round indices of part j start at j * PART_STRIDE, so the parts run
#: different (all seeded) rounds rather than the same ones three times.
PART_STRIDE = 1000


def _make(workload: str, seed: int, quick: bool):
    wl = WORKLOADS[workload](seed, QUICK_SCALE if quick else 1.0)
    if quick:
        wl.fixed_rounds = 1
        wl.trace_rounds = 1
    return wl


def _setup(wl, spawned_at: float) -> float:
    """Build the workload and settle the collector; returns set-up
    seconds counted from the moment the parent spawned this process, so
    interpreter start and imports are included."""
    wl.setup()
    gc.collect()
    gc.freeze()
    return time.time() - spawned_at


def _digest(rounds) -> str:
    digest = ""
    for r in rounds:
        digest = chain_digest(digest, r.events, r.control_bytes, r.latencies)
    return digest


def run_window(
    workload: str, seed: int, seconds: float, quick: bool, spawned_at: float, part: int
) -> dict:
    """One part of the untraced timed run: set up, run rounds until
    this part's share of the measuring time is used (and at least the
    fixed rounds), then the closing checks."""
    wl = _make(workload, seed, quick)
    setup_s = _setup(wl, spawned_at)
    rounds = []
    opened = perf_counter()
    while len(rounds) < wl.fixed_rounds or perf_counter() - opened < seconds / PARTS:
        rounds.append(wl.round(part * PART_STRIDE + len(rounds)))
    window_s = perf_counter() - opened
    wl.finish()
    wl.close()
    fixed = rounds[: wl.fixed_rounds]
    return {
        "setup_s": setup_s,
        "window_s": window_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "round_ops": [r.ops for r in rounds],
        "round_wall": [r.wall for r in rounds],
        "events": sum(r.events for r in rounds),
        "fixed_ops": sum(r.ops for r in fixed),
        "fixed_control_bytes": sum(r.control_bytes for r in fixed),
        "fixed_latencies": [s for r in fixed for s in r.latencies],
        "digest_warm": _digest([wl.warm]),
        "digest_fixed": _digest(fixed),
        "attempted": wl.attempted,
        "failed": wl.failed,
        "failures": wl.failures,
        "op": wl.op,
        "latency": wl.latency,
    }


def merge_window(parts: list[dict]) -> dict:
    """Fold the parts of one untraced run into its end-to-end metrics."""
    latencies = [s for p in parts for s in p["fixed_latencies"]]
    if not latencies:
        raise SystemExit("no latency samples in the fixed rounds")
    rates = [ops / wall for p in parts for ops, wall in zip(p["round_ops"], p["round_wall"])]
    failures = [f for p in parts for f in p["failures"]]
    failed = sum(p["failed"] for p in parts)
    if len({p["digest_warm"] for p in parts}) != 1:
        failed += 1
        failures.append("warm-up round sim_digest differs between processes")
    digest = hashlib.sha256("".join(p["digest_fixed"] for p in parts).encode())
    return {
        "metrics": {
            "setup_s": statistics.median(p["setup_s"] for p in parts),
            "ops_per_s": statistics.median(rates),
            "user_latency_sim_ms_p50": 1e3 * percentile(latencies, 50),
            "control_bytes_per_op": (
                sum(p["fixed_control_bytes"] for p in parts)
                / sum(p["fixed_ops"] for p in parts)
            ),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
        },
        "attempted": sum(p["attempted"] for p in parts) + 1,
        "failed": failed,
        "failures": failures,
        "sim_digest": digest.hexdigest(),
        "detail": {
            "op": parts[0]["op"],
            "latency": parts[0]["latency"],
            "parts": len(parts),
            "rounds": len(rates),
            "window_s": sum(p["window_s"] for p in parts),
            "timed_s": sum(w for p in parts for w in p["round_wall"]),
            "ops": sum(o for p in parts for o in p["round_ops"]),
            "events": sum(p["events"] for p in parts),
            "round_ops_per_s": rates,
            "setup_s_samples": [p["setup_s"] for p in parts],
            "latency_samples": len(latencies),
            "latency_supported_percentile": supported_percentile(len(latencies)),
            "user_latency_sim_ms_mean": 1e3 * statistics.fmean(latencies),
            "user_latency_sim_ms_p95": 1e3 * percentile(latencies, 95),
        },
    }


# -- the traced run -----------------------------------------------------------


def _counters(wl) -> dict:
    """Every counter the program exposes that a layer metric reads."""
    net = wl.net
    out = dict(net.control_stats_total())
    scheduler = net.sim.scheduler_stats()
    arena = scheduler.get("arena", {})
    out.update(
        events=net.sim.events_processed,
        batched_events=scheduler["batched_events"],
        wheel_inserts=scheduler["wheel_inserts"],
        overflow_inserts=scheduler["overflow_inserts"],
        arena_acquired=arena.get("acquired", 0),
    )
    for key, value in net.routing.spf_counters().items():
        out["spf." + key] = value
    forwarded = inplace = lookups = hits = accepts = denies = fast = 0
    for forwarder in net.forwarders.values():
        forwarded += forwarder.stats.get("multicast_forwarded")
        inplace += forwarder.stats.get("fanout_inplace")
    for fib in net.fibs.values():
        lookups += fib.lookups
        hits += fib.lookup_cache_hits
    for agent in net.ecmp_agents.values():
        accepts += agent.keys.local_accepts
        denies += agent.keys.local_denies
        fast += agent.block_fast_updates
    out.update(
        multicast_forwarded=forwarded, fanout_inplace=inplace,
        fib_lookups=lookups, fib_cache_hits=hits,
        key_validations=accepts + denies, block_fast_updates=fast,
    )
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pass(wl, first: int) -> tuple[float, int, dict]:
    """Run ``trace_rounds`` rounds from index ``first``; returns the
    pass's wall seconds, ops and counter deltas."""
    before = _counters(wl)
    ops = 0
    started = perf_counter()
    for k in range(first, first + wl.trace_rounds):
        ops += wl.round(k).ops
    wall = perf_counter() - started
    after = _counters(wl)
    delta = {key: after[key] - before.get(key, 0) for key in after}
    return wall, ops, delta


def run_traced(workload: str, seed: int, quick: bool, spawned_at: float) -> dict:
    """Same seed, same inputs, never used for end-to-end numbers: an
    untraced pass for the counter metrics and the reference cost, then
    the same number of rounds with the tracer installed."""
    wl = _make(workload, seed, quick)
    _setup(wl, spawned_at)
    plain_wall, plain_ops, plain = _pass(wl, 0)
    plain_latencies = list(wl.latencies)

    tracer = Tracer(event_spans=wl.event_spans)
    tracer.install(wl.sim)
    wl.tracer = tracer
    try:
        traced_wall, traced_ops, _ = _pass(wl, wl.trace_rounds)
    finally:
        tracer.uninstall()
    wl.finish()
    wl.close()

    part = tracer.partition(traced_wall)
    shares = part["shares"]
    self_s, count = tracer.self_seconds, tracer.count
    inserts = plain["wheel_inserts"] + plain["overflow_inserts"]
    metrics = {
        "netsim.engine.events": plain["events"],
        "netsim.engine.us_per_event": 1e6 * _ratio(plain_wall, plain["events"]),
        "netsim.engine.advance_share": _ratio(self_s("engine.run"), traced_wall),
        "netsim.engine.batched_event_share": _ratio(plain["batched_events"], plain["events"]),
        "netsim.engine.wheel_insert_share": _ratio(plain["wheel_inserts"], inserts),
        "netsim.arena.recycle_ratio": _ratio(plain["arena_acquired"], inserts),
        "netsim.link.deliver_self_s": self_s(
            "event:deliver:data", "event:deliver:ecmp", "event:deliver:ipip", "link.transmit"
        ),
        "netsim.link.packets": count("link.transmit"),
        "core.forwarding.self_s": self_s("forwarding.rx", "forwarding.emit"),
        "core.forwarding.packets": count("forwarding.rx", "forwarding.emit"),
        "core.forwarding.inplace_ratio": _ratio(
            plain["fanout_inplace"], plain["multicast_forwarded"]
        ),
        "routing.fib.lookup_s": self_s("fib.lookup"),
        "routing.fib.lookups": plain["fib_lookups"],
        "routing.fib.cache_hit_ratio": _ratio(plain["fib_cache_hits"], plain["fib_lookups"]),
        "core.ecmp.protocol.self_s": tracer.layer_seconds()["core.ecmp.protocol"],
        "core.ecmp.protocol.msgs_rx": (
            plain.get("counts_rx", 0) + plain.get("queries_rx", 0) + plain.get("responses_rx", 0)
        ),
        "core.ecmp.protocol.rehome_s": self_s("protocol.rehome", "protocol.link_change"),
        "core.ecmp.protocol.batch_flushes": plain.get("batch_flushes", 0),
        # Logical messages per wire frame, last-writer-wins overwrites
        # included: what batching saved, not only what a frame carries.
        "core.ecmp.messages.records_per_frame": _ratio(
            plain.get("msgs_tx", 0), plain.get("wire_sends", 0)
        ),
        "core.ecmp.messages.encode_s": self_s("messages.encode"),
        "core.ecmp.messages.decode_s": self_s("messages.decode"),
        "core.ecmp.messages.frames": plain.get("wire_sends", 0),
        "core.ecmp.messages.bytes": plain.get("bytes_on_wire", 0),
        "core.ecmp.state.row_allocs": count("state.alloc"),
        "core.ecmp.state.live_rows_peak": wl.state_rows_peak,
        "core.ecmp.refresh.tick_s": self_s("event:ecmp-udpq"),
        "core.ecmp.refresh.records_examined": plain.get("refresh_records_examined", 0),
        "core.keys.validate_s": self_s("keys.validate"),
        "core.keys.validations": plain["key_validations"],
        "core.keys.denials": plain.get("denied_subscriptions", 0),
        "core.counting.queries_forwarded": plain.get("tx_countquery", 0),
        "core.counting.timeouts_fired": plain.get("query_timeouts", 0),
        "routing.unicast.recompute_s": self_s("unicast.recompute"),
        "routing.unicast.query_s": self_s("unicast.query"),
        "routing.unicast.spf_runs": plain["spf.spf_runs"],
        "routing.unicast.trees_retained_ratio": _ratio(
            plain["spf.trees_retained"],
            plain["spf.trees_retained"] + plain["spf.trees_invalidated"],
        ),
        "faults.resync_bytes": plain.get("resync_bytes", 0),
        "faults.blast_radius": wl.slo.get("blast_radius", 0.0),
        "faults.orphaned_state": wl.slo.get("orphaned_state", 0),
        "core.blocks.fast_update_share": _ratio(plain["block_fast_updates"], plain["events"]),
        "core.accounting.flush_s": self_s("accounting.flush"),
        "workload.driver_self_s": tracer.layer_seconds()["workload.driver"],
        "workload.user_latency_sim_ms_p95": 1e3 * percentile(plain_latencies, 95),
        "trace.window_s": traced_wall,
        "trace.overhead_ratio": _ratio(
            _ratio(traced_wall, traced_ops), _ratio(plain_wall, plain_ops)
        ),
        "trace.unattributed_share": shares["unattributed"],
    }
    path = OUT_DIR / f"trace-{workload}.json"
    tracer.write(
        path,
        {"workload": workload, "seed": seed, "quick": quick, "rounds": wl.trace_rounds},
        traced_wall,
    )
    return {
        "metrics": metrics,
        "shares": shares,
        "share_sum": part["sum"],
        "unknown_spans": part["unknown_spans"],
        "attempted": wl.attempted,
        "failed": wl.failed,
        "failures": wl.failures,
        "trace_file": str(path.relative_to(OUT_DIR.parents[2])),
    }
