"""Machine-readable performance harness (``python -m repro.bench``).

Runs the parameterized scenarios in :mod:`repro.bench.scenarios` and
writes ``BENCH_perf.json`` — the perf trajectory file future PRs diff
against (and that CI's ``perf-smoke`` job gates on). The JSON schema is
documented in ``docs/performance.md``.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path
from typing import Optional

from repro.bench.scenarios import SCENARIOS, run_scenarios

#: Bump when the JSON layout changes incompatibly.
#: v2: per-scenario ``ecmp_wire`` blocks (on-wire byte/message
#: accounting), the churn scenario's unbatched baseline +
#: ``wire_message_reduction``, and matching summary fields.
#: v3: the ``mega_join_storm`` scenario (per-scheduler ``schedulers``
#: blocks, ``wheel_speedup``, ``peak_rss_kb``, timer-wheel stats) and
#: matching summary fields.
#: v4: the ``mega_join_storm_parallel`` scenario (sharded run vs.
#: single-process wheel: ``partition_speedup``, ``partition_plan``,
#: ``sync`` null-message/LBTS/proxy totals, ``single_process`` block)
#: and the ``partition_speedup`` / ``partition_workers`` summary
#: fields.
#: v5: distributed telemetry on the parallel scenario — per-shard
#: ``phase_breakdown`` / ``null_message_ratio`` / ``sync_efficiency``
#: / ``settle_seconds`` plus a ``telemetry`` block (merged-scrape and
#: cross-shard-trace evidence) — and the matching summary fields and
#: ``--floor-sync-efficiency`` gate.
#: v6: the native event core — ``mega_join_storm`` gains
#: ``native_core`` / ``batched_events`` / ``batched_slots`` / ``arena``
#: blocks, the parallel scenario gains ``setup_seconds`` /
#: ``cores_available`` / ``warnings`` host diagnostics, phase
#: breakdowns grow ``alloc`` and ``accounting`` phases, and the
#: ``--floor-mega-events-per-sec`` gate pins the mega storm's absolute
#: throughput (the ``partition_speedup`` gate is skipped with a
#: warning when the host cannot run the workers in parallel —
#: ``cores_limited``).
#: v7: the sync-tax cut — the parallel scenario's timed pass runs the
#: demand-driven multi-window protocol over the shared-memory ring
#: transport (``transport`` / ``sync_mode`` fields record the
#: configuration) and gains ``sync_messages_per_event`` /
#: ``frames_per_round`` / ``demand_null_ratio``, an eager lockstep
#: ``sync_baseline`` block, and the host-independent
#: ``null_ratio_reduction`` / ``sync_message_reduction`` ratios gated
#: by ``--floor-null-ratio-reduction`` / ``--floor-sync-msg-reduction``;
#: sync totals grow ``windows`` / ``frames_sent`` / ``frames_received``.
#: v8: the control-plane fast path — the ``channel_surf`` scenario
#: (Zipf channel-surfing over thousands of standing channels, driven
#: on the columnar/zero-copy/refresh-ring control plane and on the
#: legacy dict/scan/concatenating baseline) with ``zap_events_per_sec``
#: / ``state_churn_speedup`` / ``refresh_scan_fraction`` and a
#: ``baseline`` block, the matching summary fields, and the
#: ``--floor-zap-events-per-sec`` / ``--floor-state-churn-speedup``
#: gates.
#: v9: fault injection & adversarial robustness — the
#: ``router_crash_storm`` scenario (a seeded ``repro.faults`` chaos
#: plan: transit-router crash/restart cycles, partition/heal, latency
#: spike, wire mutation, forged-key join flood, counting inflation)
#: with the ``FaultMonitor`` SLOs ``convergence_seconds`` /
#: ``resync_bytes`` / ``blast_radius`` / ``orphaned_state`` (all
#: lower-is-better), matching summary fields, and the first *ceiling*
#: gates ``--floor-convergence-seconds`` / ``--floor-blast-radius``
#: (:data:`CEILING_GATES`: the run fails when the measured value
#: exceeds the threshold).
#: v10: one control plane — ``channel_surf`` is a single pass (the
#: legacy baseline pass is gone with the code it ran): drops
#: ``state_churn_speedup`` / ``refresh_scan_fraction`` / ``baseline``
#: / ``states_equivalent``, their summary fields and the
#: ``--floor-state-churn-speedup`` gate; adds ``refresh_ticks`` and
#: ``standing_records`` beside ``refresh_records_examined``.
#: v11: one event core — ``mega_join_storm`` is a single pass (the
#: heap pass is gone with the shipped heap): drops ``wheel_speedup`` /
#: ``schedulers`` / ``dispatch_events_match`` / ``native_core`` /
#: ``arena``, their summary fields and the ``--floor-wheel-speedup``
#: gate; the run's ``scheduler_stats`` moves to the scenario's top
#: level.
SCHEMA_VERSION = 11


def build_report(
    quick: bool = True,
    seed: int = 0,
    only: Optional[list[str]] = None,
    workers: Optional[int] = None,
) -> dict:
    """Run scenarios and assemble the full ``BENCH_perf.json`` payload."""
    started = time.time()
    scenarios = run_scenarios(quick=quick, seed=seed, only=only, workers=workers)
    throughputs = [
        s["events_per_sec"] for s in scenarios.values() if "events_per_sec" in s
    ]
    latencies = [
        s["delivery_latency"]["p99_seconds"]
        for s in scenarios.values()
        if s.get("delivery_latency", {}).get("count")
    ]
    churn = scenarios.get("link_flap_churn", {})
    mega = scenarios.get("mega_join_storm", {})
    surf = scenarios.get("channel_surf", {})
    storm = scenarios.get("router_crash_storm", {})
    parallel = scenarios.get("mega_join_storm_parallel", {})
    return {
        "bench": "perf",
        "schema_version": SCHEMA_VERSION,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
        "quick": quick,
        "seed": seed,
        "python_version": platform.python_version(),
        "platform": platform.platform(),
        "wall_seconds_total": time.time() - started,
        "scenarios": scenarios,
        "summary": {
            "events_per_sec_min": min(throughputs) if throughputs else 0.0,
            "events_per_sec_max": max(throughputs) if throughputs else 0.0,
            "dijkstra_savings_ratio": churn.get("dijkstra_savings_ratio", 0.0),
            "delivery_p99_max_seconds": max(latencies) if latencies else 0.0,
            "ecmp_bytes_on_wire": churn.get("ecmp_wire", {}).get(
                "ecmp_bytes_on_wire", 0
            ),
            "wire_message_reduction": churn.get("wire_message_reduction", 0.0),
            "mega_events_per_sec": mega.get("events_per_sec", 0.0),
            "batched_events": mega.get("batched_events", 0),
            "peak_rss_kb": mega.get("peak_rss_kb", 0),
            "zap_events_per_sec": surf.get("zap_events_per_sec", 0.0),
            # v9 robustness SLOs: None (not 0.0) when the storm scenario
            # did not run, so a requested ceiling gate fails loudly
            # instead of passing on a vacuous zero.
            "convergence_seconds": storm.get("convergence_seconds"),
            "resync_bytes": storm.get("resync_bytes"),
            "blast_radius": storm.get("blast_radius"),
            "orphaned_state": storm.get("orphaned_state"),
            "partition_speedup": parallel.get("partition_speedup", 0.0),
            "partition_workers": parallel.get("params", {}).get("workers", 0),
            "parallel_warnings": parallel.get("warnings", []),
            "sync_efficiency": parallel.get("sync_efficiency", 0.0),
            "null_message_ratio": parallel.get("null_message_ratio", 0.0),
            "settle_seconds": parallel.get("settle_seconds", 0.0),
            "transport": parallel.get("transport", ""),
            "sync_mode": parallel.get("sync_mode", ""),
            "sync_messages_per_event": parallel.get(
                "sync_messages_per_event", 0.0
            ),
            "frames_per_round": parallel.get("frames_per_round", 0.0),
            "null_ratio_reduction": parallel.get("null_ratio_reduction", 0.0),
            "sync_message_reduction": parallel.get(
                "sync_message_reduction", 0.0
            ),
        },
    }


#: Floor gates: CLI flag suffix -> (summary key, human label, format).
#: Every gate reads one ``summary`` field and fails the run (nonzero
#: exit) when the measured value is below the floor. Keeping the table
#: declarative pins the exit-code contract with a unit test per gate.
FLOOR_GATES = {
    "events_per_sec": (
        "events_per_sec_min",
        "events/sec floor",
        "{:,.0f}",
    ),
    "dijkstra_ratio": (
        "dijkstra_savings_ratio",
        "Dijkstra savings ratio floor",
        "{:.2f}",
    ),
    "bytes_on_wire": (
        "ecmp_bytes_on_wire",
        "ecmp_bytes_on_wire floor",
        "{:,.0f}",
    ),
    "wire_reduction": (
        "wire_message_reduction",
        "wire message reduction floor",
        "{:.2f}",
    ),
    "mega_events_per_sec": (
        "mega_events_per_sec",
        "mega storm events/sec floor",
        "{:,.0f}",
    ),
    "zap_events_per_sec": (
        "zap_events_per_sec",
        "channel-surf zap events/sec floor",
        "{:,.0f}",
    ),
    "partition_speedup": (
        "partition_speedup",
        "partition speedup floor",
        "{:.2f}",
    ),
    "sync_efficiency": (
        "sync_efficiency",
        "sync efficiency floor",
        "{:.2f}",
    ),
    "null_ratio_reduction": (
        "null_ratio_reduction",
        "null-message ratio reduction floor",
        "{:.2f}",
    ),
    "sync_msg_reduction": (
        "sync_message_reduction",
        "sync messages/event reduction floor",
        "{:.2f}",
    ),
}

#: Ceiling gates (schema v9): same table shape as :data:`FLOOR_GATES`,
#: but the run fails when the measured value *exceeds* the threshold —
#: these are robustness SLOs from the crash-storm scenario where lower
#: is better. A missing/None summary value (the scenario did not run)
#: fails loudly: a vacuous 0.0 must never pass a requested ceiling.
CEILING_GATES = {
    "convergence_seconds": (
        "convergence_seconds",
        "convergence seconds ceiling",
        "{:.2f}",
    ),
    "blast_radius": (
        "blast_radius",
        "blast radius ceiling",
        "{:.2f}",
    ),
}


def check_floors(report: dict, floors: dict[str, Optional[float]]) -> list[str]:
    """Evaluate floor gates against a report's summary.

    ``floors`` maps :data:`FLOOR_GATES` or :data:`CEILING_GATES` keys
    to thresholds (``None`` entries are skipped). Returns the list of
    failure messages — empty means every requested gate passed. A floor
    whose summary field is missing or zero (its scenario did not run)
    fails rather than silently passing: a gate the CI asked for must
    measure something. Ceiling gates fail when the value is missing
    (``None``) or above the threshold.

    Exception: the ``partition_speedup`` gate is skipped (with a
    ``SKIP:`` notice on stderr) when the parallel scenario reported
    ``cores_limited`` — the workers time-sliced fewer CPU cores than
    processes, so the measured ratio reflects the host, not the sync
    protocol. The equivalence checks inside the scenario still ran, so
    correctness is unaffected; only the throughput claim is
    unmeasurable there.
    """
    failures = []
    parallel_warnings = report["summary"].get("parallel_warnings", [])
    for gate, floor in floors.items():
        if floor is None:
            continue
        if gate == "partition_speedup" and "cores_limited" in parallel_warnings:
            print(
                "SKIP: partition speedup floor — host has "
                "fewer cores than worker processes (cores_limited)",
                file=sys.stderr,
            )
            continue
        if gate in CEILING_GATES:
            key, label, fmt = CEILING_GATES[gate]
            value = report["summary"].get(key)
            if value is None:
                failures.append(
                    f"FAIL: {label} {fmt.format(floor)} has no measurement "
                    "(crash-storm scenario did not run)"
                )
            elif value > floor:
                failures.append(
                    f"FAIL: {label} {fmt.format(floor)} exceeded "
                    f"(got {fmt.format(value)})"
                )
            continue
        key, label, fmt = FLOOR_GATES[gate]
        value = report["summary"].get(key) or 0.0
        if value < floor:
            failures.append(
                f"FAIL: {label} {fmt.format(floor)} not met "
                f"(got {fmt.format(value)})"
            )
    return failures


def write_report(report: dict, output: Path) -> None:
    output.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")


def main(argv: Optional[list[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the perf scenarios and write BENCH_perf.json.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small topologies / short runs (CI smoke mode)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_perf.json"),
        help="output path (default: ./BENCH_perf.json)",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        choices=sorted(SCENARIOS),
        help="run only this scenario (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker-process count for the parallel scenario "
        "(default: 2 quick / 4 full)",
    )
    parser.add_argument(
        "--floor-events-per-sec",
        type=float,
        default=None,
        help="exit non-zero if any scenario's events/sec falls below this",
    )
    parser.add_argument(
        "--floor-dijkstra-ratio",
        type=float,
        default=None,
        help="exit non-zero if the churn scenario's Dijkstra savings "
        "ratio falls below this",
    )
    parser.add_argument(
        "--floor-bytes-on-wire",
        type=float,
        default=None,
        help="exit non-zero if the churn scenario's ecmp_bytes_on_wire "
        "falls below this (proves wire accounting is live)",
    )
    parser.add_argument(
        "--floor-wire-reduction",
        type=float,
        default=None,
        help="exit non-zero if the churn scenario's batched-vs-unbatched "
        "wire message reduction falls below this",
    )
    parser.add_argument(
        "--floor-mega-events-per-sec",
        type=float,
        default=None,
        help="exit non-zero if the mega storm's absolute events/sec "
        "falls below this (pins the event core's bulk throughput)",
    )
    parser.add_argument(
        "--floor-zap-events-per-sec",
        type=float,
        default=None,
        help="exit non-zero if the channel-surf scenario's zap "
        "throughput falls below this",
    )
    parser.add_argument(
        "--floor-partition-speedup",
        type=float,
        default=None,
        help="exit non-zero if the parallel scenario's sharded-vs-"
        "single-process throughput ratio falls below this",
    )
    parser.add_argument(
        "--floor-sync-efficiency",
        type=float,
        default=None,
        help="exit non-zero if the telemetered parallel run's "
        "productive (non-sync_wait/idle) fraction of worker wall time falls below this",
    )
    parser.add_argument(
        "--floor-null-ratio-reduction",
        type=float,
        default=None,
        help="exit non-zero if demand-driven sync does not cut the "
        "null-message ratio by at least this factor vs the eager "
        "lockstep baseline (host-independent message counts)",
    )
    parser.add_argument(
        "--floor-sync-msg-reduction",
        type=float,
        default=None,
        help="exit non-zero if demand-driven sync does not cut sync "
        "messages per merged event by at least this factor vs the "
        "eager lockstep baseline (host-independent message counts)",
    )
    parser.add_argument(
        "--floor-convergence-seconds",
        type=float,
        default=None,
        help="exit non-zero if the crash storm's post-fault convergence "
        "time exceeds this many sim-seconds (ceiling: lower is better)",
    )
    parser.add_argument(
        "--floor-blast-radius",
        type=float,
        default=None,
        help="exit non-zero if the crash storm churns more than this "
        "fraction of agents (ceiling: lower is better)",
    )
    args = parser.parse_args(argv)

    report = build_report(
        quick=args.quick, seed=args.seed, only=args.scenario, workers=args.workers
    )
    write_report(report, args.output)

    print(f"perf bench ({'quick' if args.quick else 'full'} mode) -> {args.output}")
    for name, metrics in report["scenarios"].items():
        line = (
            f"  {name:18s} {metrics['events_per_sec']:12,.0f} events/s"
            f"  ({metrics['sim_events']:,} events, "
            f"{metrics['wall_seconds']:.2f}s wall)"
        )
        if "dijkstra_savings_ratio" in metrics:
            line += f"  dijkstra saving {metrics['dijkstra_savings_ratio']:.1f}x"
        if "wire_message_reduction" in metrics:
            line += f"  wire msgs {metrics['wire_message_reduction']:.1f}x fewer"
        if metrics.get("batched_events"):
            line += f"  batched {metrics['batched_events']:,}"
        if "zap_events_per_sec" in metrics:
            line += (
                f"  {metrics['zap_events_per_sec']:,.0f} zaps/s"
                f"  refresh examined {metrics['refresh_records_examined']:,}"
            )
        if "partition_speedup" in metrics:
            line += (
                f"  {metrics['params']['workers']} workers "
                f"{metrics['partition_speedup']:.2f}x single"
            )
        if "sync_efficiency" in metrics:
            line += (
                f"  sync eff {metrics['sync_efficiency']:.0%}"
                f"  settle {metrics['settle_seconds']:.2f}s"
            )
        if "sync_message_reduction" in metrics:
            line += (
                f"  [{metrics['transport']}/{metrics['sync_mode']}]"
                f"  nulls {metrics['null_ratio_reduction']:.1f}x fewer"
                f"  sync msgs {metrics['sync_message_reduction']:.1f}x fewer"
            )
        if "blast_radius" in metrics:
            line += (
                f"  conv {metrics['convergence_seconds']:.2f}s"
                f"  resync {metrics['resync_bytes']:,}B"
                f"  blast {metrics['blast_radius']:.0%}"
                f"  faults {metrics['faults']['faults_fired']}"
            )
        latency = metrics.get("delivery_latency", {})
        if latency.get("count"):
            line += (
                f"  p50 {latency['p50_seconds'] * 1e3:.2f}ms"
                f" p99 {latency['p99_seconds'] * 1e3:.2f}ms"
            )
        if metrics.get("warnings"):
            line += f"  [{', '.join(metrics['warnings'])}]"
        print(line)

    failures = check_floors(
        report,
        {
            "events_per_sec": args.floor_events_per_sec,
            "dijkstra_ratio": args.floor_dijkstra_ratio,
            "bytes_on_wire": args.floor_bytes_on_wire,
            "wire_reduction": args.floor_wire_reduction,
            "mega_events_per_sec": args.floor_mega_events_per_sec,
            "zap_events_per_sec": args.floor_zap_events_per_sec,
            "partition_speedup": args.floor_partition_speedup,
            "sync_efficiency": args.floor_sync_efficiency,
            "null_ratio_reduction": args.floor_null_ratio_reduction,
            "sync_msg_reduction": args.floor_sync_msg_reduction,
            "convergence_seconds": args.floor_convergence_seconds,
            "blast_radius": args.floor_blast_radius,
        },
    )
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0
