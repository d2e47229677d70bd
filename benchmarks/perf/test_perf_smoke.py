"""Perf harness smoke benchmark.

Runs ``repro.bench`` in quick mode, writes the report to a temporary
directory (a repo-root ``BENCH_perf.json`` is the CLI's git-ignored
default output, never written by a test), and
asserts the structural claims of the fast-path PRs:

* the churn scenario runs >=5x fewer Dijkstra destination-tree
  computations than the seed's full ``recompute()`` would have
  (``recompute_count x |V|``),
* the churn scenario's batched TCP-mode send path puts >=3x fewer
  control packets on the wire than the unbatched baseline run of the
  identical workload, with live ``ecmp_bytes_on_wire`` accounting,
* the mega join storm (100k aggregated subscribers in quick mode)
  keeps exact membership/delivery arithmetic, and batch dispatch is
  actually engaged: whole pure slots are folded into their groups with
  no per-event materialization,
* the channel-surf scenario's refresh ring examines under 1 % of the
  records a full-table refresh would have walked over the same ticks
  (twice every standing record per tick), and
* every scenario clears a generous events/sec floor (guards against
  catastrophic data-plane regressions without tying CI to hardware).

Run with ``pytest benchmarks/perf`` or via ``python -m repro.bench``.
"""

import json

from repro.bench import SCHEMA_VERSION, build_report, write_report

#: Deliberately generous: CI runners are slow and shared. The real
#: throughput trajectory lives in BENCH_perf.json diffs, not here.
EVENTS_PER_SEC_FLOOR = 500.0
DIJKSTRA_RATIO_FLOOR = 5.0
WIRE_REDUCTION_FLOOR = 3.0
#: The refresh ring's share of what a full-table refresh examines
#: (every standing record, twice per tick); measured 0.04 %.
REFRESH_SCAN_SHARE_CEILING = 0.01


def test_perf_smoke_writes_bench_json(tmp_path):
    report = build_report(quick=True)
    out = tmp_path / "BENCH_perf.json"
    write_report(report, out)

    parsed = json.loads(out.read_text())
    assert parsed["bench"] == "perf"
    assert parsed["schema_version"] == SCHEMA_VERSION
    assert set(parsed["scenarios"]) == {
        "join_storm",
        "link_flap_churn",
        "steady_fanout",
        "mega_join_storm",
        "channel_surf",
        "mega_join_storm_parallel",
        "router_crash_storm",
    }

    for name, metrics in parsed["scenarios"].items():
        assert metrics["events_per_sec"] > EVENTS_PER_SEC_FLOOR, name
        assert metrics["sim_events"] > 0, name

    churn = parsed["scenarios"]["link_flap_churn"]
    assert churn["dijkstra_savings_ratio"] >= DIJKSTRA_RATIO_FLOOR
    assert churn["dijkstra_runs"] < churn["dijkstra_baseline_equivalent"]
    assert churn["spf"]["partial_invalidations"] > 0

    # Batched ECMP wire encoding: the identical workload driven with
    # batching off must cost >=3x more wire packets, and the on-wire
    # accounting must be live end to end (agent stats, link counters,
    # the summary block).
    wire = churn["ecmp_wire"]
    unbatched = churn["ecmp_wire_unbatched"]
    assert churn["wire_message_reduction"] >= WIRE_REDUCTION_FLOOR
    assert unbatched["ecmp_wire_sends"] >= (
        WIRE_REDUCTION_FLOOR * wire["ecmp_wire_sends"]
    )
    assert wire["ecmp_bytes_on_wire"] > 0
    assert wire["ecmp_bytes_on_wire"] < unbatched["ecmp_bytes_on_wire"]
    assert wire["ecmp_msgs_coalesced"] > 0
    assert wire["ecmp_batch_flushes"] > 0
    # Link-level accounting sees the agents' wire traffic (a send can
    # hit a link mid-failure, so links may see slightly fewer packets).
    assert 0 < wire["link_ecmp_wire_packets"] <= wire["ecmp_wire_sends"]
    assert 0 < wire["link_ecmp_wire_bytes"] <= wire["ecmp_bytes_on_wire"]
    # The unbatched baseline never coalesces: one wire send per message.
    assert unbatched["ecmp_msgs_coalesced"] == 0
    assert unbatched["ecmp_wire_sends"] == unbatched["ecmp_msgs_logical"]
    assert parsed["summary"]["ecmp_bytes_on_wire"] == wire["ecmp_bytes_on_wire"]
    assert parsed["summary"]["wire_message_reduction"] == churn[
        "wire_message_reduction"
    ]

    fanout = parsed["scenarios"]["steady_fanout"]
    assert fanout["packets_delivered"] > 0
    # Every interior node of a fanout-2 tree is a branch point: one
    # copy plus one in-place send -> exactly half the transmissions
    # avoid a packet allocation.
    assert fanout["inplace_fraction"] >= 0.5
    assert fanout["fib_cache_hit_fraction"] > 0.5

    # Million-subscriber scale (100k in quick mode) through aggregated
    # edge-subscriber blocks.
    mega = parsed["scenarios"]["mega_join_storm"]
    assert mega["params"]["subscribers"] == 100_000
    # Correctness before speed: the aggregated counting stayed exact.
    assert mega["members_final"] == mega["members_expected"]
    assert mega["block_deliveries"] == mega["deliveries_expected"]
    assert mega["fib_no_match_drops"] == 0
    assert mega["block_fast_updates"] > 0
    assert mega["peak_rss_kb"] > 0
    wheel_stats = mega["scheduler_stats"]
    assert wheel_stats["scheduler"] == "wheel"
    # The run must batch-dispatch whole pure slots, not fall back to
    # per-event materialization.
    assert mega["batched_slots"] > 0
    assert mega["batched_events"] > 0
    # Segmented dispatch counters ride along in scheduler_stats: runs
    # are cut out of slots, and whatever was not batched was peeled.
    assert wheel_stats["batched_runs"] >= wheel_stats["batched_slots"] > 0
    assert wheel_stats["stranger_events"] >= 0
    assert wheel_stats["batched_events"] + wheel_stats["peeled_ops"] == (
        mega["params"]["subscribers"] + mega["params"]["leaves"]
    )
    assert parsed["summary"]["batched_events"] == mega["batched_events"]
    assert parsed["summary"]["mega_events_per_sec"] == mega["events_per_sec"]

    # Control plane under Zipf zapping: the refresh ring must leave
    # the standing records alone. Host-independent: counts, not time.
    surf = parsed["scenarios"]["channel_surf"]
    assert surf["zap_events"] > 0
    assert surf["zap_events_per_sec"] > 0
    assert surf["refresh_ticks"] > 0 and surf["standing_records"] > 0
    assert 0 < surf["refresh_records_examined"] < (
        REFRESH_SCAN_SHARE_CEILING
        * 2
        * surf["refresh_ticks"]
        * surf["standing_records"]
    )
    assert surf["ecmp_wire"]["ecmp_bytes_on_wire"] > 0
    assert parsed["summary"]["zap_events_per_sec"] == surf["zap_events_per_sec"]

    storm = parsed["scenarios"]["join_storm"]
    assert storm["subscribed"] == storm["params"]["subscribers"]
    # The ISP topology mixes branch points (transit fan-out, stubs with
    # two subscribed hosts) with degree-1 chain hops; every fan-out's
    # final interface goes zero-copy, so a solid fraction of all
    # transmissions must avoid an allocation.
    assert storm["inplace_fraction"] > 0.25
    assert storm["delivery_latency"]["count"] > 0
    assert (
        storm["delivery_latency"]["p99_seconds"]
        >= storm["delivery_latency"]["p50_seconds"]
    )

    # Sharded mega storm: correctness is asserted unconditionally (the
    # scenario itself raises if the merged sharded state diverges from
    # the single-process run); the >=1.5x partition-speedup gate lives
    # in CI's parallel-smoke job, not here, because this file also runs
    # on single-core dev boxes where two workers cannot beat one.
    parallel = parsed["scenarios"]["mega_join_storm_parallel"]
    assert parallel["equivalent_to_single_process"] is True
    assert parallel["members_final"] == parallel["members_expected"]
    assert parallel["block_deliveries"] == parallel["deliveries_expected"]
    assert parallel["partition_plan"]["partitions"] == parallel["params"]["workers"]
    assert parallel["partition_plan"]["min_lookahead"] > 0
    assert parallel["sync_rounds"] > 0
    assert parallel["sync"]["proxy_packets"] > 0
    assert parallel["single_process"]["sim_events"] == parallel["sim_events"]
    assert parsed["summary"]["partition_speedup"] == parallel["partition_speedup"]
    assert parsed["summary"]["partition_workers"] == parallel["params"]["workers"]

    # v5 distributed telemetry: the telemetered pass must account for
    # ~all worker wall time, cover every shard in the merged scrape,
    # and stitch at least one trace across a shard boundary (the
    # scenario raises on any of these failing; re-asserted here so the
    # JSON contract is pinned too).
    breakdown = parallel["phase_breakdown"]
    assert set(breakdown) == {
        "dispatch",
        "cascade",
        "alloc",
        "accounting",
        "sync_wait",
        "idle",
    }
    assert abs(sum(breakdown.values()) - 1.0) < 0.01
    # v6 host diagnostics: spawn/warmup cost and core count are surfaced
    # so a sub-1x partition_speedup on a starved host reads as a host
    # limitation (warnings) instead of a silent regression.
    assert parallel["setup_seconds"] >= 0.0
    assert parallel["cores_available"] >= 1
    assert isinstance(parallel["warnings"], list)
    assert parsed["summary"]["parallel_warnings"] == parallel["warnings"]
    assert 0.0 <= parallel["null_message_ratio"]
    assert 0.0 < parallel["sync_efficiency"] <= 1.0
    assert parallel["settle_seconds"] >= 0.0
    telemetry = parallel["telemetry"]
    assert telemetry["shards_in_scrape"] == [
        str(rank) for rank in range(parallel["params"]["workers"])
    ]
    assert telemetry["shard_series"] > 0
    assert telemetry["cross_shard_traces"] >= 1
    assert telemetry["snapshots_ingested"] >= parallel["params"]["workers"]
    assert len(telemetry["events_per_second"]) == parallel["params"]["workers"]
    assert parsed["summary"]["sync_efficiency"] == parallel["sync_efficiency"]
    assert parsed["summary"]["null_message_ratio"] == parallel["null_message_ratio"]
    assert parsed["summary"]["settle_seconds"] == parallel["settle_seconds"]
