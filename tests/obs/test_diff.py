"""``python -m repro.obs diff``: flattening, direction, regressions."""

import io
import json
import math

from repro.obs.diff import (
    diff_metrics,
    direction,
    flatten,
    load_metrics,
    main,
    render_diff,
)
from repro.obs.exporters import metrics_to_jsonl
from repro.obs.registry import MetricsRegistry


class TestFlatten:
    def test_nested_numeric_leaves_only(self):
        flat = flatten({
            "summary": {"events_per_sec_min": 100.0, "quick": True},
            "scenarios": {"a": {"wall_seconds": 1.5, "topology": "isp"}},
            "seed": 0,
        })
        assert flat == {
            "summary.events_per_sec_min": 100.0,
            "scenarios.a.wall_seconds": 1.5,
            "seed": 0.0,
        }


class TestDirection:
    def test_cost_metrics(self):
        assert direction("scenarios.a.wall_seconds") == -1
        assert direction("delivery_latency.p99_seconds") == -1
        assert direction("summary.null_message_ratio") == -1
        assert direction("peak_rss_kb") == -1
        # Sync-tax economics (schema v7): per-event frame overhead and
        # the demand run's own null ratio are costs...
        assert direction("summary.sync_messages_per_event") == -1
        assert direction("frames_per_round") == -1
        assert direction("demand_null_ratio") == -1
        # Control-plane refresh economics (schema v8): examined
        # records are overhead outright.
        assert direction("scenarios.channel_surf.refresh_records_examined") == -1
        # Robustness SLOs (schema v9): recovery time, resync traffic,
        # churn spread, and orphaned state are all costs of a fault.
        assert direction("summary.convergence_seconds") == -1
        assert direction("summary.resync_bytes") == -1
        assert direction("scenarios.router_crash_storm.faults.resync_events") == -1
        assert direction("summary.blast_radius") == -1
        assert direction("summary.orphaned_state") == -1

    def test_benefit_metrics(self):
        assert direction("summary.events_per_sec_min") == +1
        assert direction("partition_speedup") == +1
        assert direction("sync_efficiency") == +1
        assert direction("dijkstra_savings_ratio") == +1
        # ...while the reductions over the eager baseline are benefits.
        assert direction("summary.null_ratio_reduction") == +1
        assert direction("summary.sync_message_reduction") == +1
        # Schema v8 channel-surf headline number.
        assert direction("summary.zap_events_per_sec") == +1

    def test_neutral(self):
        assert direction("sim_events") == 0


class TestDiff:
    def test_regressions_sort_first(self):
        rows = diff_metrics(
            {"a_per_sec": 100.0, "b_seconds": 1.0, "c": 7.0},
            {"a_per_sec": 50.0, "b_seconds": 1.01, "c": 9.0},
        )
        assert rows[0]["metric"] == "a_per_sec"
        assert rows[0]["regression"] is True
        by_name = {r["metric"]: r for r in rows}
        # +1% on a cost metric is inside the 5% threshold.
        assert by_name["b_seconds"]["regression"] is False
        # Neutral metrics never regress, whatever the delta.
        assert by_name["c"]["regression"] is False
        assert by_name["c"]["delta"] == 2.0

    def test_new_and_removed_metrics(self):
        rows = diff_metrics({"old_only": 1.0}, {"new_only_per_sec": 5.0})
        by_name = {r["metric"]: r for r in rows}
        assert by_name["new_only_per_sec"]["old"] is None
        assert by_name["new_only_per_sec"]["pct"] == math.inf
        # A metric that only exists on one side cannot regress.
        assert not by_name["new_only_per_sec"]["regression"]
        assert by_name["old_only"]["new"] is None

    def test_render_counts_regressions(self):
        rows = diff_metrics({"x_per_sec": 100.0}, {"x_per_sec": 10.0})
        out = io.StringIO()
        assert render_diff(rows, out) == 1
        text = out.getvalue()
        assert "! x_per_sec" in text
        assert "-90.0%" in text
        assert "1 regression" in text


class TestLoadAndCli:
    def _bench(self, tmp_path, name, eps):
        path = tmp_path / name
        path.write_text(json.dumps({
            "bench": "perf",
            "schema_version": 5,
            "generated_at": "2026-01-01T00:00:00Z",
            "platform": "test",
            "scenarios": {"s": {"events_per_sec": eps}},
            "summary": {"events_per_sec_min": eps},
        }))
        return str(path)

    def test_load_bench_report_drops_metadata(self, tmp_path):
        flat = load_metrics(self._bench(tmp_path, "a.json", 100.0))
        assert flat["scenarios.s.events_per_sec"] == 100.0
        assert not any("generated_at" in k or "platform" in k for k in flat)

    def test_load_jsonl_dump(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("pkts_total", labelnames=("node",)).labels(
            node="a"
        ).inc(3)
        registry.histogram("lat_seconds").observe(0.25)
        path = tmp_path / "scrape.jsonl"
        path.write_text(metrics_to_jsonl(registry))

        flat = load_metrics(str(path))
        assert flat['pkts_total{node="a"}'] == 3.0
        assert flat["lat_seconds.count"] == 1.0
        assert flat["lat_seconds.p50"] == 0.25

    def test_cli_exit_codes(self, tmp_path, capsys):
        old = self._bench(tmp_path, "old.json", 100.0)
        new = self._bench(tmp_path, "new.json", 10.0)
        assert main([old, new]) == 0
        assert main([old, new, "--fail-on-regression"]) == 1
        assert main([old, old, "--fail-on-regression"]) == 0
        out = capsys.readouterr().out
        assert "events_per_sec" in out

    def test_module_dispatch(self, tmp_path, capsys):
        """``python -m repro.obs diff`` routes to the diff CLI."""
        from repro.obs.__main__ import main as obs_main

        old = self._bench(tmp_path, "old.json", 100.0)
        assert obs_main(["diff", old, old]) == 0
        assert "0 regressions" in capsys.readouterr().out
