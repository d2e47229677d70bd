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
    """Name-based, on the conventions the registry's families follow."""

    def test_cost_metrics(self):
        assert direction("spf_recompute_seconds.p99") == -1
        assert direction('delivery_latency_seconds{node="h1"}.p50') == -1
        assert direction('parallel_phase_seconds{phase="sync_wait",shard="0"}') == -1
        # A cost despite the rate-like tail.
        assert direction('parallel_null_message_ratio{shard="1"}') == -1

    def test_benefit_metrics(self):
        assert direction('parallel_events_per_second{shard="0"}') == +1
        assert direction("summary.events_per_sec_min") == +1

    def test_neutral(self):
        assert direction("sim_events_total") == 0
        assert direction('link_packets_total{link="a-b"}') == 0


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
    def _dump(self, tmp_path, name, events_per_second):
        """A JSONL metric dump: one gauge, one counter, one histogram."""
        registry = MetricsRegistry()
        registry.gauge("parallel_events_per_second", labelnames=("shard",)).labels(
            shard="0"
        ).set(events_per_second)
        registry.counter("pkts_total", labelnames=("node",)).labels(node="a").inc(3)
        registry.histogram("lat_seconds").observe(0.25)
        path = tmp_path / name
        path.write_text(metrics_to_jsonl(registry))
        return str(path)

    def test_load_jsonl_dump(self, tmp_path):
        flat = load_metrics(self._dump(tmp_path, "scrape.jsonl", 100.0))
        assert flat['parallel_events_per_second{shard="0"}'] == 100.0
        assert flat['pkts_total{node="a"}'] == 3.0
        assert flat["lat_seconds.count"] == 1.0
        assert flat["lat_seconds.p50"] == 0.25

    def test_load_one_json_object(self, tmp_path):
        """A file holding a single JSON object (any report a run wrote)
        is flattened to its numeric leaves; nothing is special-cased."""
        path = tmp_path / "report.json"
        path.write_text(json.dumps({
            "generated_at": "2026-01-01T00:00:00Z",
            "quick": True,
            "workloads": {"w": {"wall_seconds": 1.5, "rounds": 3}},
        }))
        assert load_metrics(str(path)) == {
            "workloads.w.wall_seconds": 1.5,
            "workloads.w.rounds": 3.0,
        }

    def test_cli_exit_codes(self, tmp_path, capsys):
        old = self._dump(tmp_path, "old.jsonl", 100.0)
        new = self._dump(tmp_path, "new.jsonl", 10.0)
        assert main([old, new]) == 0
        assert main([old, new, "--fail-on-regression"]) == 1
        assert main([old, old, "--fail-on-regression"]) == 0
        out = capsys.readouterr().out
        assert "! parallel_events_per_second" in out

    def test_module_dispatch(self, tmp_path, capsys):
        """``python -m repro.obs diff`` routes to the diff CLI."""
        from repro.obs.__main__ import main as obs_main

        old = self._dump(tmp_path, "old.jsonl", 100.0)
        assert obs_main(["diff", old, old]) == 0
        assert "0 regressions" in capsys.readouterr().out
