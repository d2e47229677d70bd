"""Unit tests for the Prometheus and JSON-lines exporters."""

import json
import threading

from repro.obs.exporters import events_to_jsonl, prometheus_text
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import Tracer


def small_registry():
    registry = MetricsRegistry()
    counter = registry.counter("msgs_total", "messages", ("node", "type"))
    counter.labels(node="r1", type="Count").inc(3)
    counter.labels(node="r2", type="CountQuery").inc()
    gauge = registry.gauge("depth", "queue depth")
    gauge.set(17)
    hist = registry.histogram("lat_seconds", "latency", buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 2.0):
        hist.observe(value)
    return registry


class TestPrometheusText:
    def test_help_and_type_headers(self):
        text = prometheus_text(small_registry())
        assert "# HELP msgs_total messages" in text
        assert "# TYPE msgs_total counter" in text
        assert "# TYPE depth gauge" in text
        assert "# TYPE lat_seconds histogram" in text

    def test_counter_and_gauge_lines(self):
        text = prometheus_text(small_registry())
        assert 'msgs_total{node="r1",type="Count"} 3' in text
        assert 'msgs_total{node="r2",type="CountQuery"} 1' in text
        assert "depth 17" in text

    def test_histogram_series(self):
        text = prometheus_text(small_registry())
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3' in text
        assert "lat_seconds_sum 2.55" in text
        assert "lat_seconds_count 3" in text

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("c", "", ("ch",)).labels(ch='a"b\\c\nd').inc()
        text = prometheus_text(registry)
        assert 'c{ch="a\\"b\\\\c\\nd"} 1' in text

    def test_ends_with_newline(self):
        assert prometheus_text(small_registry()).endswith("\n")


def jsonl_records(registry, tracer):
    return [json.loads(line) for line in events_to_jsonl(registry, tracer).splitlines()]


class TestJsonl:
    def test_metrics_records_parse(self):
        records = jsonl_records(small_registry(), Tracer())
        assert all(record["kind"] == "metric" for record in records)
        by_name = {}
        for record in records:
            by_name.setdefault(record["name"], []).append(record)
        assert by_name["msgs_total"][0]["labels"] == {"node": "r1", "type": "Count"}
        assert by_name["msgs_total"][0]["value"] == 3
        hist = by_name["lat_seconds"][0]
        assert hist["count"] == 3
        assert hist["p50"] == 0.5

    def test_a_histogram_record_is_the_snapshot_summary(self):
        registry = small_registry()
        (hist,) = [r for r in jsonl_records(registry, Tracer()) if r["name"] == "lat_seconds"]
        summary = registry.snapshot()["lat_seconds"]["series"][""]
        assert {key: hist[key] for key in summary} == summary

    def test_a_labelled_histogram_record_carries_labels_and_summary(self):
        registry = MetricsRegistry()
        hist = registry.histogram("hop_seconds", "", ("node",), buckets=(1.0,))
        hist.labels(node="r1").observe(0.5)
        hist.labels(node="r2").observe(2.0)
        records = jsonl_records(registry, Tracer())
        assert [(r["labels"], r["count"], r["sum"]) for r in records] == [
            ({"node": "r1"}, 1, 0.5),
            ({"node": "r2"}, 1, 2.0),
        ]
        assert all(r["type"] == "histogram" for r in records)

    def test_spans_records_parse(self):
        tracer = Tracer()
        with tracer.span("root", node="s", channel="(S,E)") as root:
            tracer.add_event(root, "reply", count=2)
            with tracer.span("child", node="h"):
                pass
        records = jsonl_records(MetricsRegistry(), tracer)
        assert len(records) == 2
        assert records[0]["name"] == "root"
        assert records[0]["parent_id"] is None
        assert records[1]["parent_id"] == records[0]["span_id"]
        assert records[0]["events"][0]["name"] == "reply"
        assert records[0]["attrs"]["channel"] == "(S,E)"

    def test_events_to_jsonl_puts_metrics_before_spans(self):
        tracer = Tracer()
        with tracer.span("root"):
            pass
        kinds = [record["kind"] for record in jsonl_records(small_registry(), tracer)]
        assert kinds == ["metric"] * (len(kinds) - 1) + ["span"]

    def test_empty_dump(self):
        assert events_to_jsonl(MetricsRegistry(), Tracer()) == ""


class TestExporterRobustness:
    def test_exporters_survive_concurrent_mutation(self):
        """A thread hammers new label sets and observations while the
        exporters render — no exceptions, valid output every time.
        (The GIL makes each dict op atomic; the exporters' snapshot
        semantics must cope with children appearing mid-render.)"""
        registry = MetricsRegistry()
        family = registry.counter("spin_total", "spins", labelnames=("k",))
        hist = registry.histogram("spin_seconds", "lat", labelnames=("k",))
        stop = threading.Event()
        failures: list[BaseException] = []

        def mutate():
            i = 0
            while not stop.is_set():
                family.labels(k=str(i % 257)).inc()
                hist.labels(k=str(i % 131)).observe(i * 1e-6)
                i += 1

        def export():
            try:
                for _ in range(50):
                    text = prometheus_text(registry)
                    assert "spin_total" in text
                    events_to_jsonl(registry, Tracer())
            except BaseException as exc:  # pragma: no cover - failure path
                failures.append(exc)

        mutator = threading.Thread(target=mutate, daemon=True)
        mutator.start()
        try:
            exporters = [threading.Thread(target=export) for _ in range(3)]
            for t in exporters:
                t.start()
            for t in exporters:
                t.join()
        finally:
            stop.set()
            mutator.join(timeout=5)
        assert not failures
