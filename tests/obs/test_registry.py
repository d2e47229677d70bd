"""Unit tests for the labelled metrics registry."""

import pytest

from repro.netsim.trace import Counter
from repro.obs.registry import (
    LATENCY_BUCKETS,
    MetricError,
    MetricsRegistry,
    percentile,
)


class TestCounters:
    def test_labelled_children_are_independent(self):
        registry = MetricsRegistry()
        family = registry.counter("msgs_total", "messages", ("node", "dir"))
        family.labels(node="a", dir="tx").inc()
        family.labels(node="a", dir="tx").inc(4)
        family.labels(node="b", dir="rx").inc()
        assert family.labels(node="a", dir="tx").value == 5
        assert family.labels(node="b", dir="rx").value == 1

    def test_unlabelled_proxy(self):
        registry = MetricsRegistry()
        family = registry.counter("ticks_total")
        family.inc()
        family.inc(2)
        assert family.value == 3

    def test_counter_rejects_decrease(self):
        registry = MetricsRegistry()
        family = registry.counter("c")
        with pytest.raises(MetricError):
            family.inc(-1)

    def test_wrong_label_set_rejected(self):
        registry = MetricsRegistry()
        family = registry.counter("c", "", ("node",))
        with pytest.raises(MetricError):
            family.labels(node="a", extra="x")
        with pytest.raises(MetricError):
            family.labels()
        with pytest.raises(MetricError):
            family.inc()  # labelled family has no solo child

    def test_label_values_stringified(self):
        registry = MetricsRegistry()
        family = registry.counter("c", "", ("n",))
        family.labels(n=7).inc()
        assert family.labels(n="7").value == 1


class TestGauges:
    def test_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(10.0)
        gauge.inc(5.0)
        gauge.dec(2.0)
        assert gauge.value == 13.0


class TestHistograms:
    def test_percentiles_and_mean(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.2, 0.3, 0.9, 2.0):
            hist.observe(value)
        child = hist.labels()
        assert child.count == 5
        assert abs(child.sum - 3.45) < 1e-12
        assert child.percentile(50) == 0.3
        assert child.percentile(100) == 2.0
        assert abs(child.mean() - 0.69) < 1e-12

    def test_cumulative_buckets_end_with_inf(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        buckets = hist.labels().cumulative_buckets()
        assert buckets[0] == (0.1, 1)
        assert buckets[1] == (1.0, 2)
        assert buckets[-1][1] == 3  # +Inf is the total count
        assert buckets[-1][0] == float("inf")

    def test_default_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        hist.observe(0.003)
        assert hist.labels().buckets == LATENCY_BUCKETS


class TestDeclaration:
    def test_idempotent_redeclaration(self):
        registry = MetricsRegistry()
        a = registry.counter("c", "", ("node",))
        b = registry.counter("c", "", ("node",))
        assert a is b

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(MetricError):
            registry.gauge("m")

    def test_label_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("m", "", ("a",))
        with pytest.raises(MetricError):
            registry.counter("m", "", ("a", "b"))

    def test_contains_and_get(self):
        registry = MetricsRegistry()
        registry.counter("m")
        assert "m" in registry
        assert registry.get("m") is not None
        assert registry.get("missing") is None


def stats_fold(registry, stats, node):
    """Fold a ``Counter``-style owner tally into ``events_total``, the
    way the ECMP agent and the forwarder publish their ``stats``."""
    family = registry.counter("events_total", "events", ("node", "event"))
    registry.fold(
        lambda: ((family, (node, event), n) for event, n in stats.items())
    )
    return family


class TestFold:
    def test_publishes_growth_since_last_fold(self):
        registry = MetricsRegistry()
        stats = Counter()
        family = stats_fold(registry, stats, "r1")
        stats["joins"] += 1
        stats["joins"] += 2
        stats["idle"] += 0
        assert family.children() == []  # nothing until collect
        registry.collect()
        assert registry.counter_snapshot() == {
            ("events_total", ("r1", "joins")): 3,
            ("events_total", ("r1", "idle")): 0,
        }
        registry.collect()  # nothing grew: nothing added
        stats["joins"] += 4
        registry.collect()
        assert family.labels(node="r1", event="joins").value == 7
        assert stats.get("missing") == 0
        assert "missing" not in stats

    def test_owners_share_one_family_but_not_counts(self):
        registry = MetricsRegistry()
        stats_a, stats_b = Counter(), Counter()
        stats_fold(registry, stats_a, "a")
        family = stats_fold(registry, stats_b, "b")
        stats_a["x"] += 5
        stats_b["x"] += 7
        registry.collect()
        assert stats_a.as_dict() == {"x": 5}
        assert stats_b.as_dict() == {"x": 7}
        assert {values: child.value for values, child in family.children()} == {
            ("a", "x"): 5,
            ("b", "x"): 7,
        }

    def test_entries_naming_one_series_sum(self):
        """Two owners of one read behind one label set (parallel links
        between the same two nodes) add up, and each one's growth is
        published once."""
        registry = MetricsRegistry()
        family = registry.counter("link_packets_total", "", ("link",))
        counts = [5, 3]
        registry.fold(lambda: ((family, ("a--b",), n) for n in counts))
        registry.collect()
        counts[1] += 2
        registry.collect()
        assert family.labels(link="a--b").value == 10

    def test_label_values_must_match_family(self):
        registry = MetricsRegistry()
        family = registry.counter("t", "", ("node", "event"))
        registry.fold(lambda: [(family, ("us",), 1)])
        with pytest.raises(MetricError):
            registry.collect()


class TestCollectorsAndSnapshot:
    def test_collector_runs_on_collect(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        state = {"value": 3}
        registry.register_collector(lambda: gauge.set(state["value"]))
        registry.collect()
        assert gauge.value == 3
        state["value"] = 9
        snapshot = registry.snapshot()
        assert snapshot["depth"]["series"][""] == 9

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c", "help!", ("n",)).labels(n="x").inc(2)
        hist = registry.histogram("h")
        hist.observe(0.5)
        snap = registry.snapshot()
        assert snap["c"] == {
            "type": "counter",
            "help": "help!",
            "series": {"n=x": 2},
        }
        series = snap["h"]["series"][""]
        assert series["count"] == 1
        assert series["p50"] == 0.5


class TestPercentileFunction:
    def test_nearest_rank(self):
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 50) == 50.0
        assert percentile(samples, 99) == 99.0
        assert percentile(samples, 0) == 1.0

    def test_empty_and_bounds(self):
        assert percentile([], 50) == 0.0
        with pytest.raises(ValueError):
            percentile([1.0], 101)
