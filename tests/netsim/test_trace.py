"""Unit tests for tracing helpers."""

from repro.netsim.trace import Counter, PacketTrace
from repro.obs.registry import percentile


class TestPacketTrace:
    def test_record_and_filter(self):
        trace = PacketTrace()
        trace.record(0.0, "a", "tx", "ecmp", 36)
        trace.record(0.1, "b", "rx", "ecmp", 36)
        trace.record(0.2, "a", "tx", "data", 1316)
        assert len(trace) == 3
        assert len(trace.filter(node="a")) == 2
        assert len(trace.filter(direction="rx")) == 1
        assert len(trace.filter(proto="ecmp", node="a")) == 1

    def test_totals(self):
        trace = PacketTrace()
        trace.record(0.0, "a", "tx", "ecmp", 16)
        trace.record(0.0, "a", "tx", "ecmp", 24)
        assert trace.total_bytes(proto="ecmp") == 40
        assert trace.count(proto="ecmp") == 2
        assert trace.count(proto="data") == 0


class TestCounter:
    def test_incr_and_get(self):
        counter = Counter()
        counter.incr("x")
        counter.incr("x", 4)
        assert counter["x"] == 5
        assert counter["missing"] == 0

    def test_as_dict(self):
        counter = Counter()
        counter.incr("a")
        counter.incr("b", 2)
        assert counter.as_dict() == {"a": 1, "b": 2}


class TestLatencyPercentiles:
    """The nearest-rank percentile every latency report reads off its
    samples (``repro.obs.registry.percentile``)."""

    def test_nearest_rank(self):
        samples = [i / 1000.0 for i in range(1, 101)]
        assert abs(percentile(samples, 50) - 0.050) < 1e-12
        assert abs(percentile(samples, 90) - 0.090) < 1e-12
        assert abs(percentile(samples, 99) - 0.099) < 1e-12
        assert abs(percentile(samples, 100) - 0.100) < 1e-12

    def test_single_sample(self):
        for p in (0, 50, 99, 100):
            assert percentile([0.25], p) == 0.25

    def test_empty_is_zero(self):
        assert percentile([], 99) == 0.0

    def test_out_of_range_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            percentile([], 101)
        with pytest.raises(ValueError):
            percentile([], -1)


class TestTraceIndexes:
    def _populated(self):
        trace = PacketTrace()
        for i in range(50):
            node = f"n{i % 5}"
            proto = "ecmp" if i % 2 else "data"
            direction = ("tx", "rx", "drop")[i % 3]
            trace.record(i * 0.001, node, direction, proto, 100 + i)
        return trace

    def test_indexed_filters_match_full_scan(self):
        trace = self._populated()

        def scan(node=None, direction=None, proto=None):
            return [
                r
                for r in trace.records
                if (node is None or r.node == node)
                and (direction is None or r.direction == direction)
                and (proto is None or r.proto == proto)
            ]

        for node in (None, "n0", "n3", "missing"):
            for proto in (None, "ecmp", "data", "missing"):
                for direction in (None, "tx", "drop"):
                    assert trace.filter(
                        node=node, direction=direction, proto=proto
                    ) == scan(node=node, direction=direction, proto=proto)

    def test_index_preserves_insertion_order(self):
        trace = self._populated()
        times = [r.time for r in trace.filter(node="n1", proto="ecmp")]
        assert times == sorted(times)
