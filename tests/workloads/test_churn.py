"""Tests for churn generators."""

import pytest

from repro.core.ecmp.countids import SUBSCRIBER_ID
from repro.errors import WorkloadError
from repro.workloads import count_message_stream, poisson_churn, schedule_ops
from tests.conftest import make_channel


class TestPoissonChurn:
    def test_ops_sorted_and_alternating(self):
        ops = poisson_churn(["a", "b"], duration=100, mean_off_time=5, mean_on_time=5, seed=1)
        times = [op[0] for op in ops]
        assert times == sorted(times)
        assert {op[3] for op in ops} == {0}
        for host in ("a", "b"):
            own = [kind for _, kind, name, _ in ops if name == host]
            for first, second in zip(own, own[1:]):
                assert first != second
            if own:
                assert own[0] == "join"

    def test_deterministic_per_seed(self):
        a = poisson_churn(["x"], 50, 2, 2, seed=3)
        b = poisson_churn(["x"], 50, 2, 2, seed=3)
        assert a == b
        assert a != poisson_churn(["x"], 50, 2, 2, seed=4)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            poisson_churn(["a"], 0, 1, 1)

    def test_schedule_ops_runs_the_churn(self, isp_net):
        net = isp_net
        src, ch = make_channel(net, "h0_0_0")
        ops = [
            (0.5, "join", "h1_0_0", 0),
            (1.0, "join", "h2_0_0", 0),
            (2.0, "leave", "h1_0_0", 0),
        ]
        assert schedule_ops(net, ops, [ch]) == 3
        net.run(until=5.0)
        assert net.subscriber_hosts(ch) == ["h2_0_0"]


class TestCountMessageStream:
    def test_alternates_join_leave_per_pair(self):
        stream = list(count_message_stream(4, ["n1", "n2"], 200, seed=1))
        seen = {}
        for message, neighbor in stream:
            key = (message.channel.suffix, neighbor)
            expected = 1 if seen.get(key, 0) == 0 else 0
            assert message.count == expected
            seen[key] = message.count

    def test_all_counts_are_subscriber_id(self):
        for message, _ in count_message_stream(2, ["n1"], 50, seed=2):
            assert message.count_id == SUBSCRIBER_ID

    def test_length_and_determinism(self):
        a = list(count_message_stream(8, ["x", "y"], 100, seed=5))
        b = list(count_message_stream(8, ["x", "y"], 100, seed=5))
        assert len(a) == 100 and a == b

    def test_validation(self):
        with pytest.raises(WorkloadError):
            list(count_message_stream(0, ["a"], 10))
        with pytest.raises(WorkloadError):
            list(count_message_stream(1, [], 10))
