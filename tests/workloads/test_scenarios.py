"""Tests for the Figure 8 scenario machinery."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.scenarios import (
    FIG8_END,
    FIG8_SUBSCRIBERS,
    Fig8Sample,
    build_fig8_network,
    fig8_events,
    run_fig8,
)


class TestFig8Events:
    def test_shape_matches_paper_description(self):
        ops = fig8_events(seed=0)
        joins = [op[0] for op in ops if op[1] == "join"]
        leaves = [op[0] for op in ops if op[1] == "leave"]
        assert len(joins) == FIG8_SUBSCRIBERS
        assert len(leaves) == FIG8_SUBSCRIBERS
        # Initial burst near t=0.
        assert sum(1 for t in joins if t <= 2.0) >= 100
        # Second burst right after 200.
        assert sum(1 for t in joins if 200.0 <= t <= 202.0) >= 50
        # Quiet gap: no activity in (210, 300).
        assert not any(210 < op[0] < 300 for op in ops)
        # Fast leave: all gone by 310.
        assert all(300 <= t <= 310 for t in leaves)

    def test_every_host_joins_once_and_leaves_once(self):
        by_host = {}
        for _, kind, host, channel_index in fig8_events(seed=1):
            assert channel_index == 0
            by_host.setdefault(host, []).append(kind)
        assert all(actions == ["join", "leave"] for actions in by_host.values())

    def test_needs_enough_hosts(self):
        with pytest.raises(WorkloadError):
            fig8_events(hosts=["only", "two"])


class TestFig8Network:
    def test_build_validates_leaf_budget(self):
        with pytest.raises(WorkloadError):
            build_fig8_network(alpha=4.0, depth=2, fanout=4)  # 16 leaves

    def test_build_wires_source_to_root(self):
        net, channel, leaves, src = build_fig8_network(alpha=4.0)
        assert src == "src"
        assert channel.source == net.topo.node("src").address
        assert len(leaves) >= FIG8_SUBSCRIBERS


class TestRunFig8:
    @pytest.fixture(scope="class")
    def samples(self):
        return {
            alpha: run_fig8(alpha=alpha, sample_interval=5.0, seed=0)
            for alpha in (4.0, 2.5)
        }

    def test_estimate_tracks_actual_within_tolerance(self, samples):
        """Upper panel of Figure 8: the estimate follows the actual
        size; α=4 "tracks the actual size very closely"."""
        for sample in samples[4.0]:
            if 20 <= sample.time <= 200:  # slow-growth regime
                assert abs(sample.actual - sample.estimated) <= max(
                    0.25 * sample.actual, 5
                )

    def test_alpha_4_tracks_better_than_2_5_after_burst(self, samples):
        """"the estimated size lags behind the actual size after the
        large burst" for α=2.5."""
        def lag(series):
            return max(
                abs(s.actual - s.estimated)
                for s in series
                if 220 <= s.time <= 300
            )

        assert lag(samples[2.5]) >= lag(samples[4.0])

    def test_alpha_2_5_uses_fewer_messages(self, samples):
        """Lower panel: smaller α = less bandwidth."""
        final = {a: s[-1].counts_delivered_to_source for a, s in samples.items()}
        assert final[2.5] <= final[4.0]

    def test_estimate_returns_to_zero_after_leave(self, samples):
        for alpha in (4.0, 2.5):
            tail = [s for s in samples[alpha] if s.time >= FIG8_END + 30]
            assert tail and all(s.estimated == 0 for s in tail)

    def test_peak_reaches_250(self, samples):
        assert max(s.actual for s in samples[4.0]) == FIG8_SUBSCRIBERS
