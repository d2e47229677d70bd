"""Tests for the §5.2 state model and §5.3 maintenance model."""

import pytest

from repro.core.channel import Channel
from repro.core.ecmp.countids import SUBSCRIBER_ID
from repro.core.ecmp.messages import Count, encode_batch
from repro.costmodel.maintenance import (
    MaintenanceModel,
    MillionChannelScenario,
    counts_per_batch,
    counts_per_segment,
)
from repro.costmodel.state_cost import ManagementStateModel
from repro.errors import WorkloadError
from repro.inet.headers import ETHERNET_TCP_SEGMENT


class TestManagementState:
    def test_paper_default_is_200_bytes(self):
        assert ManagementStateModel().channel_bytes() == 200

    def test_unauthenticated_is_192(self):
        assert ManagementStateModel().channel_bytes(authenticated=False) == 192

    def test_channel_cost_at_most_one_fiftieth_cent(self):
        """§5.2: "each channel costs less than 1/50-th of a cent" —
        200 B x $1/MB is exactly 1/50 c; the paper rounds in its
        favour."""
        cost = ManagementStateModel().channel_cost_dollars()
        assert cost <= 0.01 / 50

    def test_router_state_linear_in_channels(self):
        """§5: memory "scales linearly with the number of channels"."""
        model = ManagementStateModel()
        assert model.router_bytes(2000) == 2 * model.router_bytes(1000)

    def test_million_channels_is_modest_dram(self):
        model = ManagementStateModel()
        bytes_needed = model.router_bytes(1_000_000)
        assert bytes_needed == 200_000_000  # 200 MB for a million channels
        assert model.router_cost_dollars(1_000_000) == pytest.approx(200.0)

    def test_validation(self):
        model = ManagementStateModel()
        with pytest.raises(WorkloadError):
            model.channel_bytes(fanout=-1)
        with pytest.raises(WorkloadError):
            model.router_bytes(-5)


class TestMillionChannelScenario:
    def test_paper_rates(self):
        """§5.3's worked numbers: 4M received / 2M sent per 20 min,
        3,333 req/s, ~5,000 events/s."""
        scenario = MillionChannelScenario()
        assert scenario.received_per_lifetime() == 4_000_000
        assert scenario.sent_per_lifetime() == 2_000_000
        assert scenario.receive_rate() == pytest.approx(3333.3, rel=0.001)
        assert scenario.event_rate() == pytest.approx(5000, rel=0.001)

    def test_counts_per_segment_is_92(self):
        assert counts_per_segment() == 92

    def test_segments_and_bandwidth(self):
        """"36 (3333/92) data segments, or 424 kilobits per second"."""
        scenario = MillionChannelScenario()
        assert scenario.receive_segments_per_second() == pytest.approx(36.2, rel=0.01)
        assert scenario.receive_bandwidth_bps() == pytest.approx(424_000, rel=0.02)
        assert scenario.send_bandwidth_bps() == pytest.approx(212_000, rel=0.02)

    def test_batch_frames_pack_at_the_paper_density(self):
        """A MSG_BATCH frame carries the paper's 92 Counts per segment,
        so the coalesced inbound rate is its 36 segments per second."""
        scenario = MillionChannelScenario()
        assert counts_per_batch() == counts_per_segment() == 92
        assert scenario.coalesced_receive_frames_per_second() == pytest.approx(
            36.2, rel=0.01
        )
        assert scenario.coalesced_receive_bandwidth_bps() == pytest.approx(
            scenario.receive_bandwidth_bps()
        )
        assert scenario.coalescing_wire_message_reduction() == 92.0

    def test_counts_per_batch_matches_the_codec(self):
        count = Count(Channel.of(0x0A000001, 1), SUBSCRIBER_ID, 1)
        fit = counts_per_batch()
        assert len(encode_batch([count] * fit)) <= ETHERNET_TCP_SEGMENT
        assert len(encode_batch([count] * (fit + 1))) > ETHERNET_TCP_SEGMENT

    def test_scaling_in_channels(self):
        half = MillionChannelScenario(channels=500_000)
        full = MillionChannelScenario()
        assert full.event_rate() == pytest.approx(2 * half.event_rate())


class TestMaintenanceModel:
    def test_paper_operating_points(self):
        """4,500 events/s at 4% and 33,000 at 43% imply ~3,500 and
        ~5,200 cycles/event on the 400 MHz reference CPU."""
        implied_low = MaintenanceModel.implied_cycles_per_event(4500, 0.04)
        implied_high = MaintenanceModel.implied_cycles_per_event(33000, 0.43)
        assert implied_low == pytest.approx(3555, rel=0.01)
        assert implied_high == pytest.approx(5212, rel=0.01)

    def test_cpu_utilization_at_scenario_rate(self):
        """The million-channel scenario fits comfortably in the
        reference CPU (the paper's point that maintenance is cheap)."""
        model = MaintenanceModel()
        utilization = model.cpu_utilization(MillionChannelScenario().event_rate())
        assert utilization < 0.07  # ~6% with the 5,000-cycle estimate

    def test_max_event_rate(self):
        model = MaintenanceModel()
        assert model.max_event_rate(0.5) == pytest.approx(40_000)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            MaintenanceModel().cpu_utilization(-1)
        with pytest.raises(WorkloadError):
            MaintenanceModel.implied_cycles_per_event(0, 0.5)
        with pytest.raises(WorkloadError):
            counts_per_segment(count_bytes=0)
