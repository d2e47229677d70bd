"""§5.3: the cost of state maintenance.

The worked scenario: "Consider a router with one million active
channels, where each channel's active lifetime is 20 minutes. Further
assume that the average fanout of a channel is two. ... In this
scenario, the router receives four million Count messages every 20
minutes, and sends two million. This means processing 3,333 requests
per second and generating half as many, for a total of approximately
5000 Count events per second."

Bandwidth: "approximately 92 16-byte Count messages fit in a 1480-byte
maximum-sized TCP segment on Ethernet. ... a router would receive 36
(3333/92) data segments [per second], or 424 kilobits per second of
control traffic, and send half as much."

CPU: the authors measured ~5,000 cycles/event on a 400 MHz Pentium-II;
4,500 events/s used ~4% of the CPU, and a sustained 33,000 events/s
used 43%. :class:`MaintenanceModel` turns any measured
events-per-second figure from our Python engine (the T4 benchmark) into
the same normalized quantities.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.ecmp.messages import BATCH_HEADER_BYTES, COUNT_WIRE_BYTES
from repro.errors import WorkloadError
from repro.inet.headers import ETHERNET_TCP_SEGMENT

#: The paper's measured per-event CPU cost and reference clock.
PAPER_CYCLES_PER_EVENT = 5000
PAPER_CPU_HZ = 400e6
PAPER_CYCLES_SUBSCRIBE = 2700
PAPER_CYCLES_UNSUBSCRIBE = 3300
PAPER_CYCLES_BUFFER_MGMT = 995


def counts_per_segment(
    segment_bytes: int = ETHERNET_TCP_SEGMENT, count_bytes: int = COUNT_WIRE_BYTES
) -> int:
    """"approximately 92 16-byte Count messages fit in a 1480-byte
    maximum-sized TCP segment"."""
    if count_bytes <= 0:
        raise WorkloadError("count size must be positive")
    return segment_bytes // count_bytes


def counts_per_batch(
    segment_bytes: int = ETHERNET_TCP_SEGMENT, count_bytes: int = COUNT_WIRE_BYTES
) -> int:
    """Counts per MSG_BATCH frame in one TCP segment.

    The explicit frame costs a 4-byte batch header and nothing per
    record (a record's length follows from its type and flag bytes), so
    the paper's 92 16-byte Counts fit in a 1480-byte segment."""
    if count_bytes <= 0:
        raise WorkloadError("count size must be positive")
    return (segment_bytes - BATCH_HEADER_BYTES) // count_bytes


@dataclass(frozen=True)
class MillionChannelScenario:
    """The §5.3 scenario, parameterized."""

    channels: int = 1_000_000
    lifetime_seconds: float = 1200.0
    fanout: int = 2

    def received_per_lifetime(self) -> int:
        """Counts received per channel lifetime: one subscribe and one
        unsubscribe from each of ``fanout`` downstream neighbors."""
        return self.channels * self.fanout * 2

    def sent_per_lifetime(self) -> int:
        """Counts sent upstream: one join, one leave."""
        return self.channels * 2

    def receive_rate(self) -> float:
        """Counts received per second (the paper's 3,333/s)."""
        return self.received_per_lifetime() / self.lifetime_seconds

    def send_rate(self) -> float:
        return self.sent_per_lifetime() / self.lifetime_seconds

    def event_rate(self) -> float:
        """Total Count events per second (the paper's ~5,000/s)."""
        return self.receive_rate() + self.send_rate()

    def receive_segments_per_second(self) -> float:
        """TCP segments per second inbound (the paper's 36/s)."""
        return self.receive_rate() / counts_per_segment()

    def receive_bandwidth_bps(self) -> float:
        """Inbound control bandwidth in bits/s (the paper's ~424 kbit/s,
        counting full segments)."""
        return self.receive_segments_per_second() * ETHERNET_TCP_SEGMENT * 8

    def send_bandwidth_bps(self) -> float:
        return self.receive_bandwidth_bps() / 2

    def coalesced_receive_frames_per_second(self) -> float:
        """MSG_BATCH frames per second inbound when Counts arrive fully
        coalesced: the implemented analogue of the paper's 36 segments
        per second, and the same 36, since the frame header leaves room
        for all 92 Counts."""
        return self.receive_rate() / counts_per_batch()

    def coalesced_receive_bandwidth_bps(self) -> float:
        """Inbound control bandwidth with MSG_BATCH framing, counting
        full segments as the paper does."""
        return self.coalesced_receive_frames_per_second() * ETHERNET_TCP_SEGMENT * 8

    def coalescing_wire_message_reduction(self) -> float:
        """How many fewer wire packets batching yields at this scale:
        unbatched sends one packet per Count, batched sends one frame
        per ``counts_per_batch()`` Counts."""
        return float(counts_per_batch())


@dataclass(frozen=True)
class MaintenanceModel:
    """CPU-normalization helpers for the measured engine."""

    cycles_per_event: float = PAPER_CYCLES_PER_EVENT
    cpu_hz: float = PAPER_CPU_HZ

    def cpu_utilization(self, events_per_second: float) -> float:
        """Fraction of the reference CPU consumed at this event rate."""
        if events_per_second < 0:
            raise WorkloadError("event rate must be >= 0")
        return events_per_second * self.cycles_per_event / self.cpu_hz

    def max_event_rate(self, utilization_budget: float = 1.0) -> float:
        """Event rate sustainable within a CPU budget."""
        return utilization_budget * self.cpu_hz / self.cycles_per_event

    @staticmethod
    def implied_cycles_per_event(
        events_per_second: float, utilization: float, cpu_hz: float = PAPER_CPU_HZ
    ) -> float:
        """Back out cycles/event from a measured (rate, utilization)
        pair — how the paper derives 3,500 and 5,200 cycles/event from
        its two measured operating points."""
        if events_per_second <= 0:
            raise WorkloadError("event rate must be positive")
        return utilization * cpu_hz / events_per_second
