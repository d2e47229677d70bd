"""T3 — §5.3: control traffic of the million-channel scenario.

"the router receives four million Count messages every 20 minutes, and
sends two million ... 3,333 requests per second ... approximately 5000
Count events per second. ... approximately 92 16-byte Count messages
fit in a 1480-byte maximum-sized TCP segment ... a router would receive
36 (3333/92) data segments, or 424 kilobits per second of control
traffic, and send half as much."

We regenerate every number from the model, verify the 16-byte wire
size against the real codec, and measure batch encode throughput.
"""

import pytest
from conftest import report

from repro.core.channel import Channel
from repro.core.ecmp.countids import SUBSCRIBER_ID
from repro.core.ecmp.messages import COUNT_WIRE_BYTES, Count, encode_batch, encode_message
from repro.costmodel.maintenance import (
    MillionChannelScenario,
    counts_per_batch,
    counts_per_segment,
)


def test_t3_scenario_numbers(benchmark):
    scenario = benchmark(MillionChannelScenario)

    assert scenario.received_per_lifetime() == 4_000_000
    assert scenario.sent_per_lifetime() == 2_000_000
    assert scenario.receive_rate() == pytest.approx(3333, rel=0.001)
    assert scenario.event_rate() == pytest.approx(5000, rel=0.001)
    assert counts_per_segment() == 92
    assert counts_per_batch() == 92
    assert scenario.receive_segments_per_second() == pytest.approx(36.2, rel=0.01)
    assert scenario.coalesced_receive_frames_per_second() == pytest.approx(36.2, rel=0.01)
    assert scenario.receive_bandwidth_bps() == pytest.approx(424_000, rel=0.02)

    report(
        "t3_control_traffic",
        [
            "§5.3: million-channel scenario (1M channels, 20-min lifetime, fanout 2)",
            "                              paper        model",
            f"  Counts received / 20 min   4,000,000    {scenario.received_per_lifetime():,}",
            f"  Counts sent / 20 min       2,000,000    {scenario.sent_per_lifetime():,}",
            f"  receive rate               3,333/s      {scenario.receive_rate():,.0f}/s",
            f"  total event rate           ~5,000/s     {scenario.event_rate():,.0f}/s",
            f"  Counts per 1480-B segment  92           {counts_per_segment()}",
            f"  segments received          36/s         {scenario.receive_segments_per_second():.1f}/s",
            f"  Counts per MSG_BATCH frame 92           {counts_per_batch()}",
            f"  MSG_BATCH frames received  36/s         {scenario.coalesced_receive_frames_per_second():.1f}/s",
            f"  control bandwidth in       424 kbit/s   {scenario.receive_bandwidth_bps() / 1000:.0f} kbit/s",
            f"  control bandwidth out      212 kbit/s   {scenario.send_bandwidth_bps() / 1000:.0f} kbit/s",
        ],
    )


def test_t3_wire_batching(benchmark):
    """Verify the codec's Count really is 16 bytes and measure encoding
    a full segment's worth (92 messages)."""
    channel = Channel.of(0x0A000001, 42)
    messages = [
        Count(channel=channel, count_id=SUBSCRIBER_ID, count=i) for i in range(92)
    ]

    def encode_segment() -> bytes:
        return b"".join(encode_message(m) for m in messages)

    segment = benchmark(encode_segment)
    assert COUNT_WIRE_BYTES == 16
    assert len(segment) == 92 * 16 == 1472
    assert len(segment) <= 1480
    # The same 92 as one MSG_BATCH frame: a 4-byte header, no framing
    # per record.
    frame = encode_batch(messages)
    assert len(frame) == 4 + 92 * 16 == 1476

    report(
        "t3_wire_batching",
        [
            "§5.3: Count batching into Ethernet TCP segments",
            f"  Count wire size: {COUNT_WIRE_BYTES} bytes (paper: 16)",
            f"  92 Counts encode to {len(segment)} bytes <= 1480-byte segment",
            f"  92 Counts in one MSG_BATCH frame: {len(frame)} bytes <= 1480-byte segment",
        ],
    )
