"""Deferred delivery accounting (the bulk path's counting layer).

The mega-storm profile showed per-event *counting* of block
deliveries costing as much as the protocol work it was measuring: one
attribute round-trip per counter per block per packet. This module
moves that work out of the per-packet path: cheap scalar pends on the
hot path, *flushed* in bulk into the blocks' own counters at snapshot
and export boundaries.

:class:`DeliveryView` is the forwarder's frozen per-(agent, channel)
view of block membership. Per packet it does two integer adds
(``pending_packets``/``pending_bytes``); the flush applies the pending
tallies to every member block. Views are invalidated by
``EcmpAgent.members_changing`` (membership is about to move, so pending
tallies accumulated under the old counts are applied first) and
refreshed lazily against ``agent.blocks_version``.

Flush boundaries (the full set — counters are never stale when read):

* ``members_changing`` before any join/leave/batch member mutation,
* ``EcmpAgent.lose_state`` before a crash drops the views,
* block counter property reads (``block.deliveries`` etc.),
* the forwarder's registry fold at every ``collect()``/snapshot/export,
* a delivery view noticing ``blocks_version`` moved.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.channel import Channel
    from repro.core.ecmp.protocol import EcmpAgent


class DeliveryView:
    """Frozen per-(agent, channel) membership view for the forwarder's
    arithmetic final-hop delivery.

    Between membership changes the per-packet work is two integer adds;
    :meth:`flush` then applies the pending packet/byte tallies to every
    member block's counters. The equivalence argument: membership is
    frozen between flushes (every mutation path calls
    ``members_changing`` first), so per-packet and batched application
    compute identical sums.
    """

    __slots__ = (
        "agent",
        "channel",
        "stats",
        "hist",
        "version",
        "blocks",
        "members",
        "members_sum",
        "pending_packets",
        "pending_bytes",
    )

    def __init__(
        self,
        agent: "EcmpAgent",
        channel: "Channel",
        stats,
        hist_family=None,
        node_name: str = "",
    ) -> None:
        self.agent = agent
        self.channel = channel
        #: The forwarder's stats ``Counter`` — flush targets, same keys
        #: the per-packet path used to increment.
        self.stats = stats
        #: Memoized delivery-latency histogram child (obs mode only):
        #: latency is a per-packet distribution, so it is observed at
        #: delivery time, not deferred — but through this cached child
        #: instead of a ``labels(...)`` lookup per packet.
        self.hist = (
            hist_family.labels(
                protocol="express", node=node_name, channel=str(channel)
            )
            if hist_family is not None
            else None
        )
        self.version = -1
        self.blocks: list = []
        self.members: list = []
        self.members_sum = 0
        self.pending_packets = 0
        self.pending_bytes = 0

    def refresh(self) -> None:
        """Rebuild the frozen member vectors from current membership
        (call only with no pending tallies)."""
        agent = self.agent
        channel = self.channel
        self.blocks = list(agent.channel_blocks.get(channel, ()))
        self.members = [block.members.get(channel, 0) for block in self.blocks]
        self.members_sum = sum(self.members)
        self.version = agent.blocks_version

    def flush(self) -> None:
        """Apply pending per-packet tallies to the member blocks'
        counters and the stats bag; no-op with nothing pending."""
        packets = self.pending_packets
        if not packets:
            return
        nbytes = self.pending_bytes
        self.pending_packets = 0
        self.pending_bytes = 0
        for block, m in zip(self.blocks, self.members):
            block._packets_seen += packets
            block._deliveries += m * packets
            block._bytes_delivered += m * nbytes
        if self.members_sum:
            stats = self.stats
            stats.incr("block_deliveries", self.members_sum * packets)
            stats.incr("block_packets", packets)


def flush_agent_views(agent: "EcmpAgent") -> None:
    """Flush every pending delivery view of ``agent`` (cheap when
    nothing is pending — one attribute check per channel view)."""
    for view in agent._delivery_views.values():
        if view.pending_packets:
            view.flush()
