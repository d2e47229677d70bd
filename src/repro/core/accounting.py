"""Deferred delivery accounting (the bulk path's counting layer).

The mega-storm profile showed per-event *counting* of block
deliveries costing as much as the protocol work it was measuring: one
attribute round-trip per counter per block per packet. This module
moves those counters into preallocated integer columns, updated by
cheap scalar pends on the hot path and *flushed* in bulk at snapshot
and export boundaries:

* :class:`CounterBank` — a column store of plain integer lists with
  row interning, one row per subscriber block (``BLOCK_BANK``).
* :class:`DeliveryView` — the forwarder's frozen per-(agent, channel)
  view of block membership. Per packet it does two integer adds
  (``pending_packets``/``pending_bytes``); the flush applies the
  pending tallies to every member block. Views are invalidated by
  ``EcmpAgent.members_changing`` (membership is about to move, so
  pending tallies accumulated under the old counts are applied first)
  and refreshed lazily against ``agent.blocks_version``.

Flush boundaries (the full set — counters are never stale when read):

* ``members_changing`` before any join/leave/batch member mutation,
* ``EcmpAgent.lose_state`` before a crash drops the views,
* block counter property reads (``block.deliveries`` etc.),
* the forwarder's registry fold at every ``collect()``/snapshot/export,
* a delivery view noticing ``blocks_version`` moved.

The columns are lists, not numpy arrays, for the reason
:mod:`repro.core.ecmp.state` gives for ``StateBank``: every access is a
scalar ``cols[name][row] += x``, which a list serves directly while an
ndarray boxes a numpy scalar each time, and no caller ever has enough
blocks on one (agent, channel) — one per edge router — for a
fancy-indexed flush to pay that back.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.blocks import SubscriberBlock
    from repro.core.channel import Channel
    from repro.core.ecmp.protocol import EcmpAgent

#: Initial rows per bank column (doubles on demand).
_INITIAL_ROWS = 64


class CounterBank:
    """A column store of preallocated integer counters with row
    interning.

    Columns are plain Python lists, grown in place by doubling. Rows
    are appended via :meth:`add_row` (anonymous — the caller keeps the
    index, e.g. a :class:`~repro.core.blocks.SubscriberBlock`) or
    :meth:`intern` (keyed — repeated interning of the same key returns
    the same row).
    """

    __slots__ = ("columns", "rows", "_capacity", "_cols", "_index")

    def __init__(
        self, columns: Sequence[str], capacity: int = _INITIAL_ROWS
    ) -> None:
        self.columns = tuple(columns)
        self.rows = 0
        self._capacity = capacity
        self._index: dict = {}
        self._cols = {name: [0] * capacity for name in self.columns}

    def add_row(self, key: object = None) -> int:
        """Append one zeroed row; returns its index. ``key`` (optional)
        registers the row for :meth:`intern` lookups."""
        row = self.rows
        if row >= self._capacity:
            self._grow()
        self.rows = row + 1
        if key is not None:
            self._index[key] = row
        return row

    def intern(self, key: object) -> int:
        """The row for ``key``, created on first use."""
        row = self._index.get(key)
        if row is None:
            row = self.add_row(key)
        return row

    def _grow(self) -> None:
        self._capacity *= 2
        for col in self._cols.values():
            col.extend([0] * (self._capacity - len(col)))

    def get(self, name: str, row: int) -> int:
        return self._cols[name][row]

    def set(self, name: str, row: int, value: int) -> None:
        self._cols[name][row] = value

    def inc(self, name: str, row: int, amount: int = 1) -> None:
        self._cols[name][row] += amount

    def row_values(self, row: int) -> dict:
        return {name: col[row] for name, col in self._cols.items()}


#: Process-wide bank backing every :class:`SubscriberBlock`'s delivery
#: counters (``packets_seen``/``deliveries``/``bytes_delivered``). One
#: row per block instance; rows are never reused, which is fine — banks
#: grow geometrically and a row is three machine words.
BLOCK_BANK = CounterBank(("packets_seen", "deliveries", "bytes_delivered"))


class DeliveryView:
    """Frozen per-(agent, channel) membership view for the forwarder's
    arithmetic final-hop delivery.

    Between membership changes the per-packet work is two integer adds;
    :meth:`flush` then applies the pending packet/byte tallies to every
    member block's bank row. The equivalence argument: membership is
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
        "rows",
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
        self.rows: list = []
        self.members: list = []
        self.members_sum = 0
        self.pending_packets = 0
        self.pending_bytes = 0

    def refresh(self) -> None:
        """Rebuild the frozen member vectors from current membership
        (call only with no pending tallies)."""
        agent = self.agent
        channel = self.channel
        blocks = agent.channel_blocks.get(channel, ())
        self.rows = [block._row for block in blocks]
        self.members = [block.members.get(channel, 0) for block in blocks]
        self.members_sum = sum(self.members)
        self.version = agent.blocks_version

    def flush(self) -> None:
        """Apply pending per-packet tallies to the member blocks' bank
        rows and the stats bag; no-op with nothing pending."""
        packets = self.pending_packets
        if not packets:
            return
        nbytes = self.pending_bytes
        self.pending_packets = 0
        self.pending_bytes = 0
        cols = BLOCK_BANK._cols
        seen = cols["packets_seen"]
        deliveries = cols["deliveries"]
        delivered_bytes = cols["bytes_delivered"]
        for row, m in zip(self.rows, self.members):
            seen[row] += packets
            deliveries[row] += m * packets
            delivered_bytes[row] += m * nbytes
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
