"""Aggregated edge-subscriber blocks.

EXPRESS's scaling premise (§2, §5) is that routers never need
per-receiver state — "the per-channel subscriber count for each
interface" is the whole of it, and counts aggregate hop by hop. A
:class:`SubscriberBlock` applies that premise to the *simulation
substrate* itself: N leaf receivers behind one edge router are modelled
as a single counted entity instead of N :class:`~repro.netsim.node.Node`
objects with N sets of timers and N delivery events.

* **Joins/leaves** adjust the block's member count for a channel and
  surface at the edge router as one downstream record under a
  ``__block__:`` pseudo-neighbor (the same mechanism as the ``LOCAL``
  record for the router's own subscriptions). The router emits exactly
  the hop-by-hop ``Count`` deltas the paper prescribes — one message
  per 0↔positive transition in TREE_ONLY mode, one per change in
  ON_CHANGE — regardless of N.
* **UDP-mode soft state** is refreshed by one sampled
  :class:`~repro.netsim.engine.PeriodicTask` per block instead of one
  timer per subscriber; if the block stops refreshing (e.g. it is
  stopped), its records age out through the agent's ordinary
  ``UDP_ROBUSTNESS × UDP_QUERY_INTERVAL`` expiry horizon.
* **Final-hop delivery** is accounted arithmetically — the forwarder
  adds ``members`` to the delivery counters per packet instead of
  fanning out N link events (see ``ExpressForwarder._deliver_local``),
  through a per-channel :class:`DeliveryView` whose tallies are
  *flushed* into the blocks' counters in bulk.

A block's member count on a channel has one writer,
:meth:`SubscriberBlock.set_count`, and the edge router calls it where it
writes the block's downstream record: the fast path and the full path
of a count change, every drop of the record (a leave to zero, UDP
expiry, a refusal under request id 0 — a block's keyless join tables
no verdict entry and is answered only if refused), the batch fold
(:meth:`BlockChannelGroup.run_batch`) and a crash. So the block
counts the members the router's record holds: a join the network
refuses adds none, and :meth:`~SubscriberBlock.join` returns the count
the router settled on. ``set_count`` flushes the channel's delivery
view before the write — the pending tallies were counted under the old
members — and marks that view stale after it; the forwarder rebuilds a
stale view from ``agent.blocks`` and ``block.members`` on the next
packet. Every other flush is a read: the block counter properties, and
the forwarder's registry fold at every ``collect()``/snapshot/export
(:func:`flush_agent_views`), so counters are never stale when read.

Blocks are for *open* channels: a keyed (authenticated) subscription
needs a per-receiver key check, which is exactly the state this
abstraction elides. ``tests/properties/test_block_equivalence.py`` pins
that a block of N produces the same upstream aggregate state as N
individual subscribers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.channel import Channel
from repro.core.ecmp.protocol import CountPropagation
from repro.core.ecmp.state import BLOCK_PREFIX
from repro.errors import ChannelError
from repro.netsim.engine import PeriodicTask

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.ecmp.protocol import EcmpAgent


class SubscriberBlock:
    """N leaf receivers behind one edge router, as one counted entity.

    Created via :meth:`repro.core.network.ExpressNetwork.subscriber_block`
    (which also attaches it to the edge router's agent), or directly::

        block = SubscriberBlock(agent, "stub3")
        agent.attach_block(block)
        block.join(channel, 50_000)

    ``members`` maps channel -> current member count; the delivery
    counters (``packets_seen``/``deliveries``/``bytes_delivered``) are
    cumulative across channels.
    """

    __slots__ = (
        "agent",
        "name",
        "pseudo",
        "udp",
        "members",
        "_packets_seen",
        "_deliveries",
        "_bytes_delivered",
        "_refresh_task",
        "_groups",
        "_ops",
    )

    def __init__(self, agent: "EcmpAgent", name: str, udp: bool = False) -> None:
        self.agent = agent
        self.name = name
        #: Downstream-record key at the edge router's agent. Like
        #: ``LOCAL``, it resolves to no peer node, so it can never leak
        #: onto the wire or into the FIB's outgoing bitmap.
        self.pseudo = BLOCK_PREFIX + name
        self.udp = udp
        self.members: dict[Channel, int] = {}
        #: Delivery counters, added to by the forwarder's delivery
        #: views (:class:`DeliveryView`); read them through the
        #: properties below, which flush pending tallies first.
        self._packets_seen = 0
        self._deliveries = 0
        self._bytes_delivered = 0
        self._refresh_task: Optional[PeriodicTask] = None
        self._groups: dict[Channel, BlockChannelGroup] = {}
        self._ops: dict[tuple[Channel, int], BlockOp] = {}

    @property
    def edge_router(self) -> str:
        return self.agent.node.name

    # -- delivery counters (deferred; see DeliveryView) ---------------------

    @property
    def packets_seen(self) -> int:
        """Channel packets that reached this block's edge (cumulative
        across channels)."""
        flush_agent_views(self.agent)
        return self._packets_seen

    @property
    def deliveries(self) -> int:
        """Arithmetic member-deliveries (one per member per packet)."""
        flush_agent_views(self.agent)
        return self._deliveries

    @property
    def bytes_delivered(self) -> int:
        """Arithmetic member-bytes (packet size × members, summed)."""
        flush_agent_views(self.agent)
        return self._bytes_delivered

    def join(self, channel: Channel, n: int = 1) -> int:
        """Ask for ``n`` more members on ``channel``; returns the count
        the edge router settled on, which stays put when it refuses the
        join. One aggregate Count delta goes upstream per the agent's
        propagation mode, not one per member."""
        if n <= 0:
            raise ChannelError(f"block join needs n >= 1, got {n}")
        self.agent.block_adjust(channel, self, self.members.get(channel, 0) + n)
        return self.members.get(channel, 0)

    def leave(self, channel: Channel, n: int = 1) -> int:
        """Remove ``n`` members (clamped at zero); returns the new
        count. Reaching zero prunes this block from the channel's tree
        exactly like the last individual unsubscribe would."""
        if n <= 0:
            raise ChannelError(f"block leave needs n >= 1, got {n}")
        current = self.members.get(channel, 0)
        if current:
            self.agent.block_adjust(channel, self, max(current - n, 0))
        return self.members.get(channel, 0)

    def set_count(self, channel: Channel, count: int) -> None:
        """The one write of ``members[channel]`` (zero removes the
        channel), called where the edge router writes or drops the
        block's record. It keeps the channel's delivery view honest: its
        pending tallies were counted under the old members, so they land
        first, and the view is marked stale for the forwarder to
        rebuild."""
        view = self.agent._delivery_views.get(channel)
        if view is not None and view.pending_packets:
            view.flush()
        if count > 0:
            self.members[channel] = count
        else:
            self.members.pop(channel, None)
        if view is not None:
            view.stale = True

    def join_op(self, channel: Channel) -> "BlockOp":
        """A cached, bound ``join(channel, 1)`` callable for bulk
        scheduling. Carries the batch metadata (``batch_group``/
        ``batch_delta``) the engine's bulk dispatcher reads, so a run
        of these ops in a calendar slot collapses into one arithmetic
        update per (block, channel) — see ``Simulator._run_bulk``."""
        op = self._ops.get((channel, 1))
        if op is None:
            op = self._ops[(channel, 1)] = BlockOp(self.group(channel), 1)
        return op

    def leave_op(self, channel: Channel) -> "BlockOp":
        """A cached, bound ``leave(channel, 1)`` callable for bulk
        scheduling (batchable counterpart of :meth:`join_op`)."""
        op = self._ops.get((channel, -1))
        if op is None:
            op = self._ops[(channel, -1)] = BlockOp(self.group(channel), -1)
        return op

    def group(self, channel: Channel) -> "BlockChannelGroup":
        """The (block, channel) batch group, created once per channel."""
        group = self._groups.get(channel)
        if group is None:
            group = self._groups[channel] = BlockChannelGroup(self, channel)
        return group

    def count(self, channel: Channel) -> int:
        return self.members.get(channel, 0)

    def total_members(self) -> int:
        return sum(self.members.values())

    # -- soft state (UDP mode) ---------------------------------------------

    def start_refresh(self) -> None:
        """Start a UDP-mode block's single sampled refresh timer, at half
        the agent's refresh interval and jittered so co-located blocks
        desynchronize (``EcmpAgent.attach_block`` and ``start`` call it;
        a running timer or a TCP-mode block makes it a no-op)."""
        if not self.udp or self._refresh_task is not None:
            return
        interval = self.agent.UDP_QUERY_INTERVAL
        self._refresh_task = PeriodicTask(
            self.agent.sim,
            interval / 2,
            self._refresh,
            name="block-refresh",
            jitter=interval / 10,
        )
        self._refresh_task.start()

    def _refresh(self) -> None:
        """Touch every member record so the agent's UDP expiry horizon
        sees the whole block as alive — the per-block analogue of N
        individual IGMP-style report timers."""
        now = self.agent.sim.now
        for channel in self.members:
            state = self.agent.channels.get(channel)
            if state is None:
                continue
            record = state.downstream.get(self.pseudo)
            if record is not None:
                record.updated_at = now

    def stop(self) -> None:
        if self._refresh_task is not None:
            self._refresh_task.stop()
            self._refresh_task = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SubscriberBlock {self.name!r} at {self.edge_router}"
            f" members={self.total_members()}>"
        )


class BlockOp:
    """One bound ±1 membership op, batchable by the engine.

    Calling the op performs exactly ``block.join(channel, 1)`` (or
    ``leave``) — the per-event fallback path. The two extra attributes
    are the batch protocol the engine's batch slot dispatcher speaks:
    ``batch_group`` names the state this op touches (one group per
    (block, channel)) and ``batch_delta`` its member-count delta, so a
    whole run of these ops folds into one aggregate update per
    group when the group admits it (see
    :meth:`BlockChannelGroup.can_batch`).
    """

    __slots__ = ("batch_group", "batch_delta")

    def __init__(self, group: "BlockChannelGroup", delta: int) -> None:
        self.batch_group = group
        self.batch_delta = delta

    def __call__(self) -> None:
        group = self.batch_group
        if self.batch_delta > 0:
            group.block.join(group.channel)
        else:
            group.block.leave(group.channel)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "join" if self.batch_delta > 0 else "leave"
        group = self.batch_group
        return f"<BlockOp {kind} {group.block.name!r}/{group.channel}>"


class BlockChannelGroup:
    """Batch-application target for one (block, channel) pair.

    The engine hands a run of a wheel slot's ops (the whole slot, or
    what lies between two ordinary events in it) to their groups as
    aggregates; each group decides *admission* (is folding this batch
    into one arithmetic update indistinguishable from per-event
    dispatch?) and, on an all-groups-yes, applies the fold.

    Admission logic (:meth:`can_batch`) is deliberately conservative —
    it requires the regime where every individual op provably takes the
    agent's O(1) TREE_ONLY fast path: the channel is grafted with a
    live block record (whose count is the block's own, by the one-writer
    rule), and even the worst-case ordering (all leaves first) keeps
    the count ≥ 1, so no op in the batch could trigger a 0↔positive
    transition, tree graft/prune, FIB sync, or upstream Count message.
    Under those preconditions N sequential fast-path updates and one
    arithmetic fold leave byte-identical protocol state: final count is
    ``start + Σdelta``, ``updated_at`` is the last op's time, and the
    fast-update/convergence tallies advance by N.
    """

    __slots__ = ("block", "channel", "_record")

    def __init__(self, block: SubscriberBlock, channel: Channel) -> None:
        self.block = block
        self.channel = channel
        self._record = None

    def can_batch(self, drops: int) -> bool:
        """Whether a batch with ``drops`` total leaves (and any number
        of joins) is admissible. Side-effect-free apart from caching the
        downstream record for :meth:`run_batch`."""
        block = self.block
        agent = block.agent
        if agent.propagation is not CountPropagation.TREE_ONLY:
            return False
        state = agent.channels.get(self.channel)
        if state is None:
            return False
        record = state.downstream.get(block.pseudo)
        if record is None:
            return False
        if record.count - drops < 1:
            return False
        self._record = record
        return True

    def run_batch(self, delta_sum: int, n_ops: int, t_last: float) -> None:
        """Apply an admitted batch: one arithmetic update standing in
        for ``n_ops`` sequential fast-path ops ending at ``t_last``."""
        record = self._record
        self._record = None
        block = self.block
        agent = block.agent
        new = record.count + delta_sum
        block.set_count(self.channel, new)
        record.count = new
        record.updated_at = t_last
        agent.block_fast_updates += n_ops
        if agent.obs is not None:
            agent.obs.state_changed(n_ops)


class DeliveryView:
    """The forwarder's frozen per-(agent, channel) view of block
    membership, for arithmetic final-hop delivery.

    Per packet the forwarder does two integer adds
    (``pending_packets``/``pending_bytes``); :meth:`flush` applies the
    pending tallies to every member block's counters. The equivalence
    argument: membership is frozen between flushes (the one writer,
    :meth:`SubscriberBlock.set_count`, flushes first), so per-packet and
    batched application compute identical sums.
    """

    __slots__ = (
        "agent",
        "channel",
        "stats",
        "hist_family",
        "hist",
        "stale",
        "blocks",
        "members",
        "members_sum",
        "pending_packets",
        "pending_bytes",
    )

    def __init__(
        self, agent: "EcmpAgent", channel: Channel, stats, hist_family=None
    ) -> None:
        self.agent = agent
        self.channel = channel
        #: The forwarder's stats ``Counter`` — flush targets, same keys
        #: the per-packet path used to increment.
        self.stats = stats
        #: Delivery-latency histogram (obs mode only): latency is a
        #: per-packet distribution, so it is observed at delivery time,
        #: not deferred — through the channel's child, resolved once the
        #: view first has members.
        self.hist_family = hist_family
        self.hist = None
        self.stale = True
        self.blocks: list = []
        self.members: list = []
        self.members_sum = 0
        self.pending_packets = 0
        self.pending_bytes = 0

    def refresh(self) -> None:
        """Rebuild the frozen member vectors from current membership
        (call only with no pending tallies)."""
        channel = self.channel
        self.blocks = [
            block for block in self.agent.blocks.values() if channel in block.members
        ]
        self.members = [block.members[channel] for block in self.blocks]
        self.members_sum = sum(self.members)
        self.stale = False
        if self.members_sum and self.hist is None and self.hist_family is not None:
            self.hist = self.hist_family.labels(
                protocol="express", node=self.agent.node.name, channel=str(channel)
            )

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


def delivery_view(
    agent: "EcmpAgent", channel: Channel, stats, hist_family=None
) -> DeliveryView:
    """``agent``'s current delivery view of ``channel``: built on a
    miss, rebuilt when stale. The forwarder calls this only then; on
    every other packet it reads the view straight from
    ``agent._delivery_views``."""
    views = agent._delivery_views
    view = views.get(channel)
    if view is None:
        view = views[channel] = DeliveryView(agent, channel, stats, hist_family)
    view.refresh()
    return view


def flush_agent_views(agent: "EcmpAgent") -> None:
    """Flush every pending delivery view of ``agent`` (cheap when
    nothing is pending — one attribute check per channel view)."""
    for view in agent._delivery_views.values():
        if view.pending_packets:
            view.flush()
