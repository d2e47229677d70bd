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
  fanning out N link events (see ``ExpressForwarder._deliver_local``).

Blocks are for *open* channels: a keyed (authenticated) subscription
needs a per-receiver key check, which is exactly the state this
abstraction elides. ``tests/properties/test_block_equivalence.py`` pins
that a block of N produces the same upstream aggregate state as N
individual subscribers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.accounting import flush_agent_views
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
        #: views (``repro.core.accounting``); read them through the
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

    # -- delivery counters (deferred; see repro.core.accounting) -----------

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
        """Add ``n`` members to the block's count for ``channel``;
        returns the new count. One aggregate Count delta goes upstream
        per the agent's propagation mode, not one per member."""
        if n <= 0:
            raise ChannelError(f"block join needs n >= 1, got {n}")
        new = self.members.get(channel, 0) + n
        self.agent.members_changing(channel)
        self.members[channel] = new
        self.agent.block_adjust(channel, self, new)
        return new

    def leave(self, channel: Channel, n: int = 1) -> int:
        """Remove ``n`` members (clamped at zero); returns the new
        count. Reaching zero prunes this block from the channel's tree
        exactly like the last individual unsubscribe would."""
        if n <= 0:
            raise ChannelError(f"block leave needs n >= 1, got {n}")
        current = self.members.get(channel, 0)
        new = current - n
        self.agent.members_changing(channel)
        if new <= 0:
            new = 0
            self.members.pop(channel, None)
        else:
            self.members[channel] = new
        if new != current:
            self.agent.block_adjust(channel, self, new)
        return new

    def join_op(self, channel: Channel) -> "BlockOp":
        """A cached, bound ``join(channel, 1)`` callable for bulk
        scheduling. Carries the batch metadata (``batch_group``/
        ``batch_delta``) the engine's batch slot dispatcher reads, so a
        run of these ops in a wheel slot collapses into one arithmetic
        update per (block, channel) — see ``Simulator._batch_slot``."""
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

    def start_refresh(self, interval: float, jitter: float = 0.0) -> None:
        """Start the block's single sampled refresh timer (UDP-mode
        blocks only; called by ``EcmpAgent.attach_block``)."""
        if self._refresh_task is not None:
            return
        self._refresh_task = PeriodicTask(
            self.agent.sim,
            interval,
            self._refresh,
            name="block-refresh",
            jitter=jitter,
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
    live block record whose count matches the block's own view, and
    even the worst-case ordering (all leaves first) keeps the count
    ≥ 1, so no op in the batch could trigger a 0↔positive transition,
    tree graft/prune, FIB sync, or upstream Count message. Under those
    preconditions N sequential fast-path updates and one arithmetic
    fold leave byte-identical protocol state: final count is
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
        count = record.count
        if count <= 0 or count != block.members.get(self.channel, 0):
            return False
        if count - drops < 1:
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
        channel = self.channel
        agent.members_changing(channel)
        new = record.count + delta_sum
        block.members[channel] = new
        record.count = new
        record.updated_at = t_last
        agent.block_fast_updates += n_ops
        if agent.obs is not None:
            agent.obs.state_changed(n_ops)
