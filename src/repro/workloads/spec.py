"""What happens in a run, as data: op tuples and the specs that hold them.

An op is a tuple

    (time, kind, *args)   with kind in
    "join" / "leave"          (host, channel index): host subscriptions
    "send"                    (channel index[, size]): a source datagram
    "block_join" / "block_leave"  (block index, channel index[, n]):
                              aggregated subscriber blocks

and :func:`schedule_ops` is the one way library code puts ops on a
network's simulator: the churn generators (:mod:`repro.workloads.churn`),
the Figure 8 trace (:mod:`repro.workloads.scenarios`) and a
:class:`ScenarioSpec` all produce ops.

A :class:`ScenarioSpec` names the topology by ``TopologyBuilder``
generator, the network by constructor kwargs and the workload by ops,
so the same run can be rebuilt anywhere: the sharded runner
(:mod:`repro.netsim.parallel`) builds it once per partition worker and
once more for its single-process oracle. Each op has an *owner node*
(the host, the source, or the block's edge router), and a worker
schedules only the ops its partition owns, so per-event-name obs
counters line up exactly with the oracle's.

Large workloads reference an *op generator* from :data:`OPGENS` by
name instead of carrying a million tuples: the spec holds ``(name,
kwargs)`` and every worker regenerates the identical op list
(generators must be deterministic — anything random must derive from
the spec's seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Optional

from repro.core.network import MPEG2_PACKET_BYTES, ExpressNetwork
from repro.errors import SimulationError
from repro.netsim.topology import Topology, TopologyBuilder

#: Registry of named op generators: name -> callable(**kwargs) -> list
#: of (time, kind, *args) tuples. Deterministic by construction.
OPGENS: dict[str, Callable[..., list[tuple]]] = {}


def opgen(name: str) -> Callable:
    """Register a deterministic op generator under ``name``."""

    def deco(fn: Callable[..., list[tuple]]) -> Callable[..., list[tuple]]:
        OPGENS[name] = fn
        return fn

    return deco


def schedule_ops(
    net: ExpressNetwork,
    ops: Iterable[tuple],
    channels: list,
    blocks: list = (),
    source: Optional[str] = None,
) -> int:
    """Schedule ``ops`` onto ``net``'s simulator in one
    :meth:`Simulator.schedule_bulk` call (dispatch order, ties included,
    is the order a ``schedule_at`` per op would give); returns how many
    were scheduled. Channel and block indices resolve through
    ``channels`` and ``blocks``; ``source`` names the host that sends.

    A unit block join or leave is the block's cached batchable op
    (:meth:`SubscriberBlock.join_op`), so a slot full of them folds into
    one arithmetic update per block."""
    sender = net.source(source) if source is not None else None
    items: list[tuple] = []
    for op in ops:
        kind = op[1]
        if kind == "join":
            action = partial(net.host(op[2]).subscribe, channels[op[3]])
        elif kind == "leave":
            action = partial(net.host(op[2]).unsubscribe, channels[op[3]])
        elif kind == "send":
            size = op[3] if len(op) > 3 else MPEG2_PACKET_BYTES
            action = partial(sender.send, channels[op[2]], size=size)
        elif kind in ("block_join", "block_leave"):
            n = op[4] if len(op) > 4 else 1
            block, channel = blocks[op[2]], channels[op[3]]
            if kind == "block_join":
                action = block.join_op(channel) if n == 1 else partial(block.join, channel, n)
            else:
                action = block.leave_op(channel) if n == 1 else partial(block.leave, channel, n)
        else:
            raise SimulationError(f"unknown op kind {kind!r}")
        items.append((op[0], action))
    return net.sim.schedule_bulk(items, name="op")


@dataclass
class ScenarioSpec:
    """Everything needed to rebuild one workload anywhere."""

    #: ``TopologyBuilder`` generator name (``isp``, ``balanced_tree``…).
    topology: str
    #: Kwargs for the generator (the seed is supplied separately).
    topology_kwargs: dict = field(default_factory=dict)
    #: Source host node name (channels are allocated here; rank 0 owns it).
    source: str = ""
    n_channels: int = 1
    #: Edge routers to attach aggregated subscriber blocks to, in order.
    blocks: tuple = ()
    #: Extra ``ExpressNetwork`` kwargs.
    net_kwargs: dict = field(default_factory=dict)
    #: Inline op tuples (small workloads / tests).
    ops: tuple = ()
    #: ``(OPGENS name, kwargs)`` for big workloads; regenerated locally.
    opgen: Optional[tuple] = None
    #: Simulated end time; every run dispatches events <= duration.
    duration: float = 1.0
    seed: int = 0

    def all_ops(self) -> list[tuple]:
        ops = list(self.ops)
        if self.opgen is not None:
            name, kwargs = self.opgen
            generator = OPGENS.get(name)
            if generator is None:
                raise SimulationError(f"unknown op generator {name!r}")
            ops.extend(generator(**kwargs))
        return ops

    def op_owner(self, op: tuple) -> str:
        """The node whose partition schedules and dispatches ``op``."""
        kind = op[1]
        if kind in ("join", "leave"):
            return op[2]
        if kind == "send":
            return self.source
        if kind in ("block_join", "block_leave"):
            return self.blocks[op[2]]
        raise SimulationError(f"unknown op kind {kind!r}")

    def schedule(
        self, net: ExpressNetwork, channels: list, blocks: list, owned: Optional[set] = None
    ) -> int:
        """Schedule the spec's ops onto a network :func:`build` made;
        ``owned`` restricts them to the ops whose owner node is in the
        set (a partition worker). Returns how many were scheduled."""
        ops = self.all_ops()
        if owned is not None:
            ops = [op for op in ops if self.op_owner(op) in owned]
        return schedule_ops(net, ops, channels, blocks, source=self.source)


def build(spec: ScenarioSpec, obs=None):
    """Construct the scenario's network: returns ``(net, channels,
    blocks)``. Identical in every worker for a given spec — node
    addresses, interface indices, channel suffixes, and block names all
    come from deterministic allocation order."""
    builder = getattr(TopologyBuilder, spec.topology, None)
    if builder is None:
        raise SimulationError(f"unknown topology generator {spec.topology!r}")
    topo: Topology = builder(seed=spec.seed, **spec.topology_kwargs)
    net = ExpressNetwork(topo, obs=obs, **spec.net_kwargs)
    source = net.source(spec.source)
    channels = [source.allocate_channel() for _ in range(spec.n_channels)]
    blocks = [net.subscriber_block(name) for name in spec.blocks]
    return net, channels, blocks


@opgen("block_storm")
def block_storm(
    n_subs: int,
    n_blocks: int,
    n_channels: int = 1,
    base: float = 0.1,
    join_window: float = 4.0,
    leave_fraction: float = 0.125,
    leave_window: float = 0.8,
    packets: int = 20,
    packet_spacing: float = 0.005,
    burst: int = 1,
    burst_gap: float = 0.01,
    seed: int = 0,
) -> list[tuple]:
    """The ``mega_join_storm`` shape as declarative ops: ``n_subs``
    block joins spread over ``join_window``, a ``leave_fraction`` wave
    after it, then ``packets`` source datagrams on every channel in
    bursts of ``burst`` (``burst_gap`` apart inside a burst, bursts
    ``packet_spacing`` apart). The op list is deterministically shuffled
    (seeded) so scheduler inserts arrive in random time order, as a
    real workload's do, rather than pre-sorted.

    The window widths shape the *sync* profile of sharded runs: short
    join/leave windows plus a wide packet spacing reproduce the paper's
    single-source regime — a subscription-churn burst that converges,
    then a long steady-state data phase where only the source shard
    (and, per packet, the subscribed shards) have work. The defaults
    keep the original dense shape used by the scheduler benches."""
    n_leaves = int(n_subs * leave_fraction)
    ops: list[tuple] = [
        (base + join_window * i / n_subs, "block_join", i % n_blocks, i % n_channels, 1)
        for i in range(n_subs)
    ]
    leave_base = base + join_window + 0.1
    ops += [
        (leave_base + leave_window * i / max(n_leaves, 1), "block_leave",
         i % n_blocks, i % n_channels, 1)
        for i in range(n_leaves)
    ]
    random.Random(seed + 1).shuffle(ops)
    send_base = leave_base + leave_window + 0.2
    for channel_index in range(n_channels):
        ops += [
            (send_base + packet_spacing * (k // burst) + burst_gap * (k % burst),
             "send", channel_index)
            for k in range(packets)
        ]
    return ops
