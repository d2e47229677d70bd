"""Wiring: attach the registry and tracer to a running system.

Three layers get instrumented without touching their call sites:

* the :class:`~repro.netsim.engine.Simulator` — a dispatch listener
  counts and wall-clock-times every event by name and keeps a
  queue-depth gauge, so protocol timers and hot loops are profiled for
  free;
* every :class:`~repro.netsim.node.Node` — per-node tx/rx/drop packet
  and byte tallies;
* every :class:`~repro.netsim.link.Link` — its own transmit/loss
  counters, published from attach on.

The owner of a count keeps its only tally; the registry folds the
tallies into their families at every ``collect()`` (see
:meth:`~repro.obs.registry.MetricsRegistry.fold`), so families are
current as of the last collect, snapshot or export.

:class:`Observability` bundles one registry and one tracer; pass it to
``ExpressNetwork(..., obs=obs)`` or ``GroupNetwork(..., obs=obs)`` (or
call :func:`attach_topology` directly) and every layer reports into the
same place, which is what makes EXPRESS-vs-PIM/DVMRP comparisons read
off a single snapshot.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING, Iterator, Optional

from repro.netsim.trace import Counter
from repro.obs.registry import WALL_BUCKETS, MetricsRegistry, Tally
from repro.obs.tracing import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netsim.engine import Event, Simulator
    from repro.netsim.link import Link
    from repro.netsim.parallel.sync import SyncStats
    from repro.netsim.topology import Topology
    from repro.obs.convergence import ConvergenceMonitor

#: Packet-header key under which a :class:`~repro.obs.tracing.SpanContext`
#: rides along with every instrumented control message.
SPAN_HEADER = "spanctx"

_NO_SPAN = nullcontext()


def span(obs: Optional["Observability"], name: str, **attrs: object):
    """``obs.tracer.span(name, **attrs)``, or a no-op context when
    observability is off — so an instrumented call site spells its body
    once."""
    return _NO_SPAN if obs is None else obs.tracer.span(name, **attrs)


class Observability:
    """One registry + one tracer, shared by every instrumented layer."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        #: Optional :class:`~repro.obs.convergence.ConvergenceMonitor`;
        #: instrumented protocol layers call :meth:`state_changed` on
        #: every durable state mutation and the monitor timestamps it.
        self.convergence: Optional["ConvergenceMonitor"] = None
        #: Publishes the counts of every link attached to this registry.
        self.links: Optional[LinkMetrics] = None
        self._bound_sims: set[int] = set()

    def bind_simulator(self, sim: "Simulator") -> None:
        """Point the tracer clock at ``sim.now`` and install the
        dispatch listener (idempotent per simulator)."""
        self.tracer.clock = lambda: sim.now
        if id(sim) not in self._bound_sims:
            self._bound_sims.add(id(sim))
            instrument_simulator(sim, self.registry)

    def state_changed(self, count: int = 1) -> None:
        """Protocol hook: ``count`` durable state mutations happened
        (membership change, count update, upstream re-home). Batch-slot
        dispatch passes the number of folded per-event ops so the
        convergence monitor's change tally stays identical to per-event
        dispatch. No-op unless a convergence monitor is attached."""
        if self.convergence is not None:
            self.convergence.touch(count)


class NodeMetrics:
    """Per-node packet/byte tallies by (direction, proto), bound once
    per node. :meth:`packet` is two dict adds; the registry folds the
    tallies into ``node_packets_total`` / ``node_bytes_total`` at
    collect."""

    __slots__ = ("node", "packets", "bytes", "_families")

    def __init__(self, registry: MetricsRegistry, node: str) -> None:
        self.node = node
        self.packets = Counter()
        self.bytes = Counter()
        self._families = (
            registry.counter(
                "node_packets_total",
                "Packets seen at a node by direction and protocol",
                ("node", "direction", "proto"),
            ),
            registry.counter(
                "node_bytes_total",
                "Bytes seen at a node by direction and protocol",
                ("node", "direction", "proto"),
            ),
        )
        registry.fold(self.tallies)

    def packet(self, direction: str, proto: str, size: int) -> None:
        key = (direction, proto)
        self.packets[key] += 1
        self.bytes[key] += size

    def tallies(self) -> Iterator[Tally]:
        packets, nbytes = self._families
        for tally, family in ((self.packets, packets), (self.bytes, nbytes)):
            for (direction, proto), total in tally.items():
                yield family, (self.node, direction, proto), total


def _link_counts(link: "Link") -> tuple[int, int, int, int]:
    return (
        link.tx_packets, link.lost_packets,
        link.ecmp_wire_packets, link.ecmp_wire_bytes,
    )


class LinkMetrics:
    """Publishes the transmit/loss tallies every :class:`Link` keeps
    (``tx_packets``, ``lost_packets``, ``ecmp_wire_packets``,
    ``ecmp_wire_bytes``) as four ``link=`` families, counted from the
    link's attach: its values then are the baseline."""

    __slots__ = ("_families", "_links")

    def __init__(self, registry: MetricsRegistry) -> None:
        self._families = (
            registry.counter(
                "link_packets_total", "Packets entering a link", ("link",)
            ),
            registry.counter(
                "link_lost_packets_total",
                "Packets lost in transit on a link",
                ("link",),
            ),
            registry.counter(
                "link_ecmp_wire_packets_total",
                "ECMP control packets entering a link (batch frame counts as one)",
                ("link",),
            ),
            registry.counter(
                "link_ecmp_wire_bytes_total",
                "ECMP control bytes entering a link, post-coalescing",
                ("link",),
            ),
        )
        #: link -> (its label values, its counts at attach).
        self._links: dict = {}
        registry.fold(self.tallies)

    def attach(self, link: "Link") -> None:
        if link not in self._links:
            name = f"{link.node_a.name}--{link.node_b.name}"
            self._links[link] = ((name,), _link_counts(link))

    def tallies(self) -> Iterator[Tally]:
        families = self._families
        for link, (values, baseline) in self._links.items():
            for family, total, start in zip(families, _link_counts(link), baseline):
                yield family, values, total - start


def instrument_simulator(sim: "Simulator", registry: MetricsRegistry) -> None:
    """Attach event-dispatch metrics to a simulator: per-event-name
    counts and wall-clock timing histograms, a live queue-depth gauge,
    and the simulated-clock gauge."""
    events_total = registry.counter(
        "sim_events_total", "Events dispatched by the engine", ("name",)
    )
    event_wall = registry.histogram(
        "sim_event_wall_seconds",
        "Wall-clock seconds spent executing one event",
        ("name",),
        buckets=WALL_BUCKETS,
    )
    queue_depth = registry.gauge(
        "sim_queue_depth", "Live (non-cancelled) events in the scheduler queue"
    )
    sim_clock = registry.gauge("sim_time_seconds", "Current simulated time")
    scheduler_stat = registry.gauge(
        "sim_scheduler_stat",
        "Event-calendar internals (slots_scanned, wheel_inserts, batched "
        "and peeled bulk ops, ...), labelled by stat name",
        ("scheduler", "stat"),
    )

    #: event name -> its timing histogram child, resolved on the name's
    #: first event; the child's count is that name's ``sim_events_total``.
    timings: dict = {}

    def listener(simulator: "Simulator", event: "Event", wall: float) -> None:
        name = event.name or "(anonymous)"
        timing = timings.get(name)
        if timing is None:
            timing = timings[name] = event_wall.labels(name=name)
        timing.observe(wall)

    sim.add_dispatch_listener(listener)
    registry.fold(
        lambda: (
            (events_total, (name,), timing.count)
            for name, timing in timings.items()
        )
    )

    def collect() -> None:
        queue_depth.set(sim.pending())
        sim_clock.set(sim.now)
        stats = sim.scheduler_stats()
        which = stats.pop("scheduler")
        for stat, value in stats.items():
            if isinstance(value, (int, float)):
                scheduler_stat.labels(scheduler=which, stat=stat).set(value)

    registry.register_collector(collect)


#: ``parallel_*`` counter families: (name, help, the SyncStats field
#: each folds). Sync traffic exists only in sharded runs, so the
#: equivalence checker splits these off by prefix.
_SYNC_FAMILIES = (
    ("parallel_null_messages_total",
     "Null-message/LBTS announcements sent by a partition worker",
     "null_messages"),
    ("parallel_lbts_stalls_total",
     "Sync rounds where a worker had a runnable event past the global "
     "LBTS horizon and had to wait",
     "lbts_stalls"),
    ("parallel_proxy_packets_total",
     "Packets exported across cut links", "proxy_packets_out"),
    ("parallel_proxy_bytes_total",
     "Serialized packet bytes exported across cut links", "proxy_bytes_out"),
    ("parallel_proxy_import_packets_total",
     "Packets imported across cut links", "proxy_packets_in"),
    ("parallel_proxy_import_bytes_total",
     "Serialized packet bytes imported across cut links (fleet totals "
     "must balance the export counters)",
     "proxy_bytes_in"),
    ("parallel_sync_rounds_total",
     "Conservative-sync rounds (grants served) by a partition worker",
     "sync_rounds"),
    ("parallel_sync_windows_total",
     "Exclusive-horizon simulator windows drained by a partition worker "
     "(> rounds under multi-window grants)",
     "windows"),
)


class SyncMetrics:
    """Publishes one partition worker's :class:`SyncStats` — the only
    tally — as the ``parallel_*`` counter families, folded in at
    collect."""

    __slots__ = ("stats", "_families", "_frames")

    def __init__(self, registry: MetricsRegistry, stats: "SyncStats") -> None:
        self.stats = stats
        self._families = tuple(
            (registry.counter(name, help, ("partition",)), attr)
            for name, help, attr in _SYNC_FAMILIES
        )
        self._frames = registry.counter(
            "parallel_sync_frames_total",
            "Protocol messages a partition worker exchanged with the "
            "coordinator, by direction",
            ("partition", "direction"),
        )
        registry.fold(self.tallies)

    def tallies(self) -> Iterator[Tally]:
        stats = self.stats
        partition = str(stats.rank)
        for family, attr in self._families:
            yield family, (partition,), getattr(stats, attr)
        yield self._frames, (partition, "sent"), stats.frames_sent
        yield self._frames, (partition, "received"), stats.frames_received


def attach_topology(topo: "Topology", obs: Observability) -> Observability:
    """Instrument an entire topology: the simulator, every node, every
    link. Nodes/links added afterwards are not retro-instrumented; call
    again after wiring if needed (re-attachment is idempotent)."""
    obs.bind_simulator(topo.sim)
    for node in topo.nodes.values():
        if node.metrics is None or node.metrics.node != node.name:
            node.metrics = NodeMetrics(obs.registry, node.name)
    if topo.links:
        if obs.links is None:
            obs.links = LinkMetrics(obs.registry)
        for link in topo.links:
            obs.links.attach(link)
    return obs
