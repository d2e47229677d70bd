"""Point-to-point links with delay, bandwidth, loss, and failure.

Delivery time is ``propagation delay + size / bandwidth``; loss is an
independent Bernoulli draw per packet from the simulator's seeded RNG,
so runs are reproducible. Links can be taken down and brought back up,
which notifies both endpoint nodes (used by the topology-change and
TCP-mode-failure experiments).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from repro.errors import TopologyError
from repro.netsim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netsim.engine import Simulator
    from repro.netsim.node import Interface, Node

#: Default link bandwidth: 100 Mbit/s, the paper's "each low-cost PC
#: today is capable of forwarding data at a rate in excess of 100 Mbps".
DEFAULT_BANDWIDTH = 100e6 / 8


class _DeliverNames(dict):
    """``proto -> "deliver:<proto>"``, one string object per protocol
    label instead of one formatted per packet."""

    def __missing__(self, proto: str) -> str:
        name = self[proto] = f"deliver:{proto}"
        return name


_DELIVER_NAME = _DeliverNames()


class Link:
    """A bidirectional point-to-point link between two interfaces."""

    def __init__(
        self,
        sim: "Simulator",
        iface_a: "Interface",
        iface_b: "Interface",
        delay: float = 0.001,
        bandwidth: float = DEFAULT_BANDWIDTH,
        loss: float = 0.0,
    ) -> None:
        if delay < 0:
            raise TopologyError(f"link delay must be >= 0, got {delay}")
        if bandwidth <= 0:
            raise TopologyError(f"link bandwidth must be > 0, got {bandwidth}")
        if not 0.0 <= loss < 1.0:
            raise TopologyError(f"link loss must be in [0, 1), got {loss}")
        self.sim = sim
        self.iface_a = iface_a
        self.iface_b = iface_b
        self.node_a = node_a = iface_a.node
        self.node_b = node_b = iface_b.node
        self.delay = delay
        self.bandwidth = bandwidth
        self.loss = loss
        self.up = True
        #: The link's only transmit/loss counts: observability publishes
        #: them (:class:`repro.obs.hooks.LinkMetrics`), it keeps no copy.
        self.tx_packets = 0
        self.lost_packets = 0
        self.ecmp_wire_packets = 0
        self.ecmp_wire_bytes = 0
        #: Optional capture hook installed by the parallel-simulation
        #: proxy layer (:mod:`repro.netsim.parallel.worker`) on cut
        #: links: when set, delivery is not scheduled locally — the
        #: packet (with its exact arrival time and receive interface)
        #: is handed to ``capture(link, sender, packet, arrival_time)``
        #: for export to the partition that owns the far end. All
        #: sender-side accounting (tx counters, loss draw) still
        #: happens, so per-link counters match a single-process run
        #: when summed across partitions.
        self.capture = None
        #: Optional wire-mutation hook installed by the fault-injection
        #: subsystem (:mod:`repro.faults.wire`). Called after the loss
        #: draw with ``mutator(link, sender, packet)`` and must return
        #: an iterable of ``(extra_delay, packet)`` deliveries: an
        #: empty iterable drops the frame, two entries duplicate it,
        #: and a positive ``extra_delay`` reorders it behind later
        #: traffic. Each delivery is routed through the same
        #: capture-or-schedule path as an unmutated packet, so the
        #: parallel proxy layer sees mutated frames too. Sender-side
        #: accounting happens once per :meth:`transmit` call, before
        #: mutation, exactly like the loss draw.
        self.mutator = None
        #: sender -> (the far node's bound ``receive``, the far
        #: interface's index), resolved once: neither end of a link
        #: ever changes.
        self._far_end = {
            node_a: (node_b.receive, iface_b.index),
            node_b: (node_a.receive, iface_a.index),
        }
        iface_a.link = self
        iface_b.link = self
        iface_a.peer = node_b
        iface_b.peer = node_a
        node_a.adjacent.setdefault(node_b, iface_a)
        node_b.adjacent.setdefault(node_a, iface_b)

    def other_end(self, node: "Node") -> "Node":
        if node is self.node_a:
            return self.node_b
        if node is self.node_b:
            return self.node_a
        raise TopologyError(f"{node.name} is not attached to this link")

    def interface_of(self, node: "Node") -> "Interface":
        if node is self.node_a:
            return self.iface_a
        if node is self.node_b:
            return self.iface_b
        raise TopologyError(f"{node.name} is not attached to this link")

    def transmit(self, sender: "Node", packet: Packet) -> None:
        """Move ``packet`` from ``sender`` toward the other end."""
        if not self.up:
            return
        self.tx_packets += 1
        proto = packet.proto
        if proto == "ecmp":
            # Wire-level control accounting: one increment per wire
            # packet, so a coalesced batch frame counts once.
            self.ecmp_wire_packets += 1
            self.ecmp_wire_bytes += packet.size
        # TCP-mode control traffic is marked reliable: retransmission
        # hides loss, so the loss draw is skipped (delay still applies).
        if (
            self.loss
            and not packet.headers.get("reliable")
            and self.sim.rng.random() < self.loss
        ):
            self.lost_packets += 1
            return
        try:
            receive, rx_index = self._far_end[sender]
        except KeyError:
            raise TopologyError(f"{sender.name} is not attached to this link") from None
        latency = self.delay + packet.size / self.bandwidth
        # ownership transfers; callers copy for fanout
        if self.mutator is None:
            if self.capture is None:
                self.sim.schedule(
                    latency, partial(receive, packet, rx_index), _DELIVER_NAME[proto]
                )
            else:
                self.capture(self, sender, packet, self.sim.now + latency)
            return
        for extra_delay, mutated in self.mutator(self, sender, packet):
            arrival = latency + extra_delay
            if self.capture is None:
                name = _DELIVER_NAME[mutated.proto]
                self.sim.schedule(arrival, partial(receive, mutated, rx_index), name)
            else:
                self.capture(self, sender, mutated, self.sim.now + arrival)

    def set_up(self, up: bool) -> None:
        """Change link state, notifying both endpoints on transitions."""
        if up == self.up:
            return
        self.up = up
        self.node_a.link_changed(self.iface_a.index, up)
        self.node_b.link_changed(self.iface_b.index, up)

    def fail(self) -> None:
        self.set_up(False)

    def recover(self) -> None:
        self.set_up(True)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.up else "DOWN"
        return f"<Link {self.node_a.name}<->{self.node_b.name} {state}>"
