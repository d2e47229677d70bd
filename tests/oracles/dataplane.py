"""One packet hop, the long way round.

§3.4's data plane as it was first written, one small step per
function: a node looks its interface and link up and hands the packet
over; the link finds its other end by comparing nodes, draws loss
unless the packet is marked reliable, and schedules a closure that
calls the receiving node; the node finds the agent for the protocol;
the forwarder classifies the destination, checks for a spoofed own
source, delivers locally, looks ``(S, E)`` up in the FIB — walking the
outgoing bitmap afresh on every lookup — and copies the packet onto
every outgoing interface but (when it owns the packet) the last.

``repro.netsim`` / ``repro.core.forwarding`` / ``repro.routing.fib``
ship the same hop with the look-ups resolved once per link, the egress
set shared per bitmap and the copy written out by hand.
``tests/properties/test_dataplane_equivalence.py`` runs whole seeded
scenarios on both and compares everything an observer could see.
:func:`install` swaps these in at class level. Run it *before* the
network is built: a shipped ``Link`` binds the far node's ``receive``
when it is wired, so a link wired earlier would keep calling the
shipped one.
"""

from __future__ import annotations

from repro.core.channel import interned_channel
from repro.core.forwarding import PROTO_IPIP, ExpressForwarder
from repro.errors import SimulationError
from repro.inet.addr import is_ssm, is_unicast
from repro.netsim.link import Link
from repro.netsim.node import MAX_INTERFACES, Node
from repro.netsim.packet import Packet
from repro.routing.fib import MulticastFib

# -- packet ---------------------------------------------------------------------


def reference_copy(packet: Packet) -> Packet:
    """A fan-out copy through the constructor: a new packet with the
    payload shared and its own headers."""
    return Packet(
        src=packet.src,
        dst=packet.dst,
        proto=packet.proto,
        payload=packet.payload,
        size=packet.size,
        ttl=packet.ttl,
        headers=dict(packet.headers),
        created_at=packet.created_at,
    )


# -- node -----------------------------------------------------------------------


def _record_drop(node: Node, packet: Packet, why: str) -> None:
    node.dropped_packets += 1
    if node.trace is not None:
        node.trace.record(
            node.sim.now, node.name, "drop", packet.proto, packet.size, detail=why
        )
    if node.metrics is not None:
        node.metrics.packet("drop", packet.proto, packet.size)


def reference_send(node: Node, packet: Packet, ifindex: int) -> bool:
    if not 0 <= ifindex < len(node.interfaces):
        raise SimulationError(f"{node.name}: no interface {ifindex}")
    iface = node.interfaces[ifindex]
    if iface.link is None or not iface.link.up:
        _record_drop(node, packet, "link-down")
        return False
    iface.tx_packets += 1
    iface.tx_bytes += packet.size
    if node.trace is not None:
        node.trace.record(
            node.sim.now, node.name, "tx", packet.proto, packet.size,
            detail=f"if{ifindex}",
        )
    if node.metrics is not None:
        node.metrics.packet("tx", packet.proto, packet.size)
    iface.link.transmit(node, packet)
    return True


def reference_send_to_neighbor(node: Node, packet: Packet, neighbor: Node) -> bool:
    iface = node.interface_to(neighbor)
    if iface is None:
        _record_drop(node, packet, "no-interface")
        return False
    return node.send(packet, iface.index)


def _agent_for(node: Node, proto: str):
    return node.agents.get(proto) or node.agents.get("*")


def reference_receive(node: Node, packet: Packet, ifindex: int) -> None:
    iface = node.interfaces[ifindex]
    iface.rx_packets += 1
    iface.rx_bytes += packet.size
    if node.trace is not None:
        node.trace.record(
            node.sim.now, node.name, "rx", packet.proto, packet.size,
            detail=f"if{ifindex}",
        )
    if node.metrics is not None:
        node.metrics.packet("rx", packet.proto, packet.size)
    if packet.ttl <= 0:
        _record_drop(node, packet, "ttl")
        return
    agent = _agent_for(node, packet.proto)
    if agent is None:
        node.unmatched_packets += 1
        return
    agent.handle_packet(packet, ifindex)


# -- link -----------------------------------------------------------------------


def reference_transmit(link: Link, sender: Node, packet: Packet) -> None:
    if not link.up:
        return
    link.tx_packets += 1
    if packet.proto == "ecmp":
        link.ecmp_wire_packets += 1
        link.ecmp_wire_bytes += packet.size
    reliable = bool(packet.headers.get("reliable"))
    if link.loss and not reliable and link.sim.rng.random() < link.loss:
        link.lost_packets += 1
        return
    receiver = link.other_end(sender)
    rx_iface = link.interface_of(receiver)
    latency = link.delay + packet.size / link.bandwidth
    if link.mutator is not None:
        for extra_delay, mutated in link.mutator(link, sender, packet):
            _deliver(link, receiver, rx_iface, mutated, latency + extra_delay)
        return
    _deliver(link, receiver, rx_iface, packet, latency)


def _deliver(link: Link, receiver: Node, rx_iface, packet: Packet, latency: float) -> None:
    if link.capture is not None:
        sender = link.other_end(receiver)
        link.capture(link, sender, packet, link.sim.now + latency)
        return
    link.sim.schedule(
        latency,
        lambda: receiver.receive(packet, rx_iface.index),
        name=f"deliver:{packet.proto}",
    )


# -- FIB ------------------------------------------------------------------------


def reference_egress(fib: MulticastFib, entry) -> list[int]:
    return [i for i in range(MAX_INTERFACES) if entry.outgoing & (1 << i)]


def reference_egress_of(fib: MulticastFib, channel):
    if channel is None:
        return None
    entry = fib.get(channel.source, channel.group)
    return None if entry is None else reference_egress(fib, entry)


def reference_lookup(
    fib: MulticastFib, source: int, dest: int, arriving_ifindex: int
) -> list[int]:
    """Exact match, incoming-interface check, then the bitmap walked
    out into a fresh list. ``lookup_cache_hits`` is not kept: it counts
    something only the shipped egress table does."""
    fib.lookups += 1
    entry = fib.get(source, dest)  # raises for a destination outside 232/8
    if entry is None:
        fib.no_match_drops += 1
        return []
    if entry.incoming_interface != arriving_ifindex:
        fib.iif_drops += 1
        return []
    return reference_egress(fib, entry)


# -- forwarder ------------------------------------------------------------------


def reference_handle_packet(fwd: ExpressForwarder, packet: Packet, ifindex: int) -> None:
    if packet.proto == PROTO_IPIP:
        fwd._handle_encapsulated(packet, ifindex)
        return
    if is_ssm(packet.dst):
        _handle_express(fwd, packet, ifindex)
        return
    if is_unicast(packet.dst):
        fwd._handle_unicast(packet, ifindex)
        return
    fwd.stats.incr("non_express_multicast_drops")


def _handle_express(fwd: ExpressForwarder, packet: Packet, ifindex: int) -> None:
    if packet.src == fwd.node.address:
        fwd.stats.incr("self_spoof_drops")
        return
    delivered = fwd._deliver_local(packet, interned_channel((packet.src, packet.dst)))
    if fwd.ecmp.role == "host":
        return
    oifs = fwd.fib.lookup(packet.src, packet.dst, ifindex)
    fwd._fan_out(packet, oifs, consume=not delivered)


def reference_fan_out(
    fwd: ExpressForwarder, packet: Packet, oifs, consume: bool = False
) -> None:
    n = len(oifs)
    if n == 0:
        return
    fwd.stats.incr("multicast_forwarded", n)
    for i in range(n - 1):
        copy = packet.copy()
        copy.ttl = packet.ttl - 1
        fwd.node.send(copy, oifs[i])
    if consume:
        packet.ttl -= 1
        fwd.stats.incr("fanout_inplace")
        fwd.node.send(packet, oifs[n - 1])
    else:
        copy = packet.copy()
        copy.ttl = packet.ttl - 1
        fwd.node.send(copy, oifs[n - 1])


# -- installation ---------------------------------------------------------------

REPLACEMENTS = (
    (Packet, "copy", reference_copy),
    (Node, "send", reference_send),
    (Node, "send_to_neighbor", reference_send_to_neighbor),
    (Node, "receive", reference_receive),
    (Link, "transmit", reference_transmit),
    (MulticastFib, "egress", reference_egress),
    (MulticastFib, "egress_of", reference_egress_of),
    (MulticastFib, "lookup", reference_lookup),
    (ExpressForwarder, "handle_packet", reference_handle_packet),
    (ExpressForwarder, "_fan_out", reference_fan_out),
)


def install(monkeypatch) -> None:
    """Swap every reference function in for the shipped method."""
    for owner, name, function in REPLACEMENTS:
        monkeypatch.setattr(owner, name, function)
