"""Subcast packet construction (§2.1).

"The source can also subcast a packet to a subset of the subscribers by
relaying it through an internal node in the multicast distribution
tree. ... This mechanism needs no additional interface — the source
unicasts an encapsulated packet to an 'on-channel' router, addressing
the encapsulated packet to the channel."

Decapsulation and downstream forwarding live in the data plane
(:class:`repro.core.forwarding.ExpressForwarder`); this module only
builds the two-layer packet. The single-source property is preserved by
the forwarder's check that the outer (tunnel) source equals the channel
source — the distinction from RMTP's SUBTREE_CAST that §7.1 highlights.
"""

from __future__ import annotations

from typing import Any

from repro.core.channel import Channel
from repro.errors import ChannelError
from repro.netsim.packet import Packet


def build_subcast_packet(
    channel: Channel,
    relay_address: int,
    payload: Any = None,
    size: int = 512,
    created_at: float = 0.0,
) -> Packet:
    """An IP-in-IP packet: outer to ``relay_address``, inner addressed
    to the channel. ``size`` is the *inner* datagram's wire size."""
    if relay_address == channel.source:
        raise ChannelError("subcast relay must be an interior node, not the source")
    inner = Packet(
        src=channel.source,
        dst=channel.group,
        proto="data",
        payload=payload,
        size=size,
        created_at=created_at,
    )
    return inner.encapsulate(outer_src=channel.source, outer_dst=relay_address, proto="ipip")
