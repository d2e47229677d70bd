"""Routing substrates.

ECMP's routing component "relies on, and scales with, existing unicast
topology information" (§3): subscriptions travel hop-by-hop along
reverse-path-forwarding (RPF) routes toward the source. This package
holds only what EXPRESS uses: that unicast substrate (link-state
shortest-path routing, whose ``next_hop`` toward a source *is* the RPF
neighbor and whose ``forward`` is every stack's one unicast send) and
the multicast FIB with the paper's exact 12-byte entry format
(Figure 5). The baseline protocols the paper compares against run in
:mod:`repro.groupmodel`.
"""

from repro.routing.fib import FIB_ENTRY_BYTES, FibEntry, MulticastFib
from repro.routing.unicast import UnicastRouting

__all__ = [
    "FIB_ENTRY_BYTES",
    "FibEntry",
    "MulticastFib",
    "UnicastRouting",
]
