"""Routing substrates.

ECMP's routing component "relies on, and scales with, existing unicast
topology information" (§3): subscriptions travel hop-by-hop along
reverse-path-forwarding (RPF) routes toward the source. This package
holds only what EXPRESS uses: that unicast substrate (link-state
shortest-path routing), the RPF helpers and the multicast FIB with the
paper's exact 12-byte entry format (Figure 5). The baseline protocols
the paper compares against run in :mod:`repro.groupmodel`.
"""

from repro.routing.fib import FIB_ENTRY_BYTES, FibEntry, MulticastFib
from repro.routing.rpf import rpf_check, rpf_interface, rpf_neighbor
from repro.routing.unicast import UnicastRouting

__all__ = [
    "FIB_ENTRY_BYTES",
    "FibEntry",
    "MulticastFib",
    "UnicastRouting",
    "rpf_check",
    "rpf_interface",
    "rpf_neighbor",
]
