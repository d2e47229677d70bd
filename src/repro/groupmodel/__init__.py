"""Live group-model multicast: the world EXPRESS replaces.

The protocols EXPRESS is compared against, as *running protocol
agents* on the simulator, so the paper's §1 and §3.6 claims are
measured on live packets (X1, X7, X8). Their analytic trees survive
only as the test oracle ``tests/oracles/trees.py``, which a property
suite holds these agents to:

* :mod:`repro.groupmodel.router` — the skeleton all three share:
  :class:`GroupRouterAgent` (neighbor naming, the upstream query, the
  one reliable control send, fan-out, tunnels in transit, state
  inspection) and :class:`JoinPrune`, the one join/prune message.
* :mod:`repro.groupmodel.pim` — PIM-SM-lite: hop-by-hop Join/Prune
  toward a rendezvous point, register encapsulation of sources to the
  RP, shared-tree forwarding, and receiver-side switchover to
  source-specific trees.
* :mod:`repro.groupmodel.cbt` — CBT-lite: a bidirectional core-based
  tree with tunnelling for off-tree senders.
* :mod:`repro.groupmodel.dvmrp` — DVMRP-lite: RPF flood-and-prune with
  prune expiry and grafts.
* :mod:`repro.groupmodel.network` — the facade: any-source groups on a
  topology (the group model's defining — and, per §1, its problematic —
  property: *any* host can send to any group).
"""

from repro.groupmodel.cbt import CbtRouterAgent
from repro.groupmodel.dvmrp import DvmrpRouterAgent
from repro.groupmodel.network import GroupHostAgent, GroupNetwork
from repro.groupmodel.pim import PimRouterAgent
from repro.groupmodel.router import GroupRouterAgent, JoinPrune

__all__ = [
    "CbtRouterAgent",
    "DvmrpRouterAgent",
    "GroupHostAgent",
    "GroupNetwork",
    "GroupRouterAgent",
    "JoinPrune",
    "PimRouterAgent",
]
