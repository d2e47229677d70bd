"""EXPRESS multicast channels — a reproduction of Holbrook & Cheriton,
"IP Multicast Channels: EXPRESS Support for Large-scale Single-source
Applications" (SIGCOMM 1999).

Public API tour
---------------

* :class:`~repro.netsim.Topology` / :class:`~repro.netsim.TopologyBuilder`
  — build a simulated internetwork.
* :class:`~repro.core.ExpressNetwork` — enable EXPRESS on it; get
  :meth:`host` / :meth:`source` handles implementing the paper's §2.1
  service interface (newSubscription, deleteSubscription, CountQuery,
  channelKey, subcast).
* :class:`~repro.core.Channel`, :func:`~repro.core.make_key` — channel
  identities and authenticators.
* :class:`~repro.core.ToleranceCurve` — §6 proactive counting.
* :mod:`repro.relay` — §4 session-relay middleware for multi-source
  applications (floor control, standby failover, reliable sequencing).
* :mod:`repro.routing` — the unicast substrate plus PIM-SM/CBT/DVMRP
  baseline models for the comparison benchmarks.
* :mod:`repro.costmodel` — §5's analytic cost models (Figure 6 and the
  in-text state/maintenance analyses).
* :mod:`repro.workloads` — one op language for what happens in a run
  (``schedule_ops``, ``ScenarioSpec``), the churn generators and the
  Figure 8 scenario.
"""

from repro.core import (
    Channel,
    ChannelAllocator,
    ChannelKey,
    ExpressNetwork,
    KeyCache,
    ProactiveCounter,
    ToleranceCurve,
    make_key,
)
from repro.core.ecmp import (
    ALL_CHANNELS_ID,
    NEIGHBORS_ID,
    SUBSCRIBER_ID,
    Count,
    CountPropagation,
    CountQuery,
    CountResponse,
    CountStatus,
    NeighborMode,
)
from repro.netsim import Simulator, Topology, TopologyBuilder

__version__ = "1.0.0"

__all__ = [
    "ALL_CHANNELS_ID",
    "Channel",
    "ChannelAllocator",
    "ChannelKey",
    "Count",
    "CountPropagation",
    "CountQuery",
    "CountResponse",
    "CountStatus",
    "ExpressNetwork",
    "KeyCache",
    "NEIGHBORS_ID",
    "NeighborMode",
    "ProactiveCounter",
    "SUBSCRIBER_ID",
    "Simulator",
    "ToleranceCurve",
    "Topology",
    "TopologyBuilder",
    "make_key",
]
