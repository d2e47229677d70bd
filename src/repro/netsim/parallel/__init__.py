"""Sharded simulation in one process: per-partition event loops with
conservative lookahead.

The distribution tree rooted at ``(S, E)`` decomposes into subtrees
whose only coupling is hop-by-hop control traffic on the links that
cross the cut, so the simulator shards naturally: a partitioner splits
the topology into per-subtree node sets (source in rank 0, cut links
minimized), every partition worker builds the *full* topology — so
addressing, interface indices, and unicast routing are identical
everywhere — but starts protocol agents only for the nodes it owns,
and cut links are replaced by proxy endpoints that serialize packets
(the real ECMP wire codec, ``MSG_BATCH`` frames included, for control
traffic) and re-inject them in the owning partition with exact
``(time, seq)`` ordering.

Synchronization is conservative and demand-driven: each cut link's
propagation delay is its lookahead, and no worker dispatches past its
granted horizon — derived from the other partitions' next effective
event times plus the transitive cut-link closure. The coordinator
grants each worker a multi-window horizon *ladder* and skips quiet
shards entirely. The sharded run is deterministic for a given seed
and, once settled, produces ``ChannelState`` tables, delivery counts,
and obs counters identical to the single-process oracle (pinned by
``tests/properties/test_partition_equivalence.py``).

What remains exists for the frozen ``benchmarks/e2e`` probe and that
equivalence suite: ROADMAP item 6 removes the package once the
benchmark change of item 1(a) drops the probe. The scenario spec it
runs lives in :mod:`repro.workloads.spec` and is re-exported here.
"""

from repro.netsim.parallel.partition import PartitionPlan, plan_partitions
from repro.netsim.parallel.runner import (
    ParallelResult,
    ParallelRunner,
    assert_equivalent,
    run_single,
)
from repro.netsim.parallel.sync import (
    SyncStats,
    build_ladder,
    grant_ceilings,
    message_stats,
    transitive_lookahead,
)
from repro.netsim.parallel.transport import TransportError
from repro.workloads.spec import OPGENS, ScenarioSpec

__all__ = [
    "OPGENS",
    "ParallelResult",
    "ParallelRunner",
    "PartitionPlan",
    "ScenarioSpec",
    "SyncStats",
    "TransportError",
    "assert_equivalent",
    "build_ladder",
    "grant_ceilings",
    "message_stats",
    "plan_partitions",
    "run_single",
    "transitive_lookahead",
]
