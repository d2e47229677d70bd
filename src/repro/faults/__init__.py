"""Fault injection and adversarial robustness (``repro.faults``).

EXPRESS is a soft-state design (§3): periodic refresh, UDP-mode
timeout-decrement, key-authenticated joins. This subsystem measures
what that buys — and costs — when things break. A :class:`FaultPlan`
holds faults as the scenario language's ``(time, kind, *args)`` ops
(crash/restart, partition/heal, latency spikes, wire mutation,
forged-key floods, counting inflation); a :class:`FaultInjector` arms
it against a live network, one ``fault:<kind>`` event per op, and a
:class:`FaultMonitor` scores the run with convergence-time,
resync-bytes, orphaned-state, and blast-radius SLOs. Everything is
seeded through the :func:`~repro.netsim.engine.derive_seed` contract:
chaos runs replay bit-identically, and an empty plan leaves a run
bit-identical to one with no fault instrumentation at all.

See ``docs/robustness.md`` for the fault model and SLO definitions.
"""

from repro.faults.injectors import FaultInjector
from repro.faults.monitor import CHURN_KEYS, FaultMonitor
from repro.faults.plan import KINDS, LINK_KINDS, FaultPlan, seeded_crash_storm
from repro.faults.wire import WireMutator

__all__ = [
    "CHURN_KEYS",
    "FaultInjector",
    "FaultMonitor",
    "FaultPlan",
    "KINDS",
    "LINK_KINDS",
    "WireMutator",
    "seeded_crash_storm",
]
