"""SLO scoring for chaos runs: convergence, resync cost, blast radius.

Built on the PR-6 convergence hooks: the
:class:`~repro.obs.convergence.ConvergenceMonitor` already timestamps
every protocol/FIB state mutation, so *convergence time* is simply the
gap between the last injected fault and the last state write once the
network has been given room to settle. The other SLOs are counter
deltas over the fault window:

``convergence_seconds``
    ``last_state_change - last_fault_time`` — how long the soft-state
    machinery (keepalive rediscovery, resync re-announcement,
    hysteresis re-homing, refresh expiry) kept churning after the last
    fault landed. Lower is better.

``resync_bytes``
    Extra control bytes attributable to recovery: the
    ``resync_bytes`` counters the protocol tallies in
    ``_neighbor_recovered`` and ``reevaluate_upstreams``, summed over
    the fleet and differenced against the pre-fault baseline.

``orphaned_state``
    State that should not exist in a settled network: FIB entries with
    no channel-table backing, downstream records whose neighbor does
    not reciprocate with a matching upstream, and refresh-ring entries
    pointing at dead records. A healthy run settles to zero — the
    §3 soft-state claim this subsystem exists to check.

``blast_radius``
    The fraction of agents whose churn counters moved during the fault
    window — how far the damage spread beyond the faulted nodes. A
    crash whose resync stays within the neighbor set scores near
    ``(neighbors+1)/agents``; full-fleet churn scores 1.0.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.ecmp.state import is_pseudo_neighbor
from repro.errors import FaultError
from repro.obs.convergence import ConvergenceMonitor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.network import ExpressNetwork
    from repro.faults.injectors import FaultInjector

#: Per-agent counters whose movement marks the agent as churned by the
#: fault window (the blast-radius numerator).
CHURN_KEYS = (
    "subscribe_events",
    "unsubscribe_events",
    "count_update_events",
    "upstream_changes",
    "udp_expirations",
    "resync_counts",
    "resync_events",
    "denied_subscriptions",
    "unexpected_counts",
    "query_timeouts",
    "state_losses",
)


class FaultMonitor:
    """Scores one chaos run against the robustness SLOs.

    Usage: construct against the network, :meth:`begin` once the
    workload is settled (the pre-fault baseline), hand the monitor to
    the :class:`~repro.faults.injectors.FaultInjector` so it can stamp
    fault times, run the plan plus a settle window, then
    :meth:`report`.
    """

    def __init__(self, net: "ExpressNetwork") -> None:
        self.net = net
        self.convergence: Optional[ConvergenceMonitor] = None
        obs = net.obs
        if obs is not None:
            if getattr(obs, "convergence", None) is None:
                obs.convergence = ConvergenceMonitor(net.sim)
            self.convergence = obs.convergence
        self.last_fault_at: Optional[float] = None
        self.faults: list[tuple[float, str, str]] = []
        self._baseline: Optional[dict] = None

    # -- injector callback -------------------------------------------------

    def note_fault(self, at: float, kind: str, target: str) -> None:
        self.last_fault_at = at
        self.faults.append((at, kind, target))

    # -- lifecycle ---------------------------------------------------------

    def begin(self) -> None:
        """Snapshot the pre-fault baseline (call after initial
        settlement, before any fault fires)."""
        self._baseline = {
            "time": self.net.sim.now,
            "totals": self.net.control_stats_total(),
            "churn": self._churn_by_agent(),
        }

    def _churn_by_agent(self) -> dict[str, int]:
        return {
            name: sum(agent.stats.get(key) for key in CHURN_KEYS)
            for name, agent in self.net.ecmp_agents.items()
        }

    # -- SLO computation ---------------------------------------------------

    def orphaned_state(self) -> int:
        """Count state entries a settled network should not hold."""
        orphans = 0
        agents = self.net.ecmp_agents
        for name, agent in agents.items():
            table = {
                (channel.source, channel.group) for channel in agent.channels
            }
            for source, dest in agent.fib.channels():
                if (source, dest) not in table:
                    orphans += 1
            for channel, state in agent.channels.items():
                for neighbor, record in state.downstream.items():
                    if (
                        record.count <= 0
                        or is_pseudo_neighbor(neighbor)
                        or neighbor not in agents
                    ):
                        continue
                    peer = agents[neighbor].channels.get(channel)
                    if peer is None or peer.upstream != name:
                        orphans += 1
            ring = agent.liveness.ring
            if ring is not None:
                for key in list(ring._entries):
                    ring_channel, ring_neighbor = key
                    state = agent.channels.get(ring_channel)
                    if state is None or ring_neighbor not in state.downstream:
                        orphans += 1
        return orphans

    def report(self, injector: Optional["FaultInjector"] = None) -> dict:
        """The SLO dict for this run (requires :meth:`begin`)."""
        if self._baseline is None:
            raise FaultError("FaultMonitor.report() before begin()")
        totals = self.net.control_stats_total()
        base_totals = self._baseline["totals"]

        def delta(key: str) -> int:
            return totals.get(key, 0) - base_totals.get(key, 0)

        churn = self._churn_by_agent()
        base_churn = self._baseline["churn"]
        churned = [
            name
            for name, value in churn.items()
            if value > base_churn.get(name, 0)
        ]
        agents_total = len(self.net.ecmp_agents)

        if self.convergence is not None and self.last_fault_at is not None:
            convergence_seconds = max(
                0.0, self.convergence.last_change - self.last_fault_at
            )
        else:
            convergence_seconds = 0.0

        out = {
            "faults_fired": len(self.faults),
            "last_fault_at": self.last_fault_at,
            "convergence_seconds": convergence_seconds,
            "resync_bytes": delta("resync_bytes"),
            "resync_counts": delta("resync_counts"),
            "resync_events": delta("resync_events"),
            "orphaned_state": self.orphaned_state(),
            "blast_radius": (len(churned) / agents_total) if agents_total else 0.0,
            "agents_churned": len(churned),
            "agents_total": agents_total,
            "state_losses": delta("state_losses"),
            "denied_subscriptions": delta("denied_subscriptions"),
            "unexpected_counts": delta("unexpected_counts"),
            "udp_expirations": delta("udp_expirations"),
            "upstream_changes": delta("upstream_changes"),
        }
        if injector is not None:
            out["wire_mutations"] = injector.mutation_stats()
            out["attack"] = dict(injector.attack_stats)
        return out
