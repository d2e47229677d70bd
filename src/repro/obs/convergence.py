"""Time-to-quiescence tracking for instrumented runs.

HPIM-DM's headline comparison against soft-state protocols is
*convergence time*: how long after the last membership or topology
event the protocol keeps mutating state. The EXPRESS simulator can
measure this exactly — a :class:`ConvergenceMonitor` timestamps every
durable protocol state mutation (membership joins/leaves, count
updates, upstream re-homes) in simulated time, and the difference
between the last mutation and the last scheduled workload op is the
run's *settle time*.

Event names are deliberately not the signal: periodic keepalives and
UDP-mode refresh queries dispatch forever, so an event-level quiescence
test would never trigger. State mutations are the right discriminator —
a settled tree absorbs keepalives without changing anything.

Simulated time makes the figure machine- and scale-independent: the
scenario generators pin op windows regardless of subscriber count, so
``settle_seconds`` from a laptop quick run and a CI full run are
directly comparable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netsim.engine import Simulator


class ConvergenceMonitor:
    """Timestamps durable protocol state mutations in simulated time.

    Attach via ``Observability.convergence``; the instrumented ECMP
    agent calls ``obs.state_changed()`` at each mutation point and this
    monitor records ``sim.now``. Cheap enough to leave on for whole
    runs: one attribute write per state change, nothing per event.
    """

    __slots__ = ("sim", "last_change", "changes")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: Simulated time of the most recent state mutation (0.0 if
        #: none happened — an empty run is trivially converged).
        self.last_change: float = 0.0
        self.changes: int = 0

    def touch(self, count: int = 1) -> None:
        self.last_change = self.sim.now
        self.changes += count

    def settle_seconds(self, after: float = 0.0) -> float:
        """How long past ``after`` (typically the last workload op's
        simulated time) state kept changing. 0.0 when the system was
        already quiescent by then."""
        return max(0.0, self.last_change - after)

    def as_dict(self) -> dict:
        return {"last_change": self.last_change, "changes": self.changes}
