"""Arm a :class:`~repro.faults.plan.FaultPlan` against a live network.

The injector turns each op of a plan into real simulator events:
crashes take every attached link down and wipe the agent's soft state
through :meth:`EcmpAgent.lose_state`; restarts reboot the agent empty
and bring the links back, so the resync storm flows through the
genuine ECMP protocol (keepalive rediscovery,
``_neighbor_recovered`` count re-announcement, hysteresis re-homing) —
nothing is shortcut. Adversarial kinds drive the same public API an
attacker on the wire could reach: forged-key ``newSubscription`` calls
and raw inflated ``Count`` reports.

An empty plan arms *nothing*: zero simulator events, zero RNG draws —
a fault-instrumented run with no faults is bit-identical to a plain
run (pinned by ``tests/properties/test_fault_equivalence.py``).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Optional

from repro.core.ecmp.countids import SUBSCRIBER_ID
from repro.core.ecmp.messages import Count
from repro.core.keys import KEY_BYTES, ChannelKey
from repro.errors import ChannelError, FaultError
from repro.faults.plan import FaultPlan, target_of
from repro.faults.wire import WireMutator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.network import ExpressNetwork
    from repro.faults.monitor import FaultMonitor
    from repro.netsim.link import Link


class FaultInjector:
    """Applies a plan's ops to an :class:`ExpressNetwork`.

    Construct, then :meth:`arm` once before (or during) the run. Fired
    faults are logged in :attr:`fired` as ``(time, kind, target)`` and
    reported to the optional :class:`FaultMonitor` so SLO scoring knows
    when the last fault landed.
    """

    def __init__(
        self,
        net: "ExpressNetwork",
        plan: FaultPlan,
        monitor: Optional["FaultMonitor"] = None,
    ) -> None:
        self.net = net
        self.plan = plan
        self.monitor = monitor
        self.armed = False
        #: ``(sim_time, kind, target)`` of every fault actually fired.
        self.fired: list[tuple[float, str, str]] = []
        #: crashed node -> the links its restart raises. A link is up
        #: when no partition holds it and neither end is crashed.
        self._downed: dict[str, list["Link"]] = {}
        #: Live wire mutators by link, for monitor reporting.
        self.mutators: list[WireMutator] = []
        #: Adversarial-load accounting.
        self.attack_stats = {
            "join_attempts": 0,
            "join_errors": 0,
            "inflated_counts": 0,
        }

    # -- plan arming -------------------------------------------------------

    def arm(self) -> None:
        """Validate the plan and schedule every op, one ``schedule_at``
        named ``fault:<kind>`` each. Idempotence is not attempted —
        arming twice is an error; a plan refused here leaves the
        injector unarmed and the simulator untouched."""
        if self.armed:
            raise FaultError("fault plan already armed")
        self.plan.validate()
        ops = self.plan.sorted_ops()
        sim = self.net.sim
        if ops and ops[0][1][0] < sim.now:
            raise FaultError(
                f"fault at t={ops[0][1][0]} is in the past (now={sim.now})"
            )
        self.armed = True
        for index, op in ops:
            sim.schedule_at(op[0], partial(self._fire, index, op), name=f"fault:{op[1]}")

    def _fire(self, index: int, op: tuple) -> None:
        kind = op[1]
        getattr(self, f"_fire_{kind}")(index, *op[2:])
        now = self.net.sim.now
        target = target_of(op)
        self.fired.append((now, kind, target))
        if self.monitor is not None:
            self.monitor.note_fault(now, kind, target)

    # -- node faults -------------------------------------------------------

    def _links_of(self, name: str) -> list["Link"]:
        node = self.net.topo.node(name)
        return [
            iface.link for iface in node.interfaces if iface.link is not None
        ]

    def _fire_crash(self, index: int, name: str) -> None:
        agent = self.net.ecmp_agents.get(name)
        if agent is None:
            raise FaultError(f"unknown crash target {name!r}")
        downed = []
        for link in self._links_of(name):
            if link.up:
                link.set_up(False)
                downed.append(link)
        self._downed[name] = downed
        agent.lose_state()

    def _fire_restart(self, index: int, name: str) -> None:
        agent = self.net.ecmp_agents.get(name)
        if agent is None:
            raise FaultError(f"unknown restart target {name!r}")
        # Reboot first, then raise the links: the up-notifications
        # trigger the neighbors' resync storms and the recompute that
        # re-homes trees back through this router, and the freshly
        # started agent must be listening when they land.
        agent.start()
        for link in self._downed.pop(name, []):
            self._raise(link)

    def _raise(self, link: "Link") -> None:
        """Raise ``link``, or leave it to the restart of a crashed end."""
        for node in (link.node_a, link.node_b):
            if node.name in self._downed:
                self._downed[node.name].append(link)
                return
        link.set_up(True)

    # -- link faults -------------------------------------------------------

    def _link(self, a: str, b: str) -> "Link":
        link = self.net.topo.link_between(a, b)
        if link is None:
            raise FaultError(f"no link between {a!r} and {b!r}")
        return link

    def _fire_partition(self, index: int, a: str, b: str) -> None:
        link = self._link(a, b)
        for downed in self._downed.values():
            if link in downed:
                downed.remove(link)
        link.fail()

    def _fire_heal(self, index: int, a: str, b: str) -> None:
        link = self._link(a, b)
        if not any(link in downed for downed in self._downed.values()):
            self._raise(link)

    def _fire_latency_spike(
        self, index: int, a: str, b: str, factor: float, duration: float
    ) -> None:
        link = self._link(a, b)
        original = link.delay
        link.delay = original * factor

        def restore() -> None:
            link.delay = original

        self.net.sim.schedule(duration, restore, name="fault:latency-restore")

    def _fire_wire_mutate(
        self, index: int, a: str, b: str, duration: float,
        drop: float, duplicate: float, reorder: float, reorder_delay: float,
    ) -> None:
        link = self._link(a, b)
        now = self.net.sim.now
        mutator = WireMutator(
            self.plan.rng_for(index), drop, duplicate, reorder, reorder_delay,
            start=now, end=now + duration,
        )
        mutator.install(link)
        self.mutators.append(mutator)
        self.net.sim.schedule(
            duration,
            lambda: mutator.remove(link),
            name="fault:wire-restore",
        )

    # -- adversarial load --------------------------------------------------

    def _fire_join_flood(
        self, index: int, attacker: str, channel: Any, attempts: int, interval: float
    ) -> None:
        agent = self.net.ecmp_agents.get(attacker)
        if agent is None:
            raise FaultError(f"unknown join_flood attacker {attacker!r}")
        rng = self.plan.rng_for(index)

        def attempt() -> None:
            forged = ChannelKey(
                bytes(rng.randrange(256) for _ in range(KEY_BYTES))
            )
            self.attack_stats["join_attempts"] += 1
            try:
                agent.new_subscription(channel, key=forged)
            except ChannelError:
                self.attack_stats["join_errors"] += 1

        sim = self.net.sim
        for i in range(attempts):
            sim.schedule(i * interval, attempt, name="fault:join-flood")

    def _fire_count_inflate(
        self, index: int, attacker: str, channel: Any, count: int, repeats: int,
        interval: float,
    ) -> None:
        agent = self.net.ecmp_agents.get(attacker)
        if agent is None:
            raise FaultError(f"unknown count_inflate attacker {attacker!r}")

        def victim() -> str:
            state = agent.channels.get(channel)
            if state is not None and state.upstream is not None:
                return state.upstream
            links = self._links_of(attacker)
            if not links:
                raise FaultError(f"{attacker!r} has no neighbors to attack")
            return links[0].other_end(self.net.topo.node(attacker)).name

        def inflate() -> None:
            # A raw subscriber-count report claiming ``count`` members
            # behind this host: the soft-state design accepts it
            # last-writer-wins, so the *measurement* is how far it
            # propagates and how fast the next honest refresh or
            # expiry corrects it.
            self.attack_stats["inflated_counts"] += 1
            agent._send_message(
                Count(channel, SUBSCRIBER_ID, count), victim()
            )

        sim = self.net.sim
        for i in range(repeats):
            sim.schedule(i * interval, inflate, name="fault:count-inflate")

    def mutation_stats(self) -> dict[str, int]:
        totals = {"passed": 0, "dropped": 0, "duplicated": 0, "reordered": 0}
        for mutator in self.mutators:
            for key, value in mutator.stats.items():
                totals[key] += value
        return totals
