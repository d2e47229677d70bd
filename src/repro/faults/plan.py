"""Declarative, replayable chaos plans, written as ops.

A :class:`FaultPlan` holds faults in the scenario language's op shape
(:mod:`repro.workloads.spec`), ``(time, kind, *args)``:

    ("crash" | "restart", node)
    ("partition" | "heal", a, b)
    ("latency_spike", a, b, factor, duration)
    ("wire_mutate", a, b, duration, drop, duplicate, reorder, reorder_delay)
    ("join_flood", attacker, channel, attempts, interval)
    ("count_inflate", attacker, channel, count, repeats, interval)

Each builder checks its own arguments; :meth:`FaultPlan.validate` checks
what only the whole plan shows (a restart with no crash, two windows of
one kind overlapping on one link). An injector
(:mod:`repro.faults.injectors`) arms the plan against a live
:class:`~repro.core.network.ExpressNetwork`. Plans are data, not
callbacks: the same plan applied to the same seeded network replays
bit-identically, and an *empty* plan schedules nothing at all, so an
instrumented run with no faults is indistinguishable from a plain run
(the ``tests/properties/test_fault_equivalence.py`` suite pins this).

Every source of randomness inside a fault (forged key bytes, mutation
draws, flood jitter) comes from a per-op ``random.Random`` seeded
through the repo's :func:`~repro.netsim.engine.derive_seed` contract —
never from the simulator's own RNG — so injecting a fault perturbs the
run only through the protocol events it causes, and two plans with the
same seed draw identical chaos regardless of what the simulation does
in between.
"""

from __future__ import annotations

import random
from typing import Any, Iterator

from repro.errors import FaultError
from repro.netsim.engine import derive_seed

#: Every fault kind an injector knows how to fire. Node faults operate
#: on one router; link faults on an ``(a, b)`` endpoint pair;
#: adversarial kinds on an attacker host/router.
KINDS = (
    "crash",
    "restart",
    "partition",
    "heal",
    "latency_spike",
    "wire_mutate",
    "join_flood",
    "count_inflate",
)

#: Kinds whose first two arguments are a link's endpoints ``a, b``.
LINK_KINDS = ("partition", "heal", "latency_spike", "wire_mutate")

#: Windowed link kinds -> the op position of their duration. Two windows
#: of one kind may not overlap on one link (:meth:`FaultPlan.validate`).
WINDOW_DURATION = {"latency_spike": 5, "wire_mutate": 4}


def target_of(op: tuple) -> str:
    """What an op hits, as the fired log and the per-op seed name it:
    the node, or ``"a|b"`` for a link kind."""
    if op[1] in LINK_KINDS:
        return f"{op[2]}|{op[3]}"
    return op[2]


def _check_duration(duration: float) -> None:
    if duration < 0:
        raise FaultError(f"duration must be >= 0, got {duration}")


class FaultPlan:
    """An ordered, seeded schedule of fault ops.

    Build one with the fluent methods (each returns ``self`` for
    chaining), then hand it to a
    :class:`~repro.faults.injectors.FaultInjector`. Op order within
    one timestamp is the insertion order of the builder calls, so a
    plan is fully deterministic without any tie-breaking randomness.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.ops: list[tuple] = []

    # -- container protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.ops)

    def sorted_ops(self) -> list[tuple[int, tuple]]:
        """``(index, op)`` pairs in firing order (time, then insertion
        order — Python's sort is stable)."""
        return sorted(enumerate(self.ops), key=lambda pair: pair[1][0])

    def rng_for(self, index: int) -> random.Random:
        """The RNG of the op at ``index``: seeded from the plan seed, the
        op's position, kind, and target — never from the simulator."""
        op = self.ops[index]
        return random.Random(
            derive_seed(self.seed, "faults", str(index), op[1], target_of(op))
        )

    # -- builders ----------------------------------------------------------

    def _add(self, at: float, kind: str, *args: Any) -> "FaultPlan":
        if at < 0:
            raise FaultError(f"fault time must be >= 0, got {at}")
        self.ops.append((at, kind, *args))
        return self

    def _add_link(self, at: float, kind: str, a: str, b: str, *args: Any) -> "FaultPlan":
        if not a or not b:
            raise FaultError(f"a link fault needs two endpoints, got {a!r}, {b!r}")
        return self._add(at, kind, a, b, *args)

    def crash(self, at: float, node: str) -> "FaultPlan":
        """Router crash: every attached link goes down and the agent
        loses all soft state (:meth:`EcmpAgent.lose_state`)."""
        return self._add(at, "crash", node)

    def restart(self, at: float, node: str) -> "FaultPlan":
        """Reboot a crashed router: agent restarts empty, links come
        back up, neighbors resync through the real protocol."""
        return self._add(at, "restart", node)

    def crash_restart(
        self, at: float, node: str, downtime: float
    ) -> "FaultPlan":
        """Convenience: a crash at ``at`` healed at ``at + downtime``."""
        if downtime <= 0:
            raise FaultError(f"downtime must be > 0, got {downtime}")
        return self.crash(at, node).restart(at + downtime, node)

    def partition(self, at: float, a: str, b: str) -> "FaultPlan":
        """Fail the link between ``a`` and ``b``."""
        return self._add_link(at, "partition", a, b)

    def heal(self, at: float, a: str, b: str) -> "FaultPlan":
        """Recover the link between ``a`` and ``b``."""
        return self._add_link(at, "heal", a, b)

    def latency_spike(
        self, at: float, a: str, b: str, factor: float, duration: float
    ) -> "FaultPlan":
        """Multiply the a-b link's propagation delay by ``factor`` for
        ``duration`` seconds, then restore it."""
        if factor <= 0:
            raise FaultError(f"latency factor must be > 0, got {factor}")
        _check_duration(duration)
        return self._add_link(at, "latency_spike", a, b, factor, duration)

    def wire_mutate(
        self,
        at: float,
        a: str,
        b: str,
        duration: float,
        drop: float = 0.0,
        duplicate: float = 0.0,
        reorder: float = 0.0,
        reorder_delay: float = 0.005,
    ) -> "FaultPlan":
        """Install a seeded wire mutator on the a-b link for
        ``duration`` seconds: per-packet Bernoulli drop / duplicate /
        reorder draws against ``MSG_BATCH`` frames and data alike."""
        _check_duration(duration)
        for name, p in (("drop", drop), ("duplicate", duplicate), ("reorder", reorder)):
            if not 0.0 <= p <= 1.0:
                raise FaultError(f"{name} probability must be in [0, 1], got {p}")
        if reorder_delay < 0:
            raise FaultError(f"reorder_delay must be >= 0, got {reorder_delay}")
        return self._add_link(
            at, "wire_mutate", a, b, duration, drop, duplicate, reorder, reorder_delay
        )

    def join_flood(
        self,
        at: float,
        attacker: str,
        channel: Any,
        attempts: int = 50,
        interval: float = 0.01,
    ) -> "FaultPlan":
        """§3.3 authentication DoS: ``attacker`` (a host) floods the
        keyed ``channel`` with forged-key subscription attempts at one
        per ``interval`` seconds."""
        if attempts <= 0:
            raise FaultError(f"attempts must be > 0, got {attempts}")
        if interval <= 0:
            raise FaultError(f"interval must be > 0, got {interval}")
        return self._add(at, "join_flood", attacker, channel, attempts, interval)

    def count_inflate(
        self,
        at: float,
        attacker: str,
        channel: Any,
        count: int = 1_000_000,
        repeats: int = 1,
        interval: float = 0.05,
    ) -> "FaultPlan":
        """Counting-inflation attack: ``attacker`` (a subscribed host)
        reports a wildly inflated subscriber count for ``channel``,
        trying to corrupt CountQuery totals upstream."""
        if count < 0:
            raise FaultError(f"count must be >= 0, got {count}")
        if repeats <= 0:
            raise FaultError(f"repeats must be > 0, got {repeats}")
        if interval < 0:
            raise FaultError(f"interval must be >= 0, got {interval}")
        return self._add(
            at, "count_inflate", attacker, channel, count, repeats, interval
        )

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Whole-plan checks, raising :class:`FaultError`:

        - every op's kind is one of :data:`KINDS` (the builders make
          only those; a hand-appended op may not);
        - every ``restart`` must follow a ``crash`` of the same node
          (and vice versa: no double crash without an intervening
          restart);
        - every ``heal`` must follow a ``partition`` of the same pair;
        - a ``latency_spike`` or ``wire_mutate`` must start after the
          end of the previous one of its kind on the same link. A window
          that starts at the instant the previous one ends overlaps it
          too: the earlier window's restore was scheduled later, so it
          runs second.
        """
        crashed: set[str] = set()
        partitioned: set[frozenset] = set()
        window_end: dict[tuple, float] = {}
        for _, op in self.sorted_ops():
            at, kind = op[0], op[1]
            if kind not in KINDS:
                raise FaultError(f"unknown fault kind {kind!r}")
            if kind == "crash":
                if op[2] in crashed:
                    raise FaultError(f"{op[2]} crashed twice with no restart")
                crashed.add(op[2])
            elif kind == "restart":
                if op[2] not in crashed:
                    raise FaultError(f"restart of {op[2]} with no prior crash")
                crashed.discard(op[2])
            elif kind == "partition":
                pair = frozenset(op[2:4])
                if pair in partitioned:
                    raise FaultError(f"{target_of(op)} partitioned twice with no heal")
                partitioned.add(pair)
            elif kind == "heal":
                pair = frozenset(op[2:4])
                if pair not in partitioned:
                    raise FaultError(f"heal of {target_of(op)} with no prior partition")
                partitioned.discard(pair)
            elif kind in WINDOW_DURATION:
                key = (kind, frozenset(op[2:4]))
                end = window_end.get(key)
                if end is not None and at <= end:
                    raise FaultError(
                        f"{kind} on {target_of(op)} at t={at} overlaps the one "
                        f"ending at t={end}"
                    )
                window_end[key] = at + op[WINDOW_DURATION[kind]]


def seeded_crash_storm(
    seed: int,
    routers: list[str],
    start: float,
    crashes: int,
    downtime: float = 5.0,
    spacing: float = 10.0,
    jitter: float = 2.0,
) -> FaultPlan:
    """A replayable storm of crash/restart cycles over ``routers``.

    Victims and timing jitter are drawn from ``derive_seed(seed,
    "faults", "crash_storm")`` so the same arguments always produce the
    same plan. Crashes are spaced so a router is always restarted
    before it (or another) can crash again — the plan validates.
    """
    if not routers:
        raise FaultError("crash storm needs at least one candidate router")
    if downtime >= spacing:
        raise FaultError(
            f"downtime {downtime} must be < spacing {spacing} so cycles "
            "never overlap"
        )
    rng = random.Random(derive_seed(seed, "faults", "crash_storm"))
    plan = FaultPlan(seed)
    at = start
    for _ in range(crashes):
        victim = routers[rng.randrange(len(routers))]
        plan.crash_restart(at, victim, downtime)
        at += spacing + rng.uniform(0.0, jitter)
    plan.validate()
    return plan
