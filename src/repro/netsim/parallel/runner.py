"""The coordinator: build the partition workers, issue horizon grants,
merge results.

:class:`ParallelRunner` executes one :class:`ScenarioSpec` across N
partitions in one process, calling each :class:`PartitionWorker`
directly. Each scheduling round the coordinator computes per-worker
grant *ceilings* from the transitive lookahead closure (self-echo term
excluded — the worker enforces that bound locally), grants only the
workers that have dispatchable work below their ceiling (quiet shards
are not granted and send no heartbeats), and each granted worker
drains as many export-capped windows as the ceiling allows before
answering with one report. A report with no exports and no work — a
null message — only happens when a worker exhausts its entire ceiling.

:func:`run_single` runs the unsharded oracle and
:func:`assert_equivalent` pins the contract: merged per-partition
summaries equal the oracle's settled ``ChannelState`` tables,
subscription/delivery state, event counts, and obs counters.

The sharded run exists for the frozen ``benchmarks/e2e`` probe
(``netsim.parallel.sync_msgs_per_event`` and ``null_ratio``) and the
partition-equivalence suite; ROADMAP item 5 removes it once the
benchmark-version change (item 3) drops that probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import inf
from time import perf_counter
from typing import Optional

from repro.errors import SimulationError
from repro.netsim.engine import check_scheduler
from repro.netsim.parallel.partition import PartitionPlan, plan_partitions
from repro.netsim.parallel.sync import (
    SyncStats,
    build_ladder,
    effective_next_times,
    grant_ceilings,
    merge_sync_stats,
    message_stats,
    transitive_lookahead,
)
from repro.netsim.parallel.worker import (
    SHARDED_ONLY_PREFIXES,
    PartitionWorker,
    extract_summary,
)
from repro.workloads.spec import ScenarioSpec, build


@dataclass
class ParallelResult:
    """Outcome of one sharded run."""

    plan: PartitionPlan
    summaries: list[dict]
    sync: list[SyncStats]
    rounds: int
    #: Wall seconds of the round loop (building the workers excluded).
    wall_seconds: float
    merged: dict = field(default_factory=dict)

    def sync_totals(self) -> dict[str, int]:
        return merge_sync_stats(self.sync)

    def message_totals(self) -> dict[str, float]:
        """Host-independent sync-message economics (see
        :func:`~repro.netsim.parallel.sync.message_stats`)."""
        return message_stats(self.sync, self.merged.get("events", 0))


def run_single(spec: ScenarioSpec, with_obs: bool = False) -> dict:
    """The single-process oracle: same spec, one event loop. Returns
    the same summary shape workers produce."""
    obs = None
    if with_obs:
        from repro.obs.hooks import Observability

        obs = Observability()
    net, channels, blocks = build(spec, obs=obs)
    spec.schedule(net, channels, blocks)
    net.run(until=spec.duration)
    return extract_summary(net, channels, blocks, owned=None, obs=obs)


def merge_summaries(summaries: list[dict]) -> dict:
    """Fold per-partition summaries into one oracle-shaped record.

    Node-keyed tables union disjointly (every node has exactly one
    owner); event counts and obs counters add."""
    merged: dict = {
        "channel_tables": {},
        "subscriptions": {},
        "blocks": {},
        "events": 0,
        "final_time": 0.0,
        "obs_counters": None,
    }
    obs_totals: Optional[dict] = None
    for summary in summaries:
        for key in ("channel_tables", "subscriptions", "blocks"):
            overlap = merged[key].keys() & summary[key].keys()
            if overlap:
                raise SimulationError(f"partition overlap in {key}: {sorted(overlap)}")
            merged[key].update(summary[key])
        merged["events"] += summary["events"]
        merged["final_time"] = max(merged["final_time"], summary["final_time"])
        counters = summary.get("obs_counters")
        if counters is not None:
            if obs_totals is None:
                obs_totals = {}
            for key, value in counters.items():
                if isinstance(value, tuple):
                    count, total = obs_totals.get(key, (0, 0.0))
                    obs_totals[key] = (count + value[0], total + value[1])
                else:
                    obs_totals[key] = obs_totals.get(key, 0) + value
    merged["obs_counters"] = obs_totals
    return merged


def _split_sharded_only(
    counters: dict,
) -> tuple[dict, dict]:
    """Partition a counter snapshot into (shared, sharded-only): the
    sharded-only families (``parallel_*``) exist only in partitioned
    runs and are checked for internal conservation rather than oracle
    equality."""
    shared: dict = {}
    sharded_only: dict = {}
    for key, value in counters.items():
        family = key[0]
        if family.startswith(SHARDED_ONLY_PREFIXES):
            sharded_only[key] = value
        else:
            shared[key] = value
    return shared, sharded_only


def _assert_proxy_conservation(sharded_only: dict) -> None:
    """Fleet conservation over the sharded-only counters: every packet
    (and byte) exported across a cut must be imported exactly once.
    This is the determinism guarantee the merged ``parallel_*``
    aggregation rests on — without it the families would not be safe to
    include in the snapshot at all."""
    totals = {"parallel_proxy_packets_total": 0,
              "parallel_proxy_bytes_total": 0,
              "parallel_proxy_import_packets_total": 0,
              "parallel_proxy_import_bytes_total": 0}
    for (family, _values), value in sharded_only.items():
        if family in totals:
            totals[family] += value
    for kind in ("packets", "bytes"):
        out = totals[f"parallel_proxy_{kind}_total"]
        into = totals[f"parallel_proxy_import_{kind}_total"]
        if out != into:
            raise AssertionError(
                f"proxy {kind} conservation violated: {out} exported "
                f"!= {into} imported"
            )


def assert_equivalent(merged: dict, oracle: dict) -> None:
    """Raise :class:`AssertionError` on any settled-state divergence
    between a merged sharded summary and the single-process oracle."""
    for key in ("channel_tables", "subscriptions", "blocks"):
        if merged[key] != oracle[key]:
            ours, theirs = merged[key], oracle[key]
            detail = sorted(
                set(ours) ^ set(theirs)
            ) or [k for k in ours if ours[k] != theirs[k]]
            raise AssertionError(
                f"sharded {key} diverge from oracle (first diffs: {detail[:5]})"
            )
    if merged["events"] != oracle["events"]:
        raise AssertionError(
            f"event counts diverge: sharded {merged['events']} "
            f"!= oracle {oracle['events']}"
        )
    ours, theirs = merged.get("obs_counters"), oracle.get("obs_counters")
    if ours is None and theirs is None:
        return
    if ours is None or theirs is None:
        raise AssertionError(
            "obs counters on one side only: run both with_obs or neither "
            f"(sharded: {ours is not None}, oracle: {theirs is not None})"
        )
    ours, ours_sync = _split_sharded_only(ours)
    theirs, _ = _split_sharded_only(theirs)
    _assert_proxy_conservation(ours_sync)
    if set(ours) != set(theirs):
        missing = sorted(set(theirs) - set(ours))[:5]
        extra = sorted(set(ours) - set(theirs))[:5]
        raise AssertionError(
            f"obs counter families diverge (missing: {missing}, extra: {extra})"
        )
    for key in theirs:
        mine, ref = ours[key], theirs[key]
        if isinstance(ref, tuple):
            if mine[0] != ref[0] or not math.isclose(
                mine[1], ref[1], rel_tol=1e-9, abs_tol=1e-12
            ):
                raise AssertionError(f"histogram {key} diverges: {mine} != {ref}")
        elif mine != ref:
            raise AssertionError(f"counter {key} diverges: {mine} != {ref}")


class ParallelRunner:
    """Coordinate one sharded run of ``spec`` over ``n_workers``.

    ``scheduler`` and ``mode`` are frozen literals that
    ``benchmarks/e2e`` passes: ``"wheel"`` (see
    :func:`~repro.netsim.engine.check_scheduler`) and ``"inline"``,
    the only mode — the workers live in this process.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        n_workers: int,
        scheduler: str = "wheel",
        mode: str = "inline",
        with_obs: bool = False,
        plan: Optional[PartitionPlan] = None,
    ) -> None:
        check_scheduler(scheduler)
        if mode != "inline":
            raise SimulationError(
                f"unknown runner mode {mode!r}: sharded runs are in-process "
                "only; 'inline' survives as the frozen literal benchmarks/e2e "
                "passes, until its benchmark-version change (ROADMAP item 3)"
            )
        self.spec = spec
        self.with_obs = with_obs
        if plan is None:
            from repro.netsim.topology import TopologyBuilder

            builder = getattr(TopologyBuilder, spec.topology)
            topo = builder(seed=spec.seed, **spec.topology_kwargs)
            plan = plan_partitions(topo, n_workers, spec.source)
        self.plan = plan

    def run(self) -> ParallelResult:
        plan = self.plan
        duration = self.spec.duration
        n = plan.n
        workers = [
            PartitionWorker(self.spec, plan, rank, with_obs=self.with_obs)
            for rank in range(n)
        ]
        closure = transitive_lookahead(plan.lookahead, n)
        diag = [closure.get((rank, rank), inf) for rank in range(n)]
        reported: list[list[float]] = [[worker.ready()] for worker in workers]
        pending: list[list[tuple]] = [[] for _ in range(n)]
        finalized = [False] * n
        rounds = 0
        started = perf_counter()
        while not all(finalized):
            pending_min = [
                min((rec[0] for rec in bucket), default=inf) for bucket in pending
            ]
            next_eff = effective_next_times(
                [times[0] for times in reported], pending_min
            )
            horizons = grant_ceilings(next_eff, closure)
            # Grant only workers that can act — dispatchable work below
            # their ceiling, or nothing external pending before the
            # scenario end (their final inclusive window). Quiet shards
            # are skipped outright: no grant, no heartbeat.
            grant_ranks = [
                r for r in range(n)
                if not finalized[r]
                and (horizons[r] > duration or next_eff[r] < horizons[r])
            ]
            if not grant_ranks:  # pragma: no cover - protocol guard
                # Impossible for positive lookaheads: the globally
                # earliest worker always clears its own ceiling (which
                # excludes its self-echo term).
                raise SimulationError(
                    "conservative sync deadlock: no grantable worker"
                )
            # Every grant of a round is served before any report is
            # read, so no worker hears another's exports of this round.
            reports = []
            for rank in grant_ranks:
                ladder = build_ladder(reported[rank], diag[rank], horizons[rank])
                reports.append(workers[rank].run_grant(
                    ladder, pending[rank], horizons[rank] > duration
                ))
                pending[rank] = []
            for rank, (next_times, exports, done) in zip(grant_ranks, reports):
                reported[rank] = next_times
                finalized[rank] = done
                for record in exports:
                    pending[record[3]].append(record)
            rounds += 1
        # Trailing flush: exports addressed to already-finalized workers
        # necessarily arrive after the scenario end (the final-window
        # proof), so they are injected but never dispatched — delivered
        # anyway to keep the fleet's proxy-in/out accounting closed.
        flush_ranks = [rank for rank in range(n) if pending[rank]]
        for rank in flush_ranks:
            early = [rec for rec in pending[rank] if rec[0] <= duration]
            if early:  # pragma: no cover - protocol invariant guard
                raise SimulationError(
                    f"late import at t<=duration for finalized worker "
                    f"{rank}: {early[0][:4]}"
                )
        for rank in flush_ranks:
            workers[rank].run_grant([inf], pending[rank], True)
            pending[rank] = []
        if flush_ranks:
            rounds += 1
        wall = perf_counter() - started
        summaries = [worker.summary() for worker in workers]
        result = ParallelResult(
            plan=plan,
            summaries=summaries,
            sync=[worker.stats for worker in workers],
            rounds=rounds,
            wall_seconds=wall,
        )
        result.merged = merge_summaries(summaries)
        return result
