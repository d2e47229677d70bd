"""The coordinator: spawn workers, issue horizon grants, merge results.

:class:`ParallelRunner` executes one :class:`ScenarioSpec` across N
partitions. Two sync modes share the same frame protocol:

* ``sync_mode="demand"`` (default) — each scheduling round the
  coordinator computes per-worker grant *ceilings* from the transitive
  lookahead closure (self-echo term excluded — the worker enforces
  that bound locally), grants only the workers that have dispatchable
  work below their ceiling (quiet shards are not granted and send no
  heartbeats), and each granted worker drains as many export-capped
  windows as the ceiling allows before replying with one coalesced
  report. Null messages become demand-driven: a report with no
  exports only happens when a worker exhausts its entire ceiling.
* ``sync_mode="eager"`` — the PR-7 lockstep baseline: every
  non-finalized worker is granted a single-window horizon every round.
  Kept bit-compatible as the baseline the sync-tax reduction is
  measured against (``tests/netsim/parallel/test_runner.py``); no
  caller outside the tests uses it.

Execution modes: ``mode="mp"`` runs one child process per partition
over a :mod:`~repro.netsim.parallel.transport` — the shared-memory
ring transport by default (zero pickle on the hot loop), pipes via
``transport="pipe"`` or ``REPRO_TRANSPORT=pipe``. ``mode="inline"``
drives the same :class:`PartitionWorker` objects in-process but routes
commands through the *same encoded frames*, so frame counts, codec
coverage, and results are identical to ``mp``.

:func:`run_single` runs the unsharded oracle and
:func:`assert_equivalent` pins the contract: merged per-partition
summaries equal the oracle's settled ``ChannelState`` tables,
subscription/delivery state, event counts, and obs counters.
"""

from __future__ import annotations

import functools
import math
import os
from collections import deque
from dataclasses import dataclass, field
from math import inf
from time import perf_counter
from typing import Optional

from repro.errors import SimulationError
from repro.netsim.engine import check_scheduler
from repro.netsim.parallel import codec
from repro.netsim.parallel.partition import PartitionPlan, plan_partitions
from repro.netsim.parallel.scenario import ScenarioSpec, build, schedule_ops
from repro.netsim.parallel.sync import (
    RoundTrace,
    SyncStats,
    build_ladder,
    compute_horizons,
    effective_next_times,
    grant_ceilings,
    merge_phase_stats,
    merge_sync_stats,
    message_stats,
    transitive_lookahead,
)
from repro.netsim.parallel.transport import (
    PipeTransport,
    ShmTransport,
    transport_choice,
)
from repro.netsim.parallel.worker import (
    SHARDED_ONLY_PREFIXES,
    PartitionWorker,
    TelemetryConfig,
    extract_summary,
    serve_frame,
    worker_main,
)


@dataclass
class ParallelResult:
    """Outcome of one sharded run."""

    plan: PartitionPlan
    summaries: list[dict]
    sync: list[SyncStats]
    rounds: int
    #: Wall seconds of the round loop (build/spawn excluded — setup is
    #: a fixed cost the speedup measurement should not charge to the
    #: sync protocol).
    wall_seconds: float
    #: Wall seconds of partition build + worker spawn + first report
    #: (the fixed cost excluded from ``wall_seconds``). When this
    #: dwarfs the round loop the run is measuring process startup, not
    #: the protocol — see ``warnings``.
    setup_seconds: float = 0.0
    #: CPU cores the host exposes (``os.cpu_count()``); sharded runs
    #: cannot beat single-process when the workers are time-slicing one
    #: core.
    cores_available: int = 1
    #: Diagnostic flags: ``cores_limited`` (fewer cores than workers —
    #: any measured speedup < 1 reflects the host, not the protocol)
    #: and ``setup_dominated`` (setup took longer than the round loop —
    #: scale the workload up before trusting the speedup).
    warnings: list = field(default_factory=list)
    merged: dict = field(default_factory=dict)
    #: Which transport moved the frames (``shm``/``pipe``/``inline``)
    #: and which sync protocol ran (``demand``/``eager``).
    transport: str = ""
    sync_mode: str = "demand"
    #: Per-scheduling-round :class:`RoundTrace` records (granted
    #: ladders, frame counts) for post-mortems.
    round_traces: list = field(default_factory=list)
    #: Fleet telemetry (a :class:`repro.obs.aggregate.FleetAggregator`)
    #: when the run was telemetered, else None.
    telemetry: Optional[object] = None
    #: Simulated time of the fleet's last durable state change, and how
    #: long past the last scheduled op state kept changing — populated
    #: only for telemetered runs.
    quiesced_at: Optional[float] = None
    settle_seconds: Optional[float] = None

    def sync_totals(self) -> dict[str, int]:
        return merge_sync_stats(self.sync)

    def phase_totals(self) -> dict:
        """Fleet phase accounting (see :func:`merge_phase_stats`);
        all-zero fractions when the run was not profiled."""
        return merge_phase_stats(self.sync)

    def message_totals(self) -> dict[str, float]:
        """Host-independent sync-message economics (see
        :func:`~repro.netsim.parallel.sync.message_stats`)."""
        return message_stats(self.sync, self.merged.get("events", 0))


def run_single(
    spec: ScenarioSpec,
    with_obs: bool = False,
    profile: bool = False,
) -> dict:
    """The single-process oracle: same spec, one event loop. Returns
    the same summary shape workers produce (with ``wall_seconds`` of
    the run added for benchmarking).

    ``profile=True`` (implies observability) attaches the engine phase
    profiler and a convergence monitor; the summary then also carries
    ``profile`` (the :class:`~repro.netsim.engine.PhaseProfiler` dict)
    and ``quiesced_at``, so telemetered single and sharded runs are
    compared like-for-like.
    """
    obs = None
    if with_obs or profile:
        from repro.obs.hooks import Observability

        obs = Observability()
    net, channels, blocks = build(spec, obs=obs)
    profiler = None
    if profile:
        from repro.netsim.engine import PhaseProfiler
        from repro.obs.convergence import ConvergenceMonitor

        profiler = PhaseProfiler()
        net.sim.profiler = profiler
        obs.convergence = ConvergenceMonitor(net.sim)
    schedule_ops(spec, net, channels, blocks, owned=None)
    started = perf_counter()
    net.run(until=spec.duration)
    wall = perf_counter() - started
    summary = extract_summary(net, channels, blocks, owned=None, obs=obs)
    summary["wall_seconds"] = wall
    if profiler is not None:
        summary["profile"] = profiler.as_dict()
        summary["quiesced_at"] = obs.convergence.last_change
    return summary


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
    if ours is None or theirs is None:
        return
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


def _spawn_worker(descriptor, rank, spec, plan, with_obs, telemetry):
    """Child-process target (module-level so the spawn fallback can
    pickle it; under the usual fork context it is simply inherited)."""
    worker_main(descriptor, spec, plan, rank, with_obs, telemetry)


class InlineTransport:
    """Drives PartitionWorker objects in-process — through the *same*
    encoded frames as the process transports, so inline runs exercise
    the full codec path and report identical frame counts."""

    name = "inline"

    def __init__(self, spec, plan, with_obs, telemetry=None):
        self.telemetry = telemetry
        self.workers = [
            PartitionWorker(
                spec, plan, rank, with_obs=with_obs, telemetry=telemetry
            )
            for rank in range(plan.n)
        ]
        self._pending: list[deque] = [deque() for _ in range(plan.n)]
        self.frames_sent = 0
        self.frames_received = 0
        for rank, worker in enumerate(self.workers):
            self._pending[rank].append(worker.ready_frame())

    def send_frame(self, rank: int, frame: bytes) -> None:
        self.frames_sent += 1
        reply, _done = serve_frame(self.workers[rank], frame)
        if reply is not None:
            self._pending[rank].append(reply)

    def recv_frame(self, rank: int) -> bytes:
        self.frames_received += 1
        return self._pending[rank].popleft()

    def wait_any(self, ranks: list[int]) -> list[int]:
        return [rank for rank in ranks if self._pending[rank]]

    def dump_flight(self, reason: str) -> None:
        """Inline workers live in this process; on coordinator failure
        their rings are dumped here (mp children dump their own)."""
        for worker in self.workers:
            if worker.flight is not None:
                try:
                    worker.flight.dump(
                        self.telemetry.flight_path(worker.rank), reason=reason
                    )
                except Exception:  # pragma: no cover - disk trouble
                    pass

    def close(self) -> None:
        pass


def _make_mp_transport(spec, plan, with_obs, telemetry, choice):
    spawn = functools.partial(
        _spawn_worker,
        spec=spec,
        plan=plan,
        with_obs=with_obs,
        telemetry=telemetry,
    )
    if choice == "pipe":
        transport = PipeTransport(plan.n, spawn)
    else:
        transport = ShmTransport(plan.n, spawn)
    transport.dump_flight = lambda reason: None  # children dump their own
    return transport


class ParallelRunner:
    """Coordinate one sharded run of ``spec`` over ``n_workers``."""

    def __init__(
        self,
        spec: ScenarioSpec,
        n_workers: int,
        scheduler: str = "wheel",
        mode: str = "mp",
        with_obs: bool = False,
        telemetry: Optional[TelemetryConfig] = None,
        plan: Optional[PartitionPlan] = None,
        sync_mode: str = "demand",
        transport: Optional[str] = None,
    ) -> None:
        check_scheduler(scheduler)
        if mode not in ("mp", "inline"):
            raise SimulationError(f"unknown runner mode {mode!r}")
        if sync_mode not in ("demand", "eager"):
            raise SimulationError(f"unknown sync mode {sync_mode!r}")
        self.spec = spec
        self.mode = mode
        self.sync_mode = sync_mode
        self.transport = "inline" if mode == "inline" else transport_choice(transport)
        self.with_obs = with_obs or telemetry is not None
        self.telemetry = telemetry
        if plan is None:
            from repro.netsim.topology import TopologyBuilder

            builder = getattr(TopologyBuilder, spec.topology)
            topo = builder(seed=spec.seed, **spec.topology_kwargs)
            plan = plan_partitions(topo, n_workers, spec.source)
        self.plan = plan

    # -- frame helpers -----------------------------------------------------

    def _recv(self, transport, rank: int):
        kind, body = codec.decode_frame(transport.recv_frame(rank))
        if kind == codec.FRAME_ERROR:
            raise SimulationError(f"worker {rank} failed: {body}")
        return kind, body

    def _recv_report(self, transport, rank: int):
        kind, body = self._recv(transport, rank)
        if kind != codec.FRAME_REPORT:  # pragma: no cover - protocol guard
            raise SimulationError(
                f"worker {rank}: expected report frame, got {kind:#x}"
            )
        return body

    # -- the grant loop ----------------------------------------------------

    def run(self) -> ParallelResult:
        plan = self.plan
        duration = self.spec.duration
        n = plan.n
        eager = self.sync_mode == "eager"
        setup_started = perf_counter()
        if self.mode == "inline":
            transport = InlineTransport(
                self.spec, plan, self.with_obs, telemetry=self.telemetry
            )
        else:
            transport = _make_mp_transport(
                self.spec, plan, self.with_obs, self.telemetry, self.transport
            )
        closure = transitive_lookahead(plan.lookahead, plan.n)
        diag = [closure.get((rank, rank), inf) for rank in range(n)]
        aggregator = None
        if self.telemetry is not None:
            from repro.obs.aggregate import FleetAggregator

            aggregator = FleetAggregator()
        try:
            reported: list[list[float]] = []
            for rank in range(n):
                kind, body = self._recv(transport, rank)
                if kind != codec.FRAME_READY:  # pragma: no cover - guard
                    raise SimulationError(
                        f"worker {rank}: expected ready frame, got {kind:#x}"
                    )
                reported.append([body[0]])
            setup_seconds = perf_counter() - setup_started
            pending: list[list[tuple]] = [[] for _ in range(n)]
            finalized = [False] * n
            rounds = 0
            traces: list[RoundTrace] = []
            started = perf_counter()
            while not all(finalized):
                pending_min = [
                    min((rec[0] for rec in bucket), default=inf)
                    for bucket in pending
                ]
                next_eff = effective_next_times(
                    [times[0] for times in reported], pending_min
                )
                if eager:
                    horizons = compute_horizons(next_eff, closure)
                    grant_ranks = [r for r in range(n) if not finalized[r]]
                else:
                    horizons = grant_ceilings(next_eff, closure)
                    # Demand-driven: grant only workers that can act —
                    # dispatchable work below their ceiling, or nothing
                    # external pending before the scenario end (their
                    # final inclusive window). Quiet shards are skipped
                    # outright: no grant, no heartbeat, no frames.
                    grant_ranks = [
                        r for r in range(n)
                        if not finalized[r]
                        and (horizons[r] > duration or next_eff[r] < horizons[r])
                    ]
                    if not grant_ranks:  # pragma: no cover - protocol guard
                        # Impossible for positive lookaheads: the
                        # globally earliest worker always clears its own
                        # ceiling (which excludes its self-echo term).
                        raise SimulationError(
                            "conservative sync deadlock: no grantable worker"
                        )
                trace = RoundTrace(
                    round_index=rounds,
                    next_eff=list(next_eff),
                    horizons=list(horizons),
                    mode=self.sync_mode,
                )
                for rank in grant_ranks:
                    final = horizons[rank] > duration
                    if eager:
                        ladder = [horizons[rank]]
                    else:
                        ladder = build_ladder(
                            reported[rank], diag[rank], horizons[rank]
                        )
                    trace.ladders[rank] = ladder
                    transport.send_frame(
                        rank,
                        codec.encode_grant(ladder, pending[rank], final, eager),
                    )
                    pending[rank] = []
                    if eager:
                        finalized[rank] = final
                for rank in grant_ranks:
                    next_times, _windows, _dispatched, exports, done, _stall, snap = (
                        self._recv_report(transport, rank)
                    )
                    reported[rank] = next_times
                    if not eager and done:
                        finalized[rank] = True
                    if aggregator is not None and snap is not None:
                        aggregator.ingest(rank, snap)
                    trace.exports += len(exports)
                    for record in exports:
                        pending[record[3]].append(record)
                trace.frames = 2 * len(grant_ranks)
                traces.append(trace)
                rounds += 1
            # Trailing flush: exports addressed to already-finalized
            # workers necessarily arrive after the scenario end (the
            # final-window proof), so they are injected but never
            # dispatched — delivered anyway to keep the fleet's
            # proxy-in/out accounting closed.
            flush_ranks = [rank for rank in range(n) if pending[rank]]
            for rank in flush_ranks:
                early = [rec for rec in pending[rank] if rec[0] <= duration]
                if early:  # pragma: no cover - protocol invariant guard
                    raise SimulationError(
                        f"late import at t<=duration for finalized worker "
                        f"{rank}: {early[0][:4]}"
                    )
            if flush_ranks:
                trace = RoundTrace(
                    round_index=rounds, mode=self.sync_mode,
                    frames=2 * len(flush_ranks),
                )
                for rank in flush_ranks:
                    transport.send_frame(
                        rank,
                        codec.encode_grant([inf], pending[rank], True, eager),
                    )
                    pending[rank] = []
                for rank in flush_ranks:
                    *_rest, snap = self._recv_report(transport, rank)
                    if aggregator is not None and snap is not None:
                        aggregator.ingest(rank, snap)
                traces.append(trace)
                rounds += 1
            wall = perf_counter() - started
            raw = []
            for rank in range(n):
                transport.send_frame(rank, codec.RESULT_REQ_FRAME)
            for rank in range(n):
                kind, body = self._recv(transport, rank)
                if kind != codec.FRAME_RESULT:  # pragma: no cover - guard
                    raise SimulationError(
                        f"worker {rank}: expected result frame, got {kind:#x}"
                    )
                raw.append(body)
            for rank in range(n):
                transport.send_frame(rank, codec.EXIT_FRAME)
        except Exception as exc:
            if self.telemetry is not None and self.telemetry.flight_dir:
                transport.dump_flight(f"error:{type(exc).__name__}: {exc}")
            raise
        finally:
            transport.close()
        summaries = [reply[0] for reply in raw]
        stats = [reply[1] for reply in raw]
        cores = os.cpu_count() or 1
        run_warnings: list[str] = []
        if self.mode == "mp" and cores < plan.n:
            # The workers themselves time-slice fewer cores than there
            # are shards: the measured speedup reflects the host, not
            # the protocol. (The coordinator mostly blocks on the
            # workers, so n workers on n cores can still win.)
            run_warnings.append("cores_limited")
        if self.mode == "mp" and setup_seconds > wall:
            run_warnings.append("setup_dominated")
        result = ParallelResult(
            plan=plan,
            summaries=summaries,
            sync=stats,
            rounds=rounds,
            wall_seconds=wall,
            setup_seconds=setup_seconds,
            cores_available=cores,
            warnings=run_warnings,
            transport=self.transport,
            sync_mode=self.sync_mode,
            round_traces=traces,
        )
        result.merged = merge_summaries(summaries)
        if aggregator is not None:
            from repro.obs.convergence import settle_seconds as settle

            for reply in raw:
                aggregator.ingest(reply[1].rank, reply[2])
            result.telemetry = aggregator
            result.quiesced_at = aggregator.quiesced_at()
            # all_ops(), not .ops: opgen-backed specs keep the inline
            # tuple empty and regenerate the workload on demand.
            result.settle_seconds = settle(
                result.quiesced_at, self.spec.all_ops()
            )
        return result
