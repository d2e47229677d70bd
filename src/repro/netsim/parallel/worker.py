"""One partition's event loop: ghosts, proxies, and windowed runs.

A :class:`PartitionWorker` builds the *full* scenario (identical
topology, addresses, interface indices, channel suffixes everywhere),
starts agents only for its owned nodes, installs capture hooks on cut
links, and then serves horizon *grants* from the coordinator: each
grant carries a ladder of horizons plus pending imports, the worker
drains one window (eager mode) or as many export-capped windows as
the grant ceiling allows (demand mode), and replies with one
coalesced report frame — exports, window/dispatch counters, its
next-k event times, and optionally a telemetry snapshot, all in a
single message. It is process-agnostic: the mp runner hosts one per
child process via :func:`worker_main` speaking frames over a
:mod:`~repro.netsim.parallel.transport` endpoint; the inline runner
routes the *same encoded frames* through :func:`serve_frame` in a
single process, so frame counts and codec coverage are identical.

Determinism: imports are injected sorted by ``(arrival_time,
src_rank, export_seq)`` before each window, and injected delivery
events carry the same ``deliver:<proto>`` names the link layer uses,
so per-event-name obs counters match the single-process oracle
exactly.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from math import inf
from time import perf_counter
from typing import Optional

from repro.netsim.engine import PhaseProfiler, derive_seed
from repro.netsim.parallel import codec
from repro.netsim.parallel.codec import decode_packet, encode_packet
from repro.netsim.parallel.partition import PartitionPlan
from repro.netsim.parallel.scenario import ScenarioSpec, build, schedule_ops
from repro.netsim.parallel.sync import SyncStats, transitive_lookahead
from repro.netsim.parallel.transport import connect_endpoint

#: How many upcoming event times a worker reports per grant — the
#: coordinator's raw material for the next grant's horizon ladder.
LADDER_K = 4

#: Metric-family prefixes excluded from equivalence snapshots: the
#: wall-clock families (event timing, SPF timing — plus the per-process
#: lazy Dijkstra tree fills, which legitimately duplicate across
#: workers) measure the machine, not the protocol. Everything else —
#: including the ``parallel_*`` sync counters — stays in the snapshot;
#: :func:`repro.netsim.parallel.runner.assert_equivalent` splits the
#: sharded-only families off and checks fleet conservation on them
#: instead of oracle equality (the oracle has no sync traffic at all).
EQUIVALENCE_EXCLUDE = ("sim_event_wall_seconds", "spf_")

#: Families that exist only in sharded runs (no oracle counterpart):
#: the equivalence checker verifies internal conservation — fleet
#: proxy exports must equal fleet proxy imports — rather than equality.
SHARDED_ONLY_PREFIXES = ("parallel_",)


@dataclass(frozen=True)
class TelemetryConfig:
    """Worker-side telemetry knobs (implies observability is on).

    ``snapshot_every`` ships a cumulative registry/span snapshot to the
    coordinator every N sync rounds (0 = only the final snapshot with
    the results); periodic snapshots cap histogram samples at
    ``max_samples`` per child to bound pipe traffic. ``flight_dir``
    arms the flight recorder: the worker keeps a ``flight_capacity``
    ring of recent events and dumps ``flight-<rank>.jsonl`` there on
    error or signal.
    """

    profile: bool = True
    snapshot_every: int = 0
    max_samples: Optional[int] = 512
    flight_dir: Optional[str] = None
    flight_capacity: int = 2048

    def flight_path(self, rank: int) -> Optional[str]:
        if self.flight_dir is None:
            return None
        return os.path.join(self.flight_dir, f"flight-{rank}.jsonl")


class PartitionWorker:
    """One rank of a sharded run."""

    def __init__(
        self,
        spec: ScenarioSpec,
        plan: PartitionPlan,
        rank: int,
        with_obs: bool = False,
        telemetry: Optional[TelemetryConfig] = None,
    ) -> None:
        self.spec = spec
        self.plan = plan
        self.rank = rank
        self.telemetry = telemetry
        self.stats = SyncStats(rank=rank)
        obs = None
        self.sync_metrics = None
        self.flight = None
        if with_obs or telemetry is not None:
            from repro.obs.hooks import Observability, SyncMetrics

            obs = Observability(shard=rank)
            self.sync_metrics = SyncMetrics(obs.registry, rank)
        self.obs = obs
        self.net, self.channels, self.blocks = build(spec, obs=obs)
        self.sim = self.net.sim
        #: Smallest cut cycle back to this partition (the transitive
        #: closure's diagonal): the worker's own export at time t can
        #: echo back no earlier than ``t + self_delay``, which is what
        #: lets it run multiple windows inside one demand grant — each
        #: window is capped at ``next_event + self_delay``, so no
        #: window can overrun an echo of an export it just made.
        closure = transitive_lookahead(plan.lookahead, plan.n)
        self.self_delay = closure.get((rank, rank), inf)
        self._windows_since_snapshot = 0
        if telemetry is not None:
            from repro.obs.convergence import ConvergenceMonitor
            from repro.obs.flightrecorder import FlightRecorder

            obs.convergence = ConvergenceMonitor(self.sim)
            if telemetry.profile:
                self.sim.profiler = PhaseProfiler()
            if telemetry.flight_dir is not None:
                self.flight = FlightRecorder(
                    capacity=telemetry.flight_capacity, shard=rank
                )
                self.flight.attach(self.sim)
        owned = plan.parts[rank]
        #: Owned names in topology insertion order, so agents start in
        #: the same relative order as the oracle's full start.
        self.owned = [n for n in self.net.topo.nodes if n in owned]
        self._owned_set = set(self.owned)
        self.exports: list[tuple] = []
        self._export_seq = 0
        self._install_proxies()
        self.net.start(self.owned)
        # Workload scheduling is part of the worker's accounted wall
        # time (its event-construction cost lands in the profiler's
        # *alloc* phase), so phase fractions stay a partition of the
        # total.
        started = perf_counter() if telemetry is not None else 0.0
        self.ops_scheduled = schedule_ops(
            spec, self.net, self.channels, self.blocks, owned=self._owned_set
        )
        if telemetry is not None:
            self.stats.wall_total += perf_counter() - started
        # Post-build reseed: construction consumed the shared seed
        # identically everywhere; from here on each worker draws from
        # its own derived stream (loss draws on owned links only).
        self.sim.reseed(derive_seed(spec.seed, "worker", rank))

    # -- proxies -----------------------------------------------------------

    def _install_proxies(self) -> None:
        owner = self.plan.owner
        for link in self.net.topo.links:
            if owner[link.node_a.name] != owner[link.node_b.name]:
                link.capture = self._capture

    def _capture(self, link, sender, packet, arrival: float) -> None:
        if self.plan.owner[sender.name] != self.rank:
            # A ghost transmitted — only possible via a scenario bug
            # (ops scheduled on a non-owned node); drop loudly.
            raise RuntimeError(
                f"ghost node {sender.name} transmitted in partition {self.rank}"
            )
        receiver = link.other_end(sender)
        data = encode_packet(packet)
        self.stats.proxy_packets_out += 1
        self.stats.proxy_bytes_out += len(data)
        if self.sync_metrics is not None:
            self.sync_metrics.proxy_export(len(data))
        self.exports.append(
            (
                arrival,
                self.rank,
                self._export_seq,
                self.plan.owner[receiver.name],
                receiver.name,
                link.interface_of(receiver).index,
                data,
            )
        )
        self._export_seq += 1

    def _inject(self, imports: list[tuple]) -> None:
        """Schedule imported packets as delivery events, in exact
        ``(arrival, src_rank, export_seq)`` order."""
        topo = self.net.topo
        for arrival, _src_rank, _seq, _dst_rank, node_name, iface_index, data in sorted(
            imports, key=lambda rec: (rec[0], rec[1], rec[2])
        ):
            packet = decode_packet(data)
            self.stats.proxy_packets_in += 1
            self.stats.proxy_bytes_in += len(data)
            if self.sync_metrics is not None:
                self.sync_metrics.proxy_import(len(data))
            node = topo.node(node_name)
            self.sim.schedule_at(
                arrival,
                lambda n=node, p=packet, i=iface_index: n.receive(p, i),
                name=f"deliver:{packet.proto}",
            )

    # -- sync grants -------------------------------------------------------

    def next_time(self) -> float:
        when = self.sim.peek_time()
        return when if when is not None else inf

    def next_times(self, k: int = LADDER_K) -> list[float]:
        """Next-k pending event times for the report frame (``[inf]``
        when the queue is dry — a report always carries at least the
        effective next-event announcement)."""
        times = self.sim.peek_times(k)
        return times if times else [inf]

    def run_grant(
        self,
        ladder: list[float],
        imports: list[tuple],
        final: bool,
        eager: bool,
    ) -> tuple[list[float], int, int, list[tuple], bool, bool, Optional[dict]]:
        """Serve one coordinator grant: inject, drain windows, report.

        ``ladder[-1]`` is the authoritative grant ceiling. Eager mode
        runs exactly one exclusive window to it (the PR-7 lockstep
        baseline; ``final`` runs the inclusive window to the scenario
        end instead). Demand mode drains windows ``[s, min(ceiling,
        s + self_delay))`` until the ceiling is exhausted — or stops at
        the first window that exported, because past that window's end
        an echo of its own export could land. A ``final`` demand grant
        (ceiling past the scenario end) finishes with the inclusive
        window once every remaining window end clears the duration;
        if an export interrupts it first, the report says *not*
        finalized and the coordinator re-grants after the export has
        been heard by its destination.

        Returns ``(next_times, windows, dispatched, exports,
        finalized, stalled, telemetry)``.
        """
        started = perf_counter() if self.telemetry is not None else 0.0
        self._inject(imports)
        sim = self.sim
        before = sim.events_processed
        duration = self.spec.duration
        diag = self.self_delay
        ceiling = ladder[-1] if ladder else inf
        windows = 0
        finalized = False
        if eager:
            if final:
                sim.run(until=duration)
                finalized = True
            else:
                sim.run(until=ceiling, inclusive=False)
            windows = 1
        elif final:
            finalized = True
            while True:
                when = sim.peek_time()
                if when is None or when + diag > duration:
                    # Any export from here echoes past the scenario
                    # end: the inclusive final window is safe.
                    sim.run(until=duration)
                    windows += 1
                    break
                sim.run(until=when + diag, inclusive=False)
                windows += 1
                if self.exports:
                    finalized = False
                    break
        else:
            while True:
                when = sim.peek_time()
                if when is None or when >= ceiling:
                    break
                end = min(ceiling, when + diag)
                sim.run(until=end, inclusive=False)
                windows += 1
                if self.exports:
                    break
        dispatched = sim.events_processed - before
        self.stats.sync_rounds += 1
        self.stats.windows += windows
        exports = self.exports
        self.exports = []
        if not exports and dispatched == 0:
            # A CMB null message carries nothing but a clock bound. A
            # report that dispatched local work (or shipped packets) is
            # payload, not tax, even when no packet crossed the cut.
            self.stats.null_messages += 1
            if self.sync_metrics is not None:
                self.sync_metrics.null_message()
        next_times = self.next_times()
        stalled = dispatched == 0 and next_times[0] <= duration
        if stalled:
            self.stats.lbts_stalls += 1
            if self.sync_metrics is not None:
                self.sync_metrics.lbts_stall()
        if self.sync_metrics is not None:
            self.sync_metrics.sync_round(windows)
        telemetry = None
        if self.telemetry is not None:
            self._windows_since_snapshot += windows
            every = self.telemetry.snapshot_every
            if every and self._windows_since_snapshot >= every:
                self._windows_since_snapshot = 0
                telemetry = self.telemetry_snapshot()
            # Accumulated after the snapshot so the *accounting* phase
            # (registry dump) stays inside the worker's total.
            self.stats.wall_total += perf_counter() - started
        return (
            next_times, windows, dispatched, exports, finalized, stalled,
            telemetry,
        )

    def ready_frame(self) -> bytes:
        self.stats.frames_sent += 1
        return codec.encode_ready(self.next_time(), self.ops_scheduled)

    # -- results -----------------------------------------------------------

    def _sync_phase_stats(self) -> None:
        """Copy the engine profiler's phase totals into the sync stats
        (idempotent — the profiler accumulates, we overwrite)."""
        profiler = self.sim.profiler
        if profiler is not None:
            stats = self.stats
            stats.wall_dispatch = profiler.dispatch_seconds
            stats.wall_cascade = profiler.advance_seconds
            stats.wall_alloc = profiler.alloc_seconds
            stats.wall_accounting = profiler.accounting_seconds
            stats.events_dispatched = profiler.events
            # Timer overhead (and the final snapshot's dump, which lands
            # after the last round window) can push the measured phases
            # past the accumulated total; keep total >= sum-of-phases so
            # breakdown fractions always partition 1.0.
            measured = (
                stats.wall_dispatch + stats.wall_cascade + stats.wall_alloc
                + stats.wall_accounting + stats.wall_sync_wait
            )
            if stats.wall_total < measured:
                stats.wall_total = measured

    def telemetry_snapshot(self, final: bool = False) -> Optional[dict]:
        """The cumulative per-worker telemetry record shipped over the
        coordinator pipe: a registry dump, every span so far (the
        aggregator is latest-wins per span id), and the convergence
        clock. The final snapshot publishes phase gauges and ships
        untruncated histogram samples."""
        if self.telemetry is None:
            return None
        max_samples = None if final else self.telemetry.max_samples
        convergence = self.obs.convergence
        if final and self.sync_metrics is not None:
            # Publish phase/frame gauges *before* the dump below so
            # their values ride the final registry snapshot.
            self._sync_phase_stats()
            self.sync_metrics.set_phases(self.stats)
        # The registry dump runs every collector (vectorized counter
        # banks flushing into metric families included) — that wall
        # time is the *accounting* phase.
        started = perf_counter()
        registry = self.obs.registry.dump(max_samples=max_samples)
        profiler = self.sim.profiler
        if profiler is not None:
            profiler.accounting_seconds += perf_counter() - started
        self._sync_phase_stats()
        return {
            "shard": self.rank,
            "final": final,
            "registry": registry,
            "spans": [span.to_record() for span in self.obs.tracer.spans],
            "quiesced_at": convergence.last_change if convergence else None,
            "state_changes": convergence.changes if convergence else 0,
        }

    def summary(self) -> dict:
        return extract_summary(
            self.net,
            self.channels,
            self.blocks,
            owned=self._owned_set,
            obs=self.obs,
        )


def extract_summary(net, channels, blocks, owned=None, obs=None) -> dict:
    """The picklable settled-state record equivalence compares.

    ``owned=None`` extracts everything (the single-process oracle);
    a partition worker passes its node set. Per-worker summaries merge
    disjointly: every node, subscription, and block belongs to exactly
    one partition, and obs counters add.
    """

    def mine(name: str) -> bool:
        return owned is None or name in owned

    channel_tables: dict[str, dict] = {}
    subscriptions: dict[str, dict] = {}
    for name, agent in net.ecmp_agents.items():
        if not mine(name):
            continue
        tables = {}
        for channel, state in agent.channels.items():
            tables[str(channel)] = {
                "upstream": state.upstream,
                "advertised": state.advertised,
                "total": state.total(),
                "downstream": {
                    neighbor: (record.count, record.validated)
                    for neighbor, record in state.downstream.items()
                },
            }
        if tables:
            channel_tables[name] = tables
        subs = {}
        for channel, handle in agent.subscriptions.items():
            subs[str(channel)] = (handle.status, handle.packets_received)
        if subs:
            subscriptions[name] = subs
    block_state: dict[str, dict] = {}
    for block in blocks:
        if not mine(block.edge_router):
            continue
        block_state[f"{block.edge_router}/{block.name}"] = {
            "deliveries": block.deliveries,
            "counts": {str(ch): block.count(ch) for ch in channels if block.count(ch)},
        }
    obs_counters = None
    if obs is not None:
        obs_counters = obs.registry.counter_snapshot(exclude=EQUIVALENCE_EXCLUDE)
    return {
        "channel_tables": channel_tables,
        "subscriptions": subscriptions,
        "blocks": block_state,
        "events": net.sim.events_processed,
        "final_time": net.sim.now,
        "obs_counters": obs_counters,
    }


def serve_frame(worker: PartitionWorker, frame: bytes) -> tuple[Optional[bytes], bool]:
    """Handle one coordinator frame; returns ``(reply, exit)``.

    The single dispatch point both execution modes share: mp children
    call it from :func:`worker_main`, the inline runner calls it
    directly with the same encoded bytes — which is what makes frame
    counts and codec coverage identical across transports. A grant's
    reply coalesces everything the coordinator needs (exports, window
    and dispatch counters, next-k times, optional telemetry snapshot)
    into one report frame.
    """
    kind, body = codec.decode_frame(frame)
    if kind == codec.FRAME_GRANT:
        worker.stats.frames_received += 1
        ladder, imports, final, eager = body
        next_times, windows, dispatched, exports, finalized, stalled, snap = (
            worker.run_grant(ladder, imports, final, eager)
        )
        blob = None
        if snap is not None:
            blob = pickle.dumps(snap, protocol=pickle.HIGHEST_PROTOCOL)
        worker.stats.frames_sent += 1
        return (
            codec.encode_report(
                next_times, windows, dispatched, exports, finalized,
                stalled, telemetry=blob,
            ),
            False,
        )
    if kind == codec.FRAME_RESULT_REQ:
        return (
            codec.encode_result((
                worker.summary(),
                worker.stats,
                worker.telemetry_snapshot(final=True),
            )),
            False,
        )
    if kind == codec.FRAME_EXIT:
        return None, True
    raise RuntimeError(  # pragma: no cover - protocol bug guard
        f"unexpected frame kind {kind:#x}"
    )


def worker_main(
    endpoint_descriptor, spec, plan, rank, with_obs, telemetry=None
) -> None:
    """Child-process entry: build the partition, then serve frames.

    With telemetry on, time blocked waiting for the next frame is
    charged to the ``sync_wait`` phase (that is where LBTS/grant
    waiting manifests in a child process — including the long quiet
    stretches demand-driven sync leaves a shard parked in), and an
    armed flight recorder dumps its ring on any error or signal before
    the failure propagates.
    """
    endpoint = connect_endpoint(endpoint_descriptor)
    worker = None
    try:
        worker = PartitionWorker(
            spec, plan, rank, with_obs=with_obs, telemetry=telemetry
        )
        if worker.flight is not None:
            worker.flight.install_signal_handlers(telemetry.flight_path(rank))
        endpoint.send(worker.ready_frame())
        timed = telemetry is not None
        while True:
            if timed:
                waited_from = perf_counter()
                frame = endpoint.recv()
                waited = perf_counter() - waited_from
                worker.stats.wall_sync_wait += waited
                worker.stats.wall_total += waited
            else:
                frame = endpoint.recv()
            reply, done = serve_frame(worker, frame)
            if done:
                break
            endpoint.send(reply)
    except Exception as exc:  # surface the failure to the coordinator
        if worker is not None and worker.flight is not None:
            try:
                worker.flight.dump(
                    telemetry.flight_path(rank),
                    reason=f"error:{type(exc).__name__}: {exc}",
                )
            except Exception:  # pragma: no cover - disk trouble
                pass
        try:
            endpoint.send(codec.encode_error(f"{type(exc).__name__}: {exc}"))
        except Exception:  # pragma: no cover - transport already down
            pass
        raise
    finally:
        endpoint.close()
