"""One partition's event loop: ghosts, proxies, and windowed runs.

A :class:`PartitionWorker` builds the *full* scenario (identical
topology, addresses, interface indices, channel suffixes everywhere),
starts agents only for its owned nodes, installs capture hooks on cut
links, and then serves horizon *grants* from the coordinator in the
same process: each grant carries a ladder of horizons plus pending
imports, the worker drains as many export-capped windows as the grant
ceiling allows, and answers with one report — exports, its next-k
event times, and whether it has finished.

Determinism: imports are injected sorted by ``(arrival_time,
src_rank, export_seq)`` before each window, and injected delivery
events carry the same ``deliver:<proto>`` names the link layer uses,
so per-event-name obs counters match the single-process oracle
exactly.
"""

from __future__ import annotations

from math import inf

from repro.netsim.engine import derive_seed
from repro.netsim.parallel.codec import decode_packet, encode_packet
from repro.netsim.parallel.partition import PartitionPlan
from repro.netsim.parallel.sync import SyncStats, transitive_lookahead
from repro.workloads.spec import ScenarioSpec, build

#: How many upcoming event times a worker reports per grant — the
#: coordinator's raw material for the next grant's horizon ladder.
LADDER_K = 4

#: Metric-family prefixes excluded from equivalence snapshots: the
#: wall-clock families (event timing, SPF timing — plus the lazy
#: Dijkstra tree fills, which legitimately duplicate across workers)
#: measure the machine, not the protocol. Everything else — including
#: the ``parallel_*`` sync counters — stays in the snapshot;
#: :func:`repro.netsim.parallel.runner.assert_equivalent` splits the
#: sharded-only families off and checks fleet conservation on them
#: instead of oracle equality (the oracle has no sync traffic at all).
EQUIVALENCE_EXCLUDE = ("sim_event_wall_seconds", "spf_")

#: Families that exist only in sharded runs (no oracle counterpart):
#: the equivalence checker verifies internal conservation — fleet
#: proxy exports must equal fleet proxy imports — rather than equality.
SHARDED_ONLY_PREFIXES = ("parallel_",)


class PartitionWorker:
    """One rank of a sharded run."""

    def __init__(
        self,
        spec: ScenarioSpec,
        plan: PartitionPlan,
        rank: int,
        with_obs: bool = False,
    ) -> None:
        self.spec = spec
        self.plan = plan
        self.rank = rank
        self.stats = SyncStats(rank=rank)
        obs = None
        if with_obs:
            from repro.obs.hooks import Observability, SyncMetrics

            obs = Observability()
            SyncMetrics(obs.registry, self.stats)
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
        owned = plan.parts[rank]
        #: Owned names in topology insertion order, so agents start in
        #: the same relative order as the oracle's full start.
        self.owned = [n for n in self.net.topo.nodes if n in owned]
        self._owned_set = set(self.owned)
        self.exports: list[tuple] = []
        self._export_seq = 0
        self._install_proxies()
        self.net.start(self.owned)
        spec.schedule(self.net, self.channels, self.blocks, owned=self._owned_set)
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
            node = topo.node(node_name)
            self.sim.schedule_at(
                arrival,
                lambda n=node, p=packet, i=iface_index: n.receive(p, i),
                name=f"deliver:{packet.proto}",
            )

    # -- sync grants -------------------------------------------------------

    def ready(self) -> float:
        """The ready announcement: the time of the first pending event
        (``inf`` when there is none)."""
        self.stats.frames_sent += 1
        when = self.sim.peek_time()
        return when if when is not None else inf

    def next_times(self, k: int = LADDER_K) -> list[float]:
        """Next-k pending event times for the report (``[inf]`` when
        the queue is dry — a report always carries at least the
        effective next-event announcement)."""
        times = self.sim.peek_times(k)
        return times if times else [inf]

    def run_grant(
        self, ladder: list[float], imports: list[tuple], final: bool
    ) -> tuple[list[float], list[tuple], bool]:
        """Serve one coordinator grant: inject, drain windows, report.

        ``ladder[-1]`` is the authoritative grant ceiling. The worker
        drains windows ``[s, min(ceiling, s + self_delay))`` until the
        ceiling is exhausted — or stops at the first window that
        exported, because past that window's end an echo of its own
        export could land. A ``final`` grant (ceiling past the scenario
        end) finishes with the inclusive window once every remaining
        window end clears the duration; if an export interrupts it
        first, the report says *not* finalized and the coordinator
        re-grants after the export has been heard by its destination.

        Returns ``(next_times, exports, finalized)``.
        """
        self.stats.frames_received += 1
        self._inject(imports)
        sim = self.sim
        before = sim.events_processed
        duration = self.spec.duration
        diag = self.self_delay
        ceiling = ladder[-1] if ladder else inf
        windows = 0
        finalized = False
        if final:
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
        stats = self.stats
        stats.sync_rounds += 1
        stats.windows += windows
        exports = self.exports
        self.exports = []
        if not exports and dispatched == 0:
            # A CMB null message carries nothing but a clock bound. A
            # report that dispatched local work (or shipped packets) is
            # payload, not tax, even when no packet crossed the cut.
            stats.null_messages += 1
        next_times = self.next_times()
        if dispatched == 0 and next_times[0] <= duration:
            stats.lbts_stalls += 1
        stats.frames_sent += 1
        return next_times, exports, finalized

    # -- results -----------------------------------------------------------

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
