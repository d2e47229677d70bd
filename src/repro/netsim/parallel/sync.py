"""Conservative-lookahead synchronization (null messages / LBTS).

The coordinator runs Chandy–Misra–Bryant-style rounds over the
partition graph. Every round, each worker reports its *next effective
event time* — the earliest timestamp it could dispatch, accounting for
both its local queue and any imports the coordinator is still holding
for it. ``L[q -> w]`` is the smallest propagation delay of any cut
link from partition q toward w: nothing q dispatches at or after
``next_eff_q`` can arrive in w before ``next_eff_q + L``. Because every
cut delay is positive, the global minimum next-event time strictly
increases each round and the protocol cannot deadlock. The per-report
announcements *are* the null messages of the CMB protocol.

Sync is demand-driven: each worker gets a grant *ceiling*

    G_w = min over q != w of (next_eff_q + Lc[q -> w])

over the transitive closure ``Lc`` — deliberately excluding the
self-echo diagonal term, because the worker enforces that bound itself:
it drains exclusive windows ``[s, min(G_w, s + Lc[w, w]))`` locally (s
= its next pending event time) and reports back only when the ceiling
is exhausted or it exports a cut-crossing packet. Any export at time
``t >= s`` can echo back no earlier than ``t + Lc[w, w] >= s +
Lc[w, w]``, which is at or past the window end — so no window ever
overruns the knowledge the worker had when granted, and stopping at
the first export keeps the null messages demand-driven: quiet shards
simply are not granted (no heartbeats), and a report almost always
carries payload. The rung ladder a grant carries is the projection of
those windows from the worker's reported next-k event times; the
worker recomputes the real windows from live peeks (new events created
mid-grant only tighten them).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf


@dataclass
class SyncStats:
    """Per-worker sync counters: the only tally. With observability on,
    :class:`repro.obs.hooks.SyncMetrics` folds them into the registry
    as the ``parallel_*`` families at collect."""

    rank: int = 0
    null_messages: int = 0
    lbts_stalls: int = 0
    sync_rounds: int = 0
    #: Exclusive-horizon simulator windows run: at least one per
    #: grant, more when one grant drains several windows.
    windows: int = 0
    #: Protocol messages this worker sent (its ready announcement and
    #: one report per grant) and received (one per grant).
    #: Deterministic for a given spec.
    frames_sent: int = 0
    frames_received: int = 0
    proxy_packets_out: int = 0
    proxy_bytes_out: int = 0
    proxy_packets_in: int = 0
    proxy_bytes_in: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "rank": self.rank,
            "null_messages": self.null_messages,
            "lbts_stalls": self.lbts_stalls,
            "sync_rounds": self.sync_rounds,
            "windows": self.windows,
            "frames_sent": self.frames_sent,
            "frames_received": self.frames_received,
            "proxy_packets_out": self.proxy_packets_out,
            "proxy_bytes_out": self.proxy_bytes_out,
            "proxy_packets_in": self.proxy_packets_in,
            "proxy_bytes_in": self.proxy_bytes_in,
        }


def merge_sync_stats(stats: list[SyncStats]) -> dict[str, int]:
    """Fleet totals across workers (ranks dropped)."""
    totals = {
        "null_messages": 0,
        "lbts_stalls": 0,
        "sync_rounds": 0,
        "windows": 0,
        "frames_sent": 0,
        "frames_received": 0,
        "proxy_packets": 0,
        "proxy_bytes": 0,
    }
    for s in stats:
        totals["null_messages"] += s.null_messages
        totals["lbts_stalls"] += s.lbts_stalls
        totals["sync_rounds"] += s.sync_rounds
        totals["windows"] += s.windows
        totals["frames_sent"] += s.frames_sent
        totals["frames_received"] += s.frames_received
        totals["proxy_packets"] += s.proxy_packets_out
        totals["proxy_bytes"] += s.proxy_bytes_out
    return totals


def message_stats(stats: list[SyncStats], events: int) -> dict[str, float]:
    """Host-independent sync-message economics.

    ``sync_messages_per_event`` — total protocol messages the fleet
    moved (both directions) per dispatched event; the frozen
    ``benchmarks/e2e`` probe reports it as
    ``netsim.parallel.sync_msgs_per_event``.
    ``frames_per_round`` — messages per sync round: a grant and its
    report, plus the ready announcements amortized.
    """
    frames = sum(s.frames_sent + s.frames_received for s in stats)
    rounds = sum(s.sync_rounds for s in stats)
    return {
        "frames_total": frames,
        "sync_messages_per_event": frames / events if events else 0.0,
        "frames_per_round": frames / rounds if rounds else 0.0,
    }


def effective_next_times(
    reported: list[float], pending_import_min: list[float]
) -> list[float]:
    """Fold pending (undelivered) imports into each worker's report.

    A worker's own queue does not know about packets the coordinator
    is still holding for it; using the raw report would let a
    predecessor's horizon race past an import that is about to land —
    a causality violation. ``pending_import_min[w]`` is the earliest
    arrival time among held imports destined to w (``inf`` if none).
    """
    return [min(r, p) for r, p in zip(reported, pending_import_min)]


def transitive_lookahead(
    lookahead: dict[tuple[int, int], float], n: int
) -> dict[tuple[int, int], float]:
    """All-pairs minimum lookahead over the partition graph.

    Direct cut delays alone are *not* a safe horizon input: influence
    propagates transitively (q exports to r, whose reaction exports to
    w), and an idle intermediate partition reports ``next_eff = inf``
    — which would unbound w's horizon even though q's next event can
    reach w in ``L[q->r] + L[r->w]``. Floyd–Warshall over the cut
    delays gives the true minimum delay along *any* partition path,
    including the diagonal ``(w, w)``: the shortest cycle through the
    cut bounds how soon a worker's own dispatches can echo back to it,
    which must also cap its horizon. Computed once per plan (the
    partition count is tiny).
    """
    dist = [[inf] * n for _ in range(n)]
    for (src, dst), delay in lookahead.items():
        if delay < dist[src][dst]:
            dist[src][dst] = delay
    for mid in range(n):
        row_mid = dist[mid]
        for src in range(n):
            through = dist[src][mid]
            if through == inf:
                continue
            row_src = dist[src]
            for dst in range(n):
                candidate = through + row_mid[dst]
                if candidate < row_src[dst]:
                    row_src[dst] = candidate
    return {
        (src, dst): dist[src][dst]
        for src in range(n)
        for dst in range(n)
        if dist[src][dst] < inf
    }


def grant_ceilings(
    next_eff: list[float], lookahead: dict[tuple[int, int], float]
) -> list[float]:
    """Per-worker grant ceilings for demand-driven sync.

    The minimum of ``next_eff[q] + Lc[q -> w]`` over every ``q != w``
    — the diagonal ``(w, w)`` closure term is excluded: the self-echo bound depends on the
    worker's own future dispatch times, which only the worker knows
    mid-grant — so it enforces that bound itself by capping each
    internal window at ``s + Lc[w, w]`` and stopping at the first
    export. Everything the coordinator can soundly promise from the
    *other* workers' effective next times is in the ceiling. Cached
    (possibly stale) reports are safe inputs: a worker's dispatch
    times only move forward, so an old report is still a lower bound.
    """
    n = len(next_eff)
    ceilings = [inf] * n
    for (src, dst), delay in lookahead.items():
        if src == dst:
            continue
        bound = next_eff[src] + delay
        if bound < ceilings[dst]:
            ceilings[dst] = bound
    return ceilings


def build_ladder(
    next_times: list[float], self_delay: float, ceiling: float
) -> list[float]:
    """The horizon rungs a demand grant carries: the projection of the
    worker's export-capped windows from its reported next-k event
    times. Rung i is ``min(ceiling, next_times[i] + self_delay)``;
    rungs are deduped ascending and the final rung is always the
    ceiling, so ``ladder[-1]`` is the authoritative bound and the
    earlier rungs are the predicted intermediate window ends (the
    worker recomputes the real windows from live peeks, which new
    mid-grant events can only tighten)."""
    rungs: list[float] = []
    for when in next_times:
        rung = when + self_delay
        if rung >= ceiling:
            break
        if not rungs or rung > rungs[-1]:
            rungs.append(rung)
    rungs.append(ceiling)
    return rungs
