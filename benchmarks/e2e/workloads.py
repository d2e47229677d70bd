"""The five benchmark workloads.

Each workload is a closed schedule in *simulated* time, cut into
rounds of identical shape. A round's inputs (who joins when, which
channel a surfer zaps to, which link fails) are generated here from the
run's seed and handed to the program as plain calls through the public
API only: ``ExpressNetwork``, ``HostHandle``/``SourceHandle``,
``subscriber_block`` and ``repro.faults``. The runner keeps starting
rounds until the measuring time is used up; the first ``fixed_rounds``
rounds of each process are always run, and only they feed the
simulated-time, byte and digest figures, so those repeat exactly for a
seed however fast the host is.

Sizes are the issue's shapes scaled to this host: each class records
the constants it was tuned with, and ``scale`` (1.0, or 0.125 in
``--quick`` mode) shrinks the population, never the shape.
"""

from __future__ import annotations

import bisect
import gc
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from time import perf_counter

import numpy as np

from common import build_isp, scaled, stream
from repro import SUBSCRIBER_ID, ChannelKey, ExpressNetwork, NeighborMode, make_key
from repro.core.ecmp import EcmpAgent
from repro.core.ecmp.state import STATE_BANK
from repro.faults import FaultInjector, FaultMonitor, FaultPlan
from repro.netsim.engine import derive_seed
from trace import NULL_TRACER


@dataclass
class RoundResult:
    """What one round did and what it cost."""

    ops: int
    #: Wall seconds spent handing the round's inputs to the program and
    #: running the simulator over them (input generation and checks are
    #: outside).
    wall: float
    events: int
    control_bytes: int
    #: This round's simulated-latency samples, seconds.
    latencies: list


class Workload:
    """Base class: accounting, the round protocol, shared checks."""

    name = ""
    #: What one operation is (``ops_per_s`` counts these).
    op = ""
    #: What one ``user_latency_sim_ms`` sample is.
    latency = ""
    #: Rounds every process of a run executes whatever the clock says:
    #: they alone feed the simulated-time, byte and digest figures.
    fixed_rounds = 2
    #: Rounds of the traced run's untraced and traced passes.
    trace_rounds = 2
    #: False when a dispatch listener would disable the path under test.
    event_spans = True

    def __init__(self, seed: int, scale: float = 1.0, obs=None) -> None:
        self.seed = seed
        self.scale = scale
        self.obs = obs
        self.tracer = NULL_TRACER
        self.attempted = 0
        self.failed = 0
        #: First few failure descriptions, for the report.
        self.failures: list[str] = []
        self.latencies: list[float] = []
        #: Most downstream-record rows seen live at a mid-round sample.
        self.state_rows_peak = 0
        #: ``FaultMonitor.report()`` of a workload that injects faults.
        self.slo: dict = {}
        self.net: ExpressNetwork = None

    # -- accounting --------------------------------------------------------

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        if len(self.failures) < 10:
            self.failures.append(what)

    def expect(self, ok: bool, what: str) -> None:
        """One attempted check; counted failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.fail(what)

    # -- the round protocol ------------------------------------------------

    def make_net(self, topo) -> ExpressNetwork:
        """Library defaults except real wire bytes between nodes."""
        self.net = ExpressNetwork(topo, wire_format=True, obs=self.obs)
        self.sim = self.net.sim
        return self.net

    def setup(self) -> None:
        """Build the network and its standing state and run one
        untimed warm-up round (kept as ``self.warm``), so lazily
        computed routing trees and recycled-event pools are in their
        steady state when the timed window opens. The warm-up round is
        the same in every process of a run, which makes its digest the
        cross-process determinism check."""
        raise NotImplementedError

    def inputs(self, k: int):
        """Generate round ``k``'s schedule; returns what ``drive``
        takes. ``k`` is -1 for the warm-up round."""
        raise NotImplementedError

    def drive(self, inputs) -> None:
        """Hand ``inputs`` to the program and run the simulator to the
        round's end. The default takes ``(items, until)`` with
        ``items`` a list of ``(time, callable, event name)``."""
        items, until = inputs
        schedule_at = self.sim.schedule_at
        for at, action, name in items:
            schedule_at(at, action, name)
        # Rounds end with their state torn down, so the state-bank
        # high-water mark is sampled mid-round.
        schedule_at((self.sim.now + until) / 2, self._sample_state, "bench-sample")
        self.net.run(until=until)

    def _sample_state(self) -> None:
        self.state_rows_peak = max(self.state_rows_peak, STATE_BANK.live_rows)

    def after_round(self, k: int) -> int:
        """Per-round checks; returns the round's operation count."""
        raise NotImplementedError

    def control_bytes(self) -> int:
        """ECMP bytes put on every wire so far."""
        return sum(link.ecmp_wire_bytes for link in self.net.topo.links)

    def round(self, k: int) -> RoundResult:
        tracer = self.tracer
        with tracer.span("bench.round"):
            with tracer.span("bench.prepare"):
                inputs = self.inputs(k)
                events = self.sim.events_processed
                control = self.control_bytes()
                mark = len(self.latencies)
            with tracer.span("bench.drive"):
                started = perf_counter()
                self.drive(inputs)
                wall = perf_counter() - started
            with tracer.span("bench.check"):
                inputs = None  # a million tuples die here, inside a span
                ops = self.after_round(k)
                return RoundResult(
                    ops=ops,
                    wall=wall,
                    events=self.sim.events_processed - events,
                    control_bytes=self.control_bytes() - control,
                    latencies=self.latencies[mark:],
                )

    def finish(self) -> None:
        """Closing checks after the last round (untimed)."""
        raise NotImplementedError

    def close(self) -> None:
        """Undo anything ``setup`` changed process-wide."""

    # -- join -> first packet ----------------------------------------------

    def watch_first_packets(self, names: list[str]) -> None:
        """Prepare ``timed_join`` for hosts ``names`` on
        ``self.channel``: every data packet a host receives counts as a
        delivery, and the first one after a ``timed_join`` yields a
        latency sample."""
        self.hosts = {name: self.net.host(name) for name in names}
        self.deliveries = 0
        self.waiting: dict[str, float] = {}
        self.sinks = {name: self._sink(name) for name in names}

    def _sink(self, name: str):
        waiting, latencies, sim = self.waiting, self.latencies, self.sim

        def sink(packet) -> None:
            self.deliveries += 1
            joined = waiting.pop(name, None)
            if joined is not None:
                latencies.append(sim.now - joined)

        return sink

    def timed_join(self, name: str) -> None:
        self.waiting[name] = self.sim.now
        self.hosts[name].subscribe(self.channel, on_data=self.sinks[name])

    def expect_first_packets(self) -> None:
        """Every ``timed_join`` since the last call saw a packet."""
        if self.waiting:
            self.fail(f"{len(self.waiting)} joins saw no packet", len(self.waiting))
            self.waiting.clear()

    # -- shared checks -----------------------------------------------------

    def query_count(self, source, channel, expected: int, what: str, settle: float = 2.0) -> None:
        """A closing ``count_query`` must return the model's count,
        complete."""
        answers: list[tuple[int, bool]] = []
        source.count_query(
            channel, SUBSCRIBER_ID, timeout=5.0,
            callback=lambda total, part: answers.append((total, part)),
        )
        self.net.settle(settle)
        self.expect(
            answers == [(expected, False)],
            f"{what}: count_query returned {answers}, expected {expected}",
        )

    def expect_members(self, channel, members, what: str) -> None:
        """The set-based membership model against the network: the
        active subscriber hosts equal the model, and the tree exists
        iff the model has members."""
        active = self.net.subscriber_hosts(channel)
        self.expect(
            active == sorted(members),
            f"{what}: {len(active)} active subscribers, model has {len(members)}",
        )
        edges = self.net.tree_edges(channel)
        self.expect(
            bool(edges) == bool(members),
            f"{what}: tree has {len(edges)} edges for {len(members)} members",
        )

    def expect_no_orphans(self) -> None:
        orphans = FaultMonitor(self.net).orphaned_state()
        self.expect(orphans == 0, f"{orphans} orphaned state entries")


# ---------------------------------------------------------------------------


class LiveEvent(Workload):
    """§2.2 Internet-TV flash crowd: one channel streaming while the
    whole audience joins in a shuffled wave, watches, and leaves in a
    wave, round after round. The only workload where the data plane
    does most of the work, and the one that yields join -> first packet.

    The issue's 2 s join / 1 s watch / 1 s leave at ``isp(16,8,16)`` is
    scaled to 0.8 s / 0.4 s / 0.4 s at ``isp(16,8,8)`` (1,023 viewers)
    so a round is ~1.2 s of wall time and a run holds enough rounds to
    report a median rate, with the data plane still doing the bulk."""

    name = "live_event"
    op = "host delivery, join or leave"
    latency = "subscribe() -> first data packet at that host"
    SHAPE = (16, 8, 8)
    PACKET_INTERVAL = 0.01
    STREAM = 1.6
    JOIN_WAVE = 0.8
    LEAVE_AT = 1.2
    LEAVE_WAVE = 0.4
    ROUND = 1.85
    trace_rounds = 1

    def setup(self) -> None:
        t, s, h = self.SHAPE
        topo = build_isp(self.seed, t, s, scaled(h, self.scale, 2))
        net = self.make_net(topo)
        names = sorted(net.host_names)
        self.source = net.source(names[0])
        self.channel = self.source.allocate_channel()
        self.audience = names[1:]
        self.watch_first_packets(self.audience)
        net.start()
        net.settle(1.0)
        self.warm = self.round(-1)

    def inputs(self, k: int):
        rng = stream(self.seed, self.name, "round", k)
        base = self.sim.now + 0.001
        n = len(self.audience)
        items = []
        joiners = self.audience[:]
        rng.shuffle(joiners)
        for i, name in enumerate(joiners):
            items.append(
                (base + self.JOIN_WAVE * i / n, partial(self.timed_join, name), "bench-join")
            )
        leavers = self.audience[:]
        rng.shuffle(leavers)
        for i, name in enumerate(leavers):
            items.append((
                base + self.LEAVE_AT + self.LEAVE_WAVE * i / n,
                partial(self.hosts[name].unsubscribe, self.channel),
                "bench-leave",
            ))
        send = partial(self.source.send, self.channel)
        for j in range(int(self.STREAM / self.PACKET_INTERVAL)):
            items.append((base + self.PACKET_INTERVAL * j, send, "bench-send"))
        self._before = self.deliveries
        return items, base + self.ROUND

    def after_round(self, k: int) -> int:
        n = len(self.audience)
        self.attempted += 2 * n
        self.expect_first_packets()
        self.expect_members(self.channel, (), "after the leave wave")
        self.expect(
            self.net.fib_entries_total() == 0,
            f"{self.net.fib_entries_total()} FIB entries after the last leave",
        )
        return self.deliveries - self._before + 2 * n

    def finish(self) -> None:
        for name in self.audience:
            self.hosts[name].subscribe(self.channel, on_data=self.sinks[name])
        self.net.settle(1.0)
        self.expect_members(self.channel, self.audience, "full audience")
        self.query_count(self.source, self.channel, len(self.audience), "full audience")
        before = self.deliveries
        self.source.send(self.channel)
        self.net.settle(0.5)
        got = self.deliveries - before
        self.expect(
            got == len(self.audience),
            f"closing packet reached {got} of {len(self.audience)} hosts",
        )
        for name in self.audience:
            self.hosts[name].unsubscribe(self.channel)
        self.net.settle(1.0)
        self.expect_members(self.channel, (), "after the closing leave")
        self.expect_no_orphans()


# ---------------------------------------------------------------------------


class ChannelChurn(Workload):
    """§2.2 channel surfing over §5.3's many-channel router in
    miniature: thousands of standing channels, each held by a TCP-mode
    tail subscriber, while surfers (half behind UDP-mode access links
    with a 2 s refresh) zap down a Zipf curve. A quarter of the
    channels are keyed and a seeded 2 % of joins to them present a bad
    key: an expected denial, not a failure. No data packets: pure
    control-plane writes, forwarding idle."""

    name = "channel_churn"
    op = "zap (leave the current channel, join the next)"
    latency = "keyed subscribe() -> verdict (active or denied)"
    SHAPE = (8, 6, 8)
    CHANNELS = 6000
    SOURCES = 8
    SURFERS = 190
    ROUND = 10.0
    #: Seconds a surfer stays on a channel, uniform: two on average
    #: (the issue's 9.4k zaps per 100 s), never under one. The floor is
    #: there because the program mishandles a surfer who leaves a keyed
    #: channel while its join verdict is still in flight (up to ~0.5 s)
    #: and joins another keyed one at once: the second join is denied
    #: despite a good key and one downstream record is orphaned
    #: upstream. That is a correctness issue of its own; a benchmark
    #: wants workloads on which nothing fails.
    DWELL = (1.0, 3.0)
    #: Two hosts behind one edge router joining the same keyed channel
    #: within its verdict round trip, one with a bad key, get each
    #: other's verdict at this commit: the good key is denied and the bad
    #: one accepted. Also a correctness issue of its own; the schedule
    #: keeps bad-key joins this many seconds clear of any such neighbour.
    GUARD = 1.0
    ZIPF = 1.05
    REFRESH = 2.0
    KEYED_EVERY = 4
    BAD_KEY_SHARE = 0.02
    JOIN_WINDOW = 4.0
    trace_rounds = 5

    def setup(self) -> None:
        t, s, h = self.SHAPE
        # The refresh interval is a class constant of the agent, read
        # when agents start; the library's own benches set it the same
        # way. close() restores it.
        self._saved_interval = EcmpAgent.UDP_QUERY_INTERVAL
        EcmpAgent.UDP_QUERY_INTERVAL = self.REFRESH
        topo = build_isp(self.seed, t, s, h)
        net = self.make_net(topo)
        rng = stream(self.seed, self.name, "cast")
        source_names = [f"h{i}_0_0" for i in range(self.SOURCES)]
        sources = [net.source(name) for name in source_names]
        others = sorted(net.host_names - set(source_names))
        rng.shuffle(others)
        n_surfers = scaled(self.SURFERS, self.scale, 4)
        self.surfers = others[:n_surfers]
        tails = others[n_surfers:]
        self.hosts = {name: net.host(name) for name in others}
        n_channels = scaled(self.CHANNELS, self.scale, 16)
        self.channels = [
            sources[i % self.SOURCES].allocate_channel() for i in range(n_channels)
        ]
        self.source_of = {
            ch: sources[i % self.SOURCES] for i, ch in enumerate(self.channels)
        }
        self.keys = {}
        for i, channel in enumerate(self.channels):
            if i % self.KEYED_EVERY == 0:
                key = self.keys[channel] = make_key(channel)
                self.source_of[channel].channel_key(channel, key)
        self.bad_key = ChannelKey(bytes(8))
        self.edge_of = {
            name: topo.node(name).neighbors()[0].name for name in self.surfers
        }
        for surfer in self.surfers[: n_surfers // 2]:
            edge = self.edge_of[surfer]
            net.ecmp_agents[surfer].set_neighbor_mode(edge, NeighborMode.UDP)
            net.ecmp_agents[edge].set_neighbor_mode(surfer, NeighborMode.UDP)
        self.members = {}
        net.start()
        for i, channel in enumerate(self.channels):
            tail = tails[i % len(tails)]
            self.members[channel] = {tail}
            self.sim.schedule_at(
                0.001 + self.JOIN_WINDOW * i / n_channels,
                partial(self.hosts[tail].subscribe, channel, key=self.keys.get(channel)),
                "bench-join",
            )
        net.run(until=self.JOIN_WINDOW + 2.0)
        self.cumulative = list(
            accumulate(1.0 / (rank + 1) ** self.ZIPF for rank in range(n_channels))
        )
        self.current = {name: None for name in self.surfers}
        self.touched = set()
        first = stream(self.seed, self.name, "first-zap")
        start = self.sim.now
        self.next_zap = {
            name: start + first.uniform(0.0, self.DWELL[1]) for name in self.surfers
        }
        self.carried: list = []
        self.wrong_verdicts = 0
        self.warm = self.round(-1)

    def close(self) -> None:
        EcmpAgent.UDP_QUERY_INTERVAL = self._saved_interval

    def _zap(self, surfer: str, channel, bad: bool) -> None:
        host = self.hosts[surfer]
        previous = self.current[surfer]
        if previous is not None:
            host.unsubscribe(previous)
            self.members[previous].discard(surfer)
        self.touched.add(channel)
        key = self.keys.get(channel)
        if key is None:
            host.subscribe(channel)
        else:
            asked = self.sim.now
            want = "denied" if bad else "active"

            def verdict(handle) -> None:
                if handle.status != "pending":
                    self.latencies.append(self.sim.now - asked)
                    if handle.status != want:
                        self.wrong_verdicts += 1

            host.subscribe(channel, key=self.bad_key if bad else key, on_status=verdict)
        if bad:
            self.current[surfer] = None
        else:
            self.current[surfer] = channel
            self.members[channel].add(surfer)

    def inputs(self, k: int):
        rng = stream(self.seed, self.name, "round", k)
        base = self.sim.now + 0.001
        until = base + self.ROUND
        total = self.cumulative[-1]
        low, high = self.DWELL
        zaps = []
        for surfer in self.surfers:
            at = max(self.next_zap[surfer], base)
            while at < until:
                channel = self.channels[
                    bisect.bisect_left(self.cumulative, rng.random() * total)
                ]
                bad = channel in self.keys and rng.random() < self.BAD_KEY_SHARE
                zaps.append((at, surfer, channel, bad))
                at += rng.uniform(low, high)
            self.next_zap[surfer] = at
        zaps.sort(key=lambda zap: zap[0])
        # A bad key is only presented when no other surfer behind the
        # same edge router joins that channel within GUARD seconds (see
        # the class comment); otherwise the join presents the good key.
        nearby: dict = {}
        for at, surfer, channel, _ in self.carried + zaps:
            nearby.setdefault((self.edge_of[surfer], channel), []).append((at, surfer))
        items = []
        for at, surfer, channel, bad in zaps:
            if bad and any(
                other != surfer and abs(at - t) < self.GUARD
                for t, other in nearby[self.edge_of[surfer], channel]
            ):
                bad = False
            items.append((at, partial(self._zap, surfer, channel, bad), "bench-zap"))
        self.carried = [zap for zap in zaps if zap[0] > until - self.GUARD]
        self._zaps = len(items)
        return items, until

    def after_round(self, k: int) -> int:
        self.attempted += self._zaps
        if self.wrong_verdicts:
            self.fail(f"{self.wrong_verdicts} wrong key verdicts", self.wrong_verdicts)
            self.wrong_verdicts = 0
        return self._zaps

    def finish(self) -> None:
        # Past the UDP lease (robustness x refresh) so state abandoned
        # by the last zaps has expired before the model is compared.
        self.net.settle(3 * self.REFRESH + 1.0)
        rank = {channel: i for i, channel in enumerate(self.channels)}
        watched = sorted(
            self.touched | {c for c in self.current.values() if c is not None},
            key=rank.__getitem__,
        )[:200]
        for channel in watched:
            self.expect_members(channel, self.members[channel], f"channel {channel}")
        for channel in watched[:10]:
            self.query_count(
                self.source_of[channel], channel, len(self.members[channel]),
                f"channel {channel}", settle=1.0,
            )
        self.expect_no_orphans()


# ---------------------------------------------------------------------------


class CountPoll(Workload):
    """§2.2.1 voting and audience measurement: static channels with
    audiences n/1 ... n/12, every member answering ``SUBSCRIBER_ID``
    and an application countId with a seeded vote; the source polls
    each (channel, countId) once a round at 20 queries/s. The protocol
    layer as a *read* path: query fan-out, per-hop timeout timers set
    and cancelled, aggregation, and no state writes."""

    name = "count_poll"
    op = "CountQuery resolved"
    latency = "count_query() -> callback"
    SHAPE = (12, 8, 12)
    CHANNELS = 12
    VOTE_ID = 0x4001
    QUERY_INTERVAL = 0.05
    DRAIN = 0.5
    fixed_rounds = 3
    trace_rounds = 3

    def setup(self) -> None:
        t, s, h = self.SHAPE
        topo = build_isp(self.seed, t, s, scaled(h, self.scale, 2))
        net = self.make_net(topo)
        names = sorted(net.host_names)
        self.source = net.source(names[0])
        pool = names[1:]
        rng = stream(self.seed, self.name, "cast")
        self.channels = [self.source.allocate_channel() for _ in range(self.CHANNELS)]
        self.members = {}
        self.expected = {}
        net.start()
        for i, channel in enumerate(self.channels):
            members = rng.sample(pool, max(1, len(pool) // (i + 1)))
            self.members[channel] = members
            votes = 0
            for name in members:
                vote = rng.randrange(5)
                votes += vote
                host = net.host(name)
                host.subscribe(channel)
                host.respond_to_count(channel, self.VOTE_ID, lambda vote=vote: vote)
            self.expected[channel, SUBSCRIBER_ID] = len(members)
            self.expected[channel, self.VOTE_ID] = votes
        net.settle(2.0)
        self.polls = [
            (channel, count_id)
            for count_id in (SUBSCRIBER_ID, self.VOTE_ID)
            for channel in self.channels
        ]
        self.resolved = 0
        self.wrong = 0
        self.warm = self.round(-1)

    def _poll(self, channel, count_id: int) -> None:
        asked = self.sim.now
        expected = self.expected[channel, count_id]

        def answered(total: int, part: bool) -> None:
            self.resolved += 1
            self.latencies.append(self.sim.now - asked)
            if part or total != expected:
                self.wrong += 1

        self.source.count_query(channel, count_id, timeout=5.0, callback=answered)

    def inputs(self, k: int):
        rng = stream(self.seed, self.name, "round", k)
        base = self.sim.now + 0.001
        order = self.polls[:]
        rng.shuffle(order)
        items = [
            (base + self.QUERY_INTERVAL * i, partial(self._poll, *poll), "bench-query")
            for i, poll in enumerate(order)
        ]
        self._before = self.resolved
        return items, base + self.QUERY_INTERVAL * len(order) + self.DRAIN

    def after_round(self, k: int) -> int:
        n = len(self.polls)
        self.attempted += n
        answered = self.resolved - self._before
        if answered != n:
            self.fail(f"{n - answered} queries never resolved", n - answered)
        if self.wrong:
            self.fail(f"{self.wrong} wrong or partial Counts", self.wrong)
            self.wrong = 0
        return answered

    def finish(self) -> None:
        for i, channel in enumerate(self.channels):
            self.expect_members(channel, self.members[channel], f"channel {i}")
        self.expect_no_orphans()


# ---------------------------------------------------------------------------


class FaultReroute(Workload):
    """Tree survival: standing channels from many sources, eight of
    them streaming to watchers in every transit region, under a seeded
    ``FaultPlan``: transit ring/chord links failing and recovering,
    stub links partitioned and healed, transit routers crashing and
    restarting. The only workload where unicast recomputation and ECMP
    re-homing and resync dominate.

    Faults are 6 s apart (the issue started from 2 s): past the agent's
    5 s re-homing hysteresis, so each fault meets a settled network.
    Closer together, how long a watcher's stream stays out depends on
    which earlier re-home is still pending, and the median outage
    scattered by a quarter from seed to seed. The share of outages that
    sit out the full hysteresis (~5 s instead of ~0.85 s) still moves
    between 4 % and 28 % with the seed, which is why the high outage
    percentile is reported but not bounded."""

    name = "fault_reroute"
    op = "fault event applied and healed"
    latency = "monitored subscriber's last packet before -> first packet after a fault"
    SHAPE = (8, 4, 4)
    SOURCES = 16
    CHANNELS_PER_SOURCE = 40
    STANDING_SUBSCRIBERS = 3
    MONITORED = 8
    PACKET_INTERVAL = 0.2
    #: Faults per round by kind, in seeded order on seeded targets:
    #: transit link, stub link, router crash. Every round has the same
    #: mix, so rounds (and seeds) cost about the same.
    MIX = (5, 2, 1)
    FAULTS_PER_ROUND = sum(MIX)
    SPACING = 6.0
    DOWNTIME = 0.5
    fixed_rounds = 3
    trace_rounds = 2

    def setup(self) -> None:
        t, s, h = self.SHAPE
        topo = build_isp(self.seed, t, s, h)
        net = self.make_net(topo)
        rng = stream(self.seed, self.name, "cast")
        source_names = [f"h{i % t}_{i // t}_0" for i in range(self.SOURCES)]
        sources = [net.source(name) for name in source_names]
        others = sorted(net.host_names - set(source_names))
        per_source = scaled(self.CHANNELS_PER_SOURCE, self.scale, 2)
        self.channels = [
            source.allocate_channel() for source in sources for _ in range(per_source)
        ]
        self.source_of = {
            ch: sources[i // per_source] for i, ch in enumerate(self.channels)
        }
        self.members = {}
        net.start()
        for i, channel in enumerate(self.channels):
            members = rng.sample(others, self.STANDING_SUBSCRIBERS)
            self.members[channel] = set(members)
            for name in members:
                self.sim.schedule_at(
                    0.001 + 2.0 * i / len(self.channels),
                    partial(net.host(name).subscribe, channel),
                    "bench-join",
                )
        step = max(1, len(self.channels) // self.MONITORED)
        self.monitored = self.channels[::step][: self.MONITORED]
        self.last_seen: dict = {}
        self.threshold = 2.5 * self.PACKET_INTERVAL
        # One watcher per transit region on every monitored channel, so
        # each fault cuts about as many watched paths under any seed.
        regions = [[n for n in others if n.startswith(f"h{i}_")] for i in range(t)]
        for channel in self.monitored:
            watchers = [rng.choice(region) for region in regions]
            self.members[channel].update(watchers)
            for name in watchers:
                net.host(name).subscribe(channel, on_data=self._watch(channel, name))
        net.run(until=4.0)
        # Targets are dealt in turn from a seeded shuffle of each pool,
        # so every link and router is hit about equally often and two
        # seeds differ in order, not in how hard they are.
        self.pools = pools = {
            "transit": [(f"t{i}", f"t{(i + 1) % t}") for i in range(t)] + [("t0", f"t{t // 2}")],
            "stub": [(f"t{i}", f"e{i}_{j}") for i in range(t) for j in range(s)],
            "crash": [f"t{i}" for i in range(t)],
        }
        for pool in pools.values():
            rng.shuffle(pool)
        self.monitor = FaultMonitor(net)
        self.monitor.begin()
        self.injectors: list[FaultInjector] = []
        self.warm = self.round(-1)

    def _watch(self, channel, name: str):
        key = (channel, name)
        last_seen, latencies, sim = self.last_seen, self.latencies, self.sim
        threshold = self.threshold

        def sink(packet) -> None:
            now = sim.now
            before = last_seen.get(key)
            if before is not None and now - before > threshold:
                latencies.append(now - before)
            last_seen[key] = now

        return sink

    def inputs(self, k: int):
        rng = stream(self.seed, self.name, "round", k)
        base = self.sim.now + 0.001
        plan = FaultPlan(self.seed)
        transit, stub, crash = self.MIX
        kinds = ["transit"] * transit + ["stub"] * stub + ["crash"] * crash
        dealt = {
            kind: iter(range(k * n, (k + 1) * n))
            for kind, n in zip(("transit", "stub", "crash"), self.MIX)
        }
        rng.shuffle(kinds)
        for f, kind in enumerate(kinds):
            at = base + 0.5 + self.SPACING * f
            pool = self.pools[kind]
            target = pool[next(dealt[kind]) % len(pool)]
            if kind == "crash":
                plan.crash_restart(at, target, self.DOWNTIME)
            else:
                plan.partition(at, *target).heal(at + self.DOWNTIME, *target)
        until = base + 0.5 + self.SPACING * self.FAULTS_PER_ROUND
        items = []
        # Sends are jittered within their interval: on a fixed grid every
        # outage would be a whole number of intervals.
        for channel in self.monitored:
            send = partial(self.source_of[channel].send, channel)
            at = base
            while at < until - self.PACKET_INTERVAL:
                items.append(
                    (at + rng.uniform(0.0, self.PACKET_INTERVAL), send, "bench-send")
                )
                at += self.PACKET_INTERVAL
        return plan, items, until

    def drive(self, inputs) -> None:
        plan, items, until = inputs
        injector = FaultInjector(self.net, plan, monitor=self.monitor)
        injector.arm()
        self.injectors.append(injector)
        super().drive((items, until))

    def after_round(self, k: int) -> int:
        injector = self.injectors[-1]
        self.attempted += self.FAULTS_PER_ROUND
        missing = len(injector.plan) - len(injector.fired)
        if missing:
            self.fail(f"{missing} fault events never fired", missing)
        return self.FAULTS_PER_ROUND

    def finish(self) -> None:
        # Past the re-homing hysteresis and a keepalive round, so the
        # last fault's recovery has fully played out.
        self.net.settle(2 * EcmpAgent.HYSTERESIS + EcmpAgent.KEEPALIVE_INTERVAL)
        healed_at = self.sim.now
        for channel in self.monitored:
            for j in range(10):
                self.sim.schedule(
                    self.PACKET_INTERVAL * j,
                    partial(self.source_of[channel].send, channel),
                    "bench-send",
                )
        self.net.settle(1.0)
        for channel in self.monitored:
            for name in sorted(self.members[channel]):
                if (channel, name) in self.last_seen:
                    self.expect(
                        self.last_seen[channel, name] > healed_at,
                        f"{name} receives nothing after the last heal",
                    )
        for channel in self.channels:
            self.expect_members(channel, self.members[channel], f"channel {channel}")
        for channel in self.monitored:
            self.query_count(
                self.source_of[channel], channel, len(self.members[channel]),
                f"monitored channel {channel}",
            )
        # Not a pass/fail check here, unlike the other workloads: at
        # this commit a single 0.5 s flap of a transit link in a settled
        # network leaves downstream records behind at the old parent
        # that nothing ever clears (TCP-mode state has no refresh). No
        # subscriber loses a packet to it, so it is reported as the
        # ``faults.orphaned_state`` layer metric for a later fix to
        # drive to zero, rather than hidden by avoiding link flaps.
        self.slo = self.monitor.report()


# ---------------------------------------------------------------------------


class MegaBlockStorm(Workload):
    """§1 "millions of subscribers": the mega-storm shape. Half a
    million members join ``SubscriberBlock``s through ``schedule_bulk``
    on coarse wheel slots, the source streams to them, they leave; a
    handful of real hosts join during the streaming phase and supply
    the join -> first packet samples. The bulk event path, the arena,
    blocks and accounting do nearly all the work and the per-message
    protocol path almost none.

    The three phases do not overlap: a wheel slot holding anything but
    bulk block operations is dispatched per event, not as a batch, so
    traffic during the waves would measure the fallback instead."""

    name = "mega_block_storm"
    op = "subscriber membership change"
    latency = "real host subscribe() -> first data packet, block audience present"
    SHAPE = (4, 3, 4)
    MEMBERS = 500_000
    GRANULARITY = 0.05
    JOIN_AT, JOIN_WAVE = 0.1, 2.0
    QUERY_AT = 2.15
    STREAM_AT, PACKETS, PACKET_INTERVAL = 2.2, 40, 0.01
    HOST_JOIN_WAVE = 0.2
    HOST_LEAVE_AT = 2.62
    LEAVE_AT, LEAVE_WAVE = 2.7, 0.8
    ROUND = 3.6
    trace_rounds = 2
    event_spans = False

    def setup(self) -> None:
        t, s, h = self.SHAPE
        topo = build_isp(self.seed, t, s, h, wheel_granularity=self.GRANULARITY)
        net = self.make_net(topo)
        names = sorted(net.host_names)
        self.source = net.source(names[0])
        self.channel = self.source.allocate_channel()
        self.probes = names[1:]
        self.watch_first_packets(self.probes)
        edges = sorted(name for name in topo.nodes if name.startswith("e"))
        self.blocks = [net.subscriber_block(name) for name in edges]
        net.run(until=0.01)
        self.n = scaled(self.MEMBERS, self.scale, 1000)
        # One shuffled relative schedule, shifted to each round's base:
        # in submission order scheduler inserts would arrive sorted and
        # measure nothing.
        nb, n = len(self.blocks), self.n
        ops = [b.join_op(self.channel) for b in self.blocks]
        ops += [b.leave_op(self.channel) for b in self.blocks]
        ramp = np.arange(n) / n
        times = np.concatenate(
            (self.JOIN_AT + self.JOIN_WAVE * ramp, self.LEAVE_AT + self.LEAVE_WAVE * ramp)
        )
        which = np.concatenate((np.arange(n) % nb, nb + np.arange(n) % nb))
        order = np.random.default_rng(derive_seed(self.seed, "e2e", self.name, "storm"))
        order = order.permutation(2 * n)
        self.storm_times = times[order]
        self.storm_ops = [ops[i] for i in which[order].tolist()]
        self.answers: list = []
        self.warm = self.round(-1)

    def _query(self) -> None:
        self.source.count_query(
            self.channel, SUBSCRIBER_ID, timeout=5.0,
            callback=lambda total, part: self.answers.append((total, part)),
        )

    def inputs(self, k: int):
        rng = stream(self.seed, self.name, "round", k)
        base = self.sim.now + 0.001
        # Building a million tuples trips the collector ~1400 times for
        # nothing; it is paused for this list only, never while the
        # program runs.
        gc.disable()
        try:
            storm = list(zip((base + self.storm_times).tolist(), self.storm_ops))
        finally:
            gc.enable()
        items = [(base + self.QUERY_AT, self._query, "bench-query")]
        send = partial(self.source.send, self.channel)
        for j in range(self.PACKETS):
            items.append(
                (base + self.STREAM_AT + self.PACKET_INTERVAL * j, send, "bench-send")
            )
        order = self.probes[:]
        rng.shuffle(order)
        for i, name in enumerate(order):
            items.append((
                base + self.STREAM_AT + self.HOST_JOIN_WAVE * i / len(order),
                partial(self.timed_join, name),
                "bench-join",
            ))
            items.append((
                base + self.HOST_LEAVE_AT,
                partial(self.hosts[name].unsubscribe, self.channel),
                "bench-leave",
            ))
        self._deliveries = sum(b.deliveries for b in self.blocks)
        return storm, items, base + self.ROUND

    def drive(self, inputs) -> None:
        storm, items, until = inputs
        self.sim.schedule_bulk(storm, name="bench-op")
        super().drive((items, until))

    def after_round(self, k: int) -> int:
        changes = 2 * self.n + 2 * len(self.probes)
        self.attempted += changes
        self.expect_first_packets()
        members = sum(b.count(self.channel) for b in self.blocks)
        self.expect(members == 0, f"{members} block members left after the leave wave")
        delivered = sum(b.deliveries for b in self.blocks) - self._deliveries
        self.expect(
            delivered == self.PACKETS * self.n,
            f"block deliveries {delivered} != {self.PACKETS} x {self.n}",
        )
        self.expect(
            self.answers == [(self.n, False)],
            f"count after the join wave {self.answers}, expected {self.n}",
        )
        self.answers.clear()
        return changes

    def finish(self) -> None:
        self.expect_members(self.channel, (), "after the last round")
        self.expect(
            self.net.fib_entries_total() == 0,
            f"{self.net.fib_entries_total()} FIB entries after the last leave",
        )
        self.expect_no_orphans()


WORKLOADS = {
    cls.name: cls
    for cls in (LiveEvent, ChannelChurn, CountPoll, FaultReroute, MegaBlockStorm)
}
