"""Unit tests for the refresh-deadline ring (``core/ecmp/refresh.py``).

The integration-level expiry behaviour (ring vs full-table scan
equivalence) is pinned by the UDP-mode and property suites; here we pin
the ring's own container contract, and in particular the satellite
regression from the fault-injection work: an abandoned :meth:`due`
iteration — an exception mid-tick, a crash/restart straddling a refresh
deadline, a clock jump that pops several buckets at once — must never
strand a *popped-but-dead* entry that is tracked in ``_entries`` but
resident in no bucket. Before the ``_pending`` staging area, such an
entry would never expire again and would block :meth:`add` from
re-arming its key forever.
"""

from functools import partial

import pytest

from repro import ExpressNetwork, NeighborMode, TopologyBuilder
from repro.core.ecmp.protocol import EcmpAgent
from repro.core.ecmp.refresh import RefreshRing


def drain(ring, now, lease=120.0):
    """One well-behaved tick: discard expired keys (all of them here),
    like the protocol's ``_udp_refresh_tick`` with no refreshes."""
    popped = list(ring.due(now))
    for key in popped:
        ring.discard(key)
    return popped


class TestRingBasics:
    def test_add_and_due(self):
        ring = RefreshRing(10.0)
        assert ring.add("a", 15.0)
        assert ring.add("b", 95.0)
        assert len(ring) == 2
        assert "a" in ring and "b" in ring
        # Bucket [10,20) is fully past only when now > 20.
        assert drain(ring, 25.0) == ["a"]
        assert len(ring) == 1
        assert drain(ring, 200.0) == ["b"]
        assert len(ring) == 0

    def test_bucket_starting_exactly_now_is_not_due(self):
        # A tick at ``now`` pops only windows that start strictly
        # before it: nothing filed under [20,30) can have lapsed at
        # 20.0, and popping it would examine every live record one
        # tick early, every lease.
        ring = RefreshRing(10.0)
        ring.add("a", 25.0)
        assert drain(ring, 20.0) == []
        assert drain(ring, 20.5) == ["a"]

    def test_add_is_deduped(self):
        ring = RefreshRing(10.0)
        assert ring.add("a", 15.0)
        assert not ring.add("a", 999.0)  # existing entry stays
        assert drain(ring, 25.0) == ["a"]

    def test_reschedule_moves_to_new_bucket(self):
        ring = RefreshRing(10.0)
        ring.add("a", 15.0)
        for key in ring.due(25.0):
            ring.reschedule(key, 95.0)
        assert "a" in ring
        assert drain(ring, 50.0) == []
        assert drain(ring, 200.0) == ["a"]

    def test_discard_is_lazy_and_final(self):
        ring = RefreshRing(10.0)
        ring.add("a", 15.0)
        ring.add("b", 15.0)
        ring.discard("a")
        assert drain(ring, 25.0) == ["b"]
        assert len(ring) == 0

    def test_due_yield_order_is_bucket_then_insertion(self):
        ring = RefreshRing(10.0)
        ring.add("late", 95.0)
        ring.add("a", 15.0)
        ring.add("b", 12.0)  # same bucket as a, inserted after
        assert list(drain(ring, 200.0)) == ["a", "b", "late"]

    def test_granularity_must_be_positive(self):
        with pytest.raises(ValueError):
            RefreshRing(0.0)
        with pytest.raises(ValueError):
            RefreshRing(10.0).rebuild(-1.0, lambda key: 0.0)


class TestAbandonedIteration:
    """The satellite regression: popped-but-undispositioned keys
    survive an abandoned ``due`` iteration."""

    def test_abandoned_due_reyields_next_call(self):
        ring = RefreshRing(10.0)
        ring.add("a", 12.0)
        ring.add("b", 14.0)
        it = ring.due(25.0)
        assert next(it) == "a"
        ring.discard("a")
        del it  # tick dies before reaching "b" (exception / crash)
        # "b" is still tracked and must come due again, immediately —
        # even at a ``now`` for which no bucket is due any more.
        assert "b" in ring
        assert drain(ring, 25.0) == ["b"]
        assert len(ring) == 0

    def test_clock_jump_straddling_deadline_leaves_no_dead_entry(self):
        """A crash/restart straddling a refresh deadline: the tick pops
        the bucket, dies, and the key's record is gone by the time the
        next tick runs. The entry must be yielded so the caller can
        discard it — not stay resident forever."""
        ring = RefreshRing(10.0)
        ring.add(("ch", "n1"), 12.0)
        it = ring.due(1e6)  # clock jump: every bucket pops
        next(it)
        del it  # abandoned before disposition
        # The record behind the key is dead; a well-behaved next tick
        # discards it and the key becomes re-armable.
        assert drain(ring, 1e6) == [("ch", "n1")]
        assert len(ring) == 0
        assert ring.add(("ch", "n1"), 2e6)

    def test_discard_while_pending_stops_reyield(self):
        ring = RefreshRing(10.0)
        ring.add("a", 12.0)
        it = ring.due(25.0)
        next(it)
        del it
        ring.discard("a")  # e.g. the neighbor unsubscribed meanwhile
        assert drain(ring, 1e6) == []
        assert ring.add("a", 15.0)  # key is re-armable

    def test_disposition_of_one_key_can_discard_another_pending_key(self):
        ring = RefreshRing(10.0)
        ring.add("a", 12.0)
        ring.add("b", 14.0)
        seen = []
        for key in ring.due(25.0):
            seen.append(key)
            # Handling "a" tears down "b" too (e.g. the whole channel
            # state is dropped): "b" must not be yielded afterwards.
            ring.discard("a")
            ring.discard("b")
        assert seen == ["a"]
        assert len(ring) == 0

    def test_rebuild_rebuckets_pending_keys(self):
        """An interval change (or crash recovery) right after an
        abandoned tick must re-bucket the stranded keys, deduped."""
        ring = RefreshRing(10.0)
        ring.add("a", 12.0)
        ring.add("b", 14.0)
        it = ring.due(25.0)
        next(it)
        del it
        deadlines = {"a": 30.0, "b": 60.0}
        ring.rebuild(5.0, deadlines.__getitem__)
        assert ring.granularity == 5.0
        assert drain(ring, 40.0) == ["a"]
        assert drain(ring, 70.0) == ["b"]

    def test_reschedule_clears_pending(self):
        ring = RefreshRing(10.0)
        ring.add("a", 12.0)
        it = ring.due(25.0)
        next(it)
        del it
        ring.reschedule("a", 95.0)  # refreshed meanwhile
        assert drain(ring, 25.0) == []  # not re-yielded now
        assert drain(ring, 200.0) == ["a"]


class TestScanShareOnALiveNetwork:
    def test_refresh_leaves_the_standing_table_alone(self, monkeypatch):
        """The refresh-ring gate, in the TV-distribution shape of the
        paper's section 2.2: 300 channels each held up by one TCP-mode
        tail subscriber (standing state at every on-tree router, no
        refresh traffic), while four UDP-mode hosts zap to another
        channel every 0.6 s with the refresh interval cranked down to
        0.4 s. A refresh that walked the table would examine every
        standing record twice a tick (once for expiry, once for the
        general-query reply); the ring examines what the zapping made
        due and the reply re-announces what is routed via the querier —
        233 records over 50 ticks however many channels stand, so
        0.22 % of a full scan here and less on anything larger."""
        monkeypatch.setattr(EcmpAgent, "UDP_QUERY_INTERVAL", 0.4)
        topo = TopologyBuilder.isp(n_transit=3, stubs_per_transit=2, hosts_per_stub=2)
        net = ExpressNetwork(topo)
        source_names = ["h0_0_0", "h1_0_0", "h2_0_0"]
        others = [h for h in sorted(net.host_names) if h not in source_names]
        surfers, tails = others[:4], others[4:]
        channels = [
            net.source(name).allocate_channel()
            for name in source_names
            for _ in range(100)
        ]
        for surfer in surfers:
            edge = topo.node(surfer).neighbors()[0].name
            net.ecmp_agents[surfer].set_neighbor_mode(edge, NeighborMode.UDP)
            net.ecmp_agents[edge].set_neighbor_mode(surfer, NeighborMode.UDP)
        for index, channel in enumerate(channels):
            net.host(tails[index % len(tails)]).subscribe(channel)
        net.settle(2.0)

        def zap(i, k):
            host = net.host(surfers[i])
            if k:
                host.unsubscribe(channels[(7 * (k - 1) + i) % len(channels)])
            host.subscribe(channels[(7 * k + i) % len(channels)])

        start, ticks = net.sim.now, 50
        window = ticks * EcmpAgent.UDP_QUERY_INTERVAL
        for i in range(len(surfers)):
            for k in range(int(window / 0.6)):
                net.sim.schedule_at(start + 0.15 * i + 0.6 * k, partial(zap, i, k))
        routers = [a for a in net.ecmp_agents.values() if a.role == "router"]
        standing = sum(
            len(state.downstream) for a in routers for state in a.channels.values()
        )
        assert standing >= 3 * len(channels)
        net.run(until=start + window)
        examined = net.control_stats_total()["refresh_records_examined"]
        assert 0 < examined < 0.01 * 2 * standing * ticks
