"""Coordinator/worker protocol tests (:mod:`repro.netsim.parallel.runner`).

The heavyweight N-partition-vs-oracle equivalence sweep lives in
``tests/properties/test_partition_equivalence.py``; this file pins the
runner mechanics: both transports, sync accounting, merge rules, and
the equivalence checker itself.
"""

import os

import pytest

from repro.errors import SimulationError
from repro.netsim.parallel.runner import (
    ParallelRunner,
    assert_equivalent,
    merge_summaries,
    run_single,
)
from repro.netsim.parallel.scenario import ScenarioSpec


@pytest.fixture(scope="module")
def oracle():
    from .conftest import make_small_spec

    return run_single(make_small_spec())


@pytest.fixture(scope="module")
def inline_result():
    from .conftest import make_small_spec

    return ParallelRunner(make_small_spec(), 2, mode="inline").run()


class TestInline:
    def test_matches_oracle(self, oracle, inline_result):
        assert_equivalent(inline_result.merged, oracle)

    def test_rounds_and_wall_recorded(self, inline_result):
        assert inline_result.rounds > 0
        assert inline_result.wall_seconds > 0

    def test_proxy_accounting_closed(self, inline_result):
        # Every exported packet is injected somewhere: fleet totals of
        # out and in must balance, bytes included.
        packets_out = sum(s.proxy_packets_out for s in inline_result.sync)
        packets_in = sum(s.proxy_packets_in for s in inline_result.sync)
        bytes_out = sum(s.proxy_bytes_out for s in inline_result.sync)
        bytes_in = sum(s.proxy_bytes_in for s in inline_result.sync)
        assert packets_out == packets_in > 0
        assert bytes_out == bytes_in > 0

    def test_sync_totals_shape(self, inline_result):
        totals = inline_result.sync_totals()
        # Every coordinator round grants at least one worker, and each
        # grant drains at least one window.
        assert totals["sync_rounds"] >= inline_result.rounds
        assert totals["windows"] >= totals["sync_rounds"]
        # Per worker: one READY frame plus one report per grant.
        assert totals["frames_sent"] == totals["sync_rounds"] + inline_result.plan.n
        assert totals["frames_received"] == totals["sync_rounds"]
        assert totals["proxy_packets"] > 0


class TestProcessTransport:
    def test_mp_matches_oracle_and_inline(self, oracle, inline_result):
        from .conftest import make_small_spec

        result = ParallelRunner(make_small_spec(), 2, mode="mp").run()
        assert_equivalent(result.merged, oracle)
        assert result.merged == inline_result.merged
        assert [s.as_dict() for s in result.sync] == [
            s.as_dict() for s in inline_result.sync
        ]

    def test_worker_error_surfaces(self):
        from .conftest import make_small_spec

        plan = ParallelRunner(make_small_spec(), 2, mode="inline").plan
        bad = make_small_spec()
        bad.topology = "nope"
        with pytest.raises(SimulationError, match="worker 0 failed"):
            ParallelRunner(bad, 2, mode="mp", plan=plan).run()


class TestRunnerValidation:
    def test_unknown_mode_rejected(self, small_spec):
        with pytest.raises(SimulationError, match="unknown runner mode"):
            ParallelRunner(small_spec, 2, mode="threads")

    def test_single_partition_inline_matches_oracle(self, oracle, small_spec):
        result = ParallelRunner(small_spec, 1, mode="inline").run()
        assert_equivalent(result.merged, oracle)
        assert result.sync_totals()["proxy_packets"] == 0


class TestMergeAndCompare:
    def test_merge_rejects_overlap(self):
        summary = {
            "channel_tables": {"r0": {}},
            "subscriptions": {},
            "blocks": {},
            "events": 1,
            "final_time": 1.0,
            "obs_counters": None,
        }
        with pytest.raises(SimulationError, match="partition overlap"):
            merge_summaries([summary, dict(summary)])

    def test_merge_adds_counts_and_counters(self):
        a = {
            "channel_tables": {"r0": {}}, "subscriptions": {}, "blocks": {},
            "events": 3, "final_time": 1.0,
            "obs_counters": {("x", ()): 2, ("h", ()): (1, 0.5)},
        }
        b = {
            "channel_tables": {"r1": {}}, "subscriptions": {}, "blocks": {},
            "events": 4, "final_time": 2.0,
            "obs_counters": {("x", ()): 5, ("h", ()): (2, 1.5)},
        }
        merged = merge_summaries([a, b])
        assert merged["events"] == 7
        assert merged["final_time"] == 2.0
        assert merged["obs_counters"][("x", ())] == 7
        assert merged["obs_counters"][("h", ())] == (3, 2.0)

    def test_assert_equivalent_flags_table_divergence(self, oracle):
        tampered = dict(oracle)
        tampered["channel_tables"] = dict(oracle["channel_tables"])
        victim = next(iter(tampered["channel_tables"]))
        tampered["channel_tables"][victim] = {"bogus": {}}
        with pytest.raises(AssertionError, match="channel_tables"):
            assert_equivalent(tampered, oracle)

    def test_assert_equivalent_flags_event_count(self, oracle):
        tampered = dict(oracle)
        tampered["events"] = oracle["events"] + 1
        with pytest.raises(AssertionError, match="event counts"):
            assert_equivalent(tampered, oracle)

    def test_assert_equivalent_flags_counter_divergence(self):
        base = {
            "channel_tables": {}, "subscriptions": {}, "blocks": {},
            "events": 0, "final_time": 0.0,
            "obs_counters": {("x", ()): 1},
        }
        other = dict(base)
        other["obs_counters"] = {("x", ()): 2}
        with pytest.raises(AssertionError, match="counter"):
            assert_equivalent(base, other)
        missing = dict(base)
        missing["obs_counters"] = {("y", ()): 1}
        with pytest.raises(AssertionError, match="families"):
            assert_equivalent(base, missing)


class TestSyncModesAndTransports:
    def test_eager_mode_matches_oracle_with_more_messages(
        self, oracle, inline_result
    ):
        from .conftest import make_small_spec

        eager = ParallelRunner(
            make_small_spec(), 2, mode="inline", sync_mode="eager"
        ).run()
        assert_equivalent(eager.merged, oracle)
        assert eager.sync_mode == "eager"
        # Demand-driven sync must strictly beat the lockstep baseline
        # on both null messages and total frames.
        demand_totals = inline_result.sync_totals()
        eager_totals = eager.sync_totals()
        assert demand_totals["null_messages"] < eager_totals["null_messages"]
        assert demand_totals["frames_sent"] < eager_totals["frames_sent"]
        # Eager grants every worker every round: one window per grant.
        assert eager_totals["windows"] == eager_totals["sync_rounds"]

    def test_demand_sync_cuts_the_tax_on_a_regional_audience(self):
        """The sync-tax gate. The paper's regional-audience shape: the
        channel's subscribers live in two of four transit domains, the
        churn is a front-loaded burst and the data phase is long, so
        two shards go quiet for good. Demand-driven sync stops
        contacting them; the eager baseline heartbeats every shard
        every round. Both ratios are frame counts — exact, the same at
        any ``n_subs``, on any host and transport (measured 18.38 and
        3.56)."""
        blocks = tuple(sorted(f"e{t}_{s}" for t in range(2) for s in range(3)))
        spec = ScenarioSpec(
            topology="isp",
            topology_kwargs={
                "n_transit": 4,
                "stubs_per_transit": 3,
                "hosts_per_stub": 1,
                # Lookahead is the smallest cut-link delay: 40 ms keeps
                # the round count proportionate to the work.
                "core_delay": 0.04,
            },
            source="h0_0_0",
            n_channels=1,
            blocks=blocks,
            opgen=(
                "block_storm",
                {
                    "n_subs": 2000,
                    "n_blocks": len(blocks),
                    "packets": 60,
                    "join_window": 0.1,
                    "leave_window": 0.1,
                    "packet_spacing": 0.15,
                    "burst": 2,
                    "seed": 0,
                },
            ),
            duration=5.6,
            seed=0,
        )
        single = run_single(spec)
        demand = ParallelRunner(spec, 4, mode="inline").run()
        eager = ParallelRunner(spec, 4, mode="inline", sync_mode="eager").run()
        assert_equivalent(demand.merged, single)
        assert_equivalent(eager.merged, single)

        def null_ratio(result):
            totals = result.sync_totals()
            return totals["null_messages"] / totals["sync_rounds"]

        def per_event(result):
            return result.message_totals()["sync_messages_per_event"]

        assert null_ratio(eager) > 0
        assert null_ratio(eager) >= 8 * null_ratio(demand)
        assert per_event(eager) >= 3 * per_event(demand) > 0

    def test_message_totals_shape(self, inline_result):
        totals = inline_result.message_totals()
        assert totals["frames_total"] == (
            inline_result.sync_totals()["frames_sent"]
            + inline_result.sync_totals()["frames_received"]
        )
        assert totals["sync_messages_per_event"] > 0
        assert totals["frames_per_round"] > 0

    def test_round_traces_recorded(self, inline_result):
        traces = inline_result.round_traces
        assert len(traces) == inline_result.rounds
        assert all(t.mode == "demand" for t in traces)
        assert sum(t.frames for t in traces) > 0
        granted = [t for t in traces if t.ladders]
        assert granted
        for trace in granted:
            for rank, ladder in trace.ladders.items():
                # The authoritative bound is the last rung.
                assert ladder == sorted(ladder)
                assert ladder[-1] == trace.horizons[rank] or trace.horizons[
                    rank
                ] > inline_result.plan.lookahead.get((rank, rank), 0)
        # Traces serialize for a post-mortem dump.
        import json

        json.dumps([t.as_dict() for t in traces])

    @pytest.mark.parametrize("transport", ["pipe", "shm"])
    def test_mp_transports_match_inline_exactly(
        self, oracle, inline_result, transport
    ):
        from .conftest import make_small_spec

        result = ParallelRunner(
            make_small_spec(), 2, mode="mp", transport=transport
        ).run()
        assert result.transport == transport
        assert_equivalent(result.merged, oracle)
        assert result.merged == inline_result.merged
        assert [s.as_dict() for s in result.sync] == [
            s.as_dict() for s in inline_result.sync
        ]
        assert result.rounds == inline_result.rounds

    def test_env_override_selects_transport(self, monkeypatch, small_spec):
        monkeypatch.setenv("REPRO_TRANSPORT", "pipe")
        runner = ParallelRunner(small_spec, 2, mode="mp")
        assert runner.transport == "pipe"
        monkeypatch.delenv("REPRO_TRANSPORT")
        assert ParallelRunner(small_spec, 2, mode="mp").transport == "shm"

    def test_unknown_sync_mode_rejected(self, small_spec):
        with pytest.raises(SimulationError, match="unknown sync mode"):
            ParallelRunner(small_spec, 2, sync_mode="optimistic")

    def test_worker_crash_raises_not_hangs(self, monkeypatch):
        # A worker that dies without sending an error frame must
        # surface as a transport error (subclass of SimulationError),
        # not a hang: the ring's liveness probe catches it.
        from .conftest import make_small_spec

        import repro.netsim.parallel.worker as worker_mod

        original = worker_mod.PartitionWorker.run_grant

        def dying_grant(self, ladder, imports, final, eager):
            if self.rank == 1 and self.sim.events_processed > 0:
                os._exit(3)
            return original(self, ladder, imports, final, eager)

        monkeypatch.setattr(
            worker_mod.PartitionWorker, "run_grant", dying_grant
        )
        with pytest.raises(SimulationError):
            ParallelRunner(
                make_small_spec(), 2, mode="mp", transport="shm"
            ).run()
