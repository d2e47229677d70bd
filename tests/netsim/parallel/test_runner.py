"""Coordinator/worker protocol tests (:mod:`repro.netsim.parallel.runner`).

The heavyweight N-partition-vs-oracle equivalence sweep lives in
``tests/properties/test_partition_equivalence.py``; this file pins the
runner mechanics: sync accounting, merge rules, and the equivalence
checker itself.
"""

import pytest

from repro.errors import SimulationError
from repro.netsim.parallel.runner import (
    ParallelRunner,
    assert_equivalent,
    merge_summaries,
    run_single,
)
from repro.workloads.spec import ScenarioSpec


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

    def test_worker_error_propagates_with_its_type(self, monkeypatch, small_spec):
        # The workers run in this process: an exception inside a grant
        # reaches the caller as itself, not wrapped or stringified.
        import repro.netsim.parallel.worker as worker_mod

        class Boom(Exception):
            pass

        def failing_grant(self, ladder, imports, final):
            raise Boom(f"grant to worker {self.rank}")

        monkeypatch.setattr(worker_mod.PartitionWorker, "run_grant", failing_grant)
        with pytest.raises(Boom, match="grant to worker"):
            ParallelRunner(small_spec, 2).run()


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

    def test_assert_equivalent_flags_one_sided_obs_counters(self):
        # Comparing an obs-attached run against an obs-less one must not
        # silently skip the counters — whichever side lacks them.
        with_obs = {
            "channel_tables": {}, "subscriptions": {}, "blocks": {},
            "events": 0, "final_time": 0.0,
            "obs_counters": {("x", ()): 1},
        }
        without = dict(with_obs, obs_counters=None)
        for merged, oracle in ((with_obs, without), (without, with_obs)):
            with pytest.raises(AssertionError, match="one side"):
                assert_equivalent(merged, oracle)
        assert_equivalent(without, dict(without))


class TestDemandSync:
    def test_demand_sync_pins_its_tax_on_a_regional_audience(self):
        """The sync-tax gate. The paper's regional-audience shape: the
        channel's subscribers live in two of four transit domains, the
        churn is a front-loaded burst and the data phase is long, so
        two shards go quiet for good and demand-driven sync stops
        contacting them. The counts are exact — the same on any host —
        and a grant to every unfinished worker every round (the
        lockstep baseline demand sync replaced) moves all three."""
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
        demand = ParallelRunner(spec, 4).run()
        assert_equivalent(demand.merged, run_single(spec))
        totals = demand.sync_totals()
        assert (
            totals["null_messages"],
            totals["sync_rounds"],
            totals["frames_sent"] + totals["frames_received"],
        ) == (3, 75, 154)

    def test_message_totals_shape(self, inline_result):
        totals = inline_result.message_totals()
        assert totals["frames_total"] == (
            inline_result.sync_totals()["frames_sent"]
            + inline_result.sync_totals()["frames_received"]
        )
        assert totals["sync_messages_per_event"] > 0
        assert totals["frames_per_round"] > 0
