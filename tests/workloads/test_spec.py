"""Tests for the op language and declarative scenario specs
(:mod:`repro.workloads.spec`)."""

import pickle

import pytest

from repro.errors import SimulationError
from repro.workloads.spec import OPGENS, ScenarioSpec, build, schedule_ops

from tests.workloads.conftest import make_small_spec


class TestSpec:
    def test_op_owner_per_kind(self, small_spec):
        assert small_spec.op_owner((0.1, "join", "h1_0_0", 0)) == "h1_0_0"
        assert small_spec.op_owner((0.1, "leave", "h0_1_0", 0)) == "h0_1_0"
        assert small_spec.op_owner((0.1, "send", 0)) == "h0_0_0"
        assert small_spec.op_owner((0.1, "block_join", 0, 0)) == "e0_1"
        assert small_spec.op_owner((0.1, "block_leave", 1, 0)) == "e1_0"
        with pytest.raises(SimulationError, match="unknown op kind"):
            small_spec.op_owner((0.1, "flap", "x"))

    def test_spec_is_picklable(self, small_spec):
        clone = pickle.loads(pickle.dumps(small_spec))
        assert clone == small_spec

    def test_unknown_opgen_rejected(self):
        spec = make_small_spec()
        spec.opgen = ("nope", {})
        with pytest.raises(SimulationError, match="unknown op generator"):
            spec.all_ops()

    def test_unknown_topology_rejected(self):
        spec = make_small_spec()
        spec.topology = "nope"
        with pytest.raises(SimulationError, match="unknown topology"):
            build(spec)


class TestScheduleOps:
    def test_owned_filter_partitions_the_ops(self, small_spec):
        net, channels, blocks = build(small_spec)
        net.start()
        total = small_spec.schedule(net, channels, blocks)
        assert total == len(small_spec.ops)
        owners = {small_spec.op_owner(op) for op in small_spec.ops}
        # Splitting the owner set must split the op count exactly.
        some = set(sorted(owners)[: len(owners) // 2])
        rest = owners - some
        net_a, ch_a, bl_a = build(small_spec)
        net_b, ch_b, bl_b = build(small_spec)
        count_a = small_spec.schedule(net_a, ch_a, bl_a, owned=some)
        count_b = small_spec.schedule(net_b, ch_b, bl_b, owned=rest)
        assert count_a + count_b == total

    def test_ops_replay_the_workload(self, small_spec):
        net, channels, blocks = build(small_spec)
        net.start()
        small_spec.schedule(net, channels, blocks)
        net.run(until=small_spec.duration)
        # Two hosts still subscribed on channel 0 plus the settled
        # block membership from the spec's join/leave waves.
        assert blocks[0].count(channels[0]) == 25
        assert blocks[1].count(channels[1]) == 30
        assert blocks[0].deliveries > 0


    def test_every_kind_goes_through_one_bulk_call(self, small_spec, monkeypatch):
        net, channels, blocks = build(small_spec)
        sizes = []
        real = net.sim.schedule_bulk

        def counted(items, name):
            sizes.append(len(items))
            return real(items, name=name)

        monkeypatch.setattr(net.sim, "schedule_bulk", counted)
        assert small_spec.schedule(net, channels, blocks) == len(small_spec.ops)
        assert sizes == [len(small_spec.ops)]

    def test_unknown_op_kind_rejected(self, small_spec):
        net, channels, blocks = build(small_spec)
        with pytest.raises(SimulationError, match="unknown op kind"):
            schedule_ops(net, [(0.1, "flap", "x")], channels, blocks)

    def test_the_sharded_runner_reexports_the_spec(self):
        import repro.netsim.parallel as parallel

        assert parallel.ScenarioSpec is ScenarioSpec and parallel.OPGENS is OPGENS


class TestBlockStormOpgen:
    def test_deterministic_and_sized(self):
        gen = OPGENS["block_storm"]
        ops_a = gen(n_subs=100, n_blocks=4, packets=3, seed=9)
        ops_b = gen(n_subs=100, n_blocks=4, packets=3, seed=9)
        assert ops_a == ops_b
        # joins + leaves + sends
        assert len(ops_a) == 100 + 12 + 3
        kinds = {op[1] for op in ops_a}
        assert kinds == {"block_join", "block_leave", "send"}

    def test_seed_changes_order(self):
        gen = OPGENS["block_storm"]
        assert gen(n_subs=50, n_blocks=2, seed=1) != gen(
            n_subs=50, n_blocks=2, seed=2
        )

    def test_sends_follow_the_leave_wave(self):
        ops = OPGENS["block_storm"](n_subs=10, n_blocks=2, packets=2, seed=0)
        send_times = [op[0] for op in ops if op[1] == "send"]
        membership_times = [op[0] for op in ops if op[1] != "send"]
        assert min(send_times) > max(membership_times)
