"""Distributed telemetry end to end: a telemetered 2-worker run must
export one merged Prometheus scrape with per-shard series, stitch at
least one causal trace across a shard boundary, account for ~100% of
worker wall time in the phase breakdown, report a settle time, and —
on worker failure — dump the flight-recorder ring to disk.
"""

import json
import os

import pytest

from repro.netsim.parallel import (
    PHASES,
    ParallelRunner,
    TelemetryConfig,
    assert_equivalent,
    run_single,
)
from tests.netsim.parallel.conftest import make_small_spec


def _telemetered(spec, mode, **cfg):
    runner = ParallelRunner(
        spec, 2, mode=mode,
        telemetry=TelemetryConfig(**cfg),
    )
    return runner.run()


class TestTelemeteredRun:
    @pytest.fixture(scope="class")
    def result(self):
        return _telemetered(make_small_spec(), "mp", snapshot_every=4)

    def test_merged_scrape_has_series_for_every_shard(self, result):
        text = result.telemetry.prometheus()
        for shard in (0, 1):
            assert f'shard="{shard}"' in text
        # Per-shard sync counters made it into the fleet scrape.
        assert "parallel_sync_rounds_total" in text
        merged = result.telemetry.registry()
        shards = set()
        for family in merged.collect():
            if "shard" in family.labelnames:
                at = family.labelnames.index("shard")
                shards.update(values[at] for values, _c in family.children())
        assert shards == {"0", "1"}

    def test_at_least_one_trace_crosses_a_shard_boundary(self, result):
        stitched = result.telemetry.tracer()
        crossing = stitched.cross_shard_traces()
        assert crossing
        # The crossing trace really has spans minted on both shards,
        # reconnected by a parent link that rode a proxied packet.
        from repro.obs.tracing import id_shard

        members = [s for s in stitched.spans if s.trace_id == crossing[0]]
        assert {id_shard(s.span_id) for s in members} == {0, 1}
        child = next(s for s in members if s.parent_id is not None)
        assert stitched.get(child.parent_id) is not None

    def test_phase_breakdown_covers_worker_wall_time(self, result):
        phases = result.phase_totals()
        assert set(phases["phase_breakdown"]) == set(PHASES)
        assert sum(phases["phase_breakdown"].values()) == pytest.approx(1.0)
        assert phases["wall_total"] > 0.0
        # Real mp workers blocked in recv at least once.
        assert phases["phase_seconds"]["sync_wait"] > 0.0
        assert set(phases["events_per_second"]) == {0, 1}

    def test_convergence_and_snapshots(self, result):
        assert result.quiesced_at is not None and result.quiesced_at > 0.0
        assert result.settle_seconds is not None
        assert result.settle_seconds >= 0.0
        # Periodic snapshots arrived on top of the two final ones.
        assert result.telemetry.snapshots_ingested > 2

    def test_telemetered_run_still_matches_oracle(self, result):
        oracle = run_single(make_small_spec(), with_obs=True)
        assert_equivalent(result.merged, oracle)


def test_inline_and_mp_telemetry_agree():
    """The phase wall-clocks differ across transports, but the merged
    scrape's counter content must not (determinism of the telemetry
    pipeline itself)."""
    spec = make_small_spec()
    inline = _telemetered(spec, "inline")
    mp = _telemetered(spec, "mp")

    def counters(result):
        out = {}
        for family in result.telemetry.registry().collect():
            if family.kind != "counter" or family.name.startswith("parallel_"):
                continue
            for values, child in family.children():
                out[(family.name, values)] = child.value
        return out

    assert counters(inline) == counters(mp)


def test_profiled_single_run_phase_totals():
    summary = run_single(make_small_spec(), profile=True)
    profile = summary["profile"]
    assert profile["events"] == summary["events"]
    assert profile["dispatch_seconds"] > 0.0
    assert summary["quiesced_at"] > 0.0


def test_flight_recorder_dumps_on_worker_error(tmp_path, monkeypatch):
    """A mid-run failure inside a worker must leave a
    flight-<rank>.jsonl post-mortem behind: header line with the error
    reason, then the ring of recent events."""
    import repro.netsim.parallel.worker as worker_mod

    original = worker_mod.PartitionWorker.run_grant

    def failing_grant(self, ladder, imports, final, eager):
        result = original(self, ladder, imports, final, eager)
        if self.rank == 1 and self.sim.events_processed > 0:
            raise RuntimeError("induced mid-run failure")
        return result

    monkeypatch.setattr(worker_mod.PartitionWorker, "run_grant", failing_grant)
    with pytest.raises(RuntimeError, match="induced mid-run failure"):
        _telemetered(
            make_small_spec(), "inline",
            flight_dir=str(tmp_path), flight_capacity=64,
        )

    dumps = sorted(p for p in os.listdir(tmp_path) if p.startswith("flight-"))
    assert "flight-1.jsonl" in dumps
    lines = [
        json.loads(line)
        for line in open(tmp_path / "flight-1.jsonl", encoding="utf-8")
    ]
    header = lines[0]
    assert header["kind"] == "flight_header"
    assert header["reason"].startswith("error:RuntimeError")
    assert header["shard"] == 1
    assert any(entry["kind"] == "event" for entry in lines[1:])
    assert len(lines) - 1 <= 64
