"""Unit tests for the conservative-sync math
(:mod:`repro.netsim.parallel.sync`)."""

from math import inf, isclose

from repro.netsim.parallel.sync import (
    SyncStats,
    build_ladder,
    effective_next_times,
    grant_ceilings,
    merge_sync_stats,
    transitive_lookahead,
)
from tests.oracles.sync import compute_horizons


class TestEffectiveNextTimes:
    def test_elementwise_min(self):
        assert effective_next_times([1.0, 5.0, inf], [inf, 2.0, 3.0]) == [
            1.0,
            2.0,
            3.0,
        ]

    def test_empty(self):
        assert effective_next_times([], []) == []


class TestTransitiveLookahead:
    def test_direct_delays_kept(self):
        closure = transitive_lookahead({(0, 1): 0.5, (1, 0): 0.25}, 2)
        assert closure[(0, 1)] == 0.5
        assert closure[(1, 0)] == 0.25

    def test_chain_through_idle_intermediate(self):
        # 0 -> 1 -> 2: influence reaches rank 2 in 1+2 even when rank 1
        # is idle (reporting next_eff = inf). Direct-only lookahead
        # would leave (0, 2) unbounded — the unsafe-horizon bug.
        closure = transitive_lookahead({(0, 1): 1.0, (1, 2): 2.0}, 3)
        assert closure[(0, 2)] == 3.0

    def test_diagonal_is_min_cycle(self):
        # A worker's own dispatches can echo back through the cut; the
        # shortest cycle bounds its own horizon.
        closure = transitive_lookahead({(0, 1): 1.0, (1, 0): 2.5}, 2)
        assert closure[(0, 0)] == 3.5
        assert closure[(1, 1)] == 3.5

    def test_shorter_multi_hop_path_wins(self):
        closure = transitive_lookahead(
            {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 10.0}, 3
        )
        assert closure[(0, 2)] == 2.0

    def test_unreachable_pairs_absent(self):
        closure = transitive_lookahead({(0, 1): 1.0}, 3)
        assert (2, 0) not in closure
        assert (0, 0) not in closure  # no cycle back to 0


class TestComputeHorizons:
    def test_min_over_predecessors(self):
        lookahead = {(0, 1): 0.5, (2, 1): 0.1}
        horizons = compute_horizons([1.0, 9.0, 2.0], lookahead)
        assert isclose(horizons[1], min(1.0 + 0.5, 2.0 + 0.1))

    def test_unreached_worker_gets_inf(self):
        horizons = compute_horizons([1.0, 1.0], {(0, 1): 0.5})
        assert horizons[0] == inf
        assert horizons[1] == 1.5

    def test_idle_predecessor_unbounds_only_with_direct_matrix(self):
        # The raw matrix lets rank 2 run free when rank 1 idles; the
        # closure keeps rank 0's influence in the bound.
        direct = {(0, 1): 1.0, (1, 2): 2.0}
        next_eff = [0.0, inf, 5.0]
        assert compute_horizons(next_eff, direct)[2] == inf
        closure = transitive_lookahead(direct, 3)
        assert compute_horizons(next_eff, closure)[2] == 3.0


class TestSyncStats:
    def test_merge_totals(self):
        stats = [
            SyncStats(rank=0, null_messages=2, lbts_stalls=1, sync_rounds=5,
                      windows=8, frames_sent=6, frames_received=5,
                      proxy_packets_out=3, proxy_bytes_out=100,
                      proxy_packets_in=1, proxy_bytes_in=40),
            SyncStats(rank=1, null_messages=1, sync_rounds=5,
                      windows=5, frames_sent=6, frames_received=5,
                      proxy_packets_out=1, proxy_bytes_out=40,
                      proxy_packets_in=3, proxy_bytes_in=100),
        ]
        totals = merge_sync_stats(stats)
        assert totals == {
            "null_messages": 3,
            "lbts_stalls": 1,
            "sync_rounds": 10,
            "windows": 13,
            "frames_sent": 12,
            "frames_received": 10,
            "proxy_packets": 4,
            "proxy_bytes": 140,
        }

    def test_as_dict_round_trips_fields(self):
        stats = SyncStats(rank=3, null_messages=7)
        d = stats.as_dict()
        assert d["rank"] == 3 and d["null_messages"] == 7


class TestGrantCeilings:
    def test_excludes_diagonal(self):
        closure = {(0, 0): 2.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 2.0}
        ceilings = grant_ceilings([0.0, 10.0], closure)
        # Rank 0's ceiling comes only from rank 1 (10 + 1), never its
        # own 0 + 2 self-echo term (the worker enforces that locally).
        assert ceilings == [11.0, 1.0]

    def test_matches_horizons_without_diagonal(self):
        closure = transitive_lookahead({(0, 1): 0.5, (1, 0): 0.25}, 2)
        next_eff = [3.0, 4.0]
        ceilings = grant_ceilings(next_eff, closure)
        assert ceilings == [4.25, 3.5]
        # The lockstep horizon folds the diagonal in, so it can only be
        # tighter than the ceiling.
        horizons = compute_horizons(next_eff, closure)
        assert all(h <= c for h, c in zip(horizons, ceilings))

    def test_idle_peers_leave_inf(self):
        assert grant_ceilings([inf, inf], {(0, 1): 1.0, (1, 0): 1.0}) == [
            inf,
            inf,
        ]


class TestBuildLadder:
    def test_rungs_project_export_capped_windows(self):
        ladder = build_ladder([1.0, 2.0, 6.0], 0.5, 4.0)
        assert ladder == [1.5, 2.5, 4.0]

    def test_last_rung_is_always_the_ceiling(self):
        assert build_ladder([], 0.5, 4.0) == [4.0]
        assert build_ladder([9.0], 0.5, 4.0) == [4.0]
        assert build_ladder([1.0], inf, 4.0) == [4.0]

    def test_rungs_dedupe_and_stay_ascending(self):
        ladder = build_ladder([1.0, 1.0, 1.2], 0.5, 9.0)
        assert ladder == [1.5, 1.7, 9.0]
        assert ladder == sorted(set(ladder))
