"""Lockstep horizons: the conservative-sync bound with the self-echo
term folded in.

``horizons(next_eff, closure)[w]`` is the minimum of ``next_eff[q] +
closure[(q, w)]`` over *every* q, the diagonal ``(w, w)`` included — the
bound a worker granted one exclusive window per round may run to. The
shipped demand-driven sync (``repro.netsim.parallel.sync.grant_ceilings``)
leaves the diagonal out because the worker enforces it window by window,
so a ceiling can never be tighter than this horizon;
``tests/netsim/parallel/test_sync.py`` holds the two to that.
"""

from __future__ import annotations

from math import inf


def compute_horizons(
    next_eff: list[float], lookahead: dict[tuple[int, int], float]
) -> list[float]:
    """Per-worker dispatch horizons for one round. A worker no
    partition can reach gets ``inf``."""
    horizons = [inf] * len(next_eff)
    for (src, dst), delay in lookahead.items():
        horizons[dst] = min(horizons[dst], next_eff[src] + delay)
    return horizons
