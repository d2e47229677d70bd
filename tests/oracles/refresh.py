"""The full-table soft-state refresh: what a tick must do, by walking
everything.

§3.3's UDP-mode maintenance as two pure functions of an agent's
channel table — no index, no ring, nothing remembered between calls:

* a refresh tick sends one general query to every real neighbor that
  holds a live UDP-mode record, and expires every UDP-mode record
  (blocks included, LOCAL not) whose last refresh is older than the
  lease;
* a general query from a neighbor is answered with a Count for every
  channel routed via that neighbor.

The shipped agent reaches the tick's answers from the ``udp_channels``
index and the ``RefreshRing`` of ``repro.core.ecmp.liveness``, and the
general query's by this same walk of its table (the reply costs a Count
per routed channel anyway);
``tests/properties/test_refresh_equivalence.py`` compares them with
these at every tick and every general query of a seeded run.
"""

from __future__ import annotations

from repro.core.ecmp.state import LOCAL, is_pseudo_neighbor


def reference_refresh_tick(agent, now: float):
    """``(general-query targets, expired (channel, neighbor) pairs)``
    for a refresh tick of ``agent`` at ``now``: targets in send order,
    pairs as a set."""
    targets = set()
    expired = set()
    horizon = now - agent.UDP_ROBUSTNESS * agent.UDP_QUERY_INTERVAL
    for channel, state in agent.channels.items():
        for name, record in state.downstream.items():
            if not record.udp:
                continue
            if not is_pseudo_neighbor(name) and record.count > 0:
                targets.add(name)
            if name != LOCAL and record.updated_at < horizon:
                expired.add((channel, name))
    return sorted(targets), expired


def reference_general_query(agent, from_name: str) -> set:
    """The channels ``agent`` must re-announce to ``from_name``."""
    return {
        channel
        for channel, state in agent.channels.items()
        if state.upstream == from_name
    }
