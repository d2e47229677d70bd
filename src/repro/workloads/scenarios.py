"""Named scenarios from the paper.

The centerpiece is the Figure 8 proactive-counting scenario: "a
simulated short event with about 250 subscribers and a 3 minute
duration. The scenario has an initial burst of subscriptions at time 0,
followed by slow subscriptions until time 200, a burst of subscriptions
at time 200, then no activity until time 300, when all hosts
unsubscribe quickly." Both simulated curves use τ = 120 with α = 4 and
α = 2.5.

:func:`run_fig8` replays that scenario on a balanced-tree EXPRESS
network in PROACTIVE propagation mode and samples, at the source, the
estimated subscriber count (the root's aggregated downstream sum) and
the cumulative Count messages delivered — the two panels of Figure 8.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.core.channel import Channel
from repro.core.ecmp.protocol import CountPropagation
from repro.core.network import ExpressNetwork
from repro.core.proactive import ToleranceCurve
from repro.errors import WorkloadError
from repro.netsim.topology import Topology, TopologyBuilder
from repro.workloads.spec import schedule_ops

#: Figure 8 shape constants (read off the published plot).
FIG8_SUBSCRIBERS = 250
FIG8_INITIAL_BURST = 140
FIG8_SLOW_JOIN_END = 200.0
FIG8_SECOND_BURST_AT = 200.0
FIG8_QUIET_UNTIL = 300.0
FIG8_END = 310.0
FIG8_TAU = 120.0


def fig8_events(
    n_hosts: int = FIG8_SUBSCRIBERS,
    hosts: Optional[list[str]] = None,
    seed: int = 0,
) -> list[tuple]:
    """The Figure 8 membership trace over ``n_hosts`` subscriber names,
    as ``(time, "join" | "leave", host, 0)`` ops sorted by time."""
    if hosts is None:
        hosts = [f"sub{i}" for i in range(n_hosts)]
    if len(hosts) < n_hosts:
        raise WorkloadError(f"need {n_hosts} hosts, got {len(hosts)}")
    hosts = list(hosts[:n_hosts])
    rng = random.Random(seed)
    rng.shuffle(hosts)

    burst1 = hosts[:FIG8_INITIAL_BURST]
    n_slow = max((n_hosts - FIG8_INITIAL_BURST) // 10, 1)
    slow = hosts[FIG8_INITIAL_BURST : FIG8_INITIAL_BURST + n_slow]
    burst2 = hosts[FIG8_INITIAL_BURST + n_slow :]

    # Initial burst: everyone in the first second or two.
    ops = [(rng.uniform(0.0, 2.0), "join", host, 0) for host in burst1]
    # Slow trickle until t=200.
    ops += [(rng.uniform(5.0, FIG8_SLOW_JOIN_END), "join", host, 0) for host in slow]
    # Second burst right after t=200.
    ops += [
        (FIG8_SECOND_BURST_AT + rng.uniform(0.0, 2.0), "join", host, 0) for host in burst2
    ]
    # Quiet until t=300, then everyone leaves quickly.
    ops += [
        (FIG8_QUIET_UNTIL + rng.uniform(0.0, FIG8_END - FIG8_QUIET_UNTIL), "leave", host, 0)
        for host in hosts
    ]
    ops.sort(key=lambda op: (op[0], op[2]))
    return ops


def build_fig8_network(
    alpha: float,
    tau: float = FIG8_TAU,
    e_max: float = 1.0,
    depth: int = 2,
    fanout: int = 16,
    seed: int = 0,
) -> tuple[ExpressNetwork, Channel, list[str], str]:
    """A balanced-tree EXPRESS network in PROACTIVE mode.

    Returns ``(net, channel, subscriber_hosts, source_host)``. Leaves
    of the tree act as subscriber hosts; the source host hangs off the
    root. ``fanout**depth`` must cover the 250 subscribers.
    """
    if fanout**depth < FIG8_SUBSCRIBERS:
        raise WorkloadError(
            f"tree with fanout {fanout} depth {depth} has only "
            f"{fanout ** depth} leaves; need {FIG8_SUBSCRIBERS}"
        )
    topo = TopologyBuilder.balanced_tree(depth=depth, fanout=fanout, seed=seed)
    topo.add_node("src")
    topo.add_link("src", "r", delay=0.001)
    leaves = [f"d{depth}_{i}" for i in range(fanout**depth)]
    curve = ToleranceCurve(e_max=e_max, alpha=alpha, tau=tau)
    net = ExpressNetwork(
        topo,
        hosts=leaves + ["src"],
        propagation=CountPropagation.PROACTIVE,
        proactive_curve=curve,
    )
    source = net.source("src")
    channel = source.allocate_channel()
    return net, channel, leaves, "src"


@dataclass
class Fig8Sample:
    """One sample of the two Figure 8 panels."""

    time: float
    actual: int
    estimated: int
    counts_delivered_to_source: int


def run_fig8(
    alpha: float,
    tau: float = FIG8_TAU,
    e_max: float = 1.0,
    sample_interval: float = 2.0,
    seed: int = 0,
    depth: int = 2,
    fanout: int = 16,
) -> list[Fig8Sample]:
    """Replay the Figure 8 scenario; returns the sampled time series.

    ``actual`` is the number of leaves subscribed at the sample;
    ``estimated`` is the aggregated downstream sum at the source node
    ("the estimated group size (c_sum), as measured at the root of the
    tree"); ``counts_delivered_to_source`` is the cumulative number of
    subscriberId Count messages the source's node has received (the
    lower panel's bandwidth curve; the neighbors Counts that answer
    keepalive probes are left out).
    """
    net, channel, leaves, src = build_fig8_network(
        alpha, tau=tau, e_max=e_max, depth=depth, fanout=fanout, seed=seed
    )
    schedule_ops(net, fig8_events(hosts=leaves, seed=seed), [channel])
    agents = [net.ecmp_agents[leaf] for leaf in leaves]

    samples: list[Fig8Sample] = []
    source_agent = net.ecmp_agents[src]

    def sample() -> None:
        samples.append(
            Fig8Sample(
                time=net.sim.now,
                actual=sum(channel in agent.subscriptions for agent in agents),
                estimated=source_agent.subscriber_count_estimate(channel),
                counts_delivered_to_source=source_agent.stats.get("counts_rx")
                - source_agent.stats.get("keepalive_replies_rx"),
            )
        )

    t = 0.0
    while t <= FIG8_END + tau:
        net.sim.schedule_at(t, sample)
        t += sample_interval

    net.run(until=FIG8_END + tau + 1.0)
    return samples
