"""Subscribe/unsubscribe workload generation.

Two consumers: whole-network simulations, which schedule
:func:`poisson_churn`'s ``(time, "join" | "leave", host, 0)`` ops with
:func:`~repro.workloads.spec.schedule_ops`, and the T4 event-processing
throughput benchmark, which drives a single router's ECMP agent with a
pre-generated stream of Count messages (:func:`count_message_stream`) —
the equivalent of the paper's "eight active Ethernet neighbors
continuously sending subscribe and unsubscribe events".
"""

from __future__ import annotations

import random
from typing import Iterator, Sequence

from repro.core.channel import Channel
from repro.core.ecmp.countids import SUBSCRIBER_ID
from repro.core.ecmp.messages import Count
from repro.errors import WorkloadError


def poisson_churn(
    hosts: Sequence[str],
    duration: float,
    mean_off_time: float,
    mean_on_time: float,
    seed: int = 0,
) -> list[tuple]:
    """Each host alternates off/on with exponential holding times.

    Starts everyone unsubscribed; returns ``(time, "join" | "leave",
    host, 0)`` ops on channel index 0, sorted by time.
    """
    if duration <= 0 or mean_off_time <= 0 or mean_on_time <= 0:
        raise WorkloadError("duration and holding times must be positive")
    rng = random.Random(seed)
    ops: list[tuple] = []
    for host in hosts:
        t = rng.expovariate(1.0 / mean_off_time)
        subscribed = False
        while t < duration:
            ops.append((t, "leave" if subscribed else "join", host, 0))
            subscribed = not subscribed
            hold = mean_on_time if subscribed else mean_off_time
            t += rng.expovariate(1.0 / hold)
    ops.sort(key=lambda op: (op[0], op[2]))
    return ops


def count_message_stream(
    n_channels: int,
    neighbors: Sequence[str],
    n_events: int,
    source_address: int = 0x0A000001,
    seed: int = 0,
) -> Iterator[tuple[Count, str]]:
    """An endless-ish alternating subscribe/unsubscribe Count stream.

    Yields ``(count_message, from_neighbor)`` pairs: each (channel,
    neighbor) pair toggles between joined (count=1) and left (count=0),
    channels drawn uniformly — the §5.3 measurement workload.
    """
    if n_channels < 1 or not neighbors or n_events < 0:
        raise WorkloadError("need >= 1 channel, >= 1 neighbor, >= 0 events")
    rng = random.Random(seed)
    joined: set[tuple[int, str]] = set()
    for _ in range(n_events):
        suffix = rng.randrange(1, n_channels + 1)
        neighbor = neighbors[rng.randrange(len(neighbors))]
        state_key = (suffix, neighbor)
        channel = Channel.of(source_address, suffix)
        if state_key in joined:
            joined.discard(state_key)
            yield Count(channel=channel, count_id=SUBSCRIBER_ID, count=0), neighbor
        else:
            joined.add(state_key)
            yield Count(channel=channel, count_id=SUBSCRIBER_ID, count=1), neighbor
