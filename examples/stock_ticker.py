#!/usr/bin/env python
"""Stock ticker: the paper's long-running large-channel example (§5.1),
with churn, proactive counting (§6), and the cost models.

A ticker channel runs while subscribers come and go (Poisson churn).
Instead of polling, the source enables proactive counting so the
network pushes count updates only when they exceed the tolerance curve
— and the §5 cost models price the whole thing.

Run:  python examples/stock_ticker.py
"""

from repro import CountPropagation, ExpressNetwork, ToleranceCurve, TopologyBuilder
from repro.costmodel import FibCostModel, ManagementStateModel
from repro.workloads import poisson_churn, schedule_ops


def main() -> None:
    # A 64-leaf distribution tree; leaves are subscriber hosts.
    depth, fanout = 3, 4
    topo = TopologyBuilder.balanced_tree(depth=depth, fanout=fanout)
    topo.add_node("ticker")
    topo.add_link("ticker", "r", delay=0.001)
    leaves = [f"d{depth}_{i}" for i in range(fanout**depth)]

    curve = ToleranceCurve(e_max=1.0, alpha=4.0, tau=60.0)
    net = ExpressNetwork(
        topo,
        hosts=leaves + ["ticker"],
        propagation=CountPropagation.PROACTIVE,
        proactive_curve=curve,
    )
    net.run(until=0.1)

    source = net.source("ticker")
    channel = source.allocate_channel()

    # An hour of churn: subscribers hold for ~20 min, stay away ~10.
    events = poisson_churn(
        leaves, duration=3600, mean_off_time=600, mean_on_time=1200, seed=7
    )
    schedule_ops(net, events, [channel])

    # Tick every second while the churn plays out.
    def tick() -> None:
        source.send(channel, size=256)

    for t in range(60, 3600, 60):
        net.sim.schedule_at(float(t), tick)
    net.run(until=3600)

    agent = net.ecmp_agents["ticker"]
    actual = len(net.subscriber_hosts(channel))
    estimate = agent.subscriber_count_estimate(channel)
    print(f"after 1h: actual subscribers={actual}, proactive estimate={estimate}")
    print(f"count messages delivered to source: {agent.stats.get('counts_rx')}"
          f" (vs {len(events)} churn events network-wide)")

    # Price it with the paper's models.
    fib = FibCostModel()
    entries = net.fib_entries_total()
    print(f"\nFIB state right now: {entries} entries "
          f"({entries * 12} bytes of fast-path SRAM)")
    print(f"yearly FIB cost at 1998 prices: ${fib.yearly_cost(entries):.2f}")

    mgmt = ManagementStateModel()
    channels_on_router = 1
    print(f"management state per channel: {mgmt.channel_bytes()} bytes "
          f"(${mgmt.channel_cost_dollars():.6f}/channel-year)")

    # Scale thought experiment: the paper's 100k-subscriber ticker.
    big = 200_000  # tree links
    print(f"paper's 100k-subscriber ticker, {big} links: "
          f"${fib.yearly_cost(big):,.0f}/yr "
          f"= {fib.yearly_cost(big) / 100_000 * 100:.1f} cents/subscriber-year")


if __name__ == "__main__":
    main()
