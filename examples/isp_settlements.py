#!/usr/bin/env python
"""Inter-domain settlements and channel billing (§2.2.3, §3.1, §6).

Two ISP-side uses of ECMP counting, on one large channel:

1. **Billing the source** — the ISP samples the subscriber count every
   few minutes ("perhaps sampling the count every 5 or 10 minutes",
   §6) and prices the channel by audience tier ("differentiating among
   channels with 10s, 100s, 1000s, and millions of subscribers").
2. **Transit settlements** — "the ingress router for transit domain D
   might initiate a query to count the number of links used within D.
   This information could be used to make inter-domain settlements or
   for resource planning" (§3.1). Each transit router initiates its own
   LINK_COUNT query, without source cooperation.

Run:  python examples/isp_settlements.py
"""

from repro import ExpressNetwork, TopologyBuilder
from repro.core.ecmp.countids import LINK_COUNT_ID
from repro.costmodel.billing import BillingCollector, TieredBillingPolicy
from repro.workloads import poisson_churn, schedule_ops


def main() -> None:
    # Four transit domains, each with its own edge infrastructure.
    topo = TopologyBuilder.isp(n_transit=4, stubs_per_transit=3, hosts_per_stub=3)
    net = ExpressNetwork(topo)
    net.run(until=0.1)

    broadcaster = net.source("h0_0_0")
    channel = broadcaster.allocate_channel()
    viewers = [
        f"h{t}_{s}_{k}" for t in (1, 2, 3) for s in range(3) for k in range(3)
    ]

    # An hour of audience churn.
    events = poisson_churn(
        viewers, duration=3600, mean_off_time=900, mean_on_time=1800, seed=3
    )
    schedule_ops(net, events, [channel])

    # The ISP's billing collector samples every 10 minutes.
    collector = BillingCollector(broadcaster, channel, interval=600.0)
    collector.start()

    net.run(until=3600)
    collector.stop()

    invoice = collector.invoice()
    print(f"channel {invoice.channel}: {len(events)} churn events over 1h")
    print(f"count samples (every 10 min): {invoice.samples}")
    print(f"average audience {invoice.average_subscribers:.1f}"
          f" (peak {invoice.peak_subscribers}) -> tier '{invoice.tier}'")
    print(f"invoice to the source: ${invoice.amount:.2f} for "
          f"{invoice.duration_hours:.1f} h")

    # Transit settlements: each transit router counts the channel's
    # link usage in its subtree, source not involved.
    print("\nper-transit link usage (router-initiated LINK_COUNT):")
    results = {}
    for transit in ("t1", "t2", "t3"):
        results[transit] = net.router_agent(transit).count_query(
            channel, LINK_COUNT_ID, timeout=5.0
        )
    net.settle(6.0)
    for transit, result in results.items():
        if result.done and result.count:
            print(f"  domain {transit}: {result.count} tree links in use"
                  f" -> settlement basis for transit {transit}")
        else:
            print(f"  domain {transit}: channel not present (no charge)")

    total_links = len(net.tree_edges(channel))
    print(f"\nwhole-tree links right now: {total_links}"
          f" ({net.fib_entries_total()} FIB entries, "
          f"{net.fib_entries_total() * 12} fast-path bytes)")


if __name__ == "__main__":
    main()
