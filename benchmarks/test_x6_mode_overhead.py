"""X6 — ablation: TCP-mode vs UDP-mode control overhead (§3.2, §5.3).

"With TCP operation, a periodic refresh of each long-lived channel is
unnecessary — a single per-neighbor keepalive is sufficient ... This
aspect allows the TCP-based protocol to efficiently support very large
numbers of channels, as only one message is required to initiate
subscription and one to end it, and per-channel timers are eliminated."

Measured: steady-state control messages over a long idle window as the
number of long-lived channels grows, in TCP mode (keepalive-only) vs
UDP mode (per-channel refresh responses to periodic general queries).
The paper's claim is the scaling shape: TCP-mode idle traffic is O(1)
in channels, UDP-mode is O(channels).
"""

import pytest
from conftest import report

from repro import ExpressNetwork, NeighborMode, TopologyBuilder

IDLE_WINDOW = 300.0


def idle_control_messages(n_channels, edge_udp):
    topo = TopologyBuilder.star(2)  # hub + source host + subscriber host
    net = ExpressNetwork(topo, hosts=["leaf0", "leaf1"], edge_udp=edge_udp)
    net.run(until=0.01)
    source = net.source("leaf0")
    for _ in range(n_channels):
        channel = source.allocate_channel()
        net.host("leaf1").subscribe(channel)
    net.settle()
    before = net.control_stats_total()
    net.run(until=net.sim.now + IDLE_WINDOW)
    after = net.control_stats_total()
    return after.get("msgs_tx", 0) - before.get("msgs_tx", 0)


def test_x6_tcp_vs_udp_idle_overhead(benchmark):
    results = {}
    for n_channels in (10, 40, 160):
        results[n_channels] = {
            "tcp": idle_control_messages(n_channels, edge_udp=False),
            "udp": idle_control_messages(n_channels, edge_udp=True),
        }
    benchmark.pedantic(
        lambda: idle_control_messages(10, edge_udp=False), rounds=1, iterations=1
    )

    # TCP-mode idle traffic is flat in channel count...
    tcp_10, tcp_160 = results[10]["tcp"], results[160]["tcp"]
    assert tcp_160 <= tcp_10 * 1.5
    # ...UDP-mode grows with channels (per-channel refresh Counts)...
    udp_10, udp_160 = results[10]["udp"], results[160]["udp"]
    assert udp_160 > 4 * udp_10
    # ...and at scale UDP costs far more than TCP.
    assert udp_160 > 5 * tcp_160

    rows = [
        f"X6: idle-window ({IDLE_WINDOW:.0f}s) control messages vs channel count",
        "",
        "  channels    TCP mode (keepalive)    UDP mode (refresh)",
    ]
    for n_channels, modes in results.items():
        rows.append(
            f"  {n_channels:>8}    {modes['tcp']:>20,}    {modes['udp']:>18,}"
        )
    rows += [
        "",
        "  -> TCP mode: O(1) in channels (a router probes an idle neighbor",
        "     every other interval, and the neighbor replies);",
        "     UDP mode: O(channels) (every channel re-reported each",
        "     query interval) — the §3.2/§5.3 split: TCP for the many-",
        "     channel core, UDP for the many-host edge",
    ]
    report("x6_mode_overhead", rows)
