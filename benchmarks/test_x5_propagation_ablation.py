"""X5 — ablation: count-propagation policy (TREE_ONLY vs ON_CHANGE vs
PROACTIVE).

DESIGN.md calls out the propagation policy as the central design knob
behind §6: TREE_ONLY (the base protocol) keeps the control plane quiet
but the source knows nothing between polls; ON_CHANGE gives the source
an always-exact count at the cost of one upstream message per
membership change; PROACTIVE (§6) buys a tunable point in between.

Measured: control messages network-wide and at the source, plus the
source's count error, under the same churn workload.
"""

import pytest
from conftest import report

from repro import CountPropagation, ExpressNetwork, ToleranceCurve, TopologyBuilder
from repro.workloads import poisson_churn, schedule_ops

DEPTH, FANOUT = 3, 4
DURATION = 600.0


def run_policy(propagation):
    topo = TopologyBuilder.balanced_tree(depth=DEPTH, fanout=FANOUT)
    topo.add_node("src")
    topo.add_link("src", "r", delay=0.001)
    leaves = [f"d{DEPTH}_{i}" for i in range(FANOUT**DEPTH)]
    net = ExpressNetwork(
        topo,
        hosts=leaves + ["src"],
        propagation=propagation,
        proactive_curve=ToleranceCurve(e_max=1.0, alpha=4.0, tau=60.0),
    )
    net.run(until=0.01)
    source = net.source("src")
    channel = source.allocate_channel()
    events = poisson_churn(
        leaves, duration=DURATION, mean_off_time=200, mean_on_time=300, seed=11
    )
    schedule_ops(net, events, [channel])
    net.run(until=DURATION + 5)

    actual = len(net.subscriber_hosts(channel))
    estimate = net.ecmp_agents["src"].subscriber_count_estimate(channel)
    # subscriberId Counts only: the neighbors Counts that answer
    # keepalive probes are the same under every policy.
    totals = net.control_stats_total()
    at_source = net.ecmp_agents["src"].stats
    return {
        "events": len(events),
        "counts_tx": totals.get("tx_count", 0) - totals.get("keepalive_replies_tx", 0),
        "counts_at_source": at_source.get("counts_rx")
        - at_source.get("keepalive_replies_rx"),
        "actual": actual,
        "estimate": estimate,
        "error": abs(actual - estimate),
    }


def test_x5_propagation_ablation(benchmark):
    results = {
        policy.value: run_policy(policy)
        for policy in (
            CountPropagation.TREE_ONLY,
            CountPropagation.ON_CHANGE,
            CountPropagation.PROACTIVE,
        )
    }
    benchmark.pedantic(
        lambda: run_policy(CountPropagation.TREE_ONLY), rounds=1, iterations=1
    )

    tree_only = results["tree-only"]
    on_change = results["on-change"]
    proactive = results["proactive"]

    # ON_CHANGE is exact at the source but pays the most messages;
    # PROACTIVE sits between on messages with bounded error;
    # TREE_ONLY is the quietest and least accurate.
    assert on_change["error"] == 0
    assert on_change["counts_tx"] >= proactive["counts_tx"] >= tree_only["counts_tx"]
    assert on_change["counts_at_source"] >= proactive["counts_at_source"]

    rows = [
        "X5: propagation policy under identical churn",
        f"    (64-leaf fanout-4 tree, {tree_only['events']} join/leave events, 10 min)",
        "",
        "  policy      counts-tx(all)  counts@source  source-count error",
    ]
    for name in ("tree-only", "on-change", "proactive"):
        r = results[name]
        rows.append(
            f"  {name:<10} {r['counts_tx']:>14,}  {r['counts_at_source']:>13,}"
            f"  {r['error']:>6}  (actual {r['actual']}, est {r['estimate']})"
        )
    rows += [
        "",
        "  -> ON_CHANGE: exact but chattiest; TREE_ONLY: quiet, source",
        "     blind between polls; PROACTIVE (§6): tunable middle ground",
    ]
    report("x5_propagation_ablation", rows)
