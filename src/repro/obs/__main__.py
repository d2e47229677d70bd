"""``python -m repro.obs`` — an instrumented end-to-end demo.

Builds a transit/stub ISP internetwork, runs an EXPRESS session on it
with full observability attached (metrics registry + causal tracer),
and prints:

* the CountQuery span tree (fan-out and aggregation reconstructed from
  trace context carried on every ECMP message) with its critical path,
* a Prometheus text snapshot of the registry (``--format prom``, the
  default), or the JSON-lines event dump (``--format jsonl``).

The span tree's leaves are exactly the subscribers that answered the
query — causality, not inference.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.network import ExpressNetwork
from repro.netsim.topology import TopologyBuilder
from repro.obs.exporters import events_to_jsonl, prometheus_text
from repro.obs.hooks import Observability


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Run an instrumented EXPRESS session and export its "
        "metrics and traces.",
    )
    parser.add_argument("--transit", type=int, default=4,
                        help="transit routers in the ISP core (default 4)")
    parser.add_argument("--stubs", type=int, default=3,
                        help="stub routers per transit router (default 3)")
    parser.add_argument("--hosts", type=int, default=2,
                        help="hosts per stub router (default 2)")
    parser.add_argument("--subscribers", type=int, default=6,
                        help="subscribing hosts (default 6)")
    parser.add_argument("--packets", type=int, default=5,
                        help="data packets the source sends (default 5)")
    parser.add_argument("--seed", type=int, default=0,
                        help="simulation seed (default 0)")
    parser.add_argument("--format", choices=("prom", "jsonl"), default="prom",
                        help="export format (default prom)")
    parser.add_argument("--no-trace", action="store_true",
                        help="skip the span-tree rendering")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    obs = Observability()
    topo = TopologyBuilder.isp(
        n_transit=args.transit,
        stubs_per_transit=args.stubs,
        hosts_per_stub=args.hosts,
        seed=args.seed,
    )
    net = ExpressNetwork(topo, obs=obs)
    net.run(until=0.1)

    source = net.source("h0_0_0")
    channel = source.allocate_channel()

    hosts = [name for name in sorted(topo.nodes) if name in net.host_names
             and name != "h0_0_0"]
    subscribers = hosts[: args.subscribers]
    for name in subscribers:
        net.host(name).subscribe(channel)
    net.settle()

    for _ in range(args.packets):
        source.send(channel)
        net.settle(0.1)

    result = source.count_query(channel, timeout=5.0)
    net.settle(6.0)

    print(f"# channel {channel}, source h0_0_0, "
          f"{len(subscribers)} subscribers on a "
          f"{args.transit}x{args.stubs}x{args.hosts} ISP topology",
          file=sys.stderr)
    print(f"# CountQuery -> {result.count} subscribers "
          f"(partial={result.partial})", file=sys.stderr)

    if not args.no_trace:
        tracer = obs.tracer
        roots = [s for s in tracer.spans if s.name == "ecmp.count_query"]
        for root in roots:
            print("# CountQuery span tree:", file=sys.stderr)
            for line in tracer.render(root.trace_id).splitlines():
                print(f"#   {line}", file=sys.stderr)
            latency, chain = tracer.critical_path(root.trace_id)
            path = " -> ".join(s.node for s in chain)
            print(f"# critical path: {path} ({latency * 1000:.3f} ms)",
                  file=sys.stderr)

    if args.format == "prom":
        sys.stdout.write(prometheus_text(obs.registry))
    else:
        sys.stdout.write(events_to_jsonl(obs.registry, obs.tracer))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
