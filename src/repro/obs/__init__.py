"""Unified observability: metrics registry, causal tracing, exporters.

Quick start::

    from repro import ExpressNetwork, TopologyBuilder
    from repro.obs import Observability
    from repro.obs.exporters import prometheus_text

    obs = Observability()
    net = ExpressNetwork(TopologyBuilder.isp(), obs=obs)
    net.run(until=0.1)
    ...  # subscribe, send, count_query
    print(prometheus_text(obs.registry))          # metrics snapshot
    for tid in obs.tracer.traces_for(channel):    # causal span trees
        print(obs.tracer.render(tid))

``python -m repro.obs`` runs a canned ISP scenario and prints the full
report. See docs/observability.md for the metric and span inventory and
the flight recorder.
"""

from repro.obs.convergence import ConvergenceMonitor
from repro.obs.flightrecorder import FlightRecorder
from repro.obs.hooks import (
    SPAN_HEADER,
    LinkMetrics,
    NodeMetrics,
    Observability,
    attach_topology,
    instrument_simulator,
)
from repro.obs.registry import (
    LATENCY_BUCKETS,
    WALL_BUCKETS,
    MetricError,
    MetricFamily,
    MetricsRegistry,
    percentile,
)
from repro.obs.tracing import (
    Span,
    SpanContext,
    SpanNode,
    Tracer,
)

__all__ = [
    "SPAN_HEADER",
    "LATENCY_BUCKETS",
    "WALL_BUCKETS",
    "ConvergenceMonitor",
    "FlightRecorder",
    "LinkMetrics",
    "MetricError",
    "MetricFamily",
    "MetricsRegistry",
    "NodeMetrics",
    "Observability",
    "Span",
    "SpanContext",
    "SpanNode",
    "Tracer",
    "attach_topology",
    "instrument_simulator",
    "percentile",
]
