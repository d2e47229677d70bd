"""Exporters: Prometheus text format and a JSON-lines event dump.

``prometheus_text`` renders a :class:`~repro.obs.registry.MetricsRegistry`
snapshot in the Prometheus exposition format (``# HELP`` / ``# TYPE``
headers, ``_bucket``/``_sum``/``_count`` series for histograms), so a
simulated run's metrics can be scraped or pasted into any
PromQL-speaking tool.

``events_to_jsonl`` dumps the registry and the tracer as one JSON
object per line: every metric series (``"kind": "metric"``), then every
span (``"kind": "span"``).
"""

from __future__ import annotations

import json
import math
from typing import Iterable

from repro.obs.registry import HistogramValue, MetricFamily, MetricsRegistry
from repro.obs.tracing import Tracer


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(names: Iterable[str], values: Iterable[str], extra: str = "") -> str:
    parts = [
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(names, values)
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _render_family(family: MetricFamily, lines: list[str]) -> None:
    lines.append(f"# HELP {family.name} {family.help}")
    lines.append(f"# TYPE {family.name} {family.kind}")
    for values, child in family.children():
        labels = _format_labels(family.labelnames, values)
        if isinstance(child, HistogramValue):
            for bound, cumulative in child.cumulative_buckets():
                le = "+Inf" if bound == math.inf else _format_value(bound)
                bucket_labels = _format_labels(
                    family.labelnames, values, extra=f'le="{le}"'
                )
                lines.append(f"{family.name}_bucket{bucket_labels} {cumulative}")
            lines.append(f"{family.name}_sum{labels} {_format_value(child.sum)}")
            lines.append(f"{family.name}_count{labels} {child.count}")
        else:
            lines.append(f"{family.name}{labels} {_format_value(child.value)}")


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format."""
    lines: list[str] = []
    for family in registry.collect():
        _render_family(family, lines)
    lines.append("")
    return "\n".join(lines)


def events_to_jsonl(registry: MetricsRegistry, tracer: Tracer) -> str:
    """Full observability dump, one JSON object per line: every metric
    series (histograms summarized), then every span in start order."""
    records = []
    for family in registry.collect():
        for values, child in family.children():
            record: dict = {
                "kind": "metric",
                "name": family.name,
                "type": family.kind,
                "labels": dict(zip(family.labelnames, values)),
            }
            if isinstance(child, HistogramValue):
                record.update(child.summary())
            else:
                record["value"] = child.value
            records.append(record)
    records.extend(span.to_record() for span in tracer.spans)
    return "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)
