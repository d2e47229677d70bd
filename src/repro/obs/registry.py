"""Labelled metrics registry: counters, gauges, and histograms.

The registry replaces the ad-hoc per-agent ``Counter`` bags that each
benchmark used to re-derive by hand. A metric *family* is declared once
(name, help text, label names); every distinct label-value combination
materializes a *child* holding the actual value, exactly the Prometheus
data model. Families are idempotent — declaring the same name twice
returns the existing family (and raises if the type or label names
disagree), so independent subsystems can share one family (e.g. EXPRESS
and the PIM/DVMRP baselines both observe ``delivery_latency_seconds``
and comparisons read from the same registry).

Histograms keep both cumulative buckets (for the Prometheus text
exposition) and the raw samples (the simulator's scale makes exact
p50/p90/p99 affordable, and the benchmarks want exact percentiles).
"""

from __future__ import annotations

from bisect import bisect_left
from math import ceil, inf
from typing import Callable, Iterable, Optional, Sequence

from repro.errors import SimulationError


class MetricError(SimulationError):
    """Raised on metric redeclaration conflicts or bad label usage."""


#: Default buckets for simulated-seconds latencies (delivery, RTTs).
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default buckets for wall-clock event-dispatch timings (profiling).
WALL_BUCKETS = (
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4, 1e-3, 5e-3, 2.5e-2, 1e-1,
)


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``samples`` (``p`` in [0, 100])."""
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


class _Child:
    """Base for one labelled time series within a family."""

    __slots__ = ("labels",)

    def __init__(self, labels: tuple[str, ...]) -> None:
        self.labels = labels


class CounterValue(_Child):
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self, labels: tuple[str, ...]) -> None:
        super().__init__(labels)
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise MetricError("counters can only increase")
        self.value += amount


class GaugeValue(_Child):
    """A value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self, labels: tuple[str, ...]) -> None:
        super().__init__(labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class HistogramValue(_Child):
    """Cumulative-bucket histogram plus raw samples for percentiles."""

    __slots__ = ("buckets", "bucket_counts", "sum", "count", "samples")

    def __init__(self, labels: tuple[str, ...], buckets: Sequence[float]) -> None:
        super().__init__(labels)
        self.buckets = tuple(buckets)
        self.bucket_counts = [0] * (len(self.buckets) + 1)  # trailing +Inf
        self.sum = 0.0
        self.count = 0
        self.samples: list[float] = []

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1
        self.samples.append(value)

    def percentile(self, p: float) -> float:
        """Exact nearest-rank percentile from the raw samples."""
        return percentile(self.samples, p)

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def summary(self) -> dict:
        """The series as one record: count, sum, p50, p90 and p99 (the
        shape :meth:`MetricsRegistry.snapshot` and the JSONL dump share)."""
        return {
            "count": self.count,
            "sum": self.sum,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs, ending with +Inf."""
        out = []
        running = 0
        for bound, n in zip(self.buckets, self.bucket_counts):
            running += n
            out.append((bound, running))
        out.append((inf, self.count))
        return out


class MetricFamily:
    """One named metric with a fixed label schema and many children."""

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self.buckets = tuple(buckets) if buckets is not None else None
        self._children: dict[tuple[str, ...], _Child] = {}

    def _make_child(self, values: tuple[str, ...]) -> _Child:
        if self.kind == "counter":
            return CounterValue(values)
        if self.kind == "gauge":
            return GaugeValue(values)
        return HistogramValue(values, self.buckets or LATENCY_BUCKETS)

    def labels(self, **labels: object):
        """The child for one label-value combination (created lazily)."""
        if set(labels) != set(self.labelnames):
            raise MetricError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return self.child(tuple(str(labels[name]) for name in self.labelnames))

    def child(self, values: tuple[str, ...]) -> _Child:
        """The child for one label-*value* tuple (positional; created
        lazily). :meth:`MetricsRegistry.fold` addresses children so."""
        child = self._children.get(values)
        if child is None:
            if len(values) != len(self.labelnames):
                raise MetricError(
                    f"{self.name}: {len(values)} label values for "
                    f"{len(self.labelnames)} label names"
                )
            child = self._make_child(values)
            self._children[values] = child
        return child

    def children(self) -> list[tuple[tuple[str, ...], _Child]]:
        """(label_values, child) pairs in insertion order. Returns a
        snapshot list, not a live view, so exporters stay safe against
        children materializing mid-render (concurrent mutation)."""
        return list(self._children.items())

    # -- unlabelled convenience: proxy straight to the single child ------

    def _solo(self):
        if self.labelnames:
            raise MetricError(f"{self.name} has labels {self.labelnames}; use .labels()")
        return self.labels()

    def inc(self, amount: float = 1) -> None:
        self._solo().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._solo().dec(amount)

    def set(self, value: float) -> None:
        self._solo().set(value)

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    @property
    def value(self) -> float:
        return self._solo().value


#: One entry of a :meth:`MetricsRegistry.fold` read: (counter family,
#: label values, the owner's running total for that series).
Tally = tuple[MetricFamily, tuple[str, ...], int]


class MetricsRegistry:
    """Holds every metric family; the unit exporters serialize."""

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        self._collectors: list[Callable[[], None]] = []
        self._folds: list[tuple[Callable[[], Iterable[Tally]], dict]] = []

    # -- declaration -----------------------------------------------------

    def _declare(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        existing = self._families.get(name)
        if existing is not None:
            if existing.kind != kind or existing.labelnames != tuple(labelnames):
                raise MetricError(
                    f"metric {name!r} redeclared as {kind}{tuple(labelnames)}; "
                    f"existing is {existing.kind}{existing.labelnames}"
                )
            return existing
        family = MetricFamily(name, kind, help, labelnames, buckets)
        self._families[name] = family
        return family

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._declare(name, "counter", help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._declare(name, "gauge", help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        return self._declare(name, "histogram", help, labelnames, buckets)

    # -- collection ------------------------------------------------------

    def register_collector(self, collector: Callable[[], None]) -> None:
        """Register a callback run before every snapshot/export (used to
        refresh gauges whose truth lives elsewhere, e.g. FIB sizes)."""
        self._collectors.append(collector)

    def fold(self, read: Callable[[], Iterable[Tally]]) -> None:
        """Publish counts whose owner keeps the only tally.

        ``read()`` yields ``(counter family, label values, total)``;
        at every :meth:`collect`, after the collectors, each series
        grows by what its total (summed over the entries naming it)
        gained since the last fold. The owner counts with plain integer
        adds and the registry pays for labels once per collect, not
        once per increment.
        """
        self._folds.append((read, {}))

    def collect(self) -> list[MetricFamily]:
        """Run collectors and folds, then return families in
        declaration order."""
        for collector in self._collectors:
            collector()
        for read, published in self._folds:
            totals: dict = {}
            for family, values, total in read():
                key = (family, values)
                totals[key] = totals.get(key, 0) + total
            for (family, values), total in totals.items():
                family.child(values).inc(total - published.get((family, values), 0))
            published.update(totals)
        return list(self._families.values())

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def counter_snapshot(
        self, exclude: Sequence[str] = ()
    ) -> dict[tuple[str, tuple[str, ...]], object]:
        """A flat ``{(family, label_values): value}`` view of counters
        and histograms, for cross-run equivalence comparisons.

        Counter children map to their integer value; histogram children
        map to ``(count, sum)`` (percentiles are order-dependent and
        excluded). Gauges are skipped — they describe instantaneous
        state, not accumulated work, and are refreshed by collectors
        that may not run identically across processes. Families whose
        name starts with any prefix in ``exclude`` are skipped (used to
        drop wall-clock timings and the parallel sync counters, which
        legitimately differ between sharded and single-process runs).

        Snapshots from several registries (one per partition worker)
        can be merged by summing values key-by-key; the merged result
        of a deterministic sharded run equals the single-process one.
        """
        out: dict[tuple[str, tuple[str, ...]], object] = {}
        for family in self.collect():
            if family.kind == "gauge":
                continue
            if any(family.name.startswith(prefix) for prefix in exclude):
                continue
            for values, child in family.children():
                key = (family.name, values)
                if isinstance(child, HistogramValue):
                    out[key] = (child.count, child.sum)
                else:
                    out[key] = child.value
        return out

    def snapshot(self) -> dict[str, dict]:
        """A plain-dict view of every family (tests, JSON export)."""
        out: dict[str, dict] = {}
        for family in self.collect():
            series = {}
            for values, child in family.children():
                key = ",".join(
                    f"{n}={v}" for n, v in zip(family.labelnames, values)
                )
                if isinstance(child, HistogramValue):
                    series[key] = child.summary()
                else:
                    series[key] = child.value
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "series": series,
            }
        return out
