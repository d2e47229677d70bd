"""Tracing and measurement helpers.

The benchmark harness reports message counts, control bandwidth, and
delivery latency; these helpers centralize that bookkeeping so the
protocol code stays clean.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Optional


@dataclass
class TraceRecord:
    """One observed packet event."""

    time: float
    node: str
    direction: str  # "tx" | "rx" | "drop"
    proto: str
    size: int
    detail: str = ""


class PacketTrace:
    """An append-only log of packet events with simple query helpers.

    Records are additionally indexed by node, by proto, and by
    ``(node, proto)`` at append time, so the benchmarks' repeated
    per-node / per-protocol queries cost O(matches) instead of
    rescanning the full record list every call.
    """

    def __init__(self) -> None:
        self.records: list[TraceRecord] = []
        self._by_node: dict[str, list[TraceRecord]] = defaultdict(list)
        self._by_proto: dict[str, list[TraceRecord]] = defaultdict(list)
        self._by_node_proto: dict[tuple[str, str], list[TraceRecord]] = defaultdict(list)

    def record(
        self,
        time: float,
        node: str,
        direction: str,
        proto: str,
        size: int,
        detail: str = "",
    ) -> None:
        rec = TraceRecord(time, node, direction, proto, size, detail)
        self.records.append(rec)
        self._by_node[node].append(rec)
        self._by_proto[proto].append(rec)
        self._by_node_proto[(node, proto)].append(rec)

    def __len__(self) -> int:
        return len(self.records)

    def filter(
        self,
        node: Optional[str] = None,
        direction: Optional[str] = None,
        proto: Optional[str] = None,
    ) -> list[TraceRecord]:
        if node is not None and proto is not None:
            base = self._by_node_proto.get((node, proto), [])
        elif node is not None:
            base = self._by_node.get(node, [])
        elif proto is not None:
            base = self._by_proto.get(proto, [])
        else:
            base = self.records
        if direction is None:
            return list(base)
        return [rec for rec in base if rec.direction == direction]

    def total_bytes(self, **kwargs) -> int:
        return sum(rec.size for rec in self.filter(**kwargs))

    def count(self, **kwargs) -> int:
        return len(self.filter(**kwargs))


class Counter(dict):
    """A labelled bag of integer counters (``collections.Counter``-like
    but explicit about what it is used for in reports).

    A ``dict`` whose missing keys read as 0, so the per-message paths
    count with a plain ``stats[key] += n`` — no call — and a key that
    was only ever read never shows up in :meth:`as_dict`.
    """

    __slots__ = ()

    def __missing__(self, key: str) -> int:
        return 0

    def incr(self, key: str, amount: int = 1) -> None:
        self[key] += amount

    def get(self, key: str, default: int = 0) -> int:
        return dict.get(self, key, default)

    def as_dict(self) -> dict[str, int]:
        return dict(self)
