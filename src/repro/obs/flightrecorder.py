"""Bounded ring buffer of recent activity, dumped on failure.

A run that dies — an action raising deep in a long scenario — loses
its in-memory history exactly when it is most needed. The
:class:`FlightRecorder` keeps the last N events and spans in a
``deque`` ring (O(1) per record, bounded memory) and writes them to a
JSONL file only when the caller asks — typically from an ``except``
around ``net.run`` — so the happy path pays almost nothing and the
post-mortem gets the tail of history that led to the failure.

Each JSONL line is one record; the first line is a header with the
dump reason, the optional ``shard`` label, and counts, so a dump file
is self-describing.
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netsim.engine import Event, Simulator
    from repro.obs.tracing import Span

#: Default ring capacity: enough tail to see the failing pattern,
#: small enough that an idle recorder is invisible in memory profiles.
DEFAULT_CAPACITY = 2048


class FlightRecorder:
    """Ring buffer of recent events/spans with JSONL dump-on-error.
    ``shard`` is an optional label (e.g. a partition rank) copied into
    the dump header."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        shard: Optional[int] = None,
    ) -> None:
        self.capacity = capacity
        self.shard = shard
        self._ring: deque[dict] = deque(maxlen=capacity)
        self.recorded = 0
        self.dumped_to: Optional[str] = None

    # -- recording -------------------------------------------------------

    def record(self, kind: str, **fields: object) -> None:
        """Append one freeform record to the ring."""
        entry = {"kind": kind}
        entry.update(fields)
        self._ring.append(entry)
        self.recorded += 1

    def record_span(self, span: "Span") -> None:
        self._ring.append(span.to_record())
        self.recorded += 1

    def attach(self, sim: "Simulator") -> None:
        """Record every dispatched event (name, simulated time, wall
        seconds). Uses the dispatch-listener hook, so it only costs
        anything when the simulator already runs listeners."""

        def listener(simulator: "Simulator", event: "Event", wall: float) -> None:
            self._ring.append({
                "kind": "event",
                "time": event.time,
                "name": event.name or "(anonymous)",
                "wall": wall,
            })
            self.recorded += 1

        sim.add_dispatch_listener(listener)

    def tail(self) -> list[dict]:
        """The ring's current contents, oldest first."""
        return list(self._ring)

    # -- dumping ---------------------------------------------------------

    def dump(self, path: str, reason: str) -> str:
        """Write the ring to ``path`` as JSONL (header line first).
        Creates parent directories; returns the path written."""
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "kind": "flight_header",
                "reason": reason,
                "shard": self.shard,
                "entries": len(self._ring),
                "recorded": self.recorded,
                "capacity": self.capacity,
            }) + "\n")
            for entry in self._ring:
                handle.write(json.dumps(entry, default=str) + "\n")
        self.dumped_to = path
        return path
