"""In-flight CountQuery aggregation (§3.1).

"The receiving router creates a record for this query for each
downstream neighbor on the specified channel, decrements the timeout
value by a small multiple of the measured round-trip time to its
upstream neighbor and forwards the request to each downstream neighbor.
... Once Counts are received from all neighbors, or after the timeout
specified in the original query, the counts are summed and the total is
sent upstream in a Count reply."

:class:`PendingQuery` is that record set for one (channel, countId)
query at one node; :class:`QueryResult` is the source-side handle an
application polls or waits on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.channel import Channel

#: "decrements the timeout value by a small multiple of the measured
#: round-trip time" — the multiple we use.
TIMEOUT_RTT_MULTIPLE = 2.0
#: Never forward a query with less than this much time left.
MIN_FORWARD_TIMEOUT = 1e-3


def decrement_timeout(timeout: float, upstream_rtt: float) -> float:
    """Per-hop timeout adjustment so children report before parents."""
    return max(timeout - TIMEOUT_RTT_MULTIPLE * upstream_rtt, MIN_FORWARD_TIMEOUT)


@dataclass(slots=True)
class PendingQuery:
    """One node's record of an in-flight CountQuery.

    ``origin`` is the neighbor the query came from; None when this node
    originated it (source or any on-tree router, §3.1).
    """

    channel: Channel
    count_id: int
    deadline: float
    origin: Optional[str]
    outstanding: set[str] = field(default_factory=set)
    received_sum: int = 0
    local_contribution: int = 0
    replies: int = 0
    completed: bool = False
    callback: Optional[Callable[[int, bool], None]] = None
    timeout_event: Optional[object] = None  # netsim Event
    #: Observability span kept open while the query is outstanding
    #: (a :class:`repro.obs.tracing.Span`; None when tracing is off).
    #: Downstream replies are folded in as span events, and the final
    #: aggregate Count sent upstream is parented to this span, so the
    #: whole fan-out/aggregation reconstructs as one tree.
    span: Optional[object] = None

    def record_reply(self, neighbor: str, count: int) -> bool:
        """Fold in one downstream Count; True if it was expected."""
        if neighbor not in self.outstanding:
            return False
        self.outstanding.discard(neighbor)
        self.received_sum += count
        self.replies += 1
        return True

    def is_complete(self) -> bool:
        return not self.outstanding

    def total(self) -> int:
        return self.received_sum + self.local_contribution


class QueryResult:
    """The caller-facing handle for a locally-originated CountQuery.

    ``count`` is best-effort (§2.1): if some subtree missed the
    deadline, ``partial`` is True and the count covers the subtrees
    that answered.
    """

    def __init__(self) -> None:
        self.count: Optional[int] = None
        self.partial = False
        self.completed_at: Optional[float] = None
        self._callbacks: list[Callable[["QueryResult"], None]] = []

    @property
    def done(self) -> bool:
        return self.count is not None

    def on_done(self, callback: Callable[["QueryResult"], None]) -> None:
        if self.done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _resolve(self, count: int, partial: bool, now: float) -> None:
        self.count = count
        self.partial = partial
        self.completed_at = now
        for callback in self._callbacks:
            callback(self)
        self._callbacks.clear()
