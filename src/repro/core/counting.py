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
application polls or waits on; :class:`Counting` is the machine that
runs them at one ECMP agent, together with §6's proactive counting
(the per-count error-tolerance checks of :mod:`repro.core.proactive`).

Protocol clarifications this implementation pins down (the paper leaves
them open; see DESIGN.md §4):

* **Timeout decrement.** "A small multiple of the measured round-trip
  time to its upstream neighbor" is 2× the RTT; in the simulator the
  RTT estimate is twice the link's propagation delay (a real
  implementation would measure it from keepalives).
* **Concurrent queries.** The wire format identifies a query by
  (channel, countId); a second query for the same pair restarts the
  first (the paper sizes state for "2 counts outstanding at any time on
  a channel" — two *different* countIds). A locally originated query
  that is restarted this way is answered by the restarted one: §2.1
  promises every caller a best-effort count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.channel import Channel
from repro.core.ecmp.countids import (
    LINK_COUNT_ID,
    NETWORK_LAYER_RANGE,
    SUBSCRIBER_ID,
    TREE_SIZE_ID,
    propagates_to_hosts,
)
from repro.core.ecmp.messages import Count, CountQuery
from repro.core.ecmp.state import LOCAL, ChannelState, is_pseudo_neighbor
from repro.core.proactive import ProactiveCounter

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


class Counting:
    """Generic counting (§3.1) and proactive counting (§6) at one agent:
    the pending-query table with its per-query deadline, the
    application's count responders, and the proactive tolerance checks.

    ``agent`` is the owner, read for ``sim``, ``node``, ``stats``,
    ``obs``, ``channels``, ``subscriptions``, ``blocks`` and
    ``sessions``; queries and replies leave through its
    ``_send_message``. ``announce(state, count)`` sends a subscriber
    count upstream through tree maintenance, which owns
    ``state.advertised``. ``curve`` is the tolerance curve of a
    proactive count whose request names none.
    """

    __slots__ = (
        "_agent", "_announce", "curve", "pending", "responders",
        "proactive", "proactive_values", "_checks",
    )

    def __init__(self, agent, announce: Callable[..., None], curve) -> None:
        self._agent = agent
        self._announce = announce
        self.curve = curve
        self.pending: dict[tuple[Channel, int], PendingQuery] = {}
        self.responders: dict[tuple[Channel, int], Callable[[], int]] = {}
        #: channel -> countId -> §6 counter (every channel, under PROACTIVE).
        self.proactive: dict[Channel, dict[int, ProactiveCounter]] = {}
        #: channel -> countId -> neighbor -> its last pushed §6 value.
        self.proactive_values: dict[Channel, dict[int, dict[str, int]]] = {}
        #: (channel, countId) -> the event that re-evaluates a proactive
        #: count when its tolerance curve next allows a send.
        self._checks: dict[tuple[Channel, int], object] = {}

    def reset(self) -> None:
        """Crash semantics: forget every query, responder, §6 count and check."""
        for pending in self.pending.values():
            if pending.timeout_event is not None:
                pending.timeout_event.cancel()
        self.pending.clear()
        self.responders.clear()
        self.proactive.clear()
        self.proactive_values.clear()
        for event in self._checks.values():
            event.cancel()
        self._checks.clear()

    def forget_channel(self, channel: Channel) -> None:
        """The channel's state was collected: so are its §6 counts and
        checks. (A loop, not a comprehension: one frame less a collection.)"""
        self.proactive.pop(channel, None)
        self.proactive_values.pop(channel, None)
        checks = self._checks
        for key in list(checks):
            if key[0] == channel:
                checks.pop(key).cancel()

    # -- polled counting (§3.1) ------------------------------------------------

    def originate(
        self,
        channel: Channel,
        count_id: int,
        timeout: float,
        callback: Optional[Callable[[int, bool], None]] = None,
    ) -> QueryResult:
        """Start a query at this node; the returned handle resolves
        with the best-effort count within ``timeout``."""
        agent = self._agent
        result = QueryResult()

        def finish(total: int, partial: bool) -> None:
            result._resolve(total, partial, agent.sim.now)
            if callback is not None:
                callback(total, partial)

        query = CountQuery(channel=channel, count_id=count_id, timeout=timeout)
        if agent.obs is None:
            self.on_query(query, origin=None, callback=finish)
            return result
        tracer = agent.obs.tracer
        root = tracer.start_span(
            "ecmp.count_query", node=agent.node.name, channel=channel,
            count_id=count_id, timeout=timeout,
        )
        # The root stays open until the query finalizes (it becomes
        # the pending query's span); _finalize ends it.
        with tracer.activate(root):
            self.on_query(query, origin=None, callback=finish)
        if root.attrs.get("deferred") is None:
            tracer.end(root)
        return result

    def on_query(
        self,
        query: CountQuery,
        origin: Optional[str],
        callback: Optional[Callable[[int, bool], None]] = None,
    ) -> None:
        """Answer a query from ``origin`` (None: originated here). With
        nobody downstream who can answer — a leaf host, a router whose
        records are LOCAL and blocks — the reply is this node's own
        contribution and leaves at once, with no record made. Otherwise
        the query is recorded and forwarded to every downstream neighbor
        that can answer, and the reply goes once they all have or the
        decremented timeout runs out."""
        agent = self._agent
        channel, count_id = query.channel, query.count_id
        stale = self.pending.pop((channel, count_id), None) if self.pending else None
        if stale is not None:
            if stale.timeout_event is not None:
                stale.timeout_event.cancel()
            if stale.span is not None and agent.obs is not None:
                agent.obs.tracer.add_event(stale.span, "superseded")
                agent.obs.tracer.end(stale.span)
            if stale.callback is not None:
                # The restarted query answers the superseded one's
                # caller too, who would otherwise wait for ever.
                earlier, later = stale.callback, callback

                def callback(total: int, partial: bool) -> None:
                    earlier(total, partial)
                    if later is not None:
                        later(total, partial)

        local = self.local_contribution(channel, count_id)
        sessions = agent.sessions
        ask = []
        state = agent.channels.get(channel)
        if state is not None:
            to_hosts = count_id not in NETWORK_LAYER_RANGE
            # ``state.downstream.items()``, read off the slots.
            if state.spill is not None:
                records = state.spill.items()
            elif state.lone_name is not None:
                records = ((state.lone_name, state.lone_record),)
            else:
                records = ()
            for name, record in records:
                if name == LOCAL or record.count <= 0:
                    continue
                if name in agent.blocks:
                    # A block is locally-held state: this router is the
                    # authority for its count, so it folds into the
                    # local contribution instead of being polled over a
                    # wire (there is no wire — and no reply to await).
                    if count_id == SUBSCRIBER_ID:
                        local += record.count
                    continue
                if not to_hosts:
                    known = sessions.neighbor(name)
                    if known is not None and known.is_host:
                        continue
                ask.append(name)
        if not ask:
            self._answer(origin, channel, count_id, local, False, callback)
            return

        timeout = query.timeout
        if origin is not None:
            known = sessions.neighbor(origin)
            rtt = 2.0 * known.iface.link.delay if known is not None else 0.0
            timeout = decrement_timeout(timeout, rtt)
        pending = PendingQuery(
            channel=channel,
            count_id=count_id,
            deadline=agent.sim.now + timeout,
            origin=origin,
            outstanding=set(ask),
            local_contribution=local,
            callback=callback,
        )
        forward = CountQuery(channel, count_id, timeout)
        for name in ask:
            agent._send_message(forward, name)
        if agent.obs is not None:
            span = agent.obs.tracer.current
            if span is not None:
                # The handling (or locally-originated root) span stays
                # open while replies are outstanding; downstream Counts
                # fold in as events on it (see reply_span).
                span.attrs["deferred"] = True
                pending.span = span
        key = (channel, count_id)
        self.pending[key] = pending
        pending.timeout_event = agent.sim.schedule(
            max(timeout, MIN_FORWARD_TIMEOUT),
            lambda: self._timed_out(key),
            name="ecmp-query-timeout",
        )

    def on_reply(self, message: Count, from_name: str) -> bool:
        """Fold a Count from ``from_name`` into the pending query it
        answers; False when no query was waiting on it."""
        pending = self.pending.get((message.channel, message.count_id))
        if pending is None or from_name not in pending.outstanding:
            return False
        pending.record_reply(from_name, message.count)
        if pending.is_complete() and not pending.completed:
            if pending.timeout_event is not None:
                pending.timeout_event.cancel()
            self._finalize(pending)
        return True

    def reply_span(self, message: Count, from_name: str):
        """The open span of the pending query that a Count from
        ``from_name`` would answer, or None."""
        pending = self.pending.get((message.channel, message.count_id))
        if pending is not None and from_name in pending.outstanding:
            return pending.span
        return None

    def local_contribution(self, channel: Channel, count_id: int) -> int:
        """This node's own addend for a count (§3.1: hosts answer
        immediately or via the application; routers contribute
        network-layer resource counts)."""
        responder = self.responders.get((channel, count_id))
        if responder is not None:
            return int(responder())
        agent = self._agent
        if count_id == SUBSCRIBER_ID:
            return 1 if channel in agent.subscriptions else 0
        state = agent.channels.get(channel)
        if count_id == LINK_COUNT_ID:
            return state.downstream_links() if state is not None else 0
        if count_id == TREE_SIZE_ID:
            return 1 if state is not None else 0
        return 0

    def _timed_out(self, key: tuple[Channel, int]) -> None:
        pending = self.pending.get(key)
        if pending is not None and not pending.completed:
            self._agent.stats["query_timeouts"] += 1
            self._finalize(pending)

    def _finalize(self, pending: PendingQuery) -> None:
        pending.completed = True
        self.pending.pop((pending.channel, pending.count_id), None)
        partial = bool(pending.outstanding)
        total = pending.total()
        answer = (
            pending.origin, pending.channel, pending.count_id, total, partial,
            pending.callback,
        )
        obs = self._agent.obs
        if obs is not None and pending.span is not None:
            tracer = obs.tracer
            tracer.add_event(pending.span, "finalized", total=total, partial=partial)
            with tracer.activate(pending.span):
                self._answer(*answer)
            tracer.end(pending.span)
        else:
            self._answer(*answer)

    def _answer(
        self,
        origin: Optional[str],
        channel: Channel,
        count_id: int,
        total: int,
        partial: bool,
        callback: Optional[Callable[[int, bool], None]],
    ) -> None:
        """A query's result, to whoever asked: the local caller first,
        then the Count reply toward ``origin``."""
        if callback is not None:
            callback(total, partial)
        if origin is not None:
            # Query replies race the origin's reply deadline; never
            # let one sit in a flush window.
            self._agent._send_message(Count(channel, count_id, total), origin, urgent=True)

    # -- proactive counting (§6) -------------------------------------------------

    def on_proactive_request(self, query: CountQuery, origin: Optional[str]) -> None:
        """Start maintaining ``query``'s count proactively here and pass
        the request on to all routers in the channel's tree below."""
        agent = self._agent
        channel, count_id = query.channel, query.count_id
        curve = query.proactive or self.curve
        state = agent.channels.get(channel)
        if state is None:
            return
        counters = self.proactive.setdefault(state.channel, {})
        if count_id not in counters:
            counter = ProactiveCounter(curve, now=agent.sim.now)
            counter.observe(self.proactive_total(state, count_id))
            counters[count_id] = counter
        to_hosts = propagates_to_hosts(count_id)
        for name, record in state.downstream.items():
            if is_pseudo_neighbor(name) or record.count <= 0:
                continue
            if not to_hosts:
                known = agent.sessions.neighbor(name)
                if known is not None and known.is_host:
                    continue
            agent._send_message(query, name)
        self.evaluate(state, count_id)

    def on_proactive_value(
        self, state: ChannelState, count_id: int, from_name: str, value: int
    ) -> None:
        """A downstream neighbor pushed its value of a proactive count."""
        values = self.proactive_values.setdefault(state.channel, {})
        values.setdefault(count_id, {})[from_name] = value
        self.evaluate(state, count_id)

    def proactive_total(self, state: ChannelState, count_id: int) -> int:
        if count_id == SUBSCRIBER_ID:
            return state.total(validated_only=False)
        values = self.proactive_values.get(state.channel, {}).get(count_id, {})
        return sum(values.values()) + self.local_contribution(state.channel, count_id)

    def evaluate(self, state: ChannelState, count_id: int) -> None:
        """Re-read a proactively maintained count and push it upstream
        if its error exceeds the tolerance curve now; otherwise check
        again when the curve has decayed far enough."""
        counter = self.proactive.get(state.channel, {}).get(count_id)
        if counter is None:
            return
        counter.observe(self.proactive_total(state, count_id))
        now = self._agent.sim.now
        if state.upstream is None:
            return  # the root only aggregates
        key = (state.channel, count_id)
        if counter.should_send(now):
            value = counter.current
            if count_id == SUBSCRIBER_ID:
                self._announce(state, value)
            else:
                self._agent._send_message(
                    Count(channel=state.channel, count_id=count_id, count=value),
                    state.upstream,
                )
                counter.sent(now)
            event = self._checks.pop(key, None)
            if event is not None:
                event.cancel()
            return
        delay = counter.next_check_delay(now)
        if delay is not None:
            existing = self._checks.get(key)
            if existing is not None:
                existing.cancel()
            self._checks[key] = self._agent.sim.schedule(
                delay + 1e-6, lambda: self._check_fired(key), name="ecmp-proactive"
            )

    def _check_fired(self, key: tuple[Channel, int]) -> None:
        self._checks.pop(key, None)
        state = self._agent.channels.get(key[0])
        if state is not None:
            self.evaluate(state, key[1])

