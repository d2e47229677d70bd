"""A CountQuery answered the long way: every query gets a record.

§3.1 word for word — "the receiving router creates a record for this
query for each downstream neighbor on the specified channel, decrements
the timeout value ... and forwards the request to each downstream
neighbor. ... Once Counts are received from all neighbors, or after the
timeout specified in the original query, the counts are summed and the
total is sent upstream" — applied at every node alike: a
``PendingQuery`` with its ``outstanding`` set is built first, the
downstream records are walked into it, and a node that found nobody to
ask finalizes the record it has just made.

The shipped ``Counting.on_query`` walks the records first and answers
from the local contribution, with no record, when nobody can be asked;
``tests/properties/test_counting_equivalence.py`` runs whole seeded
networks through both and compares everything an observer could see.
"""

from __future__ import annotations

from repro.core.counting import (
    MIN_FORWARD_TIMEOUT,
    Counting,
    PendingQuery,
    decrement_timeout,
)
from repro.core.ecmp.countids import SUBSCRIBER_ID, propagates_to_hosts
from repro.core.ecmp.messages import Count, CountQuery
from repro.core.ecmp.state import LOCAL


def reference_on_query(self: Counting, query, origin, callback=None) -> None:
    agent = self._agent
    channel, count_id = query.channel, query.count_id
    key = (channel, count_id)
    stale = self.pending.pop(key, None)
    if stale is not None:
        if stale.timeout_event is not None:
            stale.timeout_event.cancel()
        if stale.span is not None and agent.obs is not None:
            agent.obs.tracer.add_event(stale.span, "superseded")
            agent.obs.tracer.end(stale.span)
        if stale.callback is not None:
            # The restarted query answers the superseded one's caller
            # too, who would otherwise wait for ever.
            earlier, later = stale.callback, callback

            def callback(total: int, partial: bool) -> None:
                earlier(total, partial)
                if later is not None:
                    later(total, partial)

    state = agent.channels.get(channel)
    timeout = query.timeout
    if origin is not None:
        known = agent.sessions.neighbor(origin)
        rtt = 2.0 * known.iface.link.delay if known is not None else 0.0
        timeout = decrement_timeout(timeout, rtt)

    pending = PendingQuery(
        channel=channel,
        count_id=count_id,
        deadline=agent.sim.now + timeout,
        origin=origin,
        callback=callback,
    )
    pending.local_contribution = self.local_contribution(channel, count_id)

    if state is not None:
        forward = CountQuery(channel=channel, count_id=count_id, timeout=timeout)
        for name, record in state.downstream.items():
            if name == LOCAL or record.count <= 0:
                continue
            if name in agent.blocks:
                # The router is the authority for a block's count.
                if count_id == SUBSCRIBER_ID:
                    pending.local_contribution += record.count
                continue
            if not propagates_to_hosts(count_id):
                known = agent.sessions.neighbor(name)
                if known is not None and known.is_host:
                    continue
            pending.outstanding.add(name)
            agent._send_message(forward, name)

    if not pending.outstanding:
        reference_finalize(self, pending)
        return
    if agent.obs is not None:
        span = agent.obs.tracer.current
        if span is not None:
            span.attrs["deferred"] = True
            pending.span = span
    self.pending[key] = pending
    pending.timeout_event = agent.sim.schedule(
        max(timeout, MIN_FORWARD_TIMEOUT),
        lambda: self._timed_out(key),
        name="ecmp-query-timeout",
    )


def reference_finalize(self: Counting, pending: PendingQuery) -> None:
    pending.completed = True
    self.pending.pop((pending.channel, pending.count_id), None)
    partial = bool(pending.outstanding)
    total = pending.total()

    def deliver() -> None:
        if pending.callback is not None:
            pending.callback(total, partial)
        if pending.origin is not None:
            reply = Count(pending.channel, pending.count_id, total)
            self._agent._send_message(reply, pending.origin, urgent=True)

    obs = self._agent.obs
    if obs is not None and pending.span is not None:
        tracer = obs.tracer
        tracer.add_event(pending.span, "finalized", total=total, partial=partial)
        with tracer.activate(pending.span):
            deliver()
        tracer.end(pending.span)
    else:
        deliver()


def install(monkeypatch) -> None:
    """Swap the reference functions in for the shipped methods."""
    monkeypatch.setattr(Counting, "on_query", reference_on_query)
    monkeypatch.setattr(Counting, "_finalize", reference_finalize)
