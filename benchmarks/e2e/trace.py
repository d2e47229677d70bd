"""In-memory span tracer for the traced benchmark run.

The benchmark measures every layer *from outside*: this file is the
only place that reaches into ``src/repro``, and it does so by timing
wrappers installed around the layers' public entry points (the
``WRAPPERS`` table) plus the public ``Simulator.add_dispatch_listener``
hook, which yields one span per dispatched event, grouped by event
name. Spans nest; a span's *self time* is its duration minus the
duration of the spans directly inside it, so the self times of all
spans partition the traced window. ``LAYER_OF`` maps every span name to
the layer it is charged to; time under a name missing from that table,
or outside any span, is reported as ``trace.unattributed_share``.

Two things this tracer cannot see from outside, by design:

* ``RefreshRing.due`` is a generator, so a wrapper would time only its
  creation; the refresh tick is charged through its ``ecmp-udpq`` event
  instead (minus the sends and encodes it causes, which are wrapped).
* A dispatch listener makes the engine fall back from batch slot
  dispatch to per-event dispatch. A workload whose point *is* the batch
  path sets ``event_spans = False``: its events are then not listed
  one by one and ``Simulator.run``'s self time carries the scheduler
  and the batch dispatch together.

Aggregates (count, total, self) are kept for every span name; the raw
spans themselves are kept up to ``SPAN_CAP`` and written with the
aggregates to ``trace-<workload>.json`` when the run ends.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from time import perf_counter

#: Raw spans kept for the trace file (aggregates are always complete).
SPAN_CAP = 20_000

#: (module, class or None for a module-level binding, attribute, span).
#: Module-level entries name the binding the *caller* resolves, e.g.
#: ``encode_message`` as imported into ``core.ecmp.protocol``.
WRAPPERS = (
    ("repro.netsim.engine", "Simulator", "run", "engine.run"),
    ("repro.netsim.engine", "Simulator", "schedule_bulk", "engine.schedule_bulk"),
    ("repro.netsim.link", "Link", "transmit", "link.transmit"),
    ("repro.core.forwarding", "ExpressForwarder", "handle_packet", "forwarding.rx"),
    ("repro.core.forwarding", "ExpressForwarder", "emit_local", "forwarding.emit"),
    ("repro.routing.fib", "MulticastFib", "lookup", "fib.lookup"),
    ("repro.routing.fib", "MulticastFib", "install", "fib.install"),
    ("repro.routing.fib", "MulticastFib", "remove", "fib.remove"),
    ("repro.core.ecmp.protocol", "EcmpAgent", "handle_packet", "protocol.rx"),
    ("repro.core.ecmp.protocol", "EcmpAgent", "new_subscription", "protocol.subscribe"),
    ("repro.core.ecmp.protocol", "EcmpAgent", "delete_subscription", "protocol.unsubscribe"),
    ("repro.core.ecmp.protocol", "EcmpAgent", "count_query", "protocol.count_query"),
    ("repro.core.ecmp.protocol", "EcmpAgent", "channel_key", "protocol.channel_key"),
    ("repro.core.ecmp.protocol", "EcmpAgent", "block_adjust", "protocol.block_adjust"),
    ("repro.core.ecmp.protocol", "EcmpAgent", "on_link_change", "protocol.link_change"),
    ("repro.core.ecmp.protocol", "EcmpAgent", "lose_state", "protocol.lose_state"),
    ("repro.core.ecmp.protocol", "EcmpAgent", "start", "protocol.start"),
    ("repro.core.ecmp.protocol", "EcmpAgent", "reevaluate_upstreams", "protocol.rehome"),
    ("repro.core.ecmp.protocol", None, "encode_message", "messages.encode"),
    ("repro.core.ecmp.protocol", None, "decode_message", "messages.decode"),
    ("repro.core.ecmp.state", "StateBank", "alloc", "state.alloc"),
    ("repro.core.keys", "KeyCache", "validate", "keys.validate"),
    ("repro.routing.unicast", "UnicastRouting", "recompute", "unicast.recompute"),
    ("repro.routing.unicast", "UnicastRouting", "next_hop", "unicast.query"),
    ("repro.routing.unicast", "UnicastRouting", "reachable", "unicast.query"),
    ("repro.routing.unicast", "UnicastRouting", "distance", "unicast.query"),
    ("repro.routing.unicast", "UnicastRouting", "path", "unicast.query"),
    ("repro.routing.unicast", "UnicastRouting", "hop_count", "unicast.query"),
    ("repro.routing.unicast", "UnicastRouting", "spanning_tree_to", "unicast.query"),
    ("repro.core.blocks", "BlockChannelGroup", "can_batch", "blocks.batch"),
    ("repro.core.blocks", "BlockChannelGroup", "run_batch", "blocks.batch"),
    ("repro.core.blocks", "SubscriberBlock", "join", "blocks.member"),
    ("repro.core.blocks", "SubscriberBlock", "leave", "blocks.member"),
    ("repro.core.blocks", None, "flush_agent_views", "accounting.flush"),
    ("repro.core.forwarding", None, "flush_agent_views", "accounting.flush"),
)

#: Span name -> layer. Event spans are ``event:<event name>``.
LAYER_OF = {
    "engine.run": "netsim.engine",
    "engine.schedule_bulk": "netsim.engine",
    "link.transmit": "netsim.link",
    "event:deliver:data": "netsim.link",
    "event:deliver:ipip": "netsim.link",
    "event:deliver:ecmp": "netsim.link",
    "forwarding.rx": "core.forwarding",
    "forwarding.emit": "core.forwarding",
    "fib.lookup": "routing.fib",
    "fib.install": "routing.fib",
    "fib.remove": "routing.fib",
    "protocol.rx": "core.ecmp.protocol",
    "protocol.subscribe": "core.ecmp.protocol",
    "protocol.unsubscribe": "core.ecmp.protocol",
    "protocol.count_query": "core.ecmp.protocol",
    "protocol.channel_key": "core.ecmp.protocol",
    # The agent's entry point for block membership: it lives in
    # protocol.py but is the blocks layer's write path.
    "protocol.block_adjust": "core.blocks",
    "protocol.link_change": "core.ecmp.protocol",
    "protocol.lose_state": "core.ecmp.protocol",
    "protocol.start": "core.ecmp.protocol",
    "protocol.rehome": "core.ecmp.protocol",
    "event:ecmp-batch-flush": "core.ecmp.protocol",
    "event:ecmp-ka": "core.ecmp.protocol",
    "event:ecmp-hysteresis": "core.ecmp.protocol",
    "event:ecmp-proactive": "core.ecmp.protocol",
    "event:net-recompute": "core.ecmp.protocol",
    "messages.encode": "core.ecmp.messages",
    "messages.decode": "core.ecmp.messages",
    "state.alloc": "core.ecmp.state",
    "event:ecmp-udpq": "core.ecmp.refresh",
    "keys.validate": "core.keys",
    "event:ecmp-query-timeout": "core.counting",
    "unicast.recompute": "routing.unicast",
    "unicast.query": "routing.unicast",
    "blocks.batch": "core.blocks",
    "blocks.member": "core.blocks",
    "event:block-refresh": "core.blocks",
    "event:bench-op": "core.blocks",
    "accounting.flush": "core.accounting",
    "event:fault:crash": "faults",
    "event:fault:restart": "faults",
    "event:fault:partition": "faults",
    "event:fault:heal": "faults",
    "bench.round": "workload.driver",
    "bench.prepare": "workload.driver",
    "bench.drive": "workload.driver",
    "bench.check": "workload.driver",
    "event:bench-join": "workload.driver",
    "event:bench-leave": "workload.driver",
    "event:bench-send": "workload.driver",
    "event:bench-zap": "workload.driver",
    "event:bench-query": "workload.driver",
    "event:bench-sample": "workload.driver",
}

LAYERS = sorted(set(LAYER_OF.values()))


class NullTracer:
    """The untraced run's tracer: spans cost one generator frame."""

    @contextmanager
    def span(self, name: str):
        yield


NULL_TRACER = NullTracer()


class Tracer:
    """Records nested wall-clock spans; see the module docstring."""

    def __init__(self, event_spans: bool = True) -> None:
        self.event_spans = event_spans
        #: span name -> [count, total seconds, self seconds]
        self.totals: dict[str, list] = {}
        #: Raw spans: (id, parent id, name, start, duration).
        self.spans: list[tuple] = []
        #: Open spans, innermost last: [id, seconds inside child spans,
        #: child seconds already claimed by event spans (_on_event)].
        self._stack: list[list] = []
        self._next_id = 1
        self._installed: list[tuple] = []
        self._sims: list = []

    # -- recording ---------------------------------------------------------

    def _close(self, name: str, span_id: int, parent: int, start: float, took: float, inside: float) -> None:
        record = self.totals.get(name)
        if record is None:
            record = self.totals[name] = [0, 0.0, 0.0]
        record[0] += 1
        record[1] += took
        record[2] += took - inside
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent, name, start, took))

    @contextmanager
    def span(self, name: str):
        """A benchmark phase span (``bench.*``)."""
        stack = self._stack
        parent = stack[-1][0] if stack else 0
        frame = [self._next_id, 0.0, 0.0]
        self._next_id += 1
        stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            took = perf_counter() - start
            stack.pop()
            self._close(name, frame[0], parent, start, took, frame[1])
            if stack:
                stack[-1][1] += took

    def _wrap(self, fn, name: str):
        tracer = self
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else 0
            frame = [tracer._next_id, 0.0, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                stack.pop()
                tracer._close(name, frame[0], parent, start, took, frame[1])
                if stack:
                    stack[-1][1] += took

        traced.__wrapped__ = fn
        return traced

    def _on_event(self, sim, event, wall: float) -> None:
        """Dispatch listener: one span per event, closed after the
        fact. Wrapped calls made by the event's action have already
        added their time to the enclosing ``engine.run`` frame; the
        part of that not yet claimed by an earlier event is this
        event's child time, and the rest of ``wall`` is its self time,
        which is added to the frame so ``engine.run``'s own self time
        is what the loop spent outside every action."""
        stack = self._stack
        if not stack:
            return
        frame = stack[-1]
        inside = frame[1] - frame[2]
        frame[1] += wall - inside
        frame[2] = frame[1]
        span_id = self._next_id
        self._next_id += 1
        self._close(
            "event:" + event.name, span_id, frame[0], perf_counter() - wall, wall, inside
        )

    # -- installation ------------------------------------------------------

    def install(self, sim) -> None:
        """Install every wrapper and, if ``event_spans``, the dispatch
        listener on ``sim``."""
        for module_name, owner_name, attr, span_name in WRAPPERS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, span_name))
            self._installed.append((owner, attr, original))
        if self.event_spans:
            sim.add_dispatch_listener(self._on_event)
            self._sims.append(sim)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()
        for sim in self._sims:
            sim.remove_dispatch_listener(self._on_event)
        self._sims.clear()

    # -- reporting ---------------------------------------------------------

    def self_seconds(self, *names: str) -> float:
        return sum(self.totals[n][2] for n in names if n in self.totals)

    def count(self, *names: str) -> int:
        return sum(self.totals[n][0] for n in names if n in self.totals)

    def layer_seconds(self) -> dict[str, float]:
        """Self seconds per layer; names outside ``LAYER_OF`` pool
        under ``"unattributed"``."""
        layers = {layer: 0.0 for layer in LAYERS}
        layers["unattributed"] = 0.0
        for name, (_, _, self_s) in self.totals.items():
            layers[LAYER_OF.get(name, "unattributed")] += self_s
        return layers

    def partition(self, window_s: float) -> dict:
        """Layer shares of ``window_s``; wall time outside every span
        joins the unattributed share, so the shares sum to 1."""
        seconds = self.layer_seconds()
        seconds["unattributed"] += max(0.0, window_s - sum(seconds.values()))
        shares = {layer: s / window_s for layer, s in seconds.items()}
        return {
            "window_s": window_s,
            "shares": shares,
            "sum": sum(shares.values()),
            "unknown_spans": sorted(n for n in self.totals if n not in LAYER_OF),
        }

    def write(self, path, header: dict, window_s: float) -> None:
        document = dict(header)
        document["partition"] = self.partition(window_s)
        document["aggregates"] = {
            name: {"count": c, "total_s": t, "self_s": s}
            for name, (c, t, s) in sorted(self.totals.items())
        }
        document["span_columns"] = ["id", "parent", "name", "start_s", "duration_s"]
        document["spans_kept"] = len(self.spans)
        document["spans"] = self.spans
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


@contextmanager
def capture_codec(cap: int = 50_000):
    """Record what crosses the ECMP codec while the block runs: the
    messages handed to ``encode_message`` and the frames handed to
    ``decode_message`` (as bound in ``core.ecmp.protocol``), up to
    ``cap`` of each. The probes replay these instead of synthetic
    records."""
    protocol = importlib.import_module("repro.core.ecmp.protocol")
    encode, decode = protocol.encode_message, protocol.decode_message
    captured = {"messages": [], "frames": []}
    messages, frames = captured["messages"], captured["frames"]

    def recording_encode(message):
        if len(messages) < cap:
            messages.append(message)
        return encode(message)

    def recording_decode(data):
        if len(frames) < cap:
            frames.append(bytes(data))
        return decode(data)

    protocol.encode_message, protocol.decode_message = recording_encode, recording_decode
    try:
        yield captured
    finally:
        protocol.encode_message, protocol.decode_message = encode, decode
