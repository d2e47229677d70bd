"""Causal tracing for ECMP control traffic.

Every control message in an instrumented network carries a
:class:`SpanContext` (trace id + span id), so a subscription's
hop-by-hop RPF propagation toward the source, and a CountQuery's
fan-out and aggregation back up the tree, can be reconstructed after
the fact as a span tree — the debugging discipline HPIM-DM applies to
its per-message sequence numbers, applied to EXPRESS.

The model is deliberately OpenTelemetry-shaped but simulator-native:

* a :class:`Span` is one unit of causally-connected work on one node
  (handling a message, originating a query, relaying a verdict);
* the span active while a message is sent becomes the parent of the
  span that handles that message on the receiving node;
* ids are drawn from a deterministic counter so traces are bit-for-bit
  reproducible across runs, like everything else in the simulator.

The :class:`Tracer` keeps every finished and in-flight span and answers
the queries the benchmarks and the CLI need: ``spans_for(channel)``,
``tree(trace_id)``, ``leaves``, and ``critical_path`` (which subtree's
reply gated a query's completion, and how long the longest causal chain
took in simulated time).
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Union


@dataclass(frozen=True)
class SpanContext:
    """The wire-portable part of a span: what a message carries."""

    trace_id: int
    span_id: int


@dataclass
class Span:
    """One unit of causally-linked work on one node."""

    trace_id: int
    span_id: int
    parent_id: Optional[int]
    name: str
    node: Optional[str]
    start: float
    end: Optional[float] = None
    attrs: dict = field(default_factory=dict)
    #: Timestamped annotations (e.g. each downstream reply folded into
    #: a pending query) that are causal events but not spans.
    events: list[tuple[float, str, dict]] = field(default_factory=list)

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def to_record(self) -> dict:
        """A JSON-able flat record (the JSONL span shape)."""
        return {
            "kind": "span",
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "node": self.node,
            "start": self.start,
            "end": self.end,
            "attrs": {k: str(v) for k, v in self.attrs.items()},
            "events": [
                {"time": t, "name": n, "attrs": {k: str(v) for k, v in a.items()}}
                for t, n, a in self.events
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        where = f"@{self.node}" if self.node else ""
        return f"<Span {self.span_id} {self.name}{where} trace={self.trace_id}>"


ParentLike = Union[SpanContext, Span, None]


class Tracer:
    """Records spans against a pluggable clock (bound to ``sim.now``
    when attached to a topology; see :mod:`repro.obs.hooks`)."""

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self.clock: Callable[[], float] = clock if clock is not None else lambda: 0.0
        self.spans: list[Span] = []
        self._by_id: dict[int, Span] = {}
        self._by_trace: dict[int, list[Span]] = {}
        self._by_channel: dict[str, list[Span]] = {}
        self._stack: list[Span] = []
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------
    # span lifecycle
    # ------------------------------------------------------------------

    @property
    def current(self) -> Optional[Span]:
        """The innermost active span, if any."""
        return self._stack[-1] if self._stack else None

    def start_span(
        self,
        name: str,
        node: Optional[str] = None,
        parent: ParentLike = None,
        channel: object = None,
        **attrs: object,
    ) -> Span:
        """Open a span. ``parent`` may be a span, a wire context, or
        None (falls back to the currently active span; a true root when
        there is none)."""
        if parent is None:
            parent = self.current
        span_id = next(self._ids)
        if parent is None:
            trace_id, parent_id = next(self._ids), None
        else:
            trace_id, parent_id = parent.trace_id, parent.span_id
        span = Span(
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent_id,
            name=name,
            node=node,
            start=self.clock(),
            attrs=dict(attrs),
        )
        if channel is not None:
            span.attrs["channel"] = str(channel)
            self._by_channel.setdefault(str(channel), []).append(span)
        self.spans.append(span)
        self._by_id[span_id] = span
        self._by_trace.setdefault(trace_id, []).append(span)
        return span

    def end(self, span: Span) -> None:
        """Close a span (idempotent)."""
        if span.end is None:
            span.end = self.clock()

    def add_event(self, span: Span, name: str, **attrs: object) -> None:
        span.events.append((self.clock(), name, dict(attrs)))

    @contextmanager
    def activate(self, span: Span) -> Iterator[Span]:
        """Make ``span`` current for the duration of the block without
        ending it (used to re-enter a stored span, e.g. when a pending
        query finalizes long after its handler returned)."""
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()

    @contextmanager
    def span(
        self,
        name: str,
        node: Optional[str] = None,
        parent: ParentLike = None,
        channel: object = None,
        **attrs: object,
    ) -> Iterator[Span]:
        """start_span + activate + end in one block."""
        opened = self.start_span(name, node=node, parent=parent, channel=channel, **attrs)
        with self.activate(opened):
            try:
                yield opened
            finally:
                self.end(opened)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def get(self, span_id: int) -> Optional[Span]:
        return self._by_id.get(span_id)

    def spans_for(self, channel: object) -> list[Span]:
        """Every span tagged with ``channel``, in start order."""
        return list(self._by_channel.get(str(channel), []))

    def trace(self, trace_id: int) -> list[Span]:
        """Every span of one trace, in start order."""
        return list(self._by_trace.get(trace_id, []))

    def traces_for(self, channel: object) -> list[int]:
        """Distinct trace ids touching ``channel``, in first-seen order."""
        seen: dict[int, None] = {}
        for span in self._by_channel.get(str(channel), []):
            seen.setdefault(span.trace_id, None)
        return list(seen)

    def children(self, span: Span) -> list[Span]:
        return [
            other
            for other in self._by_trace.get(span.trace_id, [])
            if other.parent_id == span.span_id
        ]

    def roots(self, trace_id: int) -> list[Span]:
        members = self._by_trace.get(trace_id, [])
        ids = {span.span_id for span in members}
        return [s for s in members if s.parent_id is None or s.parent_id not in ids]

    def leaves(self, trace_id: int) -> list[Span]:
        """Spans of the trace with no children (e.g. the subscribers
        that answered a CountQuery)."""
        members = self._by_trace.get(trace_id, [])
        parents = {span.parent_id for span in members if span.parent_id is not None}
        return [span for span in members if span.span_id not in parents]

    def tree(self, trace_id: int) -> list["SpanNode"]:
        """The trace as nested :class:`SpanNode` roots."""
        members = self._by_trace.get(trace_id, [])
        nodes = {span.span_id: SpanNode(span) for span in members}
        roots = []
        for span in members:
            node = nodes[span.span_id]
            parent = nodes.get(span.parent_id) if span.parent_id is not None else None
            if parent is None:
                roots.append(node)
            else:
                parent.children.append(node)
        return roots

    def critical_path(self, trace_id: int) -> tuple[float, list[Span]]:
        """(latency, chain) of the longest root-to-leaf causal chain,
        measured on span *end* times — for a CountQuery this is the
        subtree whose reply gated completion."""
        members = self._by_trace.get(trace_id, [])
        if not members:
            return 0.0, []
        roots = self.roots(trace_id)
        root = min(roots, key=lambda s: s.start) if roots else members[0]

        def finish(span: Span) -> float:
            return span.end if span.end is not None else span.start

        # Deferred spans (pending queries) outlive their children, so
        # walk *down* from the root, taking the latest-finishing child
        # at each level — that subtree gated the parent's completion.
        kids: dict[int, list[Span]] = {}
        for span in members:
            if span.parent_id is not None:
                kids.setdefault(span.parent_id, []).append(span)
        chain = [root]
        while True:
            below = kids.get(chain[-1].span_id)
            if not below:
                break
            chain.append(max(below, key=finish))
        return max(0.0, finish(root) - root.start), chain

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------

    def render(self, trace_id: int) -> str:
        """An indented text rendering of one trace's span tree."""
        lines: list[str] = []

        def walk(node: "SpanNode", depth: int) -> None:
            span = node.span
            dur = f" {span.duration * 1000:.3f}ms" if span.duration is not None else ""
            where = f" @{span.node}" if span.node else ""
            extra = ""
            if span.events:
                extra = f"  [{len(span.events)} events]"
            lines.append(f"{'  ' * depth}{span.name}{where} t={span.start:.6f}{dur}{extra}")
            for child in sorted(node.children, key=lambda n: n.span.start):
                walk(child, depth + 1)

        for root in self.tree(trace_id):
            walk(root, 0)
        return "\n".join(lines)


class SpanNode:
    """One node of a reconstructed span tree."""

    __slots__ = ("span", "children")

    def __init__(self, span: Span) -> None:
        self.span = span
        self.children: list["SpanNode"] = []

    def leaf_count(self) -> int:
        if not self.children:
            return 1
        return sum(child.leaf_count() for child in self.children)

    def depth(self) -> int:
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def __iter__(self) -> Iterator[Span]:
        yield self.span
        for child in self.children:
            yield from child
