"""The unbatched send path: one wire packet per protocol message.

What ``NeighborSessions.send`` did before TCP-mode sessions learned to
coalesce, kept as plain reference code: no dirty-channel queue, no
hold-off, no last-writer-wins, no burst corking — every message is put
on the link the moment the agent hands it over, exactly as a UDP-mode
neighbor still gets it.

``tests/properties/test_batching_equivalence.py`` holds the shipped
send path to this one (the settled channel tables must match), and
``tests/core/test_batching.py::TestWireReductionUnderChurn`` measures
what the shipped path saves against it.
"""

from __future__ import annotations

from repro.core.ecmp.session import NeighborSessions


def reference_send(
    self, message, known, urgent=None, pinned=None, size=None, span_ctx=None
) -> None:
    """Send ``message`` toward ``known`` now, alone."""
    self.transmit(message, known, (span_ctx,), size)


def install(monkeypatch) -> None:
    """Swap the reference send path in for the shipped one, for every
    agent (build the network before or after: it is a class attribute)."""
    monkeypatch.setattr(NeighborSessions, "send", reference_send)
