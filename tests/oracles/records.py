"""The per-record dataclass: what a downstream record *is*.

Five plain fields. ``repro.core.ecmp.state.DownstreamRecord`` stores
the same five in ``StateBank`` columns behind properties;
``tests/properties/test_state_equivalence.py`` holds it to this class
field by field, and swaps this class in at ``ChannelState.new_record``
for a whole-network run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.keys import ChannelKey

FIELDS = ("count", "validated", "presented_key", "updated_at", "udp")


@dataclass(eq=False)
class ReferenceRecord:
    count: int = 0
    #: False while an authenticated subscription awaits validation.
    validated: bool = True
    #: The key this neighbor presented (kept until validation resolves).
    presented_key: Optional[ChannelKey] = None
    updated_at: float = 0.0
    #: True for neighbors managed in UDP mode (soft state, needs refresh).
    udp: bool = False

    def __eq__(self, other: object) -> bool:
        # Field equality against anything record-shaped: the shipped
        # record's own __eq__ knows only its own class and defers here.
        try:
            return all(getattr(self, f) == getattr(other, f) for f in FIELDS)
        except AttributeError:
            return NotImplemented
