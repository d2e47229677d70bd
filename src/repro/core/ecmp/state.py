"""Per-channel ECMP state records.

A router on a channel's distribution tree records, per §3.2: its
upstream (RPF) neighbor, "the per-channel subscriber count for each
interface" (we key by neighbor, which is 1:1 with interfaces on
point-to-point links), and — for authenticated channels — the key
material in flight or cached.

§5.2 prices this state: a count-activity record is "roughly 16 bytes,
namely [channel, countId, count]", doubled to 32 to allow for
implementation fields; with an average fanout of 2 (three records
including the upstream record) and 2 outstanding counts per channel,
"the DRAM memory cost per channel is 192 bytes ... Adding another
eight bytes to store K(S,E), the total size is 200 bytes."
:func:`management_state_bytes` reproduces that accounting from live
state so the ``T2`` benchmark can compare model vs measured.

A downstream record (:class:`DownstreamRecord`) is one slotted object
of five plain fields: the neighbor's subscriber ``count``, whether its
subscription is ``validated``, the ``presented_key`` awaiting that
verdict, when it was ``updated_at`` and whether the neighbor is in
``udp`` (soft-state) mode. It is the [channel, countId, count] record
§5.2 prices at 32 B, with the channel and countId implied by where it
is held (a :class:`ChannelState`, which keeps a lone record inline).
"""

from __future__ import annotations

from collections.abc import MutableMapping
from dataclasses import dataclass, field
from typing import Optional

from repro.core.channel import Channel
from repro.core.keys import KEY_BYTES, ChannelKey

#: Pseudo-neighbor name for this node's own (host-local) subscriptions.
LOCAL = "__local__"

#: Name prefix for aggregated subscriber-block records (see
#: :mod:`repro.core.blocks`). Like LOCAL, a block pseudo-neighbor has
#: no peer node: it contributes to counts but never to the FIB's
#: outgoing set, wire sends, or query fan-out.
BLOCK_PREFIX = "__block__:"


def is_pseudo_neighbor(name: str) -> bool:
    """True for downstream-record keys that are not real neighbors
    (the LOCAL record and subscriber-block records)."""
    return name == LOCAL or name.startswith(BLOCK_PREFIX)

#: §5.2's raw count-activity record: [channel (7), countId (2), count (4)]
#: rounded to 16, then doubled "to allow for implementation fields".
COUNT_RECORD_BYTES = 32


class StateBank:
    """Inert stand-in for the columnar record bank that once backed
    :class:`DownstreamRecord`. It exists only because the frozen
    ``benchmarks/e2e`` instrument samples ``STATE_BANK.live_rows`` and
    wraps ``StateBank.alloc``; the benchmark-version change (ROADMAP
    item 3) drops it. No code calls :meth:`alloc`, so the instrument's
    ``row_allocs`` and ``live_rows_peak`` read 0."""

    __slots__ = ()

    live_rows = 0

    def alloc(self) -> int:
        return 0


STATE_BANK = StateBank()


@dataclass(slots=True)
class DownstreamRecord:
    """State for one downstream neighbor (or LOCAL) on a channel."""

    count: int = 0
    #: False while an authenticated subscription awaits validation.
    validated: bool = True
    #: The key this neighbor presented (kept until validation resolves).
    presented_key: Optional[ChannelKey] = None
    updated_at: float = 0.0
    #: True for neighbors managed in UDP mode (soft state, needs refresh).
    udp: bool = False


class LoneDownstream(MutableMapping):
    """:attr:`ChannelState.downstream` of a state that has not spilled:
    the dict interface over its two lone slots. A view, not a copy:
    every call reads the state as it is now, so a view taken before the
    second neighbor arrived keeps answering for the dict after it."""

    __slots__ = ("_state",)

    def __init__(self, state: "ChannelState") -> None:
        self._state = state

    def __getitem__(self, name: str) -> DownstreamRecord:
        state = self._state
        if state.spill is not None:
            return state.spill[name]
        if state.lone_name is None or state.lone_name != name:
            raise KeyError(name)
        return state.lone_record

    def get(self, name: str, default=None):
        state = self._state
        if state.spill is not None:
            return state.spill.get(name, default)
        if state.lone_name is None or state.lone_name != name:
            return default
        return state.lone_record

    def __contains__(self, name: object) -> bool:
        state = self._state
        if state.spill is not None:
            return name in state.spill
        return state.lone_name is not None and state.lone_name == name

    def __setitem__(self, name: str, record: DownstreamRecord) -> None:
        self._state.put(name, record)

    def __delitem__(self, name: str) -> None:
        state = self._state
        if state.spill is not None:
            del state.spill[name]
        elif state.lone_name is None or state.lone_name != name:
            raise KeyError(name)
        else:
            state.lone_name = state.lone_record = None

    def __iter__(self):
        state = self._state
        if state.spill is not None:
            return iter(state.spill)
        return iter(() if state.lone_name is None else (state.lone_name,))

    def __len__(self) -> int:
        state = self._state
        if state.spill is not None:
            return len(state.spill)
        return 0 if state.lone_name is None else 1

    def __repr__(self) -> str:
        return repr(dict(self.items()))


@dataclass(slots=True)
class ChannelState:
    """One node's place on one channel's tree. A deferred join's key and
    §6 counts are held by ``Verdicts`` and ``Counting``."""

    channel: Channel
    #: Upstream neighbor name toward S; None at the source's own node.
    upstream: Optional[str] = None
    #: Count last advertised upstream (TCP-mode "sum provided upstream").
    advertised: int = 0
    #: When this node last switched upstream (hysteresis input).
    upstream_changed_at: float = 0.0
    #: The per-downstream-neighbor records (LOCAL for own subs), as the
    #: hot paths read them; everyone else reads :attr:`downstream`. Nearly
    #: every state has one record, so it is held inline — its neighbor's
    #: name and the record, both None while there is none — and a dict,
    #: ``spill``, exists only once a second neighbor has appeared; from
    #: then on it holds them all in insertion order and the two lone
    #: slots stay None, however many records leave again.
    lone_name: Optional[str] = field(default=None, init=False, repr=False)
    lone_record: Optional[DownstreamRecord] = field(default=None, init=False, repr=False)
    spill: Optional[dict[str, DownstreamRecord]] = field(default=None, init=False, repr=False)

    @property
    def downstream(self) -> MutableMapping[str, DownstreamRecord]:
        """The downstream records as a dict: ``spill`` itself once the
        state has spilled, before that a :class:`LoneDownstream` view
        over the lone slots with the same semantics, order included."""
        spill = self.spill
        return spill if spill is not None else LoneDownstream(self)

    def put(self, name: str, record: DownstreamRecord) -> None:
        """``downstream[name] = record``."""
        spill = self.spill
        if spill is not None:
            spill[name] = record
        elif self.lone_name is None or self.lone_name == name:
            self.lone_name = name
            self.lone_record = record
        else:
            self.spill = {self.lone_name: self.lone_record, name: record}
            self.lone_name = self.lone_record = None

    def new_record(self) -> DownstreamRecord:
        """A fresh default downstream record: the one construction
        site."""
        return DownstreamRecord()

    def total(self, validated_only: bool = True) -> int:
        """Sum of downstream subscriber counts (the value sent upstream)."""
        spill = self.spill
        if spill is None:
            rec = self.lone_record
            if rec is None or (validated_only and not rec.validated):
                return 0
            return rec.count
        return sum(
            rec.count
            for rec in spill.values()
            if not validated_only or rec.validated
        )

    def downstream_links(self) -> int:
        """Tree links below this node (excludes the host-local record
        and aggregated subscriber-block records, which are not links)."""
        return sum(
            1
            for name, rec in self.downstream.items()
            if not is_pseudo_neighbor(name) and rec.count > 0
        )

    def unvalidated(self) -> list[str]:
        return [name for name, rec in self.downstream.items() if not rec.validated]


def management_state_bytes(
    state: ChannelState, outstanding_counts: int = 1, authenticated: bool = False
) -> int:
    """The §5.2 accounting applied to one live channel state.

    Each count activity keeps one 32-byte [channel, countId, count]
    record per neighbor (downstream neighbors plus the upstream one);
    tree maintenance itself is one such activity, so the floor is one
    record set. Authenticated channels add 8 bytes for K(S,E).
    """
    neighbor_records = len(state.downstream) + (1 if state.upstream else 0)
    total = neighbor_records * max(outstanding_counts, 1) * COUNT_RECORD_BYTES
    if authenticated:
        total += KEY_BYTES
    return total
