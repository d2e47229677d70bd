"""ECMP verdicts (§3.2, §3.5): every join someone waits on gets exactly
one answer, and a denied join is rolled back.

§3.1 lets a router "either acknowledge or reject a Count message".
Every *join* Count (a 0→positive transition, or any Count carrying a
key) that carries a key or a request id receives exactly one
``CountResponse`` verdict from its immediate upstream: OK (the key it
presented is the channel's), OPEN (the source has no key, so none is
needed and none is taught) or a refusal. A router that terminates the
join locally (it knows the key, or it is the always-authoritative
source) answers at once; otherwise it forwards the join, records a
:class:`VerdictEntry` under the key its Count presented, and relays the
verdict when its own upstream answers. A keyless join under id 0 (a
host's, a block's, a re-home or reconnect replay) has nobody waiting on
it: it tables no entry, goes on upstream under id 0 unless a router on
the tree absorbs it, and hears back only if it is refused — an answer
under id 0 is only ever a refusal, and it tears down every keyless
record that stood on the refused Count. A keyless join that lands
beside a tabled key (the channel may be keyed) waits on that key's
verdict with the joins that presented it, and one rule settles them
all: OK admits the joins that presented the key and refuses the
keyless ones, OPEN admits every one, and a refusal rolls back the joins
that presented the key and settles a keyless one as if it arrived now —
refused where a key has been learned meanwhile, waiting on another key
still asked about, else taken optimistically.
Whatever the verdict leaves standing on no Count upstream goes up.
Each forwarded join carries a small request id that its verdict echoes,
and the entry is found by ``(channel, id)`` — never by arrival order,
so a verdict answered locally by a router that has just learned the key
cannot be taken for an older one still upstream. A Count that carries
an id is answered whether or not it reads as a join, so a re-announced
Count (UDP-mode refresh, reconnect dump, re-home) repeats the ids still
unanswered and a lost verdict is repaired by the next one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.channel import Channel
from repro.core.ecmp.countids import SUBSCRIBER_ID
from repro.core.ecmp.messages import MAX_REQUEST_ID, CountResponse, CountStatus
from repro.core.ecmp.state import LOCAL, ChannelState
from repro.core.keys import ChannelKey


@dataclass(slots=True)
class VerdictEntry:
    """One join waiting on an upstream verdict, with what undoes it if
    it is denied."""

    neighbor: str
    #: The key the join presented; None for a keyless join that waits
    #: on another's key.
    presented_key: Optional[ChannelKey]
    prior_validated: bool
    #: The id the joining neighbor's Count carried; the verdict relayed
    #: to it echoes this. (The id this node forwarded the join under is
    #: the entry's key in ``Verdicts.pending[channel]``.)
    request_id: int = 0
    #: What the join added to its neighbor's record: subtracted (not
    #: snapshot-restored) on rollback, so increments that arrived while
    #: the verdict was in flight survive.
    join_delta: int = 0
    #: Of a tabled entry: the key its Count presented upstream — what
    #: the verdict judges, and what later joins on the channel wait on —
    #: and what that Count added to the total there, which the upstream
    #: takes back on a refusal (noted again when the join is replayed to
    #: a parent that holds no record of us, never when it is repeated).
    asked_key: Optional[ChannelKey] = None
    sent_delta: int = 0
    #: Later joins that wait on the same key while this one is upstream:
    #: they sent nothing of their own and take its verdict.
    sharers: Optional[list["VerdictEntry"]] = None


class Verdicts:
    """The verdict machine of one agent: the joins whose verdict is
    still upstream, tabled by the request ids they travel under, and
    what a verdict does when it arrives.

    ``agent`` is the owner, read for ``stats``, ``keys``, ``channels``
    and ``subscriptions``; verdicts leave through its
    ``_send_message``. Tree state changes through the agent's
    ``_send_count_upstream``, ``_propagate``, ``_garbage_collect``,
    ``_drop_record``, ``_set_forwarding`` and ``_activate_local``, each
    read at use — tests wrap them on an instance.
    """

    __slots__ = ("_agent", "pending", "_next_id")

    def __init__(self, agent) -> None:
        self._agent = agent
        #: channel -> {request id: entry} for forwarded joins whose
        #: verdict is still upstream. A channel's table exists only while
        #: it holds an entry, and a drained ``pending`` is replaced: a
        #: dict keeps the slots a join storm grew.
        self.pending: dict[Channel, dict[int, VerdictEntry]] = {}
        #: The next request id to try (1..MAX_REQUEST_ID, cycling, so an
        #: id is not reused while a duplicate of its verdict may be about).
        self._next_id = 1

    def reset(self) -> None:
        """Crash semantics: forget every join in flight."""
        self.pending.clear()

    def forget_channel(self, channel: Channel) -> None:
        """The channel's state was collected: so are its entries."""
        if self.pending.pop(channel, None) is not None and not self.pending:
            self.pending = {}

    # -- asking ----------------------------------------------------------------

    def ask(
        self, state: ChannelState, count: int, key: ChannelKey, entry: VerdictEntry
    ) -> None:
        """A join on a channel already on the tree waits on an upstream
        verdict on ``key`` (its own, or the one a keyless join waits on)
        — the one already on its way, if an earlier join asked about it:
        a crowd presenting one key costs one request, whatever its size."""
        table = self.pending.get(state.channel)
        if table is not None:
            for asked in table.values():
                if asked.asked_key == key:
                    if asked.sharers is None:
                        asked.sharers = [entry]
                    else:
                        asked.sharers.append(entry)
                    return
        self.forward_join(state, count, key, entry)

    def forward_join(
        self,
        state: ChannelState,
        count: int,
        key: Optional[ChannelKey],
        entry: Optional[VerdictEntry],
    ) -> None:
        """Send a join Count upstream, with ``entry`` (None when nobody
        waits on the verdict) tabled under a request id free on the
        channel. On-tree joins that present one key share one id, so an
        honest crowd of any size takes one; the ids run out only with
        ``MAX_REQUEST_ID`` *different* keys in flight on one channel (all
        but one of them forged) or as many leave-and-rejoin cycles
        inside one round trip. The join that finds none is undone and
        refused here; its sender may present the key again."""
        agent = self._agent
        request_id = 0
        if entry is not None:
            table = self.pending.get(state.channel)
            if table is None:
                table = self.pending[state.channel] = {}
            elif len(table) >= MAX_REQUEST_ID:
                agent.stats["verdict_table_full"] += 1
                self._rollback(state, entry)
                agent._garbage_collect(state)
                return
            request_id = self._next_id
            while request_id in table:
                request_id = request_id % MAX_REQUEST_ID + 1
            self._next_id = request_id % MAX_REQUEST_ID + 1
            table[request_id] = entry
            entry.asked_key = key
            # What this Count adds upstream is what a refusal takes back.
            entry.sent_delta = count - state.advertised
        agent._send_count_upstream(state, count, key, request_id)

    def reannounce(
        self,
        state: ChannelState,
        key: Optional[ChannelKey] = None,
        fresh: bool = False,
    ) -> None:
        """Re-send the current total upstream. Every verdict this channel
        still waits for is asked for again under its id — the upstream
        answers a Count that carries one — so a verdict lost with a
        datagram, a session or an abandoned parent is repaired here.

        A refresh goes to an upstream that holds our record: each request
        is repeated with the total it already knows, which changes
        nothing there, and the entries keep what they noted when they
        were tabled. A ``fresh`` upstream (a new parent, or the old one
        after the session died) holds none, and what it will subtract on
        a denial is whatever the Count carrying that id added: so the
        joins are replayed in order, each Count raising the total by its
        own join's share above the settled part, which goes first and
        under no id — a denial then takes back exactly the denied join."""
        send = self._agent._send_count_upstream
        total = state.total(validated_only=False)
        table = self.pending.get(state.channel)
        if not table or total == 0:
            send(state, total, key)
            return
        if not fresh:
            for request_id, entry in table.items():
                send(state, total, entry.asked_key or key, request_id)
            return
        shares = [self._share_of(state, entry) for entry in table.values()]
        state.advertised = 0
        running = max(0, total - sum(shares))
        if running:
            send(state, running, key)
        for (request_id, entry), share in zip(table.items(), shares):
            running = min(total, running + share)
            entry.sent_delta = running - state.advertised
            send(state, running, entry.asked_key or key, request_id)

    @staticmethod
    def _share_of(state: ChannelState, entry: VerdictEntry) -> int:
        """How much of the channel's total stands on ``entry``'s verdict
        and on those of the joins sharing it: what their rollbacks would
        take off the downstream records as they are now."""
        share = 0
        for waiter in (entry, *(entry.sharers or ())):
            record = state.downstream.get(waiter.neighbor)
            if record is not None:
                share += max(0, min(record.count, waiter.join_delta))
        return share

    # -- answering -------------------------------------------------------------

    def deny(self, channel: Channel, neighbor: str, request_id: int = 0) -> None:
        """Reject a subscription locally (bad key against cached K)."""
        self._agent.stats["denied_subscriptions"] += 1
        self._notify_denied(channel, neighbor, request_id)

    def on_response(self, message: CountResponse, from_name: str) -> None:
        """A ``CountResponse`` from ``from_name``: the verdict on the
        join it echoes the id of and on the joins waiting with it, each
        admitted or rolled back by one rule and told."""
        agent = self._agent
        channel = message.channel
        if message.count_id != SUBSCRIBER_ID:
            # Rejection of a non-subscriber Count (e.g. an unsupported
            # countId): nothing to roll back — just note it.
            agent.stats["rejected_counts"] += 1
            return
        state = agent.channels.get(channel)
        if state is None or from_name != state.upstream:
            return
        status = message.status
        confirmed = status is CountStatus.OK
        granted = confirmed or status is CountStatus.OPEN
        table = self.pending.get(channel)
        entry = None
        if table is not None:
            entry = table.pop(message.request_id, None)
            if not table:
                del self.pending[channel]
                if not self.pending:
                    self.pending = {}
        if entry is None:
            if message.request_id or granted:
                return  # a second answer, or a stray: none is sent under id 0
            # Unmatched denial: a Count nobody waited on (a keyless join
            # or replay, under id 0) was refused, and every keyless
            # record here stood on it: each is torn down.
            refused = [
                name
                for name, record in state.downstream.items()
                if record.presented_key is None
            ]
            for name in refused:
                agent.stats["denied_subscriptions"] += 1
                agent._drop_record(state, name)
                self._notify_denied(channel, name)
            # The total left goes up: a zero when no record is left. The
            # refuser may still hold our record (an answer under id 0
            # cannot say), and only that zero clears it.
            agent._propagate(state)
            agent._garbage_collect(state)
            return

        learned = entry.asked_key if confirmed else None
        if learned is not None:
            agent.keys.learn(channel, learned)
        if not granted:
            # The upstream took back what the refused Count added.
            state.advertised = max(0, state.advertised - entry.sent_delta)
        sharers = entry.sharers
        quiet = granted and sharers is None
        for waiter in (entry,) if sharers is None else (entry, *sharers):
            # The rule (docs/PROTOCOL.md §5): OK admits who presented the
            # key and refuses the keyless, OPEN admits all, and a refusal
            # rolls back who presented the key and takes a keyless join
            # as if it arrived now: refused where a key is known, waiting
            # on another key still asked about here, else admitted.
            keyless = waiter.presented_key is None
            if granted and (status is CountStatus.OPEN or not keyless):
                self._confirm(state, waiter, learned)
            elif granted or not keyless or agent.keys.knows(channel):
                self._rollback(state, waiter)
                quiet = False
            elif table:
                other = next(iter(table.values()))
                other.sharers = [*(other.sharers or ()), waiter]
            else:
                self._confirm(state, waiter, None)
        if not quiet:
            # What the waiters changed goes up as any other change would:
            # the total they now add, or the part no Count there stands on.
            agent._propagate(state)
            agent._garbage_collect(state)

    def _confirm(
        self, state: ChannelState, entry: VerdictEntry, learned: Optional[ChannelKey]
    ) -> None:
        """Grant ``entry``'s join, and relay OK when the key it presented
        was ``learned`` from the verdict, OPEN when none is needed. A
        record holding its own copy of the learned key keeps the cache's
        object instead, as a record validated against the cache does."""
        agent = self._agent
        neighbor = entry.neighbor
        # ``state.downstream.get(neighbor)``, read off the slots.
        if state.spill is not None:
            record = state.spill.get(neighbor)
        else:
            record = state.lone_record if state.lone_name == neighbor else None
        if record is not None:
            held = record.presented_key
            if learned is not None and held is not learned and held == learned:
                record.presented_key = learned
            if not record.validated:
                record.validated = True
                if record.count > 0:
                    agent._set_forwarding(state, neighbor, True)
        if neighbor == LOCAL:
            agent._activate_local(state.channel)
        elif entry.request_id:
            # Relay the verdict even if the neighbor has since left: a
            # node below it may still hold an entry for this join. A
            # join that came under id 0 has nobody waiting on it.
            status = CountStatus.OPEN if learned is None else CountStatus.OK
            agent._send_message(
                CountResponse(state.channel, SUBSCRIBER_ID, status, entry.request_id),
                neighbor,
            )

    def _rollback(self, state: ChannelState, entry: VerdictEntry) -> None:
        """Undo a denied join by subtracting its contribution.

        The subtraction is relative, not a snapshot restore: counts
        that arrived between the join and its verdict (e.g. several
        joins batched into one frame, whose verdicts all come back
        after the last join landed) must survive the rollback."""
        agent = self._agent
        agent.stats["denied_subscriptions"] += 1
        record = state.downstream.get(entry.neighbor)
        if record is not None:
            rolled = record.count - entry.join_delta
            if rolled > 0:
                # A live record's count is >= 1, so validated means forwarding.
                was_forwarding = record.validated
                record.count = rolled
                # Never revoke a validation an earlier verdict granted.
                record.validated = record.validated or entry.prior_validated
                if record.validated and not was_forwarding:
                    agent._set_forwarding(state, entry.neighbor, True)
            else:
                agent._drop_record(state, entry.neighbor)
        self._notify_denied(state.channel, entry.neighbor, entry.request_id)

    def _notify_denied(
        self,
        channel: Channel,
        neighbor: str,
        request_id: int = 0,
        status: CountStatus = CountStatus.INVALID_AUTHENTICATOR,
    ) -> None:
        """Tell ``neighbor`` its join is refused: a local subscription's
        handle turns denied, a neighbor hears ``status`` under its id."""
        agent = self._agent
        if neighbor == LOCAL:
            handle = agent.subscriptions.pop(channel, None)
            if handle is not None:
                handle._set_status("denied")
        else:
            agent._send_message(CountResponse(channel, SUBSCRIBER_ID, status, request_id), neighbor)
