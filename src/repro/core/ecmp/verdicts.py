"""ECMP verdicts (§3.2, §3.5): every join someone waits on gets exactly
one answer, and a denied join is rolled back.

§3.1 lets a router "either acknowledge or reject a Count message".
Every *join* Count (a 0→positive transition, or any Count carrying a
key) that carries a key or a request id receives exactly one
``CountResponse`` verdict from its immediate upstream: OK or
INVALID_AUTHENTICATOR. A router that terminates the join locally (it
knows the key, or it is the always-authoritative source) answers at
once; otherwise it forwards the join, records a :class:`VerdictEntry`
with rollback state, and relays the verdict when its own upstream
answers. A keyless join under id 0 (a host's, a block's, a re-home or
reconnect replay) has nobody waiting on it: it tables no entry, goes on
upstream under id 0 unless a router on the tree absorbs it, and hears
back only if it is refused — an OK is never sent under id 0, and a
refusal under id 0 tears down every keyless record that stood on the
refused Count. A keyless join that lands beside a key's verdict still
upstream waits all the same (the channel may be keyed): it is refused
if the key is confirmed and taken optimistically if the key is refused.
A denial sends upstream what no Count there stands on any more.
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
    """One forwarded join awaiting its upstream verdict, with enough
    prior state to roll the join back if it is denied."""

    neighbor: str
    prior_count: int
    prior_validated: bool
    presented_key: Optional[ChannelKey]
    #: The id the joining neighbor's Count carried; the verdict relayed
    #: to it echoes this. (The id this node forwarded the join under is
    #: the entry's key in ``Verdicts.pending[channel]``.)
    request_id: int = 0
    prior_advertised: int = 0
    #: Count the joining downstream advertised; the denied join's
    #: contribution is ``joined_count - prior_count``, subtracted (not
    #: snapshot-restored) on rollback so increments that arrived while
    #: the verdict was in flight survive.
    joined_count: int = 0
    #: Total this node sent upstream alongside this entry; mirrors the
    #: delta the upstream will subtract from its record of us. Both
    #: halves of that delta are set when the entry is tabled (and again
    #: when it is re-tabled at a parent that holds no record of us),
    #: never when the request is merely repeated.
    sent_count: int = 0
    #: Later joins that presented the same key while this one was
    #: upstream: they sent nothing of their own and take its verdict.
    sharers: Optional[list["VerdictEntry"]] = None


class Verdicts:
    """The verdict machine of one agent: the forwarded joins whose
    verdict is still upstream, the request ids they travel under, and
    what a verdict does when it arrives.

    ``agent`` is the owner, read for ``stats``, ``keys``, ``channels``
    and ``subscriptions``; verdicts leave through its
    ``_send_message``. Tree state changes through the agent's
    ``_send_count_upstream``, ``_propagate``, ``_garbage_collect``,
    ``_drop_record``, ``_set_forwarding`` and ``_activate_local``, each
    read at use — tests wrap them on an instance.
    """

    __slots__ = ("_agent", "pending", "pending_keys", "_next_id")

    def __init__(self, agent) -> None:
        self._agent = agent
        #: channel -> {request id: entry} for forwarded joins whose
        #: verdict is still upstream. A channel's table exists only while
        #: it holds an entry.
        self.pending: dict[Channel, dict[int, VerdictEntry]] = {}
        #: channel -> the key a deferred join forwarded upstream, until
        #: its verdict is in; later Counts on the channel present it.
        self.pending_keys: dict[Channel, ChannelKey] = {}
        #: The next request id to try (1..MAX_REQUEST_ID, cycling, so an
        #: id is not reused while a duplicate of its verdict may be about).
        self._next_id = 1

    def reset(self) -> None:
        """Crash semantics: forget every join in flight."""
        self.pending.clear()
        self.pending_keys.clear()

    def forget_channel(self, channel: Channel) -> None:
        """The channel's state was collected: so are its entries."""
        if self.pending.pop(channel, None) is not None and not self.pending:
            self.pending = {}
        if self.pending_keys.pop(channel, None) is not None and not self.pending_keys:
            self.pending_keys = {}

    def _settle_key(self, channel: Channel, key: Optional[ChannelKey]) -> None:
        """The verdict on ``key`` is in. A drained table is replaced (here
        and in ``pending``): a dict keeps the slots a join storm grew."""
        if key is not None and self.pending_keys.get(channel) == key:
            del self.pending_keys[channel]
            if not self.pending_keys:
                self.pending_keys = {}

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
                if asked.presented_key == key:
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
                self._settle_key(state.channel, entry.presented_key)
                self._rollback(state, entry)
                agent._garbage_collect(state)
                return
            request_id = self._next_id
            while request_id in table:
                request_id = request_id % MAX_REQUEST_ID + 1
            self._next_id = request_id % MAX_REQUEST_ID + 1
            table[request_id] = entry
            # What this Count changes upstream is what a denial undoes.
            entry.prior_advertised = state.advertised
            entry.sent_count = count
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
                send(state, total, entry.presented_key or key, request_id)
            return
        shares = [self._share_of(state, entry) for entry in table.values()]
        state.advertised = 0
        running = max(0, total - sum(shares))
        if running:
            send(state, running, key)
        for (request_id, entry), share in zip(table.items(), shares):
            running = min(total, running + share)
            entry.prior_advertised = state.advertised
            entry.sent_count = running
            send(state, running, entry.presented_key or key, request_id)

    @staticmethod
    def _share_of(state: ChannelState, entry: VerdictEntry) -> int:
        """How much of the channel's total stands on ``entry``'s verdict
        and on those of the joins sharing it: what their rollbacks would
        take off the downstream records as they are now."""
        share = 0
        for waiter in (entry, *(entry.sharers or ())):
            record = state.downstream.get(waiter.neighbor)
            if record is not None:
                joined = waiter.joined_count - waiter.prior_count
                share += max(0, min(record.count, joined))
        return share

    # -- answering -------------------------------------------------------------

    def deny(self, channel: Channel, neighbor: str, request_id: int = 0) -> None:
        """Reject a subscription locally (bad key against cached K)."""
        self._agent.stats["denied_subscriptions"] += 1
        self._notify_denied(channel, neighbor, request_id)

    def on_response(self, message: CountResponse, from_name: str) -> None:
        """A ``CountResponse`` from ``from_name``: the verdict on the
        join it echoes the id of, which is confirmed or rolled back and
        relayed to whoever asked."""
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
        table = self.pending.get(channel)
        entry = None
        if table is not None:
            entry = table.pop(message.request_id, None)
            if not table:
                del self.pending[channel]
                if not self.pending:
                    self.pending = {}
        if entry is None and message.request_id:
            return  # a second answer to a request already settled

        if message.status is CountStatus.OK:
            if entry is None:
                return  # none is sent under id 0; a stray one changes nothing
            key = entry.presented_key
            if key is not None:
                agent.keys.learn(channel, key)
                # ``_settle_key``, inline: once a keyed verdict a hop.
                if self.pending_keys.get(channel) == key:
                    del self.pending_keys[channel]
                    if not self.pending_keys:
                        self.pending_keys = {}
            self._confirm(state, entry)
            if entry.sharers is not None:
                for sharer in entry.sharers:
                    if sharer.presented_key is None:
                        # A keyless join that waited on the key: refused
                        # now that the key is known here.
                        self._rollback(state, sharer)
                    else:
                        self._confirm(state, sharer, entry.presented_key)
                # They sent nothing of their own; now that they count,
                # the total goes up as any other change would.
                agent._propagate(state)
            return

        if message.status in (
            CountStatus.INVALID_AUTHENTICATOR,
            CountStatus.NO_SUCH_CHANNEL,
            CountStatus.UNSUPPORTED_COUNT,
        ):
            if entry is not None:
                self._settle_key(channel, entry.presented_key)
                self._rollback(state, entry)
                for sharer in entry.sharers or ():
                    # A keyless join that waited on the refused key is
                    # taken as any keyless join is: optimistically.
                    if sharer.presented_key is None:
                        self._confirm(state, sharer)
                    else:
                        self._rollback(state, sharer)
            else:
                # Unmatched denial: a Count nobody waited on (a keyless
                # join or replay, under id 0) was refused, and every
                # keyless record here stood on it: each is torn down.
                refused = [
                    name
                    for name, record in state.downstream.items()
                    if record.presented_key is None
                ]
                for name in refused:
                    agent.stats["denied_subscriptions"] += 1
                    agent._drop_record(state, name)
                    self._notify_denied(channel, name)
            # What is left goes upstream if no Count there stands on it
            # any more: a record absorbed beside the refused join under
            # id 0, a zero when none is left, and the state goes.
            agent._propagate(state)
            agent._garbage_collect(state)

    def _confirm(
        self, state: ChannelState, entry: VerdictEntry, learned: Optional[ChannelKey] = None
    ) -> None:
        """Grant ``entry``'s join. A sharer's record holds its own copy
        of the key ``learned`` from the verdict; it keeps the cache's
        object instead, as a record validated against the cache does."""
        agent = self._agent
        neighbor = entry.neighbor
        # ``state.downstream.get(neighbor)``, read off the slots.
        if state.spill is not None:
            record = state.spill.get(neighbor)
        else:
            record = state.lone_record if state.lone_name == neighbor else None
        if record is not None:
            if learned is not None and record.presented_key == learned:
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
            # join that came under id 0 has nobody waiting on an OK.
            agent._send_message(
                CountResponse(
                    state.channel, SUBSCRIBER_ID, CountStatus.OK, entry.request_id
                ),
                neighbor,
            )

    def _rollback(self, state: ChannelState, entry: VerdictEntry) -> None:
        """Undo a denied join by subtracting its contribution.

        The subtraction is relative, not a snapshot restore: counts
        that arrived between the join and its verdict (e.g. several
        joins batched into one frame, whose verdicts all come back
        after the last join landed) must survive the rollback. The
        upstream applies the mirror-image subtraction to its record of
        us, so ``advertised`` shrinks by the same delta it will."""
        agent = self._agent
        agent.stats["denied_subscriptions"] += 1
        state.advertised = max(
            0, state.advertised - (entry.sent_count - entry.prior_advertised)
        )
        record = state.downstream.get(entry.neighbor)
        if record is not None:
            rolled = record.count - (entry.joined_count - entry.prior_count)
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

    def _notify_denied(self, channel: Channel, neighbor: str, request_id: int = 0) -> None:
        agent = self._agent
        if neighbor == LOCAL:
            handle = agent.subscriptions.pop(channel, None)
            if handle is not None:
                handle._set_status("denied")
        else:
            agent._send_message(
                CountResponse(
                    channel, SUBSCRIBER_ID, CountStatus.INVALID_AUTHENTICATOR, request_id
                ),
                neighbor,
            )
