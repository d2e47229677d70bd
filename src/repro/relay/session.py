"""The session relay and its participants (§4.1).

"The primary lecturer or speaker either resides on the SR or relays its
packets to it and onto the multicast channel by unicasting an
encapsulated packet to the SR. ... Students ask questions which the
other students can hear by relaying their transmissions through the
session relay to the multicast channel (SR,E)."

Data plane: a participant *speaks* by unicasting a
:class:`RelayMessage` to the SR host; the SR — after floor-control
checks — re-emits it as the source of the channel ``(SR, E)``.
Participants *listen* by subscribing to that channel like any EXPRESS
subscriber. Control traffic (floor requests/grants) uses the same two
legs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.channel import Channel
from repro.core.keys import ChannelKey
from repro.core.network import ExpressNetwork, SourceHandle
from repro.netsim.engine import PeriodicTask
from repro.netsim.packet import Packet
from repro.netsim.trace import Counter
from repro.relay.floor import FloorControl, FloorDecision

#: Simulated wire size of a small relay control message.
CONTROL_SIZE = 64


@dataclass
class RelayMessage:
    """Application payload relayed through an SR.

    ``kind`` is one of: "talk" (media), "floor_request",
    "floor_release", "floor_grant", "floor_deny", "heartbeat",
    "announce_channel" (direct-channel switchover), "probe" (reliable
    NACK probe). ``session`` is the relay's channel.
    """

    session: Channel
    kind: str
    speaker: str
    seq: int = 0
    body: Any = None


class SessionRelay:
    """An SR instance on one host of an :class:`ExpressNetwork`."""

    def __init__(
        self,
        net: ExpressNetwork,
        sr_host: str,
        floor: Optional[FloorControl] = None,
        secret: Optional[bytes] = None,
        heartbeat_interval: Optional[float] = None,
        talk_size: int = 1356,
    ) -> None:
        self.net = net
        self.handle: SourceHandle = net.source(sr_host)
        self.channel: Channel = self.handle.allocate_channel()
        #: The relay's channel names its session: unique in the network,
        #: and owned by this relay alone.
        self.session_id = self.channel
        #: Messages by (direction, kind); an attached registry folds it
        #: into ``relay_messages_total`` at collect.
        self.messages = Counter()
        if net.obs is not None:
            family = net.obs.registry.counter(
                "relay_messages_total",
                "Session-relay messages by session, direction, and kind",
                ("session", "direction", "kind"),
            )
            session = str(self.session_id)
            net.obs.registry.fold(
                lambda: (
                    (family, (session, direction, kind), total)
                    for (direction, kind), total in self.messages.items()
                )
            )
        self.floor = floor
        self.talk_size = talk_size
        self._seq = itertools.count(1)
        self.last_emitted_seq = 0
        self.relayed = 0
        self.blocked = 0
        self.stopped = False
        self._heartbeat_task: Optional[PeriodicTask] = None
        #: K(SR,E) when the session is restricted; participants obtain
        #: it out of band (§3.2: "hosts must learn K(S,E) with an
        #: out-of-band mechanism") — here, by sharing ``secret``.
        self.key: Optional[ChannelKey] = None
        if secret is not None:
            self.key = ChannelKey.from_secret(self.channel, secret)
            self.handle.channel_key(self.channel, self.key)
        self.handle.forwarder.on_unicast_delivery(self._on_unicast)
        if heartbeat_interval is not None:
            self._heartbeat_task = PeriodicTask(
                net.sim, heartbeat_interval, self._heartbeat, name="sr-heartbeat"
            )
            self._heartbeat_task.start()

    @property
    def sr_host(self) -> str:
        return self.handle.name

    @property
    def address(self) -> int:
        return self.handle.address

    def stop(self) -> None:
        """Fail the relay (used by the standby experiments)."""
        self.stopped = True
        if self._heartbeat_task is not None:
            self._heartbeat_task.stop()

    # ------------------------------------------------------------------
    # relaying
    # ------------------------------------------------------------------

    def _on_unicast(self, packet: Packet) -> None:
        message = packet.payload
        if not isinstance(message, RelayMessage) or message.session != self.session_id:
            return
        if self.stopped:
            return
        self.messages["rx", message.kind] += 1
        if message.kind == "talk":
            self._relay_talk(message, packet.size)
        elif message.kind == "floor_request":
            self._handle_floor_request(message.speaker)
        elif message.kind == "floor_release":
            self._handle_floor_release(message.speaker)

    def _relay_talk(self, message: RelayMessage, size: int) -> None:
        if self.floor is not None and not self.floor.may_speak(message.speaker):
            self.blocked += 1
            return
        self.emit(message.kind, message.speaker, message.body, size=size)

    def _handle_floor_request(self, speaker: str) -> None:
        if self.floor is None:
            return
        decision = self.floor.request(speaker)
        kind = "floor_grant" if decision is FloorDecision.GRANTED else "floor_deny"
        if decision is FloorDecision.QUEUED:
            return  # grant announced when the floor frees up
        self.emit(kind, speaker, body=decision.value, size=CONTROL_SIZE)

    def _handle_floor_release(self, speaker: str) -> None:
        if self.floor is None:
            return
        nxt = self.floor.release(speaker)
        if nxt is not None:
            self.emit("floor_grant", nxt, body="granted", size=CONTROL_SIZE)

    def emit(self, kind: str, speaker: str, body: Any = None, size: int = 0) -> int:
        """Send one message on the session channel as the SR source."""
        if self.stopped:
            return 0
        self.last_emitted_seq = next(self._seq)
        out = RelayMessage(
            session=self.session_id,
            kind=kind,
            speaker=speaker,
            seq=self.last_emitted_seq,
            body=body,
        )
        if kind == "talk":
            self.relayed += 1
        self.messages["tx", kind] += 1
        return self.handle.send(self.channel, payload=out, size=size or self.talk_size)

    def speak_from_relay(self, body: Any, size: Optional[int] = None) -> int:
        """The primary speaker "resides on the SR": emit directly."""
        return self.emit("talk", self.sr_host, body, size=size or self.talk_size)

    def _heartbeat(self) -> None:
        self.emit("heartbeat", self.sr_host, size=CONTROL_SIZE)


class SessionParticipant:
    """A session member on one host: listens on (SR, E), speaks by
    unicasting to the SR."""

    def __init__(
        self,
        net: ExpressNetwork,
        host: str,
        relay: SessionRelay,
        key: Optional[ChannelKey] = None,
        on_message: Optional[Callable[[RelayMessage], None]] = None,
    ) -> None:
        self.net = net
        self.name = host
        self.handle = net.host(host)
        self.relay_address = relay.address
        self.channel = relay.channel
        self.session_id = relay.session_id
        self.on_message = on_message
        self.received: list[RelayMessage] = []
        self.heard_talks: list[RelayMessage] = []
        self.has_floor = False
        self.last_heartbeat_at: Optional[float] = None
        self.subscription = self.handle.subscribe(
            self.channel, key=key, on_data=self._on_channel_data
        )

    # ------------------------------------------------------------------

    def _on_channel_data(self, packet: Packet) -> None:
        message = packet.payload
        if not isinstance(message, RelayMessage):
            return
        self.received.append(message)
        if message.kind == "talk":
            self.heard_talks.append(message)
        elif message.kind == "heartbeat":
            self.last_heartbeat_at = self.net.sim.now
        elif message.kind == "floor_grant" and message.speaker == self.name:
            self.has_floor = True
        elif message.kind == "floor_deny" and message.speaker == self.name:
            self.has_floor = False
        if self.on_message is not None:
            self.on_message(message)

    def _unicast_to_relay(self, message: RelayMessage, size: int) -> None:
        packet = Packet(
            src=self.handle.address,
            dst=self.relay_address,
            proto="data",
            payload=message,
            size=size,
            created_at=self.net.sim.now,
        )
        self.handle.forwarder.emit_unicast(packet)

    def speak(self, body: Any, size: int = 1356) -> None:
        """Send media toward the session (relayed if floor allows)."""
        self._unicast_to_relay(
            RelayMessage(self.session_id, "talk", self.name, body=body), size
        )

    def request_floor(self) -> None:
        self._unicast_to_relay(
            RelayMessage(self.session_id, "floor_request", self.name), CONTROL_SIZE
        )

    def release_floor(self) -> None:
        self.has_floor = False
        self._unicast_to_relay(
            RelayMessage(self.session_id, "floor_release", self.name), CONTROL_SIZE
        )

    def leave(self) -> None:
        self.handle.unsubscribe(self.channel)


def direct_channel_switchover(
    net: ExpressNetwork,
    relay: SessionRelay,
    speaker_host: str,
    participants: list[SessionParticipant],
) -> Channel:
    """§4.1's alternative to pure relaying: "a secondary sender ...
    create[s] a new channel for which it is the source and use[s] the SR
    to ask all other session participants to subscribe to the new
    channel." Returns the new direct channel.

    "This technique is primarily applicable when the new source is
    going to transmit for an extended period of time and when there is
    considerable delay benefit to using the direct channel over
    relaying."
    """
    speaker = net.source(speaker_host)
    direct = speaker.allocate_channel()
    # Announce through the (still authoritative) session relay.
    relay.emit("announce_channel", speaker_host, body=direct, size=CONTROL_SIZE)
    for participant in participants:
        if participant.name != speaker_host:
            net.host(participant.name).subscribe(direct)
    return direct
