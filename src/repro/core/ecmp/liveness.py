"""ECMP liveness (§3.3): the routers' neighbor keepalive tick and the
UDP-mode soft-state refresh tick.

:class:`Liveness` owns the two timers and what they read — when each
neighbor was last heard, the general-query fan-out set, the
:class:`~repro.core.ecmp.refresh.RefreshRing` of record deadlines — and
tells the protocol exactly two things: a neighbor failed, a record
expired.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.channel import Channel
from repro.core.ecmp.countids import ALL_CHANNELS_ID, NEIGHBORS_ID
from repro.core.ecmp.messages import CountQuery
from repro.core.ecmp.refresh import RefreshRing
from repro.core.ecmp.session import NeighborMode
from repro.core.ecmp.state import is_pseudo_neighbor
from repro.inet.addr import parse_address
from repro.netsim.engine import PeriodicTask
from repro.obs.hooks import span

#: "All multicast ECMP datagrams are sent to a well-known ECMP address"
#: with "a well-known localhost value as the source" (§3.3 + footnote 5).
DISCOVERY_CHANNEL = Channel.of(parse_address("127.0.0.1"), 255)  # 232.0.0.255


class Liveness:
    """The §3.3 timers of one agent and the state they maintain.

    ``agent`` is the owner, read for ``sim``, ``node``, ``role``,
    ``stats``, ``obs``, ``channels``, ``sessions`` and — at use, never
    copied: tests and the benchmark patch them after construction —
    ``UDP_QUERY_INTERVAL`` / ``UDP_ROBUSTNESS`` / ``KEEPALIVE_INTERVAL``
    / ``KEEPALIVE_MISSES``; probes and general queries leave through
    its ``_send_message``. ``neighbor_failed(name)``: a TCP-mode
    neighbor fell silent behind a dead link. ``record_expired(channel,
    name)``: a UDP-mode record outlived its lease unrefreshed.
    """

    __slots__ = (
        "_agent", "_neighbor_failed", "_record_expired", "last_heard",
        "udp_channels", "ring", "_tasks",
    )

    def __init__(
        self,
        agent,
        neighbor_failed: Callable[[str], None],
        record_expired: Callable[[Channel, str], None],
    ) -> None:
        self._agent = agent
        self._neighbor_failed = neighbor_failed
        self._record_expired = record_expired
        #: neighbor -> when a packet last arrived from it; the agent's
        #: receive path writes it, per packet, with no call in between.
        self.last_heard: dict[str, float] = {}
        #: neighbor -> {channel: None}: channels with a live UDP-mode
        #: record from that *real* neighbor — the general-query fan-out
        #: set, maintained incrementally so the refresh tick never
        #: rebuilds it by scanning every record.
        self.udp_channels: dict[str, dict[Channel, None]] = {}
        #: Due-deadline ring over (channel, neighbor) UDP records;
        #: router-role only (hosts run no refresh tick).
        self.ring: Optional[RefreshRing] = None
        self._tasks: list[PeriodicTask] = []
        self.reset()

    def start(self) -> None:
        """Arm the timers, both on routers only: "Each router
        periodically multicasts such a [neighbors] CountQuery" (§3.3),
        and a host answers the probes but sends none."""
        agent = self._agent
        if agent.role != "router":
            return
        ring = self.ring
        if ring.granularity != agent.UDP_QUERY_INTERVAL:
            # The refresh interval was overridden after construction
            # (tests and benches patch it per instance): re-bucket so
            # the ring's windows match the tick cadence.
            ring.rebuild(agent.UDP_QUERY_INTERVAL, self._deadline)
        for interval, fire, event in (
            (agent.UDP_QUERY_INTERVAL, self._refresh_event, "ecmp-udpq"),
            (agent.KEEPALIVE_INTERVAL, self._keepalive_event, "ecmp-ka"),
        ):
            task = PeriodicTask(agent.sim, interval, fire, name=event)
            task.start()
            self._tasks.append(task)

    def _refresh_event(self) -> None:
        agent = self._agent
        with span(agent.obs, "ecmp.udp_refresh_tick", node=agent.node.name):
            self.refresh_tick()

    def _keepalive_event(self) -> None:
        agent = self._agent
        with span(agent.obs, "ecmp.keepalive_tick", node=agent.node.name):
            self.keepalive_tick()

    def stop(self) -> None:
        for task in self._tasks:
            task.stop()
        self._tasks.clear()

    def reset(self) -> None:
        """Crash semantics: stop the timers and forget every neighbor
        heard and every record tracked."""
        self.stop()
        self.last_heard.clear()
        self.udp_channels.clear()
        agent = self._agent
        if agent.role == "router":
            self.ring = RefreshRing(agent.UDP_QUERY_INTERVAL)

    def track(self, channel: Channel, name: str, record) -> None:
        """Sync the general-query fan-out set and the refresh ring with
        one just-written record's udp flag. Pseudo-neighbors (blocks)
        join the ring — unrefreshed blocks age out like any UDP
        neighbor — but never the query fan-out set."""
        if record.udp:
            if not is_pseudo_neighbor(name):
                self.udp_channels.setdefault(name, {})[channel] = None
            ring = self.ring
            if ring is not None:
                ring.add(
                    (channel, name),
                    record.updated_at
                    + self._agent.UDP_ROBUSTNESS * self._agent.UDP_QUERY_INTERVAL,
                )
        else:
            self.untrack(channel, name)

    def untrack(self, channel: Channel, name: str) -> None:
        """Drop a deleted (or no-longer-UDP) record from the refresh
        structures; called at every downstream-record removal site."""
        channels = self.udp_channels.get(name)
        if channels is not None:
            channels.pop(channel, None)
            if not channels:
                del self.udp_channels[name]
        ring = self.ring
        if ring is not None:
            ring.discard((channel, name))

    def _deadline(self, key: tuple[Channel, str]) -> float:
        """The live lease expiry for a ring entry (ring rebuilds)."""
        channel, name = key
        agent = self._agent
        state = agent.channels.get(channel)
        record = state.downstream.get(name) if state is not None else None
        updated_at = record.updated_at if record is not None else agent.sim.now
        return updated_at + agent.UDP_ROBUSTNESS * agent.UDP_QUERY_INTERVAL

    def keepalive_tick(self) -> None:
        """Periodic neighbor probe: "Each router periodically multicasts
        such a [neighbors] CountQuery" (§3.3); for TCP neighbors this
        doubles as the per-connection keepalive, and like TCP's
        (RFC 1122 §4.2.3.6) it goes only to a neighbor that has been
        silent for a whole interval. Whatever the receive path heard —
        traffic, a probe, a reply — within the interval skips the
        probe, so an idle session's two ends hear each other at least
        every two intervals, inside the ``KEEPALIVE_MISSES`` horizon."""
        agent = self._agent
        now = agent.sim.now
        recent = now - agent.KEEPALIVE_INTERVAL
        last_heard = self.last_heard
        probe = CountQuery(
            channel=DISCOVERY_CHANNEL,
            count_id=NEIGHBORS_ID,
            timeout=agent.KEEPALIVE_INTERVAL,
        )
        for iface in agent.node.interfaces:
            peer = iface.peer
            if peer is None or not iface.up:
                continue
            heard = last_heard.get(peer.name)
            if heard is not None and heard > recent:
                continue
            agent.stats["keepalives_tx"] += 1
            agent._send_message(probe, peer.name)
        # Detect silent TCP-neighbor deaths.
        horizon = now - agent.KEEPALIVE_MISSES * agent.KEEPALIVE_INTERVAL
        for name, last in list(last_heard.items()):
            known = agent.sessions.neighbor(name)
            if last < horizon and known is not None and known.mode is NeighborMode.TCP:
                if known.iface.up:
                    continue  # link is up; silence is fine (no traffic)
                del last_heard[name]
                self._neighbor_failed(name)

    def refresh_tick(self) -> None:
        """Periodic general query toward UDP-mode downstream neighbors,
        plus expiry of unrefreshed UDP (soft) state.

        Coalesced refresh: one sampled general query per UDP-mode
        neighbor (from the incrementally maintained fan-out index), then
        expiry of only the ring entries whose deadline bucket has passed
        — O(neighbors + due) per tick instead of O(total records)."""
        agent = self._agent
        if self.udp_channels:
            general = CountQuery(
                channel=DISCOVERY_CHANNEL,
                count_id=ALL_CHANNELS_ID,
                timeout=agent.UDP_QUERY_INTERVAL,
            )
            for name in sorted(self.udp_channels):
                agent._send_message(general, name)
        ring = self.ring
        if ring is None:
            return
        now = agent.sim.now
        lease = agent.UDP_ROBUSTNESS * agent.UDP_QUERY_INTERVAL
        horizon = now - lease
        examined = 0
        expired: list[tuple[Channel, str]] = []
        for key in ring.due(now):
            examined += 1
            channel, name = key
            state = agent.channels.get(channel)
            record = state.downstream.get(name) if state is not None else None
            if record is None or not record.udp:
                ring.discard(key)  # record left through another path
            elif record.updated_at < horizon:
                ring.discard(key)
                expired.append(key)
            else:
                # Refreshed since it was bucketed (lazy deadline): move
                # it to the bucket of its current lease expiry.
                ring.reschedule(key, record.updated_at + lease)
        if examined:
            agent.stats["refresh_records_examined"] += examined
        for channel, name in expired:
            self._record_expired(channel, name)
