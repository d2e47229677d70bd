"""A host-independent pin on what recovery costs on the wire.

Link flaps (transit ring, chord, a stub's only uplink) and router
crash/restarts (transit routers, among them the source's and the
ring-and-chord hub, and a stub), each in the same settled keyless ISP
network at a fixed seed, and for each the ECMP traffic it causes until
the network is at rest again: subscriber
Counts, CountResponses by status and by whether they carry a request id,
the recovery's wire frames and wire bytes, and, in a column of their
own, the keepalive probes and replies sent meanwhile (each a frame of
its own; a frame mixing the two fails the census). A re-home or reconnect replays its joins
under id 0 (§3.2), and nobody waits on those: they are answered only
when refused (§3.1 lets a router "either acknowledge or reject"), so an
OK under id 0 is never sent. The counts repeat exactly; one more verdict
per replay, or a replay tabled again and answered under an id, fails the
pin. The report line shows the numbers per run.
"""

from collections import Counter

import pytest

from repro.core.ecmp.countids import NEIGHBORS_ID, SUBSCRIBER_ID
from repro.core.ecmp.messages import (
    Count,
    CountQuery,
    CountResponse,
    EcmpBatch,
    decode_message,
)
from repro.core.ecmp.protocol import EcmpAgent
from repro.faults import FaultInjector, FaultMonitor, FaultPlan
from tests.conftest import assert_control_plane_at_rest, settled_keyless_isp

#: Past the re-homing hysteresis twice and a keepalive round: the flap's
#: hold-back to the old parent has played out.
SETTLE = 2 * EcmpAgent.HYSTERESIS + EcmpAgent.KEEPALIVE_INTERVAL

#: fault -> (a, b) for a flap of the a-b link, (a,) for a crash/restart
#: of router a; each lasts half a second.
FAULTS = {
    "flap": ("t0", "t1"),
    "chord_flap": ("t0", "t2"),
    "uplink_flap": ("t1", "e1_0"),
    "crash": ("t2",),
    "hub_crash": ("t0",),
    "source_transit_crash": ("t1",),
    "stub_crash": ("e0_0",),
}

#: (Counts, OK under id 0, OK under an id, denials under id 0, denials
#: under an id, recovery frames, recovery wire bytes, keepalive frames)
#: per fault, as counted when the pin was set. Answering every replay,
#: and tabling it at a new parent that forwards it, cost the flap 10 OKs
#: under id 0 and 10 under an id (13 more frames, 520 B), the chord flap
#: 6 and 3 (3, 180 B), the uplink flap 5 and 3 (5, 208 B), the crash 3
#: and 3 (4 frames, 160 B), the hub crash 21 and 21 (21, 972 B), the
#: source transit's crash 6 and 7 (9, 348 B), and the stub crash 7 and 6
#: (5, 272 B). Probing every neighbor every interval, silent or not, and
#: from hosts too, cost 116 keepalive frames (4,176 B) in every case.
CENSUS = {
    "flap": (35, 0, 0, 0, 0, 14, 876, 28),
    "chord_flap": (15, 0, 0, 0, 0, 5, 360, 32),
    "uplink_flap": (11, 0, 0, 0, 0, 6, 308, 34),
    "crash": (9, 0, 0, 0, 0, 6, 276, 30),
    "hub_crash": (67, 0, 0, 0, 0, 24, 1624, 30),
    "source_transit_crash": (20, 0, 0, 0, 0, 11, 560, 32),
    "stub_crash": (19, 0, 0, 0, 0, 6, 448, 34),
}


def is_keepalive(message) -> bool:
    """A neighbors probe or its reply (§3.3)."""
    return type(message) in (Count, CountQuery) and message.count_id == NEIGHBORS_ID


def plan_for(fault: str, at: float) -> FaultPlan:
    nodes = FAULTS[fault]
    if len(nodes) == 2:
        return FaultPlan().partition(at, *nodes).heal(at + 0.5, *nodes)
    return FaultPlan().crash_restart(at, nodes[0], downtime=0.5)


def census(fault: str) -> tuple[int, ...]:
    net, _ = settled_keyless_isp()
    agents = net.ecmp_agents.values()
    sent = Counter()

    def recording(agent):
        send = agent._send_message

        def send_and_count(message, neighbor, *args, **kwargs):
            if type(message) is CountResponse:
                sent[message.status.name, message.request_id != 0] += 1
            elif type(message) is Count and message.count_id == SUBSCRIBER_ID:
                sent["count"] += 1
            send(message, neighbor, *args, **kwargs)

        return send_and_count

    def framing(node):
        send = node.send

        def send_and_sort(packet, ifindex):
            if type(packet.payload) is bytes:
                message = decode_message(packet.payload)
                records = message.messages if type(message) is EcmpBatch else (message,)
                keepalives = sum(map(is_keepalive, records))
                assert keepalives in (0, len(records)), "a keepalive shared a frame"
                kind = "keepalive" if keepalives else "recovery"
                sent[kind, "frames"] += 1
                sent[kind, "bytes"] += packet.size
            return send(packet, ifindex)

        return send_and_sort

    for agent in agents:
        agent._send_message = recording(agent)
        agent.node.send = framing(agent.node)
    monitor = FaultMonitor(net)
    injector = FaultInjector(net, plan_for(fault, net.sim.now + 0.5), monitor=monitor)
    injector.arm()
    net.settle(SETTLE)
    assert len(injector.fired) == 2
    assert monitor.orphaned_state() == 0
    assert_control_plane_at_rest(net)
    return (
        sent["count"],
        sent["OK", False],
        sent["OK", True],
        sent["INVALID_AUTHENTICATOR", False],
        sent["INVALID_AUTHENTICATOR", True],
        sent["recovery", "frames"],
        sent["recovery", "bytes"],
        sent["keepalive", "frames"],
    )


@pytest.mark.parametrize("fault", sorted(CENSUS))
def test_a_recovery_costs_what_the_census_pins(fault):
    counted = census(fault)
    names = "Counts / OK id0 / OK id / deny id0 / deny id / frames / bytes / keepalives"
    print(
        f"\nrehome census ({fault}): {' / '.join(map(str, counted))} "
        f"({names}; pinned {' / '.join(map(str, CENSUS[fault]))})"
    )
    assert counted == CENSUS[fault]
