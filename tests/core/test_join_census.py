"""A host-independent pin on what a join wave costs on the wire.

In the re-home census's fixed ISP network (``tests/conftest.py::
census_isp``), every host but the source joins one channel in one
instant, keyless; then every one of them leaves; then every one joins a
keyed channel presenting the key, one of them a forged one; then, on an
open channel, the forger presents its key while every other host joins
keyless in the same instant. For each wave, the ECMP traffic it causes
until the network is at rest again: subscriber Counts, CountResponses by
status and by whether they carry a request id, wire frames and wire
bytes.

A verdict goes only where someone waits on it (§3.1 lets a router
"either acknowledge or reject a Count message"): a keyless join from a
host is active when ``subscribe`` returns, tables nothing at any hop and
travels under id 0, so the keyless waves put no CountResponse on the
wire. A keyed join is waited on, so the keyed wave keeps an OK under an
id at every hop its join was forwarded over, and the forged key one
denial per hop it climbed. On the open channel the source grants the
forged key OPEN, which no router learns: the keyless joins that waited
on it are admitted with it, and nobody is refused. The counts repeat
exactly; a keyless join tabled and answered again — at the host, or at
its edge — fails the pin. The report line shows the numbers per run.
"""

from collections import Counter

from repro import make_key
from repro.core.ecmp.countids import SUBSCRIBER_ID
from repro.core.ecmp.messages import Count, CountResponse
from repro.core.keys import ChannelKey
from tests.conftest import assert_control_plane_at_rest, census_isp

SOURCE = "h1_0_0"
FORGER = "h3_1_1"
FORGED = ChannelKey(b"\x00" * 8)

#: wave -> (Counts, OK under id 0, OK under an id, denials under id 0,
#: denials under an id, frames, wire bytes), as counted when the pin was
#: set. While every host's keyless join was still tabled at the host and
#: at each hop it climbed, and answered there, the keyless wave cost one
#: OK under an id per Count: 27, and 54 frames and 1,836 B where it now
#: takes 27 and 972. The leave and keyed waves read the same then.
CENSUS = {
    "keyless": (27, 0, 0, 0, 0, 27, 972),
    "leave": (27, 0, 0, 0, 0, 27, 972),
    "keyed": (28, 0, 26, 0, 2, 56, 2128),
    "open": (32, 0, 0, 0, 0, 38, 1392),
}
#: wave -> OPEN answers under an id (none is sent under id 0).
OPEN_ANSWERS = {"keyless": 0, "leave": 0, "keyed": 0, "open": 6}


def census() -> dict[str, tuple[int, ...]]:
    net = census_isp()
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

    for agent in agents:
        agent._send_message = recording(agent)
    source = net.source(SOURCE)
    hosts = sorted(net.host_names - {SOURCE})
    keyless, keyed, open_ = (source.allocate_channel() for _ in range(3))
    key = make_key(keyed)
    source.channel_key(keyed, key)

    def keyless_wave():
        handles = [net.host(name).subscribe(keyless) for name in hosts]
        assert all(handle.status == "active" for handle in handles)
        return handles

    def leave_wave():
        assert all(net.host(name).unsubscribe(keyless) for name in hosts)

    def keyed_wave():
        return [
            net.host(name).subscribe(keyed, key=FORGED if name == FORGER else key)
            for name in hosts
        ]

    def open_wave():
        return [
            net.host(name).subscribe(open_, key=FORGED if name == FORGER else None)
            for name in hosts
        ]

    counted = {}
    opened = {}
    outcomes = {}
    waves = (
        ("keyless", keyless_wave), ("leave", leave_wave), ("keyed", keyed_wave),
        ("open", open_wave),
    )
    for wave, run in waves:
        sent.clear()
        frames = sum(agent.stats.get("wire_sends") for agent in agents)
        wire = sum(agent.stats.get("bytes_on_wire") for agent in agents)
        outcomes[wave] = run()
        net.settle()
        assert_control_plane_at_rest(net)
        counted[wave] = (
            sent["count"],
            sent["OK", False],
            sent["OK", True],
            sent["INVALID_AUTHENTICATOR", False],
            sent["INVALID_AUTHENTICATOR", True],
            sum(agent.stats.get("wire_sends") for agent in agents) - frames,
            sum(agent.stats.get("bytes_on_wire") for agent in agents) - wire,
        )
        opened[wave] = sent["OPEN", True] + sent["OPEN", False]
        assert not sent["OPEN", False]
    assert all(handle.status == "active" for handle in outcomes["keyless"])
    assert not any(keyless in agent.channels for agent in agents)
    assert [handle.status for handle in outcomes["keyed"]] == [
        "denied" if name == FORGER else "active" for name in hosts
    ]
    source.send(keyed)
    net.settle()
    received = {name: handle.packets_received for name, handle in zip(hosts, outcomes["keyed"])}
    assert received == {name: int(name != FORGER) for name in hosts}
    assert all(handle.status == "active" for handle in outcomes["open"])
    assert not any(agent.keys.knows(open_) for agent in agents)
    source.send(open_)
    net.settle()
    assert all(handle.packets_received == 1 for handle in outcomes["open"])
    return counted, opened


def test_a_join_wave_costs_what_the_census_pins():
    counted, opened = census()
    names = "Counts / OK id0 / OK id / deny id0 / deny id / frames / bytes / OPEN id"
    print(
        "\njoin census: "
        + "; ".join(
            f"{wave} {' / '.join(map(str, (*counted[wave], opened[wave])))}" for wave in counted
        )
        + f" ({names})"
    )
    assert counted == CENSUS
    assert opened == OPEN_ANSWERS
