"""Census of the module-level state a network run writes.

Two ``ExpressNetwork``s in one process share whatever their modules
keep at module level, so every such object is one more way for one
network (or one test) to change what another measures. This test
fingerprints every module-level object of ``repro.core.*``,
``repro.relay.*`` and ``repro.netsim.packet`` — a container by its
length, a slotted object by its slots, anything else (an
``itertools.count``, say) by its ``repr`` — before and after one seeded
run with keyless and keyed joins, data, a subscriber block, a
CountQuery and a session relay with one participant, and pins the set
that moved. The census runs in a fresh interpreter, so what earlier
tests interned cannot hide a table that grows.

What is left: the two channel intern tables, ``_OF_MEMO`` and
``_PAIR_MEMO``. Downstream records are plain objects on the state that
holds them, so ``STATE_BANK`` is an inert stand-in that no run writes.
A new entry — or a record bank, ``BLOCK_BANK``, the channel-id table or
the packet-id counter or a relay session counter coming back — fails
here until the set is changed on purpose.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import repro.core
import repro.netsim.packet
import repro.relay
from repro import ExpressNetwork, TopologyBuilder, make_key
from repro.relay import SessionParticipant, SessionRelay

GLOBALS = {"_OF_MEMO", "_PAIR_MEMO"}


def _slots(obj) -> list:
    return [
        name
        for cls in type(obj).__mro__
        for name in getattr(cls, "__slots__", ())
        if hasattr(obj, name)
    ]


def fingerprint(obj):
    """What a change to ``obj`` shows up in: a container's length, a
    slotted object's slots (each fingerprinted alike), else its
    ``repr``."""
    try:
        return ("len", len(obj))
    except TypeError:
        pass
    slots = _slots(obj)
    if slots:
        return ("slots", tuple((name, fingerprint(getattr(obj, name))) for name in slots))
    return ("repr", repr(obj))


def module_state() -> dict:
    """``{(module, name): fingerprint}`` over every module-level
    object."""
    modules = [repro.core, repro.relay, repro.netsim.packet]
    for package in (repro.core, repro.relay):
        for info in pkgutil.walk_packages(package.__path__, package.__name__ + "."):
            modules.append(importlib.import_module(info.name))
    state = {}
    for module in modules:
        for name, obj in vars(module).items():
            if not name.startswith("__"):
                state[module.__name__, name] = fingerprint(obj)
    return state


def seeded_run() -> None:
    net = ExpressNetwork(TopologyBuilder.isp(2, 2, 2, seed=11))
    net.run(until=0.1)
    source = net.source("h0_0_0")
    keyless, keyed = source.allocate_channel(), source.allocate_channel()
    key = make_key(keyed)
    source.channel_key(keyed, key)
    net.host("h1_0_0").subscribe(keyless)
    net.host("h1_1_1").subscribe(keyed, key=key)
    net.subscriber_block("e1_0").join(keyless, 500)
    net.settle()
    for channel in (keyless, keyed):
        source.send(channel)
    result = source.count_query(keyless, timeout=2.0)
    net.settle(3.0)
    assert result.count == 501
    relay = SessionRelay(net, "h0_1_1")
    listener = SessionParticipant(net, "h1_0_1", relay)
    net.settle()
    listener.speak("hello")
    net.settle()
    assert relay.relayed == 1


def census() -> list:
    """The names of the module-level objects one seeded run changed."""
    before = module_state()
    seeded_run()
    after = module_state()
    return sorted(
        {name for (module, name), mark in before.items() if after[module, name] != mark}
    )


def test_a_run_writes_only_the_pinned_module_state():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import json; from tests.test_global_state_census import census; "
            "print(json.dumps(census()))",
        ],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    assert set(json.loads(done.stdout)) == GLOBALS
