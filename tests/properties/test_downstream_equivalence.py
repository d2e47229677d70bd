"""Property suite: ``ChannelState.downstream`` ≡ a plain ``dict``.

A state holds its lone downstream record in two slots and allocates a
dict only when a second neighbor appears; it never folds back. Every
reader goes through ``downstream`` (the hot paths of ``protocol.py`` and
``counting.py`` read the slots themselves, and the whole-network
equivalence suites hold those), so ``downstream`` must *be* a dict to
them, insertion order included: ``Verdicts.on_response`` tears down
the keyless records a refused replay stood on, and ``Counting.on_query``
fans out, in that order.

Each case drives a state and a dict through one seeded random sequence
of set / get / ``in`` / ``[]`` / pop / del / iterate / ``len`` over
three neighbor names, so it keeps crossing the 0 → 1 → 2 → 1 record
transitions, some through a view taken before the state spilled. After
every step the two agree on every answer, the key order, ``items`` and
``values``, and ``total()`` and the slot read of whether any record is
held (``lone_name`` / ``spill``, as the re-home pass reads it) equal
what the dict says. Building the spilled dict in the other order fails it.
"""

import random

import pytest

from repro.core.channel import Channel
from repro.core.ecmp.state import LOCAL, ChannelState, DownstreamRecord
from repro.inet.addr import parse_address

NAMES = (LOCAL, "r1", "r2")
STEPS = 400
MISSING = object()


def record(rng: random.Random) -> DownstreamRecord:
    return DownstreamRecord(count=rng.randrange(3), validated=rng.random() < 0.7)


def apply(mapping, op: str, name: str, new):
    """One operation; what it returned, or the exception type it raised."""
    try:
        if op == "set":
            mapping[name] = new
            return None
        if op == "get":
            return mapping.get(name)
        if op == "get_default":
            return mapping.get(name, MISSING)
        if op == "in":
            return name in mapping
        if op == "item":
            return mapping[name]
        if op == "pop":
            return mapping.pop(name)
        if op == "pop_default":
            return mapping.pop(name, MISSING)
        if op == "del":
            del mapping[name]
            return None
        if op == "iter":
            return list(mapping)
        if op == "reversed":
            return list(reversed(list(mapping)))
        return len(mapping)
    except KeyError:
        return KeyError


OPS = (
    "set", "set", "set", "get", "get_default", "in", "item",
    "pop", "pop_default", "del", "iter", "reversed", "len",
)


@pytest.mark.parametrize("case", range(8))
def test_downstream_behaves_as_a_dict(case):
    rng = random.Random(0xD0 + case)
    state = ChannelState(Channel.of(parse_address("10.0.0.1"), 1 + case))
    plain: dict = {}
    view = state.downstream  # taken before anything is held
    spilled = 0
    for _ in range(STEPS):
        op, name, new = rng.choice(OPS), rng.choice(NAMES), record(rng)
        mapping = view if rng.random() < 0.3 else state.downstream
        assert apply(mapping, op, name, new) == apply(plain, op, name, new)
        held = state.downstream
        assert list(held) == list(plain)
        assert list(held.items()) == list(plain.items())
        assert list(held.values()) == list(plain.values())
        assert held == plain and len(held) == len(plain)
        assert state.total() == sum(r.count for r in plain.values() if r.validated)
        assert state.total(validated_only=False) == sum(r.count for r in plain.values())
        assert (state.lone_name is not None or bool(state.spill)) == bool(plain)
        spilled += state.spill is not None
        if state.spill is None:
            assert len(plain) <= 1
            assert (state.lone_name is None) == (not plain)
        else:
            assert state.lone_name is None and state.lone_record is None
    assert spilled > 0


def test_a_state_spills_once_and_never_folds_back():
    state = ChannelState(Channel.of(parse_address("10.0.0.1"), 99))
    first, second = DownstreamRecord(count=1), DownstreamRecord(count=2)
    state.downstream["a"] = first
    assert state.spill is None and state.lone_record is first
    state.downstream["b"] = second
    assert list(state.spill) == ["a", "b"]
    assert state.downstream.pop("a") is first
    assert state.downstream.pop("b") is second
    assert state.spill == {} and state.lone_name is None
    state.downstream["c"] = first
    assert list(state.spill) == ["c"]
