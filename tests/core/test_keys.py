"""Unit tests for channel keys and the router key cache."""

import pickle

import pytest

from repro.core.channel import Channel
from repro.core.keys import KEY_BYTES, ChannelKey, KeyCache, make_key
from repro.errors import AuthError
from repro.inet.addr import parse_address

CH = Channel.of(parse_address("10.0.0.1"), 1)
CH2 = Channel.of(parse_address("10.0.0.1"), 2)


class TestChannelKey:
    def test_key_is_8_bytes(self):
        assert len(make_key(CH).value) == KEY_BYTES == 8

    def test_wrong_length_rejected(self):
        with pytest.raises(AuthError):
            ChannelKey(b"short")

    def test_derivation_is_deterministic_per_channel(self):
        assert make_key(CH) == make_key(CH)
        assert make_key(CH) != make_key(CH2)

    def test_different_secrets_differ(self):
        assert ChannelKey.from_secret(CH, b"a") != ChannelKey.from_secret(CH, b"b")

    def test_a_key_is_slotted_frozen_and_pickles(self):
        """Every key decoded off the wire is one of these: no
        ``__dict__`` each, and still a frozen, hashable value."""
        key = make_key(CH)
        assert not hasattr(key, "__dict__")
        with pytest.raises(AttributeError):
            key.value = b"\x00" * KEY_BYTES
        copy = pickle.loads(pickle.dumps(key))
        assert copy == key and hash(copy) == hash(key) and copy is not key


class TestKeyCache:
    def test_unknown_channel_defers(self):
        cache = KeyCache()
        assert cache.validate(CH, make_key(CH)) is None
        assert not cache.knows(CH)

    def test_authoritative_validation(self):
        cache = KeyCache()
        key = make_key(CH)
        cache.install_authoritative(CH, key)
        assert cache.validate(CH, key) is True
        assert cache.validate(CH, make_key(CH2)) is False
        assert cache.validate(CH, None) is False

    def test_learned_keys_validate(self):
        cache = KeyCache()
        key = make_key(CH)
        cache.learn(CH, key)
        assert cache.knows(CH)
        assert cache.validate(CH, key) is True

    def test_get_prefers_authoritative(self):
        cache = KeyCache()
        auth_key = ChannelKey(b"A" * 8)
        cache.learn(CH, ChannelKey(b"B" * 8))
        cache.install_authoritative(CH, auth_key)
        assert cache.get(CH) == auth_key

    def test_forget(self):
        cache = KeyCache()
        cache.learn(CH, make_key(CH))
        cache.forget(CH)
        assert not cache.knows(CH)
        assert cache.get(CH) is None

    def test_accept_deny_counters(self):
        cache = KeyCache()
        cache.install_authoritative(CH, make_key(CH))
        cache.validate(CH, make_key(CH))
        cache.validate(CH, None)
        assert cache.local_accepts == 1
        assert cache.local_denies == 1

    def test_memory_accounting(self):
        cache = KeyCache()
        cache.install_authoritative(CH, make_key(CH))
        cache.learn(CH2, make_key(CH2))
        assert cache.memory_bytes() == 16
