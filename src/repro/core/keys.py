"""Channel keys and the router key cache.

"A source uses channelKey(channel, K(S,E)) to inform the network that
channel is authenticated. The network layer ensures that only hosts
presenting K(S,E) can subscribe" (§2.1). Routers validate subscriptions
against the key and cache valid keys "so that further authenticated
requests can be denied or accepted locally" (§3.2). Key *distribution*
to subscribers is out of band, exactly as in the paper.

Keys are 8 bytes on the wire (the §5.2 state model adds "another eight
bytes to store K(S,E)"). We derive them from a secret via HMAC-SHA256
truncated to 64 bits; the scheme's strength is not the point — the
protocol behaviour (validate, cache, deny) is.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Optional

from repro.core.channel import Channel
from repro.errors import AuthError

#: Wire size of a channel key, per the §5.2 state accounting.
KEY_BYTES = 8


@dataclass(frozen=True, slots=True)
class ChannelKey:
    """An 8-byte channel authenticator K(S,E). Slotted: a key decoded
    off the wire carries no ``__dict__``."""

    value: bytes

    def __post_init__(self) -> None:
        if len(self.value) != KEY_BYTES:
            raise AuthError(f"channel key must be {KEY_BYTES} bytes")

    @classmethod
    def from_secret(cls, channel: Channel, secret: bytes) -> "ChannelKey":
        """Derive K(S,E) for ``channel`` from the source's ``secret``."""
        material = f"{channel.source}:{channel.group}".encode()
        digest = hmac.new(secret, material, hashlib.sha256).digest()
        return cls(digest[:KEY_BYTES])

    def __str__(self) -> str:
        return self.value.hex()


def make_key(channel: Channel, secret: bytes = b"express-demo-secret") -> ChannelKey:
    """Convenience wrapper around :meth:`ChannelKey.from_secret`."""
    return ChannelKey.from_secret(channel, secret)


class KeyCache:
    """A router's cache of validated channel keys.

    ``authoritative`` entries came from the source's ``channelKey``
    call (the router *knows* the key); ``learned`` entries were
    validated by an upstream router and cached on the way back down.
    Both allow local accept/deny of later subscriptions. Both dicts are
    keyed by the :class:`Channel` itself, a tuple hashed in C.
    """

    def __init__(self) -> None:
        self._authoritative: dict[Channel, ChannelKey] = {}
        self._learned: dict[Channel, ChannelKey] = {}
        self.local_accepts = 0
        self.local_denies = 0

    def install_authoritative(self, channel: Channel, key: ChannelKey) -> None:
        """Install the key as the channel's source announced it."""
        self._authoritative[channel] = key

    def learn(self, channel: Channel, key: ChannelKey) -> None:
        """Cache a key an upstream router has validated."""
        self._learned[channel] = key

    def knows(self, channel: Channel) -> bool:
        """True if this router can validate locally."""
        return channel in self._authoritative or channel in self._learned

    def get(self, channel: Channel) -> Optional[ChannelKey]:
        """The known key for ``channel``, if any."""
        return self._authoritative.get(channel) or self._learned.get(channel)

    def validate(self, channel: Channel, presented: Optional[ChannelKey]) -> Optional[bool]:
        """Locally validate ``presented`` for ``channel``.

        Returns True (accept), False (deny), or None when this router
        has no knowledge and must defer upstream.
        """
        expected = self._authoritative.get(channel) or self._learned.get(channel)
        if expected is None:
            return None
        ok = presented is not None and hmac.compare_digest(
            presented.value, expected.value
        )
        if ok:
            self.local_accepts += 1
        else:
            self.local_denies += 1
        return ok

    def forget(self, channel: Channel) -> None:
        self._authoritative.pop(channel, None)
        self._learned.pop(channel, None)

    def memory_bytes(self) -> int:
        """Key-cache footprint at the paper's 8 bytes per key."""
        return (len(self._authoritative) + len(self._learned)) * KEY_BYTES
