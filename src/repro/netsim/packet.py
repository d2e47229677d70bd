"""Packet model for the simulator.

A packet carries a stack of headers (dicts or dataclasses from
``repro.inet``/``repro.core``), an opaque payload, and explicit size
accounting so the benchmarks can report bandwidth in real bytes even
though headers travel as Python objects for convenience. Encapsulation
(IP-in-IP subcast, session-relay tunnelling) pushes a header and wraps
the inner packet as the payload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

_new = object.__new__

#: Bytes of one IPv4 header (no options): what ECMP, the baselines'
#: control packets and every IP-in-IP encapsulation add on the wire.
IP_HEADER_BYTES = 20


@dataclass(slots=True, init=False, eq=False)
class Packet:
    """A simulated datagram. Equality is identity: a fan-out copy is
    another packet, however alike the two are.

    Attributes
    ----------
    src, dst:
        IPv4 addresses as integers (see :mod:`repro.inet.addr`).
    proto:
        Protocol label, e.g. ``"udp"``, ``"ecmp"``, ``"igmp"``, ``"data"``,
        ``"ipip"``.
    payload:
        Opaque application payload; for encapsulated packets this is the
        inner :class:`Packet`.
    size:
        Wire size in bytes, including all headers. Copies share size
        unless changed explicitly.
    ttl:
        IPv4 time-to-live; decremented per hop, packet dies at zero.
    headers:
        Free-form per-layer metadata added by protocol agents.
    """

    src: int
    dst: int
    proto: str = "data"
    payload: Any = None
    size: int = 64
    ttl: int = 64
    headers: dict  # a fresh dict unless given
    created_at: float = 0.0

    def __init__(
        self,
        src: int,
        dst: int,
        proto: str = "data",
        payload: Any = None,
        size: int = 64,
        ttl: int = 64,
        headers: Optional[dict] = None,
        created_at: float = 0.0,
    ) -> None:
        # Written out: one packet is built per message per hop, and the
        # generated ``__init__`` calls the ``headers`` factory even when
        # the caller supplies the dict.
        self.src = src
        self.dst = dst
        self.proto = proto
        self.payload = payload
        self.size = size
        self.ttl = ttl
        self.headers = {} if headers is None else headers
        self.created_at = created_at

    def copy(self) -> "Packet":
        """Per-interface fanout copy: shares the payload, takes its own
        ``headers``. Written out slot by slot — it runs once per
        replicated packet per hop — with no ``__init__`` frame at all."""
        dup = _new(Packet)
        dup.src = self.src
        dup.dst = self.dst
        dup.proto = self.proto
        dup.payload = self.payload
        dup.size = self.size
        dup.ttl = self.ttl
        headers = self.headers
        dup.headers = dict(headers) if headers else {}
        dup.created_at = self.created_at
        return dup

    def encapsulate(self, outer_src: int, outer_dst: int, proto: str = "ipip") -> "Packet":
        """Wrap this packet in an outer IPv4 header (IP-in-IP style)."""
        return Packet(
            src=outer_src,
            dst=outer_dst,
            proto=proto,
            payload=self,
            size=self.size + IP_HEADER_BYTES,
            ttl=64,
            created_at=self.created_at,
        )

    def decapsulate(self) -> "Packet":
        """Return the inner packet of an encapsulated one."""
        if not isinstance(self.payload, Packet):
            raise ValueError("packet is not encapsulated")
        return self.payload

    def is_encapsulated(self) -> bool:
        return isinstance(self.payload, Packet)
