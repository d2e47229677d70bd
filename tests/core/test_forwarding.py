"""Integration tests: the EXPRESS data plane (§3.4)."""

import gc
import tracemalloc

import pytest

from repro.core import channel as channel_module
from repro.core.channel import Channel, interned_channel
from repro.errors import ForwardingError
from repro.inet.addr import ssm_address
from repro.netsim.packet import Packet
from tests.conftest import make_channel


class TestExpressForwarding:
    def test_unauthorized_sender_traffic_dropped(self, isp_net):
        """§2: "Only the source host S may send to (S,E)." A third
        party's packets to the channel address never reach subscribers
        (the Super Bowl interference scenario of §1)."""
        net = isp_net
        src, ch = make_channel(net, "h0_0_0")
        got = []
        net.host("h1_0_0").subscribe(ch, on_data=got.append)
        net.settle()
        # Rogue host h2_0_0 sends to E with its own source address:
        # (S', E) has no FIB entry anywhere -> counted and dropped.
        rogue = net.forwarders["h2_0_0"]
        packet = Packet(src=net.host("h2_0_0").address, dst=ch.group, proto="data")
        rogue.node.send(packet, 0)
        net.settle()
        assert got == []
        drops = sum(fib.no_match_drops for fib in net.fibs.values())
        assert drops >= 1

    def test_spoofed_source_fails_rpf_check(self, isp_net):
        """A rogue spoofing S's address from the wrong direction fails
        the incoming-interface check or matches no entry."""
        net = isp_net
        src, ch = make_channel(net, "h0_0_0")
        got = []
        net.host("h1_0_0").subscribe(ch, on_data=got.append)
        net.settle()
        spoofed = Packet(src=src.address, dst=ch.group, proto="data")
        net.forwarders["h2_1_1"].node.send(spoofed, 0)
        net.settle()
        assert got == []

    def test_source_cannot_send_off_channel(self, isp_net):
        net = isp_net
        src, ch = make_channel(net, "h0_0_0")
        other = net.source("h1_0_0").allocate_channel()
        with pytest.raises(Exception):
            src.send(other)

    def test_emit_on_channel_without_subscribers_counted(self, line_net):
        """Data sent to a subscriber-less channel dies at the source's
        FIB — counted, never flooded."""
        net = line_net
        src, ch = make_channel(net, "hsrc")
        assert src.send(ch) == 0
        assert net.fibs["hsrc"].no_match_drops == 1

    def test_forwarding_uses_fib_only(self, isp_net):
        """Every multicast hop consults the FIB — the "no fast-path
        change" property."""
        net = isp_net
        src, ch = make_channel(net, "h0_0_0")
        net.host("h1_0_0").subscribe(ch)
        net.settle()
        lookups_before = sum(fib.lookups for fib in net.fibs.values())
        src.send(ch)
        net.settle()
        lookups_after = sum(fib.lookups for fib in net.fibs.values())
        # One lookup per router on the path (the source consults its
        # entry directly; the destination host terminates the channel).
        routers = len(net.routing.path("h0_0_0", "h1_0_0")) - 2
        assert lookups_after - lookups_before == routers

    def test_ttl_decrements_along_path(self, isp_net):
        net = isp_net
        src, ch = make_channel(net, "h0_0_0")
        got = []
        net.host("h1_0_0").subscribe(ch, on_data=got.append)
        net.settle()
        src.send(ch)
        net.settle()
        hops = len(net.routing.path("h0_0_0", "h1_0_0")) - 1
        assert got[0].ttl == 64 - hops

    def test_fanout_duplicates_only_at_branch_points(self, star_net):
        """The defining multicast property: one packet in, one copy per
        downstream branch out."""
        net = star_net
        src, ch = make_channel(net, "leaf0")
        for i in (1, 2, 3, 4):
            net.host(f"leaf{i}").subscribe(ch)
        net.settle()
        assert src.send(ch) == 1  # source emits exactly one copy
        net.settle()
        assert net.delivery_count(ch) == 4
        # The hub forwarded 4 copies.
        assert net.forwarders["hub"].stats.get("multicast_forwarded") == 4

    def test_conventional_class_d_not_forwarded(self, line_net):
        net = line_net
        packet = Packet(src=net.host("hsrc").address, dst=0xE0000001, proto="data")
        net.topo.node("hsrc").send(packet, 0)
        net.settle()
        assert net.forwarders["n0"].stats.get("non_express_multicast_drops") == 1


class TestFanOutAliasing:
    """The zero-copy fan-out path: the final interface of a fan-out
    sends the original packet with its TTL decremented in place, but
    *only* when the packet was not also delivered to a local subscriber
    (whose ``on_data`` may retain the object)."""

    def test_pure_transit_relays_the_same_object(self, line_net):
        net = line_net
        src, ch = make_channel(net, "hsrc")
        got = []
        net.host("hsub").subscribe(ch, on_data=got.append)
        net.settle()
        packet = Packet(
            src=src.address, dst=ch.group, proto="data", created_at=net.sim.now
        )
        net.forwarders["hsrc"].emit_local(packet)
        net.settle()
        assert len(got) == 1
        # Every hop (hsrc emit, n0, n1) is a degree-1 relay with no
        # local subscriber, so no copy is ever taken: the delivered
        # object IS the emitted one.
        assert got[0] is packet
        assert got[0].ttl == 64 - 3
        inplace = sum(
            net.forwarders[n].stats.get("fanout_inplace") for n in ("hsrc", "n0", "n1")
        )
        assert inplace == 3

    def test_locally_delivered_packet_not_mutated_by_the_relay(self, line_net):
        """A subscribed *router* both delivers locally and relays
        downstream. The retained object's TTL must stay frozen at its
        delivery-time value — the relay leg gets a copy."""
        net = line_net
        src, ch = make_channel(net, "hsrc")
        retained = []
        ttl_at_delivery = []

        def keep(p):
            retained.append(p)
            ttl_at_delivery.append(p.ttl)

        net.host("n1").subscribe(ch, on_data=keep)
        end_got = []
        net.host("hsub").subscribe(ch, on_data=end_got.append)
        net.settle()
        src.send(ch)
        net.settle()
        assert len(retained) == 1 and len(end_got) == 1
        assert retained[0].ttl == ttl_at_delivery[0]
        # The downstream leg travelled as a distinct object, one hop
        # further along.
        assert end_got[0].uid != retained[0].uid
        assert end_got[0].ttl == retained[0].ttl - 1

    def test_branch_point_subscribers_get_distinct_objects(self, star_net):
        net = star_net
        src, ch = make_channel(net, "leaf0")
        got = {}
        for i in (1, 2):
            net.host(f"leaf{i}").subscribe(ch, on_data=lambda p, i=i: got.setdefault(i, p))
        net.settle()
        src.send(ch)
        net.settle()
        assert set(got) == {1, 2}
        assert got[1].uid != got[2].uid
        assert got[1].payload == got[2].payload
        assert got[1].ttl == got[2].ttl


class TestNoMatchFlood:
    """The data plane probes the channel intern table, it never writes
    to it: local delivery runs *before* the FIB says whether the
    channel exists, so a writing lookup there keeps one ``Channel`` per
    spoofed (S, E) pair for the life of the process (≈ 390 B each;
    this flood left 7.7 MB behind before the lookup was a probe)."""

    FLOOD = 20_000

    @staticmethod
    def flood(net, first, count):
        """``count`` packets with distinct spoofed (S, E) from host
        ``hsub`` into its edge router ``n1``."""
        rogue = net.topo.node("hsub")
        for k in range(first, first + count):
            rogue.send(
                Packet(src=0x0B000000 + k, dst=ssm_address(1 + k % 1000), proto="data"),
                0,
            )
        net.settle()

    def test_spoofed_pairs_are_counted_and_leave_nothing_behind(self, line_net):
        net = line_net
        fib = net.fibs["n1"]
        self.flood(net, 0, 200)  # warm the calendar and the counters
        pairs = len(channel_module._PAIR_MEMO), len(channel_module._OF_MEMO)
        drops = fib.no_match_drops
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            self.flood(net, 200, self.FLOOD)
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fib.no_match_drops - drops == self.FLOOD
        assert (len(channel_module._PAIR_MEMO), len(channel_module._OF_MEMO)) == pairs
        assert after - before < 64 * 1024

    def test_hand_built_channel_still_receives(self, line_net):
        """Channels are interned where their state is created, so one
        that never went through ``Channel.of`` is still found."""
        net = line_net
        src = net.source("hsrc")
        pair = (src.address, ssm_address(0xABCDE))
        assert interned_channel(pair) is None
        channel = Channel(source=pair[0], group=pair[1])
        got = []
        net.host("hsub").subscribe(channel, on_data=got.append)
        net.settle()
        assert interned_channel(pair) == channel
        src.send(channel)
        net.settle()
        assert len(got) == 1


class TestUnicastForwarding:
    def test_host_to_host_unicast(self, isp_net):
        net = isp_net
        got = []
        net.forwarders["h2_1_1"].on_unicast_delivery(got.append)
        packet = Packet(
            src=net.host("h0_0_0").address,
            dst=net.host("h2_1_1").address,
            proto="data",
            payload="ping",
        )
        net.forwarders["h0_0_0"].emit_unicast(packet)
        net.settle()
        assert len(got) == 1 and got[0].payload == "ping"

    def test_unicast_to_unknown_address_dropped(self, line_net):
        net = line_net
        packet = Packet(src=net.host("hsrc").address, dst=0x01020304, proto="data")
        assert not net.forwarders["hsrc"].emit_unicast(packet)

    def test_self_addressed_unicast_delivered_locally(self, line_net):
        net = line_net
        got = []
        net.forwarders["hsrc"].on_unicast_delivery(got.append)
        packet = Packet(
            src=net.host("hsrc").address, dst=net.host("hsrc").address, proto="data"
        )
        assert net.forwarders["hsrc"].emit_unicast(packet)
        assert len(got) == 1

    def test_emit_local_guards(self, line_net):
        net = line_net
        src, ch = make_channel(net, "hsrc")
        fwd = net.forwarders["hsub"]
        with pytest.raises(ForwardingError):
            fwd.emit_local(Packet(src=src.address, dst=ch.group, proto="data"))
        with pytest.raises(ForwardingError):
            net.forwarders["hsrc"].emit_local(
                Packet(src=src.address, dst=net.host("hsub").address, proto="data")
            )
