"""Integration tests: authenticated subscriptions (§2.1, §3.2, §3.5).

"The network layer ensures that only hosts presenting K(S,E) can
subscribe. ... A router receiving an authenticated subscription passes
K(S,E) upstream for validation. The subscription is eventually
validated or denied by a CountResponse from the upstream router, and a
valid key is cached so that further authenticated requests can be
denied or accepted locally."
"""

import pytest

from repro import Channel, make_key
from repro.core.keys import ChannelKey
from repro.errors import ChannelError
from tests.conftest import assert_control_plane_at_rest, make_channel


def keyed_channel(net, source_host):
    src, ch = make_channel(net, source_host)
    key = make_key(ch)
    src.channel_key(ch, key)
    return src, ch, key


class TestKeyedSubscription:
    def test_correct_key_subscribes_and_receives(self, isp_net):
        net = isp_net
        src, ch, key = keyed_channel(net, "h0_0_0")
        got = []
        handle = net.host("h1_0_0").subscribe(ch, key=key, on_data=got.append)
        assert handle.status == "pending"
        net.settle()
        assert handle.status == "active"
        src.send(ch)
        net.settle()
        assert len(got) == 1

    def test_wrong_key_denied_and_no_residual_state(self, isp_net):
        net = isp_net
        src, ch, key = keyed_channel(net, "h0_0_0")
        wrong = ChannelKey(b"badbadba")
        statuses = []
        handle = net.host("h1_0_0").subscribe(
            ch, key=wrong, on_status=lambda h: statuses.append(h.status)
        )
        net.settle()
        assert handle.status == "denied"
        assert "denied" in statuses
        # No residual tree or FIB state anywhere.
        assert net.nodes_on_tree(ch) == set()
        assert net.fib_entries_total() == 0

    def test_wrong_key_never_receives_data(self, isp_net):
        net = isp_net
        src, ch, key = keyed_channel(net, "h0_0_0")
        got = []
        net.host("h1_0_0").subscribe(ch, key=ChannelKey(b"badbadba"), on_data=got.append)
        net.settle()
        src.send(ch)
        net.settle()
        assert got == []

    def test_missing_key_denied(self, isp_net):
        """§2.1: "If a newSubscription fails due to a missing or
        improper key, the call returns a failure indication"."""
        net = isp_net
        src, ch, key = keyed_channel(net, "h0_0_0")
        handle = net.host("h1_0_0").subscribe(ch)  # no key
        net.settle()
        assert handle.status == "denied"
        assert net.fib_entries_total() == 0

    def test_key_cached_on_path_after_first_validation(self, isp_net):
        net = isp_net
        src, ch, key = keyed_channel(net, "h0_0_0")
        net.host("h1_0_0").subscribe(ch, key=key)
        net.settle()
        for hop in net.routing.path("h1_0_0", "h0_0_0")[1:-1]:
            assert net.ecmp_agents[hop].keys.knows(ch)

    def test_cached_key_denies_locally(self, isp_net):
        """After caching, a bad second subscriber is refused at its
        first on-tree router without bothering the source."""
        net = isp_net
        src, ch, key = keyed_channel(net, "h0_0_0")
        net.host("h1_0_0").subscribe(ch, key=key)
        net.settle()
        src_denies_before = net.ecmp_agents["h0_0_0"].stats.get("denied_subscriptions")
        # h1_0_1 shares the edge router e1_0 with h1_0_0.
        handle = net.host("h1_0_1").subscribe(ch, key=ChannelKey(b"badbadba"))
        net.settle()
        assert handle.status == "denied"
        assert (
            net.ecmp_agents["h0_0_0"].stats.get("denied_subscriptions")
            == src_denies_before
        )
        assert net.ecmp_agents["e1_0"].keys.local_denies >= 1

    def test_cached_key_accepts_locally(self, isp_net):
        net = isp_net
        src, ch, key = keyed_channel(net, "h0_0_0")
        net.host("h1_0_0").subscribe(ch, key=key)
        net.settle()
        handle = net.host("h1_0_1").subscribe(ch, key=key)
        net.settle()
        assert handle.status == "active"
        assert net.ecmp_agents["e1_0"].keys.local_accepts >= 1

    def test_good_and_bad_subscribers_coexist(self, isp_net):
        net = isp_net
        src, ch, key = keyed_channel(net, "h0_0_0")
        good = net.host("h1_0_0").subscribe(ch, key=key)
        bad = net.host("h2_0_0").subscribe(ch, key=ChannelKey(b"badbadba"))
        net.settle()
        assert good.status == "active"
        assert bad.status == "denied"
        got = []
        good.on_data = got.append
        src.send(ch)
        net.settle()
        assert len(got) == 1
        assert_control_plane_at_rest(net)

    def test_channel_key_requires_source(self, isp_net):
        net = isp_net
        src, ch = make_channel(net, "h0_0_0")
        with pytest.raises(ChannelError):
            net.source("h1_0_0").channel_key(ch, make_key(ch))

    def test_open_channel_ignores_presented_key(self, isp_net):
        """Keys presented to an unauthenticated channel don't block the
        subscription (the source accepts; §2.1 keys are optional)."""
        net = isp_net
        src, ch = make_channel(net, "h0_0_0")
        handle = net.host("h1_0_0").subscribe(ch, key=ChannelKey(b"whatever"))
        net.settle()
        assert handle.status == "active"

    def test_unreachable_source_denied(self, isp_net):
        net = isp_net
        bogus = Channel.of(0x0BADBEEF, 1)  # no such node
        handle = net.host("h1_0_0").subscribe(bogus)
        net.settle()
        assert handle.status == "denied"
