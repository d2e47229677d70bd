"""Tests for the ExpressNetwork facade and the ECMP state accounting."""

import pytest

from repro import CountPropagation, ExpressNetwork, TopologyBuilder
from repro.core.ecmp.state import (
    LOCAL,
    ChannelState,
    DownstreamRecord,
    management_state_bytes,
)
from repro.core.channel import Channel
from repro.errors import TopologyError
from tests.conftest import make_channel


class TestFacade:
    def test_auto_host_detection(self):
        topo = TopologyBuilder.isp(n_transit=2, stubs_per_transit=1, hosts_per_stub=2)
        net = ExpressNetwork(topo)
        assert net.host_names == {"h0_0_0", "h0_0_1", "h1_0_0", "h1_0_1"}

    def test_explicit_hosts_validated(self):
        topo = TopologyBuilder.star(2)
        with pytest.raises(TopologyError):
            ExpressNetwork(topo, hosts=["nope"])

    def test_source_handle_is_cached_and_upgrades_host_handle(self, line_net):
        net = line_net
        host_handle = net.host("hsrc")
        source_handle = net.source("hsrc")
        assert net.source("hsrc") is source_handle
        # Allocator state must persist across lookups.
        ch = source_handle.allocate_channel()
        assert ch in net.source("hsrc").allocator

    def test_settle_advances_clock(self, line_net):
        before = line_net.sim.now
        line_net.settle(2.5)
        assert line_net.sim.now == pytest.approx(before + 2.5)

    def test_subscriber_hosts_listing(self, isp_net):
        net = isp_net
        src, ch = make_channel(net, "h0_0_0")
        net.host("h1_0_0").subscribe(ch)
        net.host("h2_0_0").subscribe(ch)
        net.settle()
        assert net.subscriber_hosts(ch) == ["h1_0_0", "h2_0_0"]

    def test_control_stats_aggregate(self, isp_net):
        net = isp_net
        src, ch = make_channel(net, "h0_0_0")
        net.host("h1_0_0").subscribe(ch)
        net.settle()
        totals = net.control_stats_total()
        assert totals.get("subscribe_events", 0) >= 1
        assert totals.get("bytes_tx", 0) > 0

    def test_nodes_on_tree_empty_for_unknown_channel(self, isp_net):
        ch = Channel.of(0x0A0A0A0A, 5)
        assert isp_net.nodes_on_tree(ch) == set()


class TestStateAccounting:
    def test_live_state_accounting_matches_shape(self):
        state = ChannelState(channel=Channel.of(0x0A000001, 1), upstream="up")
        state.downstream["a"] = DownstreamRecord(count=3)
        state.downstream["b"] = DownstreamRecord(count=2)
        # fanout 2 + upstream = 3 records; 2 outstanding counts.
        assert management_state_bytes(state, outstanding_counts=2, authenticated=True) == 200

    def test_root_state_has_no_upstream_record(self):
        state = ChannelState(channel=Channel.of(0x0A000001, 1), upstream=None)
        state.downstream["a"] = DownstreamRecord(count=1)
        assert management_state_bytes(state) == 32

    def test_channel_state_helpers(self):
        state = ChannelState(channel=Channel.of(0x0A000001, 1), upstream="up")
        state.downstream[LOCAL] = DownstreamRecord(count=1)
        state.downstream["r2"] = DownstreamRecord(count=4)
        state.downstream["r3"] = DownstreamRecord(count=0)
        assert state.total() == 5
        assert state.downstream
        assert state.downstream_links() == 1  # LOCAL and zero-count excluded

    def test_unvalidated_listing(self):
        state = ChannelState(channel=Channel.of(0x0A000001, 1))
        state.downstream["a"] = DownstreamRecord(count=1, validated=False)
        state.downstream["b"] = DownstreamRecord(count=1)
        assert state.unvalidated() == ["a"]

    def test_validated_only_total(self):
        state = ChannelState(channel=Channel.of(0x0A000001, 1))
        state.downstream["a"] = DownstreamRecord(count=2, validated=False)
        state.downstream["b"] = DownstreamRecord(count=3)
        assert state.total(validated_only=True) == 3
        assert state.total(validated_only=False) == 5


class TestDownstreamRecord:
    def test_defaults(self):
        record = DownstreamRecord()
        assert record.count == 0
        assert record.validated is True
        assert record.presented_key is None
        assert record.updated_at == 0.0
        assert record.udp is False

    def test_equality_is_field_equality(self):
        fields = dict(count=2, validated=False, updated_at=1.5, udp=True)
        record = DownstreamRecord(**fields)
        same = DownstreamRecord(**fields)
        assert record is not same
        assert record == same and not record != same
        differing = DownstreamRecord(**dict(fields, udp=False))
        assert record != differing and not record == differing
        stranger = object()
        assert record != stranger and not record == stranger
        assert record.__eq__(stranger) is NotImplemented

    def test_repr(self):
        assert repr(DownstreamRecord(count=3, udp=True)) == (
            "DownstreamRecord(count=3, validated=True, presented_key=None, "
            "updated_at=0.0, udp=True)"
        )

    def test_slotted_without_a_finalizer(self):
        assert not hasattr(DownstreamRecord(), "__dict__")
        assert not hasattr(DownstreamRecord, "__del__")

    def test_clock_and_record_fields_keep_their_types(self, line_net):
        """The clock is a float after an integer ``until`` and at an
        integer ``schedule_at`` time, so every stamp taken from it is a
        float too: a record stores what it is given."""
        net = line_net
        net.run(until=1)
        assert type(net.sim.now) is float
        src = net.source("hsrc")
        first, second = src.allocate_channel(), src.allocate_channel()
        net.host("hsub").subscribe(first)
        clocks = []
        net.sim.schedule_at(
            2, lambda: clocks.append(net.sim.now) or net.host("hsub").subscribe(second)
        )
        net.settle()
        assert [type(now) for now in clocks] == [float]
        records = [
            record
            for agent in net.ecmp_agents.values()
            for state in agent.channels.values()
            for record in state.downstream.values()
        ]
        assert records
        for record in records:
            assert type(record.count) is int
            assert type(record.validated) is bool
            assert type(record.updated_at) is float
            assert type(record.udp) is bool
