"""Aggregated block membership in the group-model baselines.

The group-model analogue of :mod:`repro.core.blocks`: N members behind
one attachment point join as a counted block; protocol traffic happens
only on 0↔positive transitions and deliveries account arithmetically
via the ``block_deliveries`` counter.
"""

import pytest

from repro.errors import ProtocolError
from repro.groupmodel import GroupNetwork
from repro.inet.addr import parse_address
from repro.netsim.topology import TopologyBuilder

G = parse_address("224.42.42.42")


def build(protocol):
    topo = TopologyBuilder.isp(n_transit=3, stubs_per_transit=2, hosts_per_stub=2)
    kwargs = {"rp": "t1"} if protocol in ("pim", "cbt") else {}
    return GroupNetwork(topo, protocol=protocol, **kwargs)


@pytest.mark.parametrize("protocol", ["pim", "cbt", "dvmrp"])
class TestBlockMembership:
    def test_block_counts_accumulate(self, protocol):
        net = build(protocol)
        assert net.join_block("h1_0_0", G, 10) == 10
        assert net.join_block("h1_0_0", G, 5) == 15
        assert net.leave_block("h1_0_0", G, 3) == 12

    def test_block_deliveries_account_members(self, protocol):
        net = build(protocol)
        net.join_block("h1_0_0", G, 250)
        net.settle(2.0)
        net.send("h0_0_0", G)
        net.settle(2.0)
        agent = net.host("h1_0_0")
        assert agent.stats.get("delivered") == 1  # one wire packet
        assert agent.stats.get("block_deliveries") == 250

    def test_leave_to_zero_stops_delivery(self, protocol):
        net = build(protocol)
        net.join_block("h1_0_0", G, 4)
        net.settle(2.0)
        assert net.leave_block("h1_0_0", G, 4) == 0
        net.settle(2.0)
        net.send("h0_0_0", G)
        net.settle(2.0)
        assert net.host("h1_0_0").stats.get("block_deliveries") == 0

    def test_same_sign_change_emits_no_protocol_traffic(self, protocol):
        net = build(protocol)
        net.join_block("h1_0_0", G, 1)
        net.settle(2.0)
        sent_before = net.host("h1_0_0").stats.as_dict()
        joined_before = dict(net.host("h1_0_0").joined)
        net.join_block("h1_0_0", G, 99)
        net.leave_block("h1_0_0", G, 50)
        # Still one protocol membership, unchanged by magnitude moves.
        assert dict(net.host("h1_0_0").joined) == joined_before
        assert net.host("h1_0_0").stats.as_dict() == sent_before

    def test_nonpositive_deltas_rejected(self, protocol):
        net = build(protocol)
        with pytest.raises(ProtocolError):
            net.join_block("h1_0_0", G, 0)
        with pytest.raises(ProtocolError):
            net.leave_block("h1_0_0", G, -2)


@pytest.mark.parametrize("protocol", ["pim", "cbt", "dvmrp"])
def test_block_leave_keeps_the_hosts_own_join(protocol):
    """A host that joined by itself before its block existed stays a
    member when the block empties."""
    net = build(protocol)
    net.join("h1_0_0", G)
    net.join_block("h1_0_0", G, 2)
    net.settle(2.0)
    assert net.leave_block("h1_0_0", G, 2) == 0
    net.settle(2.0)
    net.send("h0_0_0", G)
    net.settle(2.0)
    assert net.delivered("h1_0_0", G) == 1
