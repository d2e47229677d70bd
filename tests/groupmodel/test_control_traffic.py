"""Control traffic of the three group-model baselines, pinned.

One fixed script per protocol on ``isp(4, 2, 2)`` with the RP/core at
``t2``: three joins, the SPT switch (PIM only), two sends — one from a
non-member, one from a member — and one leave. The test pins what the
hosts sent (``messages_sent``), every router ``stats`` key summed over
the routers, and the bytes every node put on the wire per protocol
label. A change to how the agents frame, count or route their control
packets shows here as a changed number.
"""

import functools

import pytest

from repro.groupmodel import GroupNetwork
from repro.inet.addr import parse_address
from repro.netsim.topology import TopologyBuilder

G = parse_address("224.5.6.7")


@functools.lru_cache(maxsize=None)
def run_script(protocol):
    topo = TopologyBuilder.isp(n_transit=4, stubs_per_transit=2, hosts_per_stub=2)
    kwargs = {"rp": "t2"} if protocol in ("pim", "cbt") else {}
    net = GroupNetwork(topo, protocol=protocol, **kwargs)
    trace = topo.attach_trace()
    for member in ("h1_0_0", "h3_1_1", "h0_1_0"):
        net.join(member, G)
    net.settle()
    if protocol == "pim":
        net.switch_to_spt("h3_1_1", "h0_0_0", G)
        net.settle()
    net.send("h0_0_0", G)
    net.settle()
    net.send("h1_0_0", G)
    net.settle()
    net.leave("h3_1_1", G)
    net.settle()
    stats = {}
    for agent in net.routers.values():
        for key, value in agent.stats.items():
            stats[key] = stats.get(key, 0) + value
    tx_bytes = {}
    for record in trace.filter(direction="tx"):
        tx_bytes[record.proto] = tx_bytes.get(record.proto, 0) + record.size
    return dict(net.messages_sent), stats, tx_bytes


#: protocol -> (messages_sent, router stats summed, tx bytes per proto).
EXPECTED = {
    "pim": (
        {"join": 4, "prune": 1},
        {
            "data_tx": 18, "join_rx": 13, "join_tx": 10, "prune_rx": 5,
            "prune_tx": 4, "registers_rx": 2, "registers_tx": 2,
            "shared_forwarded": 9, "spt_forwarded": 3,
        },
        {"data": 27120, "ipip": 5504, "pim": 1026},
    ),
    "cbt": (
        {"join": 3, "leave": 1},
        {
            "data_tx": 17, "join_rx": 9, "join_tx": 6, "leave_rx": 3,
            "leave_tx": 2, "tree_forwarded": 13, "tunnels_rx": 1,
            "tunnels_tx": 1,
        },
        {"cbt": 600, "data": 25764, "ipip": 2752},
    ),
    "dvmrp": (
        {"join": 3, "leave": 1},
        {"data_rx": 24, "data_tx": 35, "prunes_rx": 9, "prunes_tx": 9, "rpf_drops": 8},
        {"data": 50172, "dvmrp": 432},
    ),
}


@pytest.mark.parametrize("protocol", ["pim", "cbt", "dvmrp"])
class TestControlTraffic:
    def test_messages_sent(self, protocol):
        assert run_script(protocol)[0] == EXPECTED[protocol][0]

    def test_router_stats_summed(self, protocol):
        assert run_script(protocol)[1] == EXPECTED[protocol][1]

    def test_tx_bytes_per_proto(self, protocol):
        assert run_script(protocol)[2] == EXPECTED[protocol][2]
