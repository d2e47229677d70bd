"""Integration tests: observability threaded through the live stacks.

The acceptance scenario lives here: a CountQuery issued at the source
of a >=3-level ISP topology (source host -> stub -> transit core ->
stub -> subscriber hosts) must reconstruct as a span tree whose leaf
count equals the number of responding subscribers.
"""

import random

import pytest

from repro.core.network import ExpressNetwork
from repro.groupmodel.network import GroupNetwork
from repro.inet.addr import parse_address
from repro.netsim.topology import TopologyBuilder
from repro.netsim.trace import Counter
from repro.obs import Observability, attach_topology
from repro.obs.exporters import prometheus_text
from repro.relay.session import SessionParticipant, SessionRelay


def isp_network(obs=None, **kwargs):
    topo = TopologyBuilder.isp(n_transit=4, stubs_per_transit=3, hosts_per_stub=2)
    return ExpressNetwork(topo, obs=obs, **kwargs)


class TestCountQuerySpanTree:
    def build(self, subscribers):
        obs = Observability()
        net = isp_network(obs)
        net.run(until=0.1)
        source = net.source("h0_0_0")
        channel = source.allocate_channel()
        for name in subscribers:
            net.host(name).subscribe(channel)
        net.settle()
        result = source.count_query(channel, timeout=5.0)
        net.settle(6.0)
        return obs, net, channel, result

    def test_leaf_count_equals_responding_subscribers(self):
        subscribers = ["h1_0_0", "h1_0_1", "h2_1_0", "h2_1_1", "h3_2_0"]
        obs, net, channel, result = self.build(subscribers)
        assert result.count == len(subscribers)
        assert result.partial is False

        tracer = obs.tracer
        roots = [s for s in tracer.spans if s.name == "ecmp.count_query"]
        assert len(roots) == 1
        root = roots[0]
        assert root.end is not None  # finalization closed the root
        tree = [n for n in tracer.tree(root.trace_id) if n.span is root]
        assert len(tree) == 1
        assert tree[0].leaf_count() == len(subscribers)
        # Source host -> stub -> transit -> ... -> subscriber host is
        # at least 4 causal levels on this topology.
        assert tree[0].depth() >= 4
        leaf_nodes = sorted(s.node for s in tracer.leaves(root.trace_id))
        assert leaf_nodes == sorted(subscribers)

    def test_replies_fold_in_as_events_not_spans(self):
        subscribers = ["h1_0_0", "h1_0_1"]
        obs, net, channel, result = self.build(subscribers)
        tracer = obs.tracer
        root = next(s for s in tracer.spans if s.name == "ecmp.count_query")
        members = tracer.trace(root.trace_id)
        # Count replies traveling back up never open spans of their own;
        # every non-root span in the query trace is a query handling.
        assert {s.name for s in members} == {"ecmp.count_query", "ecmp.query"}
        deferred = [s for s in members if s.events]
        reply_events = [
            e for s in deferred for e in s.events if e[1] == "reply"
        ]
        assert len(reply_events) >= len(subscribers)

    def test_critical_path_runs_source_to_subscriber(self):
        subscribers = ["h1_0_0", "h3_2_1"]
        obs, net, channel, result = self.build(subscribers)
        tracer = obs.tracer
        root = next(s for s in tracer.spans if s.name == "ecmp.count_query")
        latency, chain = tracer.critical_path(root.trace_id)
        assert latency > 0.0
        assert chain[0].node == "h0_0_0"
        assert chain[-1].node in subscribers
        assert len(chain) >= 4

    def test_channel_index_finds_query_spans(self):
        obs, net, channel, result = self.build(["h1_0_0"])
        spans = obs.tracer.spans_for(channel)
        assert any(s.name == "ecmp.count_query" for s in spans)
        assert any(s.name == "ecmp.subscribe" for s in spans)


class TestJoinPropagationTrace:
    def test_subscribe_trace_reaches_the_source_hop_by_hop(self):
        obs = Observability()
        net = isp_network(obs)
        net.run(until=0.1)
        source = net.source("h0_0_0")
        channel = source.allocate_channel()
        net.host("h2_1_1").subscribe(channel)
        net.settle()
        tracer = obs.tracer
        sub = next(s for s in tracer.spans if s.name == "ecmp.subscribe")
        members = tracer.trace(sub.trace_id)
        # The join Count propagated RPF hop-by-hop; every hop's handling
        # span is causally chained under the subscribe root.
        count_hops = [s for s in members if s.name == "ecmp.count"]
        hop_nodes = [s.node for s in count_hops]
        assert "e2_1" in hop_nodes  # first-hop stub router
        assert len(count_hops) >= 3
        assert tracer.roots(sub.trace_id)[0] is sub


class TestMetricsThreading:
    def test_per_channel_message_and_latency_series(self):
        obs = Observability()
        net = isp_network(obs)
        net.run(until=0.1)
        source = net.source("h0_0_0")
        channel = source.allocate_channel()
        net.host("h1_0_0").subscribe(channel)
        net.settle()
        source.send(channel)
        net.settle()

        text = prometheus_text(obs.registry)
        assert f'type="Count",channel="{channel}"' in text
        assert "delivery_latency_seconds_bucket" in text
        assert f'protocol="express",node="h1_0_0",channel="{channel}"' in text

    def test_control_stats_total_matches_the_folded_family(self):
        obs = Observability()
        net = isp_network(obs)
        net.run(until=0.1)
        source = net.source("h0_0_0")
        channel = source.allocate_channel()
        net.host("h1_0_0").subscribe(channel)
        net.settle()
        totals = net.control_stats_total()
        assert totals["counts_rx"] > 0
        assert totals["subscribe_events"] > 0
        # And the same numbers are in the registry family once collected.
        family = obs.registry.get("ecmp_events_total")
        obs.registry.collect()
        registry_total = sum(
            child.value
            for values, child in family.children()
            if dict(zip(family.labelnames, values))["event"] == "counts_rx"
        )
        assert registry_total == totals["counts_rx"]
        # No loss and no drop: every logical byte sent is received.
        logical = series(obs.registry, "ecmp_bytes_total")
        sent, received = (
            sum(total for (_, way), total in logical.items() if way == direction)
            for direction in ("tx", "rx")
        )
        assert received == sent == totals["bytes_tx"] > 0

    def test_node_link_and_engine_instrumentation(self):
        obs = Observability()
        net = isp_network(obs)
        net.run(until=0.1)
        source = net.source("h0_0_0")
        channel = source.allocate_channel()
        net.host("h1_0_0").subscribe(channel)
        net.settle()
        source.send(channel)
        net.settle()

        snap = obs.registry.snapshot()
        assert any("direction=tx" in k for k in snap["node_packets_total"]["series"])
        assert snap["link_packets_total"]["series"]
        assert snap["sim_events_total"]["series"]
        assert snap["sim_time_seconds"]["series"][""] == net.sim.now
        wall = snap["sim_event_wall_seconds"]["series"]
        assert sum(v["count"] for v in wall.values()) == net.sim.events_processed

    def test_fib_gauges_refresh_on_collect(self):
        obs = Observability()
        net = isp_network(obs)
        net.run(until=0.1)
        source = net.source("h0_0_0")
        channel = source.allocate_channel()
        net.host("h1_0_0").subscribe(channel)
        net.settle()
        snap = obs.registry.snapshot()
        entries = snap["fib_entries"]["series"]
        assert sum(entries.values()) == net.fib_entries_total()
        assert sum(entries.values()) > 0

    def test_uninstrumented_network_unchanged(self):
        net = isp_network(obs=None)
        net.run(until=0.1)
        source = net.source("h0_0_0")
        channel = source.allocate_channel()
        net.host("h1_0_0").subscribe(channel)
        net.settle()
        result = source.count_query(channel, timeout=5.0)
        net.settle(6.0)
        assert result.count == 1
        agent = net.ecmp_agents["h1_0_0"]
        assert agent.obs is None
        assert agent.stats.as_dict()  # plain Counter still accumulates

    def test_instrumentation_does_not_change_simulation_outcomes(self):
        def run(obs):
            net = isp_network(obs)
            net.run(until=0.1)
            source = net.source("h0_0_0")
            channel = source.allocate_channel()
            for name in ("h1_0_0", "h2_1_1"):
                net.host(name).subscribe(channel)
            net.settle()
            source.send(channel)
            net.settle()
            result = source.count_query(channel, timeout=5.0)
            net.settle(6.0)
            return (
                result.count,
                net.sim.now,
                net.sim.events_processed,
                net.tree_edges(channel),
            )

        assert run(None) == run(Observability())


def churn_flap_crash(seed=7):
    """A seeded obs-attached ISP run with a packet trace: channel churn
    and data, subscriber blocks, one lossy link, one link flap and one
    router crash and reboot. Returns (obs, net, trace)."""
    rng = random.Random(seed)
    obs = Observability()
    topo = TopologyBuilder.isp(
        n_transit=4, stubs_per_transit=3, hosts_per_stub=2, seed=seed
    )
    trace = topo.attach_trace()
    net = ExpressNetwork(topo, obs=obs)
    topo.link_between("t1", "e1_0").loss = 0.2
    net.run(until=0.1)
    source = net.source("h0_0_0")
    channels = [source.allocate_channel() for _ in range(3)]
    hosts = sorted(n for n in topo.nodes if n.startswith("h") and n != "h0_0_0")
    block = net.subscriber_block("e2_1")
    block.join(channels[0], 40)

    def churn(rounds):
        for _ in range(rounds):
            host = net.host(rng.choice(hosts))
            channel = rng.choice(channels)
            if host.is_subscribed(channel):
                host.unsubscribe(channel)
            else:
                host.subscribe(channel)
            net.settle(0.05)
            source.send(rng.choice(channels))
        net.settle()

    churn(20)
    flapped = topo.link_between("t0", "t1")
    flapped.fail()
    churn(5)
    flapped.recover()
    churn(5)
    crashed = net.ecmp_agents["e2_1"]
    downed = [i.link for i in topo.node("e2_1").interfaces if i.link.up]
    for link in downed:
        link.set_up(False)
    crashed.lose_state()
    churn(5)
    crashed.start()
    for link in downed:
        link.set_up(True)
    churn(10)
    net.settle(2.0)
    return obs, net, trace


def series(registry, name):
    family = registry.get(name)
    return {values: child.value for values, child in family.children()}


class TestRegistryAgreesWithTallies:
    """After ``collect()``, every folded family equals the tally its
    owner keeps: the owner holds the only copy of each count."""

    @pytest.fixture(scope="class")
    def run(self):
        obs, net, trace = churn_flap_crash()
        obs.registry.collect()
        return obs, net, trace

    def test_event_families_equal_each_owners_stats(self, run):
        obs, net, _ = run
        for family, owners in (
            ("ecmp_events_total", net.ecmp_agents),
            ("forwarder_events_total", net.forwarders),
        ):
            expected = {
                (name, event): total
                for name, owner in owners.items()
                for event, total in owner.stats.items()
            }
            assert series(obs.registry, family) == expected
        assert net.ecmp_agents["e2_1"].stats["state_losses"] == 1

    def test_link_families_equal_link_counters(self, run):
        obs, net, _ = run
        links = {
            (f"{link.node_a.name}--{link.node_b.name}",): link
            for link in net.topo.links
        }
        for family, attr in (
            ("link_packets_total", "tx_packets"),
            ("link_lost_packets_total", "lost_packets"),
            ("link_ecmp_wire_packets_total", "ecmp_wire_packets"),
            ("link_ecmp_wire_bytes_total", "ecmp_wire_bytes"),
        ):
            expected = {key: getattr(link, attr) for key, link in links.items()}
            assert series(obs.registry, family) == expected
        assert sum(link.lost_packets for link in net.topo.links) > 0

    def test_link_families_count_from_attach(self):
        net = isp_network()
        net.run(until=0.1)
        source = net.source("h0_0_0")
        channel = source.allocate_channel()
        net.host("h1_0_0").subscribe(channel)
        net.settle()
        obs = attach_topology(net.topo, Observability())
        before = {link: link.tx_packets for link in net.topo.links}
        assert sum(before.values()) > 0
        source.send(channel)
        net.settle()
        obs.registry.collect()
        sent = series(obs.registry, "link_packets_total")
        assert sent == {
            (f"{link.node_a.name}--{link.node_b.name}",): link.tx_packets - start
            for link, start in before.items()
        }
        assert sum(sent.values()) > 0

    def test_node_families_equal_the_packet_trace(self, run):
        obs, _, trace = run
        packets, nbytes = Counter(), Counter()
        for record in trace.records:
            key = (record.node, record.direction, record.proto)
            packets[key] += 1
            nbytes[key] += record.size
        assert series(obs.registry, "node_packets_total") == packets
        assert series(obs.registry, "node_bytes_total") == nbytes
        assert {direction for _, direction, _ in packets} == {"tx", "rx", "drop"}


    @pytest.mark.parametrize(
        "protocol, expected",
        [
            ("pim", {"join": 4, "prune": 1}),
            ("cbt", {"join": 3, "leave": 1}),
            ("dvmrp", {"join": 3, "leave": 1}),
        ],
    )
    def test_groupmodel_family_equals_the_network_tally(self, protocol, expected):
        obs = Observability()
        topo = TopologyBuilder.isp(n_transit=3, stubs_per_transit=2, hosts_per_stub=2)
        rp = None if protocol == "dvmrp" else "t1"
        net = GroupNetwork(topo, protocol=protocol, rp=rp, obs=obs)
        group = parse_address("224.5.0.2")
        for host in ("h1_0_0", "h2_1_1", "h0_1_0"):
            net.join(host, group)
        net.settle()
        obs.registry.collect()
        net.leave("h2_1_1", group)
        if protocol == "pim":
            net.switch_to_spt("h1_0_0", "h0_0_0", group)
        net.settle()
        obs.registry.collect()
        assert net.messages_sent == expected
        assert series(obs.registry, "groupmodel_messages_total") == {
            (protocol, kind): total for kind, total in expected.items()
        }


class TestGroupModelSharedFamily:
    GROUP = parse_address("224.5.0.1")

    def test_delivery_latency_shares_one_family(self):
        obs = Observability()
        topo = TopologyBuilder.isp(n_transit=4, stubs_per_transit=2, hosts_per_stub=2)
        net = GroupNetwork(topo, protocol="pim", rp="t2", obs=obs)
        for member in ("h1_0_0", "h2_1_1"):
            net.join(member, self.GROUP)
        net.settle()
        net.send("h0_0_0", self.GROUP)
        net.settle()
        family = obs.registry.get("delivery_latency_seconds")
        protocols = {
            dict(zip(family.labelnames, values))["protocol"]
            for values, _ in family.children()
        }
        assert protocols == {"pim"}
        snap = obs.registry.snapshot()
        join_series = snap["groupmodel_messages_total"]["series"]
        assert join_series["protocol=pim,type=join"] == 2

    def test_dvmrp_counts_joins_and_leaves(self):
        obs = Observability()
        topo = TopologyBuilder.isp(n_transit=2, stubs_per_transit=2, hosts_per_stub=2)
        net = GroupNetwork(topo, protocol="dvmrp", obs=obs)
        net.join("h1_0_0", self.GROUP)
        net.settle()
        net.leave("h1_0_0", self.GROUP)
        net.settle()
        series = obs.registry.snapshot()["groupmodel_messages_total"]["series"]
        assert series["protocol=dvmrp,type=join"] == 1
        assert series["protocol=dvmrp,type=leave"] == 1


class TestRelayMetrics:
    def test_relay_counts_rx_and_tx_by_kind(self):
        obs = Observability()
        net = isp_network(obs)
        net.run(until=0.1)
        relay = SessionRelay(net, "h0_0_0")
        listener = SessionParticipant(net, "h1_0_0", relay)
        speaker = SessionParticipant(net, "h2_0_0", relay)
        net.settle()
        speaker.speak(b"question")
        net.settle()
        assert listener.heard_talks
        series = obs.registry.snapshot()["relay_messages_total"]["series"]
        session = str(relay.session_id)
        assert series[f"session={session},direction=rx,kind=talk"] == 1
        assert series[f"session={session},direction=tx,kind=talk"] == 1


    def test_relay_tallies_without_a_registry(self):
        """The relay counts its messages whether or not a registry is
        attached; the registry only folds the tally in."""
        net = isp_network(obs=None)
        net.run(until=0.1)
        relay = SessionRelay(net, "h0_0_0")
        SessionParticipant(net, "h1_0_0", relay)
        speaker = SessionParticipant(net, "h2_0_0", relay)
        net.settle()
        speaker.speak(b"question")
        net.settle()
        assert relay.messages["rx", "talk"] == 1
        assert relay.messages["tx", "talk"] == 1

    def test_relay_series_is_read_at_collect(self):
        """A message counted after one snapshot shows in the next."""
        obs = Observability()
        net = isp_network(obs)
        net.run(until=0.1)
        relay = SessionRelay(net, "h0_0_0")
        SessionParticipant(net, "h1_0_0", relay)
        speaker = SessionParticipant(net, "h2_0_0", relay)
        net.settle()
        key = f"session={relay.session_id},direction=tx,kind=talk"
        speaker.speak(b"one")
        net.settle()
        assert obs.registry.snapshot()["relay_messages_total"]["series"][key] == 1
        speaker.speak(b"two")
        net.settle()
        assert obs.registry.snapshot()["relay_messages_total"]["series"][key] == 2


class TestCli:
    def test_main_prints_acceptance_lines(self, capsys):
        from repro.obs.__main__ import main

        assert main(["--transit", "3", "--stubs", "2", "--hosts", "2",
                     "--subscribers", "3", "--packets", "1"]) == 0
        captured = capsys.readouterr()
        assert "ecmp_messages_total{" in captured.out
        assert "delivery_latency_seconds_bucket" in captured.out
        assert "CountQuery span tree" in captured.err
        assert "critical path:" in captured.err

    def test_jsonl_format(self, capsys):
        import json

        from repro.obs.__main__ import main

        assert main(["--transit", "2", "--stubs", "1", "--hosts", "2",
                     "--subscribers", "2", "--packets", "1",
                     "--format", "jsonl", "--no-trace"]) == 0
        captured = capsys.readouterr()
        kinds = {json.loads(line)["kind"] for line in captured.out.splitlines()}
        assert kinds == {"metric", "span"}
