"""Property-based protocol invariants on randomized topologies.

* The live ECMP tree equals the analytic reverse-shortest-path tree.
* At quiescence, a CountQuery returns the exact subscriber count.
* ON_CHANGE propagation keeps the source's running estimate exact.
* The tolerance curve is monotone and bounded for all parameters.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import CountPropagation, ExpressNetwork
from repro.core.proactive import ToleranceCurve, relative_error
from repro.netsim.topology import TopologyBuilder
from tests.oracles.trees import ExpressTreeModel

SIM_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def build_random_net(n_routers, n_hosts, seed, propagation=CountPropagation.TREE_ONLY):
    topo = TopologyBuilder.random_connected(n_routers, seed=seed)
    hosts = []
    for i in range(n_hosts):
        name = f"host{i}"
        topo.add_node(name)
        topo.add_link(name, f"n{i % n_routers}", delay=0.0005)
        hosts.append(name)
    net = ExpressNetwork(topo, hosts=hosts, propagation=propagation)
    net.run(until=0.01)
    return net, hosts


class TestTreeInvariants:
    @SIM_SETTINGS
    @given(
        n_routers=st.integers(min_value=3, max_value=15),
        n_hosts=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=1000),
        member_mask=st.integers(min_value=1, max_value=63),
    )
    def test_live_tree_equals_analytic_tree(self, n_routers, n_hosts, seed, member_mask):
        net, hosts = build_random_net(n_routers, n_hosts, seed)
        source = net.source(hosts[0])
        channel = source.allocate_channel()
        members = [
            host
            for i, host in enumerate(hosts[1:])
            if member_mask & (1 << i)
        ]
        model = ExpressTreeModel(net.topo, net.routing, source=hosts[0])
        for member in members:
            net.host(member).subscribe(channel)
            model.join(member)
        net.settle()
        live_edges = {frozenset(edge) for edge in net.tree_edges(channel)}
        assert live_edges == model.tree_edges()

    @SIM_SETTINGS
    @given(
        n_routers=st.integers(min_value=3, max_value=12),
        seed=st.integers(min_value=0, max_value=1000),
        churn=st.lists(
            st.tuples(st.integers(min_value=0, max_value=4), st.booleans()),
            min_size=1,
            max_size=12,
        ),
    )
    def test_count_query_exact_after_churn(self, n_routers, seed, churn):
        net, hosts = build_random_net(n_routers, 5, seed)
        source = net.source(hosts[0])
        channel = source.allocate_channel()
        subscribed = set()
        for host_index, join in churn:
            host = hosts[host_index]
            if join:
                net.host(host).subscribe(channel)
                subscribed.add(host)
            else:
                net.host(host).unsubscribe(channel)
                subscribed.discard(host)
            net.settle(0.5)
        net.settle()
        result = source.count_query(channel, timeout=5.0)
        net.settle(6.0)
        assert result.count == len(subscribed)

    @SIM_SETTINGS
    @given(
        n_routers=st.integers(min_value=3, max_value=12),
        seed=st.integers(min_value=0, max_value=1000),
        churn=st.lists(
            st.tuples(st.integers(min_value=0, max_value=4), st.booleans()),
            min_size=1,
            max_size=12,
        ),
    )
    def test_on_change_estimate_exact_at_quiescence(self, n_routers, seed, churn):
        net, hosts = build_random_net(
            n_routers, 5, seed, propagation=CountPropagation.ON_CHANGE
        )
        source = net.source(hosts[0])
        channel = source.allocate_channel()
        subscribed = set()
        for host_index, join in churn:
            host = hosts[host_index]
            if join:
                net.host(host).subscribe(channel)
                subscribed.add(host)
            else:
                net.host(host).unsubscribe(channel)
                subscribed.discard(host)
        net.settle(5.0)
        agent = net.ecmp_agents[hosts[0]]
        assert agent.subscriber_count_estimate(channel) == len(subscribed)

    @SIM_SETTINGS
    @given(
        n_routers=st.integers(min_value=3, max_value=12),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_delivery_reaches_exactly_subscribers(self, n_routers, seed):
        net, hosts = build_random_net(n_routers, 5, seed)
        source = net.source(hosts[0])
        channel = source.allocate_channel()
        members = hosts[1:4]
        for member in members:
            net.host(member).subscribe(channel)
        net.settle()
        source.send(channel)
        net.settle()
        for host in hosts[1:]:
            handle = net.ecmp_agents[host].subscriptions.get(channel)
            if host in members:
                assert handle.packets_received == 1
            else:
                assert handle is None


class TestCurveProperties:
    @given(
        e_max=st.floats(min_value=0.01, max_value=5.0),
        alpha=st.floats(min_value=0.1, max_value=20.0),
        tau=st.floats(min_value=0.5, max_value=1000.0),
        dt_pair=st.tuples(
            st.floats(min_value=0.0, max_value=2000.0),
            st.floats(min_value=0.0, max_value=2000.0),
        ),
    )
    def test_tolerance_monotone_and_bounded(self, e_max, alpha, tau, dt_pair):
        curve = ToleranceCurve(e_max=e_max, alpha=alpha, tau=tau)
        lo, hi = sorted(dt_pair)
        assert 0.0 <= curve.tolerance(hi) <= curve.tolerance(lo) <= e_max
        assert curve.tolerance(tau) == 0.0

    @given(
        e_max=st.floats(min_value=0.01, max_value=5.0),
        alpha=st.floats(min_value=0.1, max_value=20.0),
        tau=st.floats(min_value=0.5, max_value=1000.0),
        error=st.floats(min_value=1e-6, max_value=10.0),
    )
    def test_deadline_bounded_by_tau(self, e_max, alpha, tau, error):
        curve = ToleranceCurve(e_max=e_max, alpha=alpha, tau=tau)
        assert 0.0 < curve.deadline_for_error(error) <= tau

    @given(
        current=st.integers(min_value=0, max_value=10**9),
        advertised=st.integers(min_value=0, max_value=10**9),
    )
    def test_relative_error_properties(self, current, advertised):
        error = relative_error(current, advertised)
        assert error >= 0.0
        assert (error == 0.0) == (current == advertised)
        # Symmetric in its arguments.
        assert error == relative_error(advertised, current)
