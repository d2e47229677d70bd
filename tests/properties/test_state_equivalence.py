"""Property tests: the columnar ECMP record bank is indistinguishable
from the per-record dataclass in ``tests/oracles/records.py``.

Two layers:

* **Record level** — any sequence of field writes applied to a
  :class:`DownstreamRecord` (StateBank row) and a
  :class:`ReferenceRecord` leaves the two observably identical:
  every field, ``repr``, and ``__eq__`` in both directions. Rows
  recycle through the bank's free list without bleeding values.
* **Network level** — the identical subscribe/unsubscribe/silence
  workload driven on two :class:`ExpressNetwork` instances, one of
  them with ``ChannelState.new_record`` patched to hand out reference
  records, settles to bit-identical ``ChannelState`` tables —
  including ``updated_at`` stamps and ``udp_expirations`` counts.
  (Expiry *timing* against the full-table walk is compared tick by
  tick in ``test_refresh_equivalence.py``.)
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ecmp.protocol import EcmpAgent
from repro.core.ecmp.state import ChannelState, DownstreamRecord
from repro.core.network import ExpressNetwork
from repro.netsim.topology import TopologyBuilder
from tests.conftest import silence_host
from tests.oracles.records import FIELDS as RECORD_FIELDS, ReferenceRecord

FIELD_WRITES = st.lists(
    st.one_of(
        st.tuples(st.just("count"), st.integers(min_value=0, max_value=1 << 31)),
        st.tuples(st.just("validated"), st.booleans()),
        st.tuples(st.just("udp"), st.booleans()),
        st.tuples(
            st.just("updated_at"),
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
        ),
        st.tuples(st.just("presented_key"), st.one_of(st.none(), st.binary(max_size=8))),
    ),
    max_size=12,
)


def assert_records_identical(columnar, reference):
    for field in RECORD_FIELDS:
        assert getattr(columnar, field) == getattr(reference, field), field
    assert columnar == reference
    assert reference == columnar
    # Identical field rendering; only the class name may differ.
    assert repr(columnar).split("(", 1)[1] == repr(reference).split("(", 1)[1]


class TestRecordEquivalence:
    @given(
        count=st.integers(min_value=0, max_value=1 << 31),
        validated=st.booleans(),
        udp=st.booleans(),
        updated_at=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
        writes=FIELD_WRITES,
    )
    def test_any_write_sequence_is_backend_invisible(
        self, count, validated, udp, updated_at, writes
    ):
        kwargs = dict(
            count=count, validated=validated, udp=udp, updated_at=updated_at
        )
        columnar = DownstreamRecord(**kwargs)
        reference = ReferenceRecord(**kwargs)
        assert_records_identical(columnar, reference)
        for field, value in writes:
            setattr(columnar, field, value)
            setattr(reference, field, value)
            assert_records_identical(columnar, reference)

    def test_field_types_survive_the_bank(self):
        record = DownstreamRecord(count=3, updated_at=1.5)
        assert type(record.count) is int
        assert type(record.updated_at) is float
        assert type(record.validated) is bool
        assert type(record.udp) is bool

    def test_recycled_rows_start_fresh(self):
        # Dirty a row, release it (del), and confirm the next alloc —
        # which reuses the freed row — sees constructor defaults, not
        # the previous tenant's values.
        first = DownstreamRecord(count=99, validated=False, udp=True, updated_at=7.0)
        row = first._row
        del first
        second = DownstreamRecord()
        assert second._row == row
        assert_records_identical(second, ReferenceRecord())

    def test_unequal_to_differing_record(self):
        assert DownstreamRecord(count=1) != ReferenceRecord(count=2)
        assert DownstreamRecord(count=1) != DownstreamRecord(count=2)
        assert DownstreamRecord(count=1) != object()


def state_snapshot(net):
    """Every agent's full channel table, bit-exact: (channel, neighbor)
    -> every record field, plus each agent's expiry/examination-free
    counters that must not depend on the backend."""
    snap = {}
    for name, agent in sorted(net.ecmp_agents.items()):
        tables = {}
        for channel, state in agent.channels.items():
            tables[(channel.source, channel.suffix)] = {
                neighbor: tuple(getattr(record, f) for f in RECORD_FIELDS)
                for neighbor, record in sorted(state.downstream.items())
            }
        snap[name] = {
            "tables": tables,
            "udp_expirations": agent.stats.get("udp_expirations"),
            "estimate_events": agent.stats.get("count_update_events"),
        }
    return snap


def build_star():
    topo = TopologyBuilder.star(4)
    net = ExpressNetwork(
        topo, hosts=[f"leaf{i}" for i in range(4)], edge_udp=True
    )
    net.run(until=0.01)
    return net


# One step per (leaf, channel) pair: join, leave (zero Count +
# re-query), or go silent (stop answering queries — soft-state expiry).
OPS = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=3),  # leaf index (leaf0 = source)
        st.integers(min_value=0, max_value=1),  # channel index
        st.sampled_from(["join", "leave", "silence"]),
    ),
    min_size=1,
    max_size=8,
)


def run_ops(ops):
    """One star network driven through ``ops``, run well past the
    soft-state horizon so every scheduled expiry lands."""
    net = build_star()
    src = net.source("leaf0")
    chans = [src.allocate_channel(suffix=1 + k) for k in range(2)]
    for step, (leaf, chan, action) in enumerate(ops):
        at = 0.1 + 0.25 * step
        host = f"leaf{leaf}"
        if action == "join":
            net.sim.schedule_at(
                at, lambda n=host, c=chans[chan]: net.host(n).subscribe(c)
            )
        elif action == "leave":
            net.sim.schedule_at(
                at, lambda n=host, c=chans[chan]: net.host(n).unsubscribe(c)
            )
        else:
            net.sim.schedule_at(at, lambda n=host: silence_host(net, n))
    horizon = (EcmpAgent.UDP_ROBUSTNESS + 2) * EcmpAgent.UDP_QUERY_INTERVAL
    net.run(until=0.1 + 0.25 * len(ops) + horizon)
    return net


class TestControlPlaneEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(ops=OPS)
    def test_fast_and_legacy_control_planes_converge_identically(self, ops):
        shipped = run_ops(ops)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ChannelState, "new_record", lambda state: ReferenceRecord())
            reference = run_ops(ops)
            assert all(
                type(record) is ReferenceRecord
                for agent in reference.ecmp_agents.values()
                for state in agent.channels.values()
                for record in state.downstream.values()
            )
            assert shipped.sim.now == reference.sim.now
            assert state_snapshot(shipped) == state_snapshot(reference)

    def test_mixed_backends_interoperate(self, monkeypatch):
        # Bank rows and reference records side by side in the same
        # channel tables: nothing in the agent may depend on which
        # kind a record is.
        kinds = itertools.cycle([DownstreamRecord, ReferenceRecord])
        monkeypatch.setattr(ChannelState, "new_record", lambda state: next(kinds)())
        net = build_star()
        hub = net.ecmp_agents["hub"]
        ch = net.source("leaf0").allocate_channel()
        for leaf in ("leaf1", "leaf2", "leaf3"):
            net.host(leaf).subscribe(ch)
        net.settle()
        assert {type(r) for r in hub.channels[ch].downstream.values()} == {
            DownstreamRecord,
            ReferenceRecord,
        }
        assert hub.subscriber_count_estimate(ch) == 3
