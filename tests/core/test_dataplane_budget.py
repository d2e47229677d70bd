"""A per-hop call budget for the data plane.

``live_event`` spends most of its time moving one packet one hop, and
that hop has no hot spot to find with a profiler — only depth: every
frame between ``Node.send`` on one side of a link and ``on_data`` on
the other is paid per packet per hop. This test counts the Python
``call`` events (``sys.setprofile``) of a fixed stream over a fixed
tree and divides by the link deliveries, so the next layer of
indirection added to the hop fails here in seconds instead of showing
up as a few percent in a seven-minute benchmark run. The count is a
property of the code, not of the host: it repeats exactly.

Tree: ``hsrc - n0 - n1 - n2 - n3`` with six subscriber hosts on
``n3``; ``obs=None``, no packet trace; 50 packets,
10 link deliveries each. Python calls per link delivery, everything
included (the engine's dispatch, the source's ``send``, this test's
own scheduling lambda):

* parent of the flat data plane (PR 16):  25.44
* the flat data plane (PR 17):            16.04
* on the one event core (PR 18):          13.83
* local delivery probes the intern table
  itself (``interned_channel``) instead of
  calling ``lookup_channel`` — which also
  *wrote* to it, one entry per spoofed
  pair — before the FIB lookup:           12.73
* with the flat control hop (PR 24): the
  forwarder counts with ``stats[key] += n``
  where it called ``Counter.incr``, and
  ``Channel`` is a tuple, hashed without a
  Python-level ``__hash__``:              10.03
* the FIB keyed by the interned channel:
  the hop probes the intern table once and
  hands the channel to delivery and lookup,
  and the source's emit reads the egress
  tuple in one call (``egress_of``) where
  ``get`` validated the pair and built a
  handle:                                  9.63
* ``Simulator.now`` a plain attribute
  where it was a property:                 9.53

With an :class:`~repro.obs.Observability` attached, the same stream
read 63.54 while every tx, rx and drop resolved two labelled children
and every link kept pending copies of its counters; with each owner
keeping the only tally and the registry folding it at ``collect()``,
it read 15.04, and 14.34 with ``Simulator.now`` a plain attribute.

The slack is half a call: putting back ``Link._deliver``'s
indirection, the per-packet ``lambda`` in place of the ``partial``, or
a function around the channel probe, costs at least one call per
delivery and must fail. The calls are counted with the cyclic GC held
off (``tests/callcount.py``), so the reading repeats exactly whatever
ran earlier in the process.
"""

from repro import ExpressNetwork, TopologyBuilder
from repro.netsim.packet import Packet
from repro.obs import Observability
from repro.routing.fib import FibEntry
from tests.callcount import python_calls

ROUTERS = 4
HOSTS = 6
PACKETS = 50
MEASURED = 9.53
#: The same tree and stream with an :class:`Observability` attached.
MEASURED_OBS = 14.34
SLACK = 0.5


def build(obs=None):
    topo = TopologyBuilder.line(ROUTERS)
    topo.add_node("hsrc")
    topo.add_link("hsrc", "n0")
    subscribers = [f"hsub{i}" for i in range(HOSTS)]
    for name in subscribers:
        topo.add_node(name)
        topo.add_link(name, f"n{ROUTERS - 1}")
    net = ExpressNetwork(topo, hosts=["hsrc"] + subscribers, obs=obs)
    net.run(until=0.01)
    return net, subscribers


def calls_per_delivery(obs=None) -> tuple[float, int]:
    net, subscribers = build(obs)
    source = net.source("hsrc")
    channel = source.allocate_channel()
    got = []
    for name in subscribers:
        net.host(name).subscribe(channel, on_data=got.append)
    net.settle()
    source.send(channel)  # first packet: egress tuples, channel memo
    net.settle()
    assert len(got) == HOSTS

    sent_before = sum(link.tx_packets for link in net.topo.links)
    for k in range(PACKETS):
        net.sim.schedule(0.001 * k, lambda: source.send(channel))
    calls = python_calls(net.run, until=net.sim.now + 1.0)

    deliveries = sum(link.tx_packets for link in net.topo.links) - sent_before
    assert deliveries == PACKETS * (ROUTERS + HOSTS)
    assert len(got) == HOSTS * (PACKETS + 1)
    return calls / deliveries, deliveries


def test_python_calls_per_link_delivery_stay_inside_the_budget():
    per_delivery, deliveries = calls_per_delivery()
    print(
        f"\ndata-hop budget: {per_delivery:.2f} Python calls per link delivery "
        f"over {deliveries} deliveries (budget {MEASURED + SLACK:.2f})"
    )
    assert per_delivery <= MEASURED + SLACK, (
        f"{per_delivery:.2f} Python calls per link delivery, budget "
        f"{MEASURED + SLACK:.2f}: something new sits on the per-hop path"
    )


def test_python_calls_per_link_delivery_with_observability_stay_inside_the_budget():
    per_delivery, deliveries = calls_per_delivery(Observability())
    print(
        f"\nobserved data-hop budget: {per_delivery:.2f} Python calls per link "
        f"delivery over {deliveries} deliveries (budget "
        f"{MEASURED_OBS + SLACK:.2f}, {MEASURED:.2f} unobserved)"
    )
    assert per_delivery <= MEASURED_OBS + SLACK, (
        f"{per_delivery:.2f} Python calls per observed link delivery, budget "
        f"{MEASURED_OBS + SLACK:.2f}: instrumentation sits on the per-hop path"
    )


def test_per_packet_records_are_slotted():
    """A ``__dict__`` per packet (and per FIB entry) is an allocation
    per hop the flat path does not make."""
    for record in (Packet(src=1, dst=2), FibEntry(1, 1, 0)):
        assert hasattr(type(record), "__slots__")
        assert not hasattr(record, "__dict__")
