"""Reference implementations the equivalence suites compare against.

Each module is the *simple* form of something ``src/`` ships an
optimized form of, written to be read rather than to be fast, and
called directly by the property suites — nothing selects it at run
time:

* :mod:`tests.oracles.codec` — the concatenating ECMP codec
  (specification of ``repro.core.ecmp.messages``),
* :mod:`tests.oracles.counting` — a CountQuery recorded in a
  ``PendingQuery`` at every node, leaves included (specification of
  ``Counting.on_query`` / ``_finalize`` in ``repro.core.counting``);
  patched in for whole-network runs,
* :mod:`tests.oracles.refresh` — the full-table refresh tick and
  general-query walk (specification of the ``RefreshRing`` tick in
  ``repro.core.ecmp.liveness`` and of the general-query reply in
  ``repro.core.ecmp.protocol``),
* :mod:`tests.oracles.fib` — an ``(S, E)`` key tuple and a mutable
  entry object per FIB entry (specification of
  ``repro.routing.fib.MulticastFib``'s channel-keyed shared rows),
* :mod:`tests.oracles.dataplane` — one packet hop with every look-up
  made per packet (specification of ``Link.transmit``, ``Node.send`` /
  ``receive``, ``Packet.copy``, ``ExpressForwarder.handle_packet`` /
  ``_fan_out`` and ``MulticastFib.lookup`` / ``egress``); patched in
  for whole-network runs, since a hop is not a function of one value,
* :mod:`tests.oracles.scheduler` — a binary heap popped one event at a
  time (specification of ``repro.netsim.engine.Simulator``: the slot
  calendar, lazy bulk tuples and batch dispatch); driven directly for
  raw traces and patched in where ``Topology`` builds its simulator
  for whole-network runs,
* :mod:`tests.oracles.sync` — lockstep horizons with the self-echo
  term folded in (the bound ``repro.netsim.parallel.sync``'s grant
  ceilings may never undercut),
* :mod:`tests.oracles.trees` — analytic EXPRESS, PIM-SM, CBT and DVMRP
  trees derived from unicast routing alone (specification of the live
  ECMP tree and of ``repro.groupmodel``'s agents: routers touched, state
  entries and each member's delivery path).
"""
