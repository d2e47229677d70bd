"""Reference implementations the equivalence suites compare against.

Each module is the *simple* form of something ``src/`` ships an
optimized form of, written to be read rather than to be fast, and
called directly by the property suites — nothing selects it at run
time:

* :mod:`tests.oracles.codec` — the concatenating ECMP codec
  (specification of ``repro.core.ecmp.messages``),
* :mod:`tests.oracles.records` — the per-record dataclass
  (specification of the ``StateBank`` row view ``DownstreamRecord``),
* :mod:`tests.oracles.refresh` — the full-table refresh tick and
  general-query walk (specification of the ``RefreshRing`` /
  ``_by_upstream`` paths in ``repro.core.ecmp.protocol``).
"""
