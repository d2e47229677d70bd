"""Workload generators and named scenarios, all speaking one op language.

:mod:`~repro.workloads.spec` defines the ``(time, kind, *args)`` ops,
:func:`~repro.workloads.spec.schedule_ops` (the one way to put them on
a network's simulator) and :class:`~repro.workloads.spec.ScenarioSpec`
(a whole run as data); :mod:`~repro.workloads.churn` produces Poisson
subscribe/unsubscribe ops and the §5.3 Count stream; and
:mod:`~repro.workloads.scenarios` holds the Figure 8 proactive-counting
scenario, so examples, tests and benchmarks share one definition.
"""

from repro.workloads.churn import count_message_stream, poisson_churn
from repro.workloads.scenarios import (
    Fig8Sample,
    build_fig8_network,
    fig8_events,
    run_fig8,
)
from repro.workloads.spec import OPGENS, ScenarioSpec, schedule_ops

__all__ = [
    "OPGENS",
    "Fig8Sample",
    "ScenarioSpec",
    "build_fig8_network",
    "count_message_stream",
    "fig8_events",
    "poisson_churn",
    "run_fig8",
    "schedule_ops",
]
