"""Count the Python calls one piece of code makes, whatever ran before.

The per-hop budgets (``tests/core/test_dataplane_budget.py``,
``tests/core/test_controlplane_budget.py`` and T4's calls per event in
``benchmarks/test_t4_event_throughput.py``) divide the Python ``call``
events (``sys.setprofile``) of a fixed stream by the work it did. A
cyclic-GC pass that fires inside that window runs the finalizers of
garbage that earlier tests left behind and bills their calls to the
stream: in a full tier-1 run a generation-1 pass read 65.71 calls per
packet on the keyed control stream, against 64.71 without one. So the
window opens on a full collection and runs with the collector off.
"""

import gc
import sys


def python_calls(fn, *args, **kwargs) -> int:
    """The Python ``call`` events of ``fn(*args, **kwargs)``, counting
    ``fn`` itself, with no cyclic-GC pass among them."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return calls
