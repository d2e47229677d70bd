"""Shared plumbing for the end-to-end benchmark.

Importing this module puts the checkout's ``src/`` on ``sys.path`` (the
benchmark is run as plain scripts from the repository root, with no
``PYTHONPATH`` needed) and provides the statistics, digest and input
helpers every other file here uses. Nothing in this directory imports a
private name from ``repro`` except the wrapper table in ``trace.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Traces and scratch results land here (git-ignored).
OUT_DIR = HERE / "out"

# Measure this checkout's program, never a copy installed elsewhere.
if not (SRC / "repro").is_dir():
    raise SystemExit(f"no program to measure: {SRC / 'repro'} is missing")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro import TopologyBuilder  # noqa: E402
from repro.netsim.engine import derive_seed  # noqa: E402

#: Link delays are drawn within +-5% of the generator's nominal value,
#: seeded, so no two seeds share a topology and simulated latencies are
#: a distribution rather than one constant, yet seeds stay comparable.
DELAY_JITTER = 0.05


def refuse_repro_env() -> None:
    """The benchmark measures the shipped defaults: any ``REPRO_*``
    escape hatch in the environment would silently measure another
    program, so the runner refuses to start."""
    switches = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if switches:
        raise SystemExit(
            "refusing to run with escape hatches set: " + ", ".join(switches)
        )


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def stream(seed: int, *names: object) -> random.Random:
    """An independent seeded RNG per named purpose, so adding a draw to
    one input schedule never perturbs another."""
    return random.Random(derive_seed(seed, "e2e", *names))


def build_isp(
    seed: int,
    n_transit: int,
    stubs: int,
    hosts: int,
    wheel_granularity: float = 0.001,
):
    """The transit/stub topology every workload runs on, under the
    wheel scheduler, with seeded per-link delay jitter."""
    topo = TopologyBuilder.isp(
        n_transit,
        stubs,
        hosts,
        seed=seed,
        scheduler="wheel",
        wheel_granularity=wheel_granularity,
    )
    rng = stream(seed, "link-delay")
    for link in topo.links:
        link.delay *= rng.uniform(1.0 - DELAY_JITTER, 1.0 + DELAY_JITTER)
    return topo


def scaled(value: int, scale: float, floor: int = 1) -> int:
    return max(floor, round(value * scale))


# -- statistics -------------------------------------------------------------


def supported_percentile(n: int) -> float:
    """The highest percentile with at least ten samples beyond it."""
    return 100.0 * (1.0 - 10.0 / n) if n > 10 else 0.0


def summary(values: list[float]) -> dict:
    """Median plus min/max and the sample count."""
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


# -- digest -----------------------------------------------------------------


def chain_digest(previous: str, events: int, control_bytes: int, latencies: list[float]) -> str:
    """Extend the simulation digest with one round: events dispatched,
    control bytes on the wire, and every simulated-latency sample, in
    order. ``repr`` of a float is exact, so two runs agree on the
    digest only if they agree on every bit of every sample."""
    digest = hashlib.sha256(previous.encode())
    digest.update(f"|{events}|{control_bytes}|".encode())
    digest.update(",".join(map(repr, latencies)).encode())
    return digest.hexdigest()
