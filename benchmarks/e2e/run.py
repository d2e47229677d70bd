"""The EXPRESS end-to-end benchmark: one command, five workloads.

Two ways to call it, both from the repository root:

``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One run of one workload, the form ``BENCHMARK.json`` names. With
    ``--trace 0`` the last line of output is a JSON object carrying
    every end-to-end metric; with ``--trace 1`` every per-layer metric.

``python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--repeats N] [--out FILE] [--quick]``
    The whole suite (or one workload of it): ``--repeats`` untraced
    runs plus one traced run per workload and the layer probes once,
    every metric printed by name with its unit, medians with min/max
    and sample count, and the results written to ``--out`` for
    ``compare.py``. ``--quick`` runs everything at one-eighth scale in
    under a minute as a smoke test.

Either way the exit code is non-zero if any correctness check failed.

Every job runs in a fresh interpreter, one at a time (the host has two
cores; one process, one thread, no pools). An untraced run is three
such processes, each setting up and measuring a third of the time:
``setup_s`` is the median of the three set-ups, ``ops_per_s`` the
median over the rounds of all three, and the warm-up round they all
run alike must produce the same simulation digest in each.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import probes as layer_probes  # noqa: E402
from common import ROOT, load_contract, refuse_repro_env, summary  # noqa: E402

#: Seconds a child may take before the run is abandoned; the contract
#: allows 180 s for a whole run.
CHILD_TIMEOUT = 170
QUICK_SECONDS = 1.0


def _child(
    job: str, workload: str, seed: int, seconds: float, quick: bool, part: int = 0
) -> dict:
    """Run one job in a fresh interpreter and return its JSON result."""
    command = [
        sys.executable, str(HERE / "run.py"), "--child", job,
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--part", str(part), "--spawned-at", repr(time.time()),
    ]
    if quick:
        command.append("--quick")
    # A fixed hash seed keeps set and dict-of-str iteration order, and
    # with it the simulation digest, identical from process to process.
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT,
    )
    if done.returncode != 0:
        raise SystemExit(f"{job} job of {workload} exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def _run_child(args) -> None:
    """Entry point inside the fresh interpreter."""
    if args.child == "window":
        result = harness.run_window(
            args.workload, args.seed, args.seconds, args.quick, args.spawned_at, args.part
        )
    elif args.child == "traced":
        result = harness.run_traced(args.workload, args.seed, args.quick, args.spawned_at)
    else:
        result = layer_probes.run_probes(args.seed, args.quick)
    print(json.dumps(result))


# -- one run --------------------------------------------------------------


def untraced_run(workload: str, seed: int, seconds: float, quick: bool) -> dict:
    """The untraced timed run, its window split over fresh processes."""
    return harness.merge_window([
        _child("window", workload, seed, seconds, quick, part)
        for part in range(harness.PARTS)
    ])


def traced_run(workload: str, seed: int, seconds: float, quick: bool, probes=None) -> dict:
    """The traced run of one workload plus the layer probes (run here
    unless the caller already has them)."""
    result = _child("traced", workload, seed, seconds, quick)
    if probes is None:
        probes = _child("probes", workload, seed, seconds, quick)
    result["metrics"].update(probes["metrics"])
    result["anchors"] = probes["anchors"]
    result["attempted"] += 2
    if abs(result["share_sum"] - 1.0) > 0.02:
        result["failed"] += 1
        result["failures"].append(f"layer shares sum to {result['share_sum']:.3f}")
    if result["shares"]["unattributed"] >= 0.05:
        result["failed"] += 1
        result["failures"].append(
            f"unattributed share {result['shares']['unattributed']:.3f}"
            f" (unknown spans: {result['unknown_spans']})"
        )
    return result


def _units(contract: dict, kind: str) -> dict:
    return {m["name"]: m["unit"] for m in contract[kind]}


def _result_line(result: dict, units: dict) -> str:
    """The contract's last line: exactly these four keys."""
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        raise SystemExit(f"metrics not emitted: {missing}")
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    })


def _print_metrics(workload: str, metrics: dict, units: dict) -> None:
    for name, unit in units.items():
        print(f"{workload:18s} {name:44s} {metrics[name]:>16.6g} {unit}")


def _print_failures(workload: str, result: dict) -> None:
    for failure in result["failures"]:
        print(f"{workload:18s} FAILED: {failure}")


def contract_run(args, contract: dict) -> int:
    """One workload, one run, result line last."""
    if args.trace:
        result = traced_run(args.workload, args.seed, args.seconds, quick=False)
        units = _units(contract, "per_layer")
    else:
        result = untraced_run(args.workload, args.seed, args.seconds, quick=False)
        units = _units(contract, "end_to_end")
        print(f"{args.workload:18s} sim_digest {result['sim_digest']}")
    _print_metrics(args.workload, result["metrics"], units)
    _print_failures(args.workload, result)
    print(_result_line(result, units))
    return 0 if result["failed"] == 0 else 1


# -- the suite ------------------------------------------------------------


def suite_run(args, contract: dict) -> int:
    names = [w["name"] for w in contract["workloads"]]
    if args.workload:
        names = [args.workload]
    quick = args.quick
    seconds = QUICK_SECONDS if quick else args.seconds
    repeats = 1 if quick else args.repeats
    e2e_units = _units(contract, "end_to_end")
    layer_units = _units(contract, "per_layer")
    judged = {m["name"]: (m["better"], m["bound"]) for m in contract["end_to_end"]}
    document = {
        "schema": 1,
        "seed": args.seed,
        "seconds": seconds,
        "repeats": repeats,
        "quick": quick,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cores": os.cpu_count(),
        },
        "workloads": {},
    }
    failed = 0
    probes = _child("probes", names[0], args.seed, seconds, quick)
    for name in names:
        runs = [untraced_run(name, args.seed, seconds, quick) for _ in range(repeats)]
        traced = traced_run(name, args.seed, seconds, quick, probes=probes)
        digests = sorted({r["sim_digest"] for r in runs})
        attempted = sum(r["attempted"] for r in runs) + traced["attempted"] + 1
        failures = [f for r in runs + [traced] for f in r["failures"]]
        fails = sum(r["failed"] for r in runs) + traced["failed"]
        if len(digests) != 1:
            fails += 1
            failures.append(f"sim_digest differs between repeats: {digests}")
        failed += fails
        summaries = {
            metric: dict(
                summary([r["metrics"][metric] for r in runs]),
                unit=unit, better=judged[metric][0], bound=judged[metric][1],
            )
            for metric, unit in e2e_units.items()
        }
        document["workloads"][name] = {
            "end_to_end": summaries,
            "runs": [r["metrics"] for r in runs],
            "per_layer": {m: traced["metrics"][m] for m in layer_units},
            "layer_shares": traced["shares"],
            "sim_digest": digests[0],
            "failed_ops_share": fails / attempted,
            "attempted": attempted,
            "failed": fails,
            "failures": failures,
            "detail": runs[0]["detail"],
            "trace_file": traced["trace_file"],
        }
        print(f"== {name}: op = {runs[0]['detail']['op']}")
        print(f"{name:18s} sim_digest {digests[0]}")
        for metric, s in summaries.items():
            print(
                f"{name:18s} {metric:44s} {s['median']:>16.6g} {s['unit']:6s}"
                f" min {s['min']:.6g} max {s['max']:.6g} n={s['n']}"
            )
        for extra in ("user_latency_sim_ms_mean", "user_latency_sim_ms_p95"):
            print(
                f"{name:18s} {extra:44s} {runs[0]['detail'][extra]:>16.6g} ms"
                f"     (first repeat, not bounded: {runs[0]['detail']['latency']})"
            )
        print(f"{name:18s} {'failed_ops_share':44s} {fails / attempted:>16.6g} share")
        _print_metrics(name, traced["metrics"], layer_units)
        for layer, share in sorted(traced["shares"].items(), key=lambda kv: -kv[1]):
            print(f"{name:18s} traced share {layer:30s} {share:8.4f}")
        for failure in failures:
            print(f"{name:18s} FAILED: {failure}")
    document["anchors"] = probes["anchors"]
    for line in probes["anchors"]:
        print(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--child", choices=("window", "traced", "probes"))
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, default=0.0)
    args = parser.parse_args(argv)
    refuse_repro_env()
    if args.child:
        _run_child(args)
        return 0
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return contract_run(args, contract)
    return suite_run(args, contract)


if __name__ == "__main__":
    sys.exit(main())
