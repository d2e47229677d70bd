"""Compare two result files written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

A is the base (the parent commit, or the first of two runs of the same
code), B the candidate. For every workload and end-to-end metric it
prints both medians with their min..max over the repeats, the ratio B/A
with its base, the regression bound from the result file, a verdict,
and the signed change of the median as a share of A's (positive is
worse, whichever way the metric points):

``better``      B is better by more than the bound
``same``        within the bound
``worse``       B is worse by more than the bound
``unresolved``  the repeats of A or B scatter more than the bound and
                the two ranges overlap, so the runs cannot tell; it is
                *not* reported as unchanged (more repeats or a quieter
                host are needed)

The simulation digest is compared too: a change that only makes the
host faster must leave it identical. Exit status is non-zero if any
metric is ``worse`` or a workload's ``failed_ops_share`` rose.
"""

from __future__ import annotations

import json
import sys

def verdict(a: dict, b: dict) -> tuple[str, float]:
    """Verdict and the signed worsening of B against A (positive is
    worse), as a share of A's median. ``a`` and ``b`` are one metric's
    summaries; direction and bound travel with them."""
    bound = a["bound"]
    sign = -1.0 if a["better"] == "higher" else 1.0
    change = sign * (b["median"] - a["median"]) / abs(a["median"])
    spread = max(
        (s["max"] - s["min"]) / abs(s["median"]) if s["median"] else 0.0 for s in (a, b)
    )
    if sign > 0:
        b_all_better, b_all_worse = b["max"] < a["min"], b["min"] > a["max"]
    else:
        b_all_better, b_all_worse = b["min"] > a["max"], b["max"] < a["min"]
    steady = spread <= bound
    if change > bound:
        return ("worse" if steady or b_all_worse else "unresolved"), change
    if change < -bound:
        return ("better" if steady or b_all_better else "unresolved"), change
    if steady:
        return "same", change
    return ("better" if b_all_better else "unresolved"), change


def compare(a: dict, b: dict) -> int:
    bad = 0
    for name, base in a["workloads"].items():
        cand = b["workloads"].get(name)
        if cand is None:
            print(f"== {name}: missing from B")
            bad += 1
            continue
        digest = "identical" if base["sim_digest"] == cand["sim_digest"] else "DIFFERENT"
        print(f"== {name}   sim_digest {digest}")
        for metric, sa in base["end_to_end"].items():
            sb = cand["end_to_end"][metric]
            word, change = verdict(sa, sb)
            bad += word == "worse"
            print(
                f"  {metric:26s} A {sa['median']:>13.6g} [{sa['min']:.6g}..{sa['max']:.6g}] n={sa['n']}"
                f"  B {sb['median']:>13.6g} [{sb['min']:.6g}..{sb['max']:.6g}] n={sb['n']}"
                f"  B/A {sb['median'] / sa['median']:.4f} of {sa['median']:.6g} {sa['unit']}"
                f"  bound {sa['bound']:.0%}  {word} ({change:+.2%}, + is worse)"
            )
        fa, fb = base["failed_ops_share"], cand["failed_ops_share"]
        rose = fb > fa
        bad += rose
        print(
            f"  {'failed_ops_share':26s} A {fa:.6g} ({base['failed']}/{base['attempted']})"
            f"  B {fb:.6g} ({cand['failed']}/{cand['attempted']})  {'ROSE' if rose else 'ok'}"
        )
    return 1 if bad else 0


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    with open(argv[1], encoding="utf-8") as fa, open(argv[2], encoding="utf-8") as fb:
        return compare(json.load(fa), json.load(fb))


if __name__ == "__main__":
    sys.exit(main(sys.argv))
