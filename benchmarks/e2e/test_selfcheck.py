"""Self-check of the benchmark instrument (not part of tier-1):

    python -m pytest benchmarks/e2e -q

Runs the suite once in ``--quick`` mode (one-eighth scale, one repeat,
traced run and probes included, under a minute) and checks that the
instrument is whole: every metric ``BENCHMARK.json`` names is emitted
with a unit, names are well-formed, the traced layer shares partition
the window, and nothing failed.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def contract():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "quick.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    with open(out, encoding="utf-8") as handle:
        return json.load(handle), done.stdout


def test_contract_shape(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    names = [w["name"] for w in contract["workloads"]]
    names += [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(len(w["why"]) <= 200 for w in contract["workloads"])


def test_every_metric_is_emitted_with_a_unit(contract, quick):
    document, printed = quick
    assert set(document["workloads"]) == {w["name"] for w in contract["workloads"]}
    for name, result in document["workloads"].items():
        for metric in contract["end_to_end"]:
            emitted = result["end_to_end"][metric["name"]]
            assert emitted["unit"] == metric["unit"]
            assert emitted["n"] >= 1 and emitted["median"] > 0, (name, metric["name"])
        for metric in contract["per_layer"]:
            assert isinstance(result["per_layer"][metric["name"]], (int, float))
            line = re.search(
                rf"^{name}\s+{re.escape(metric['name'])}\s+\S+\s+{re.escape(metric['unit'])}$",
                printed, re.MULTILINE,
            )
            assert line, f"{name} {metric['name']} not printed with its unit"


def test_trace_partitions_the_window(quick):
    document, _ = quick
    for name, result in document["workloads"].items():
        shares = result["layer_shares"]
        assert abs(sum(shares.values()) - 1.0) <= 0.02, name
        assert shares["unattributed"] < 0.05, name


def test_nothing_failed(quick):
    document, _ = quick
    for name, result in document["workloads"].items():
        assert result["failed_ops_share"] == 0, (name, result["failures"])
        assert re.fullmatch(r"[0-9a-f]{64}", result["sim_digest"])
