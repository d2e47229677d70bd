"""Census of the ``REPRO_*`` environment switches ``src/`` reads.

Every switch doubles the configurations the suites and the benchmark
would have to cover, and ``benchmarks/e2e`` refuses to run with any of
them set, so the set is pinned exactly — and it is empty: all seven
switches ``src/`` once read are deleted, so a switch coming back fails
here until this pin is changed on purpose.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SWITCHES: set[str] = set()


def test_src_reads_exactly_the_pinned_switches():
    found = set()
    for path in SRC.rglob("*.py"):
        found.update(re.findall(r"REPRO_[A-Z_]+", path.read_text(encoding="utf-8")))
    assert found == SWITCHES
