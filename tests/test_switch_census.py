"""Census of the ``REPRO_*`` environment switches ``src/`` reads.

Every switch doubles the configurations the suites and the benchmark
would have to cover, and ``benchmarks/e2e`` refuses to run with any of
them set, so the set is pinned exactly: a new switch — or one of the six
deleted ones coming back — fails here until this list is changed on
purpose.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SWITCHES = {"REPRO_TRANSPORT"}


def test_src_reads_exactly_the_pinned_switches():
    found = set()
    for path in SRC.rglob("*.py"):
        found.update(re.findall(r"REPRO_[A-Z_]+", path.read_text(encoding="utf-8")))
    assert found == SWITCHES
