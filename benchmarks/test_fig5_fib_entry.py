"""FIG5 — Figure 5: the 12-byte EXPRESS FIB entry.

Reproduces the entry format (32-bit source, 24-bit dest, 5-bit
incoming interface, 32-bit outgoing bitmap in 12 bytes) and measures
the data-plane lookup rate the format supports in this implementation.
The paper's hardware point of comparison is "4 nanosecond SRAMs that
deliver about 100 million lookups per second"; a Python dict is orders
of magnitude slower. The *per-entry memory* — the thing Figure 6
prices — is 12 bytes in the packed format, and the report sets beside
it what this implementation's FIB actually holds per entry (a dict
slot keyed by the interned channel, the row shared; measured by
``tests/core/test_state_budget.py``, which asserts its budget).
"""

import sys
from pathlib import Path

from conftest import report

from repro.inet.addr import parse_address, ssm_address
from repro.routing.fib import FIB_ENTRY_BYTES, FibEntry, MulticastFib

# The budget test is the one implementation of the heap measurement.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.core.test_state_budget import fib_bytes_per_entry  # noqa: E402

S = parse_address("171.64.0.1")


def test_fig5_entry_format(benchmark):
    entry = FibEntry(
        source=S, dest_suffix=0x00ABCD, incoming_interface=3, outgoing=0b10110
    )
    packed = benchmark(entry.pack)
    assert len(packed) == FIB_ENTRY_BYTES == 12
    assert FibEntry.unpack(packed) == entry

    report(
        "fig5_fib_entry",
        [
            "Figure 5: EXPRESS FIB entry format",
            f"  paper:    source 32b | dest 24b | iif 5b | oifs 32b = 12 bytes",
            f"  measured: pack() -> {len(packed)} bytes "
            f"(fields round-trip exactly)",
            f"  layout:   {packed.hex(' ')}",
        ],
    )


def test_fig5_lookup_rate(benchmark):
    """Data-plane lookup throughput over a populated FIB."""
    fib = MulticastFib()
    for suffix in range(10_000):
        entry = fib.install(S, ssm_address(suffix), incoming_interface=1)
        entry.add_outgoing(2)
    group = ssm_address(5_000)

    result = benchmark(fib.lookup, S, group, 1)
    assert result == (2,)
    held = fib_bytes_per_entry()

    report(
        "fig5_lookup_rate",
        [
            "Figure 5 (context): exact-match (S,E) lookup",
            "  paper hardware: ~100M lookups/s (4ns SRAM)",
            f"  this implementation: pure-Python dict, {len(fib)} entries,",
            f"  memory at 12 B/entry: {fib.memory_bytes():,} bytes",
            f"  memory held (traced heap): {held:.1f} B/entry -- a dict slot keyed",
            "  by the interned channel, one (iif, oif bitmap) row shared by",
            "  every entry holding it (169.5 B/entry as a key tuple + object)",
            "  (absolute lookup speed is substrate-dependent; the claim",
            "   under test is the 12-byte entry and exact-match+iif check)",
        ],
    )
