"""Times in reference seconds.

The machines this benchmark runs on are shared, and their throughput
moves in phases of seconds to minutes: a fixed pure-Python loop has been
seen to take anywhere from 0.7 to 1.5 times its median, with CPU time
following wall time. Every time the benchmark reports is therefore
scaled by how fast the machine ran at the moment it was measured: a
measured time t, taken while ``chunk()`` took c seconds on average, is
reported as t * REFERENCE_S / c. On a machine where ``chunk()`` takes
REFERENCE_S, reference seconds are wall-clock seconds.

``chunk`` exercises what polkit spends its time on (hashing tuples and
frozensets, dictionary lookups, allocation) and nothing from polkit
itself, so no change to polkit can move it. Its table stays under two
thousand entries, so it adds nothing noticeable to peak memory.
"""

from __future__ import annotations

import time

# About the median time of ``chunk()`` on the 2-core x86-64 virtual
# machine the bounds in BENCHMARK.json were set on.
REFERENCE_S = 0.020


def chunk() -> float:
    """Run the fixed calibration loop once and return its duration."""
    start = time.perf_counter()
    table = {}
    for i in range(20_000):
        key = (i % 251, str(i % 7))
        table[key] = table.get(key, 0) + 1
        pair = frozenset((i % 7, i % 11))
        table[pair] = table.get(pair, 0) + 1
    return time.perf_counter() - start


def speed(durations) -> float:
    """The factor that turns seconds measured while the given chunk
    durations were taken into reference seconds."""
    return REFERENCE_S * len(durations) / sum(durations)
