"""Reference work that tracks the speed of the machine.

On a shared virtual machine the speed a single thread gets changes
while a run goes on: on a 2-core x86_64 guest, 200 back-to-back slices
took from 1.2 ms to 6.8 ms (median 2.1 ms), and ten runs of the same
workload, each with its own seed, spread two to three times as much in
wall time as after scaling (CHANGES.md gives the figures).  The loop
therefore runs a fixed slice of pure-Python integer work next to the
requests and reports every time scaled to the speed that slice shows: a
raw time t is reported as

    t * REFERENCE_NS / (time the reference slice took nearby)

so the figures read as times on a machine where the slice takes exactly
REFERENCE_NS, about its median on that guest.  The slice allocates no
containers, so it neither triggers nor pays for the program's garbage
collection.
"""

from __future__ import annotations

from time import perf_counter_ns

REFERENCE_NS = 2_000_000
_ITERATIONS = 4_000
_MODULUS = 1 << 300


def reference_ns() -> int:
    """Nanoseconds the reference slice takes now."""
    t0 = perf_counter_ns()
    x, y = 0, 3**200
    for i in range(_ITERATIONS):
        x += i * i % 7
        y = (y * 12345 + i) % _MODULUS
    return perf_counter_ns() - t0
