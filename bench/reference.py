"""Reference speed: scales CPU-bound timings to a fixed machine speed.

A shared VM can switch between speeds about 1.5x apart for seconds to minutes
at a time, and each vCPU switches on its own. That moves raw medians between
runs of the same code by more than the benchmark's bounds. So a CPU-bound
timing is multiplied by `speed_scale()`, measured in the same process just
before it: REFERENCE_S over the best of three timings of `reference_task`.
The result reads as it would on a machine where the task takes REFERENCE_S.
The task does not touch whatif, so a change to the program cannot move it.

This module imports nothing that whatif imports, so that the set-up probe can
use it before timing `import whatif`.
"""

import math
from time import perf_counter

REFERENCE_S = 0.002


def reference_task() -> list:
    """Fixed pure-Python work: dict, list, str and sort operations."""
    counts: dict = {}
    rows = []
    for i in range(3000):
        key = f"k{i % 97}"
        counts[key] = counts.get(key, 0) + i
        rows.append((key, i * 0.5))
    return sorted(rows[:500])


def speed_scale() -> float:
    """REFERENCE_S over the best of three timings of the reference task."""
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        reference_task()
        best = min(best, perf_counter() - start)
    return REFERENCE_S / best
