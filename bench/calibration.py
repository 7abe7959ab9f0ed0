"""Machine-speed calibration for a shared host.

The benchmark runs on machines whose speed drifts by 15-25% over minutes,
because other tenants load the host; two sets of runs of the same code can
then differ by more than any useful bound.  Each worker therefore times a
fixed kernel of the benchmark's own (pure-Python float arithmetic, small
numpy calls and float formatting, like the program's scalar paths) before
every item it measures and once after the last, and each item's time is
divided by ``item_factors``: the host's slowdown, as the two kernel runs
around the item read it, against a host where the kernel takes
REFERENCE_S.  Set-up times are scaled by ``speed_factor`` from kernel runs
made just after set-up.  The raw timings and the kernel samples are kept in
the results file.
"""

from __future__ import annotations

import math
import statistics
import time

# A fixed scale, near the kernel's median time on a 2-core 2.1 GHz host with
# Python 3.11.7 and numpy 2.4 (1.2-1.8 ms there, depending on the host's load).
REFERENCE_S = 1.5e-3
SETUP_SAMPLES = 15
# Set-up is scaled by the square root of the slowdown: its kernel runs come
# after it, not during it, and over ten runs per workload the square root
# left a smaller spread than the full slowdown on two of the three.
SETUP_EXPONENT = 0.5


def kernel() -> float:
    import numpy as np  # not at module level: the worker times its first import

    acc, x = 0.0, 1.2345
    for i in range(4000):
        x = math.sqrt(x * x + 1e-3 * i) / 1.0001
        acc += x
    grid = np.linspace(0.0, 1.0, 64)
    for _ in range(150):
        acc += float(np.sum(np.sqrt(grid + acc * 1e-12)))
    text = ",".join(f"{v:.17g}" for v in np.linspace(0.0, acc, 256))
    return acc + len(text)


def sample() -> float:
    """Seconds taken by one kernel run."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def speed_factor(samples: list[float]) -> float:
    """Divide set-up times by this: the host's slowdown (median kernel time
    over REFERENCE_S) raised to SETUP_EXPONENT."""
    return (statistics.median(samples) / REFERENCE_S) ** SETUP_EXPONENT


def item_factors(samples: list[float]) -> list[float]:
    """Divide item k's time by entry k: the slowdown read by the kernel runs
    just before and just after the item (``samples`` has one run before
    each item and one after the last).  Over ten 30-second runs per workload
    this local, full correction left a run-to-run spread of 2-4% in median
    latency and throughput, against 5-12% for the square root of one
    slowdown per run, because the host's speed changes within a run."""
    return [(a + b) / (2.0 * REFERENCE_S) for a, b in zip(samples, samples[1:])]
