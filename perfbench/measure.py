"""Timing arithmetic: the calibration kernel and the statistics the
benchmark reports.

The reference machine (below) switches between a fast and a slow
mode every few seconds, per process, and the mix differs from run to run.
Every timed operation therefore runs between two calls of a fixed
pure-Python kernel in the same process and is reported as
``raw * CAL_REF / mean(kernel before, kernel after)``.  RATIONALE.md has
the measurements behind this choice.
"""

from __future__ import annotations

# Only ``time`` at module level: set-up processes import this module before
# timing ``import matbisim.cli`` and must not preload its dependencies.
import time

#: Mean kernel time on the reference machine (2-vCPU Intel Xeon VM,
#: Python 3.11, about 2000 samples); calibrated times read as seconds on
#: that machine.
CAL_REF = 0.0193

# 28 x 28 small integers from a fixed linear congruential sequence.
_ROWS = tuple(tuple((i * 28 + j) * 1103515245 + 12345 >> 16 & 7 for j in range(28)) for i in range(28))
_COLS = tuple(zip(*_ROWS))


def kernel() -> float:
    """Run the fixed calibration loop (about 25 ms) and return its duration."""
    started = time.perf_counter()
    for _ in range(11):
        for row in _ROWS:
            for col in _COLS:
                acc = 0
                for x, y in zip(row, col):
                    z = x & y
                    if z:
                        acc |= z
    return time.perf_counter() - started


def calibrate(raw: float, before: float, after: float) -> float:
    """A time in reference-machine seconds, from the kernel times around it."""
    return raw * CAL_REF * 2.0 / (before + after)


def gmean(values) -> float:
    import math

    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def jitter(samples: dict[str, list[float]]) -> tuple[float, int]:
    """p90/median of repeats, each divided by its own operation's median;
    returns the ratio and the number of samples behind it."""
    import statistics

    ratios = []
    for values in samples.values():
        mid = statistics.median(values)
        ratios += [v / mid for v in values]
    if len(ratios) < 2:
        return 1.0, len(ratios)
    return statistics.quantiles(ratios, n=10)[-1], len(ratios)
