"""Summaries of repeated measurements: median, quartiles, the highest
percentile that still has at least ten samples beyond it, and the choice
of the child runs that the host left on the CPU."""

from __future__ import annotations

import math
import statistics

PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_SAMPLES = 10
# Share of a child's wall time it may spend off the CPU and still count as
# left alone by the host.
OFF_CPU_ALLOWANCE = 0.05


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> float | None:
    """Highest listed percentile with at least ten of n samples above it."""
    for p in PERCENTILES:
        # In thousandths, so 99.9 is exact.
        if n * (1000 - round(p * 10)) >= TAIL_SAMPLES * 1000:
            return p
    return None


def summarize(values: list[float]) -> dict:
    """Median, quartiles (as statistics.quantiles gives them), sample count
    and, when there are enough samples, the tail percentile."""
    if not values:
        raise ValueError("no samples")
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    out = {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}
    p = tail_percentile(len(values))
    if p is not None:
        out[f"p{p:g}"] = percentile(values, p)
    return out


def least_off_cpu(runs: list[dict]) -> list[dict]:
    """The child runs that the host left on the CPU, in their original order.

    A run's time off the CPU is wall_s - cpu_s. The children are
    single-threaded and read inputs from a warm page cache, so that time is
    mostly time the host withheld the virtual CPU (steal), which comes in
    bursts of seconds to minutes and only ever adds. Kept are the runs off
    the CPU for at most OFF_CPU_ALLOWANCE of their wall time, but never fewer
    than the half (rounded up) with the smallest such share. A change to
    the program moves every run's wall_s, the kept runs' too."""
    if not runs:
        raise ValueError("no samples")

    def off_share(run: dict) -> float:
        return (run["wall_s"] - run["cpu_s"]) / run["wall_s"]

    order = sorted(range(len(runs)), key=lambda i: off_share(runs[i]))
    keep = max((len(runs) + 1) // 2, sum(off_share(r) <= OFF_CPU_ALLOWANCE for r in runs))
    return [runs[i] for i in sorted(order[:keep])]
