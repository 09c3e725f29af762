"""Small statistics used by the benchmark: medians and the log-log fit
behind ``growth_exp``."""

from __future__ import annotations

import math
import statistics


def median(values) -> float:
    return float(statistics.median(values))


def loglog_fit(points) -> tuple[float, float]:
    """Least-squares slope of log(y) against log(x), and its R^2.

    ``points`` is a sequence of (x, y) with x, y > 0 and at least two
    distinct x.  For y = c * x^k the slope is k and R^2 is 1.
    """
    lx = [math.log(x) for x, _ in points]
    ly = [math.log(y) for _, y in points]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    sxx = sum((a - mx) ** 2 for a in lx)
    if sxx == 0:
        raise ValueError("a log-log fit needs at least two distinct sizes")
    sxy = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    slope = sxy / sxx
    syy = sum((b - my) ** 2 for b in ly)
    resid = sum((b - my - slope * (a - mx)) ** 2 for a, b in zip(lx, ly))
    r2 = 1.0 - resid / syy if syy > 0 else 1.0
    return slope, r2


def median_by_x(runs) -> list[tuple[float, float]]:
    """Collapse repeated runs of one ladder into one point per size: the
    median of the times measured at that size."""
    by_x: dict[float, list[float]] = {}
    for points in runs:
        for x, y in points:
            by_x.setdefault(x, []).append(y)
    return [(x, median(ys)) for x, ys in sorted(by_x.items())]
