"""Order statistics used for every reported number.

A run reports quartiles *across rounds* taken on the undisturbed side
(Q3 of a rate, Q1 of a latency): on a shared host interference only ever
slows a round down, so the fast side of the round distribution is the
part that repeats from run to run.
"""

from __future__ import annotations

from collections.abc import Sequence


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0..1) by linear interpolation between order
    statistics (the ``inclusive`` method: q=0 is the minimum, q=1 the
    maximum, a single value is every quantile of itself).

    Returns 0.0 for an empty series: a per-layer metric whose layer did
    no work on a workload reads zero instead of failing the run.
    """
    if not values:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)
