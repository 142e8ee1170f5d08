"""Order statistics shared by the load generator and the span reducer."""

from __future__ import annotations

from statistics import fmean

__all__ = ["mean", "percentile"]


def percentile(values: list, q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of ``values``; 0.0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def mean(values: list) -> float:
    """Arithmetic mean; 0.0 if empty."""
    return fmean(values) if values else 0.0
