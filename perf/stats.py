"""Exact order statistics over raw samples (no digest, no buckets)."""

from __future__ import annotations

import statistics
from typing import Dict, Sequence


def percentiles(samples: Sequence[float]) -> Dict[str, float]:
    """Exact p50/p95/p99 of ``samples`` (``statistics.quantiles`` cut points).

    Needs at least two samples; the benchmark guarantees hundreds.
    """
    cuts = statistics.quantiles(samples, n=100)
    return {"p50": cuts[49], "p95": cuts[94], "p99": cuts[98]}


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles of one metric over several invocations."""
    if len(values) < 2:
        only = float(values[0])
        return {"median": only, "q1": only, "q3": only}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for one value)."""
    s = summary(values)
    return (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0
