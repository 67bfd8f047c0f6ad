"""Synthetic workload generation for the benchmark harness.

The paper reports no measured workloads (it is a mechanism paper), so the
benchmarks drive the mechanisms with standard synthetic distributions:

* Zipf-skewed popularity (a handful of hot merchants take most of the
  traffic);
* payment streams with uniform amounts;
* random object subsets for on-the-fly delegation.

Everything is seeded through :class:`~repro.crypto.rng.Rng`, so a benchmark
run is exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.crypto.rng import Rng


class Zipf:
    """Zipf(s) sampler over ranks 0..n-1 via inverse-CDF table."""

    def __init__(self, n: int, s: float = 1.0, rng: Rng = None) -> None:
        if n < 1:
            raise ValueError("need at least one rank")
        self._rng = rng or Rng()
        weights = [1.0 / (rank + 1) ** s for rank in range(n)]
        total = sum(weights)
        cumulative = 0.0
        self._cdf: List[float] = []
        for w in weights:
            cumulative += w / total
            self._cdf.append(cumulative)

    def sample(self) -> int:
        u = self._rng.int_below(1_000_000_007) / 1_000_000_007.0
        lo, hi = 0, len(self._cdf) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo


@dataclass(frozen=True)
class Payment:
    """One payment: payor index, payee index, amount."""

    payor: int
    payee: int
    amount: int


def payment_workload(
    n_payments: int,
    n_clients: int,
    n_merchants: int,
    max_amount: int = 100,
    zipf_s: float = 1.0,
    rng: Rng = None,
) -> List[Payment]:
    """Payments from uniform clients to Zipf-popular merchants."""
    rng = rng or Rng()
    merchant_popularity = Zipf(n_merchants, s=zipf_s, rng=rng)
    payments: List[Payment] = []
    for _ in range(n_payments):
        payments.append(
            Payment(
                payor=rng.int_below(n_clients),
                payee=merchant_popularity.sample(),
                amount=1 + rng.int_below(max_amount),
            )
        )
    return payments


def delegation_subsets(
    n_delegations: int,
    n_objects: int,
    subset_size: int = 3,
    rng: Rng = None,
) -> List[Tuple[str, ...]]:
    """Random object subsets for on-the-fly delegation (benchmark C5).

    Each subset is what a user wants to delegate *right now* — the case the
    paper says roles handle poorly.
    """
    rng = rng or Rng()
    subsets: List[Tuple[str, ...]] = []
    for _ in range(n_delegations):
        chosen = set()
        while len(chosen) < min(subset_size, n_objects):
            chosen.add(f"obj/{rng.int_below(n_objects)}")
        subsets.append(tuple(sorted(chosen)))
    return subsets
