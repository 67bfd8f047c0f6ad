"""Metrics registry: counters and fixed-bucket histograms.

The paper's claims are protocol-shape claims, and the ROADMAP's are
performance claims; both need numbers collected *where the work happens*
rather than reconstructed afterwards.  This registry is deliberately small —
two metric kinds, label sets as plain keyword arguments, and a
Prometheus-compatible data model so :func:`repro.obs.export.prometheus_text`
can expose everything in one pass:

* **Counter** — monotonically increasing totals (messages sent, tickets
  issued, checks cleared).
* **Histogram** — observations bucketed into *fixed* upper bounds chosen at
  registration, plus a running sum and count.  Fixed buckets keep every
  observation O(len(buckets)) and make two exports directly comparable.

Everything is in-process and synchronous; the simulator is single-threaded
by construction, so there are no locks on the hot path.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Tuple

_PROM_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def prometheus_name(name: str) -> str:
    """Sanitize a metric name for the Prometheus exposition format.

    Internal names use dots for namespacing (``vcache.sig.hit``); the
    exposition format only allows ``[a-zA-Z0-9_:]``, so dots and any
    other stray characters become underscores.
    """
    sanitized = _PROM_NAME_BAD.sub("_", name.replace(".", "_"))
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized

#: Default histogram buckets for durations in seconds — spans six decades
#: because a signature verify is microseconds while a cascaded protocol run
#: with simulated latency is tens of milliseconds.
LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    0.01, 0.025, 0.05,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)

#: Default histogram buckets for wire sizes in bytes.
SIZE_BUCKETS: Tuple[float, ...] = (
    64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 65536, 262144,
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    """Canonical, hashable form of a label set."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Metric:
    """Base for one named metric family (all label combinations)."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help


class Counter(Metric):
    """A monotonically increasing total, per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label combination."""
        return sum(self._values.values())

    def series(self) -> Iterable[Tuple[LabelKey, float]]:
        return sorted(self._values.items())


class HistogramSeries:
    """Bucket counts, sum, count, and exemplars for one label combination.

    ``exemplars`` maps a bucket index (``len(bounds)`` is the implicit
    ``+Inf`` bucket) to the most recent ``(trace_id, value)`` observed
    *natively* in that bucket — the OpenMetrics idea that a latency
    outlier in a bucket should link to one full causal trace.
    """

    __slots__ = ("bucket_counts", "sum", "count", "exemplars")

    def __init__(self, n_buckets: int) -> None:
        self.bucket_counts: List[int] = [0] * n_buckets
        self.sum = 0.0
        self.count = 0
        self.exemplars: Dict[int, Tuple[str, float]] = {}

    def observe(
        self,
        value: float,
        bounds: Tuple[float, ...],
        exemplar: Optional[str] = None,
    ) -> None:
        self.sum += value
        self.count += 1
        native = len(bounds)  # +Inf unless a finite bucket claims it
        for i, bound in enumerate(bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                native = min(native, i)
        if exemplar:
            self.exemplars[native] = (exemplar, value)


class Histogram(Metric):
    """Fixed-bucket histogram, per label set.

    ``buckets`` are inclusive upper bounds; an implicit ``+Inf`` bucket
    (``count``) always exists.  Bucket counts are stored cumulatively, as
    the Prometheus exposition format expects.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Tuple[float, ...] = LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be sorted and non-empty")
        self.buckets: Tuple[float, ...] = tuple(float(b) for b in buckets)
        self._series: Dict[LabelKey, HistogramSeries] = {}

    def observe(
        self, value: float, exemplar: Optional[str] = None, **labels: object
    ) -> None:
        """Record ``value``; ``exemplar`` is the observing request's
        trace id, remembered per bucket for outlier-to-trace joins."""
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = HistogramSeries(len(self.buckets))
        series.observe(float(value), self.buckets, exemplar=exemplar)

    def count(self, **labels: object) -> int:
        series = self._series.get(_label_key(labels))
        return series.count if series is not None else 0

    def total_count(self) -> int:
        return sum(s.count for s in self._series.values())

    def series(self) -> Iterable[Tuple[LabelKey, HistogramSeries]]:
        return sorted(self._series.items(), key=lambda item: item[0])


class MetricsRegistry:
    """Named metrics, created on first use and re-fetched thereafter.

    Re-registering a name with a different kind is a programming error and
    raises; re-registering with the same kind returns the existing family
    (help text and buckets from the first registration win).
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _register(self, cls, name: str, help: str, **kwargs) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = cls(name, help=help, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> Histogram:
        return self._register(
            Histogram, name, help, buckets=buckets or LATENCY_BUCKETS
        )

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def families(self) -> Iterable[Metric]:
        return [self._metrics[name] for name in sorted(self._metrics)]
