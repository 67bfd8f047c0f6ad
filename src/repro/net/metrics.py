"""Protocol-cost metering.

Every benchmark claim in the paper is about *protocol shape* — how many
messages, to whom, verified online or offline.  The network meters these so
benchmarks measure rather than assert.  Counters are cheap plain ints; the
snapshot/delta API lets a harness bracket exactly one protocol run::

    before = network.metrics.snapshot()
    ... run protocol ...
    delta = network.metrics.delta_since(before)
    assert delta.messages == 3           # Fig. 3: messages 1-3

Drops are attributed: a fault-injection run can report not just *how many*
requests were lost but *which* (source, destination) pairs and message
types they were, which is what makes failure-path experiments explainable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.encoding.identifiers import PrincipalId


def _dict_delta(earlier: Dict, later: Dict) -> Dict:
    """later - earlier per key, keeping only nonzero entries."""
    return {
        k: v - earlier.get(k, 0)
        for k, v in later.items()
        if v - earlier.get(k, 0)
    }


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable view of counters at one instant."""

    messages: int
    bytes: int
    by_type: Dict[str, int]
    by_pair: Dict[Tuple[str, str], int]
    dropped: int
    dropped_by_type: Dict[str, int] = field(default_factory=dict)
    dropped_by_pair: Dict[Tuple[str, str], int] = field(default_factory=dict)

    def delta_to(self, later: "MetricsSnapshot") -> "MetricsSnapshot":
        """Counters accumulated between ``self`` (earlier) and ``later``.

        Reads in chronological order: ``before.delta_to(after)``.
        """
        return MetricsSnapshot(
            messages=later.messages - self.messages,
            bytes=later.bytes - self.bytes,
            by_type=_dict_delta(self.by_type, later.by_type),
            by_pair=_dict_delta(self.by_pair, later.by_pair),
            dropped=later.dropped - self.dropped,
            dropped_by_type=_dict_delta(
                self.dropped_by_type, later.dropped_by_type
            ),
            dropped_by_pair=_dict_delta(
                self.dropped_by_pair, later.dropped_by_pair
            ),
        )

    def messages_to(self, destination: PrincipalId) -> int:
        """Messages delivered to one principal (e.g. 'how often was the
        authentication server consulted?')."""
        dest = str(destination)
        return sum(
            count for (_, dst), count in self.by_pair.items() if dst == dest
        )


class NetworkMetrics:
    """Mutable counters owned by a :class:`~repro.net.network.Network`."""

    def __init__(self) -> None:
        self.messages = 0
        self.bytes = 0
        self.dropped = 0
        self.by_type: Counter = Counter()
        self.by_pair: Counter = Counter()
        self.dropped_by_type: Counter = Counter()
        self.dropped_by_pair: Counter = Counter()

    def record(self, source: str, destination: str, msg_type: str, size: int) -> None:
        self.messages += 1
        self.bytes += size
        self.by_type[msg_type] += 1
        self.by_pair[(source, destination)] += 1

    def record_drop(
        self,
        source: Optional[str] = None,
        destination: Optional[str] = None,
        msg_type: Optional[str] = None,
    ) -> None:
        """Count a dropped request, attributed when the caller knows to whom."""
        self.dropped += 1
        if msg_type is not None:
            self.dropped_by_type[msg_type] += 1
        if source is not None and destination is not None:
            self.dropped_by_pair[(source, destination)] += 1

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(
            messages=self.messages,
            bytes=self.bytes,
            by_type=dict(self.by_type),
            by_pair=dict(self.by_pair),
            dropped=self.dropped,
            dropped_by_type=dict(self.dropped_by_type),
            dropped_by_pair=dict(self.dropped_by_pair),
        )

    def delta_since(self, before: MetricsSnapshot) -> MetricsSnapshot:
        return before.delta_to(self.snapshot())
