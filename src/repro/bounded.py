"""One bounded, expiring store: the "held until" rule, written once.

A check number is kept "until the expiration time on the check" (§4), an
authenticator for the freshness window (§6.2), verified work until a cache
needs the room.  Each such table is a :class:`BoundedStore`, and follows:

* an entry is gone once ``expires_at < now`` — the verifier's own
  comparison, so a proxy at exactly its expiry instant still counts;
* over ``max_entries``, the live entry that expires soonest is evicted;
  ties, entries that never expire included, go least recently used
  first, where a use is a ``put`` or a ``lookup``;
* a ``put`` whose expiry has already passed stores nothing.

A heap of ``(expires_at, use, key)`` finds expired entries and the next
victim in amortized O(log n); a store whose entries never expire reads no
clock and touches no heap.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Mapping
from typing import Callable, Dict, Hashable, List, Optional, Tuple


class BoundedStore(Mapping):
    """Key → value map whose entries may expire and whose size may be capped.

    Every read sees live entries only, least recently used first.  A
    :meth:`lookup` is a use and counts a hit or a miss; ``[]``, ``get``,
    ``in``, ``len`` and iteration only look.  ``evictions`` counts entries
    dropped for room, not expired ones.
    """

    def __init__(
        self,
        max_entries: Optional[int] = None,
        now: Optional[Callable[[], float]] = None,
    ) -> None:
        if max_entries is not None and max_entries <= 0:
            raise ValueError("a bounded store needs a positive capacity")
        self.max_entries = max_entries
        self._now = now
        #: key -> (value, expires_at, last use), least recently used first.
        self._entries: Dict[Hashable, Tuple[object, float, int]] = {}
        #: An item per use of an expiring entry; one a later use, put or
        #: pop superseded is skipped when it surfaces.
        self._heap: List[Tuple[float, int, Hashable]] = []
        self._uses = itertools.count()
        self.hits = self.misses = self.evictions = 0

    def _live(self) -> Dict[Hashable, Tuple[object, float, int]]:
        entries, heap = self._entries, self._heap
        if heap:
            now = self._now()
            while heap and heap[0][0] < now:
                key = heapq.heappop(heap)[2]
                if key in entries and entries[key][1] < now:
                    del entries[key]
        return entries

    def _use(self, key: Hashable, value: object, expires_at: float) -> None:
        entries, heap = self._entries, self._heap
        use = next(self._uses)
        entries[key] = (value, expires_at, use)
        if expires_at < math.inf:
            heapq.heappush(heap, (expires_at, use, key))
            if len(heap) > 2 * len(entries):  # mostly superseded: rebuild
                heap[:] = [(e[1], e[2], k) for k, e in entries.items()
                           if e[1] < math.inf]
                heapq.heapify(heap)

    def put(self, key: Hashable, value: object, expires_at=math.inf) -> int:
        """Hold ``value`` under ``key`` until ``expires_at``; returns how
        many entries were evicted to make room (0 or 1)."""
        entries = self._live()
        entries.pop(key, None)
        if expires_at < math.inf and expires_at < self._now():
            return 0
        self._use(key, value, expires_at)
        if self.max_entries is None or len(entries) <= self.max_entries:
            return 0
        heap = self._heap
        while heap:  # soonest expiry, then least recently used
            item = heapq.heappop(heap)
            victim = item[2]
            if entries.get(victim, ())[1:] == item[:2]:
                break
        else:
            victim = next(iter(entries))
        del entries[victim]
        self.evictions += 1
        return 1

    def lookup(self, key: Hashable, default: object = None) -> object:
        """Live value under ``key`` (a hit, and a use), else ``default``."""
        entry = self._live().pop(key, None)
        if entry is None:
            self.misses += 1
            return default
        self.hits += 1
        self._use(key, entry[0], entry[1])
        return entry[0]

    def pop(self, key: Hashable, default: object = None) -> object:
        entry = self._live().pop(key, None)
        return default if entry is None else entry[0]

    def expiry(self, key: Hashable) -> float:
        return self._live()[key][1]

    def __getitem__(self, key: Hashable) -> object:
        return self._live()[key][0]

    def __contains__(self, key: object) -> bool:
        return key in self._live()

    def __len__(self) -> int:
        return len(self._live())

    def __iter__(self):
        return iter(list(self._live()))

    def entries(self) -> List[Tuple[Hashable, object, float]]:
        """Live ``(key, value, expires_at)``: putting them, in order, into
        an empty store rebuilds this one."""
        return [(k, e[0], e[1]) for k, e in self._live().items()]

    def clear(self) -> None:
        """Forget every entry; the counters are kept."""
        self._entries.clear()
        self._heap.clear()

    def stats(self) -> dict:
        return dict(hits=self.hits, misses=self.misses,
                    evictions=self.evictions, entries=len(self))
