"""Replay suppression state kept by end-servers.

Two kinds of replay must be stopped:

* **Authenticator replay** — an eavesdropper re-sends a captured possession
  proof.  Suppressed by :class:`AuthenticatorCache` within the freshness
  window, exactly as Kerberos replay caches do (§6.2).
* **Accept-once replay** — the same single-use proxy (e.g. a check, §7.7) is
  presented twice.  Suppressed by :class:`AcceptOnceRegistry`: "the
  accounting server keeps track of the check number until the expiration
  time on the check" (§4).

Both caches expire entries against the injected clock using an expiry heap,
so each operation costs O(log n) amortized rather than a full scan — an
accounting server tracks one entry per *live* check, which can be large.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.clock import Clock
from repro.encoding.identifiers import PrincipalId


class AcceptOnceRegistry:
    """Tracks accept-once identifiers per grantor until they expire (§7.7).

    Registrations can be made transactional: the paper records a check
    number only "once a check is paid" (§4), so a server wraps
    verification-plus-payment in :meth:`transaction` and a failure after
    verification rolls the identifier back, leaving the check usable.

    Count-limited identifiers (:meth:`register_counted`) support the
    ``use-limit`` restriction — accept-N rather than accept-once.
    """

    def __init__(self, clock: Clock) -> None:
        self._clock = clock
        self._seen: Dict[Tuple[PrincipalId, str], float] = {}
        self._counts: Dict[Tuple[PrincipalId, str], Tuple[int, float]] = {}
        #: (expiry, kind, key) min-heap driving amortized expiration.
        self._expiry_heap: List[tuple] = []
        self._txn_stack: List[List[Tuple[str, Tuple[PrincipalId, str]]]] = []
        #: Called with ``(kind, grantor, identifier, expires_at, used)``
        #: once a registration commits — immediately outside a
        #: transaction, at the outermost commit inside one, never for a
        #: rolled-back registration.  Installed by the durability wiring.
        self.commit_sink = None

    def register(
        self, grantor: PrincipalId, identifier: str, expires_at: float
    ) -> bool:
        """Record (grantor, identifier).  True iff this is the first sighting.

        An identifier becomes reusable once the proxy that carried it has
        expired — the paper keeps check numbers only "until the expiration
        time on the check".
        """
        self._expire()
        key = (grantor, identifier)
        if key in self._seen:
            return False
        self._seen[key] = expires_at
        heapq.heappush(self._expiry_heap, (expires_at, "once", key))
        if self._txn_stack:
            self._txn_stack[-1].append(("once", key))
        else:
            self._emit("once", key)
        return True

    def register_counted(
        self,
        grantor: PrincipalId,
        identifier: str,
        expires_at: float,
        limit: int,
    ) -> bool:
        """Count a use of (grantor, identifier); True while under ``limit``.

        Generalizes accept-once to accept-N (the ``use-limit`` restriction).
        Counts expire with the proxy, like accept-once identifiers, and are
        transactional: a failed request does not consume a use.
        """
        self._expire()
        key = (grantor, identifier)
        used, _ = self._counts.get(key, (0, 0.0))
        if used >= limit:
            return False
        self._counts[key] = (used + 1, expires_at)
        if used == 0:
            heapq.heappush(self._expiry_heap, (expires_at, "count", key))
        if self._txn_stack:
            self._txn_stack[-1].append(("count", key))
        else:
            self._emit("count", key)
        return True

    @contextmanager
    def transaction(self) -> Iterator[None]:
        """Roll back registrations made inside the block if it raises.

        Nested scopes compose: an inner commit merges its registrations
        into the enclosing frame (an outer failure must still unwind
        them); only the outermost commit makes them final and emits them
        to the durability sink.
        """
        added: List[Tuple[str, Tuple[PrincipalId, str]]] = []
        self._txn_stack.append(added)
        try:
            yield
        except BaseException:
            for kind, key in added:
                if kind == "once":
                    self._seen.pop(key, None)
                else:
                    used, expiry = self._counts.get(key, (0, 0.0))
                    if used <= 1:
                        self._counts.pop(key, None)
                    else:
                        self._counts[key] = (used - 1, expiry)
            raise
        finally:
            self._txn_stack.pop()
        if self._txn_stack:
            self._txn_stack[-1].extend(added)
        else:
            for kind, key in added:
                self._emit(kind, key)

    def _emit(self, kind: str, key: Tuple[PrincipalId, str]) -> None:
        """Report one *committed* registration to the durability sink."""
        if self.commit_sink is None:
            return
        grantor, identifier = key
        if kind == "once":
            expires_at = self._seen.get(key)
            if expires_at is None:
                return
            self.commit_sink(kind, grantor, identifier, expires_at, 1)
        else:
            entry = self._counts.get(key)
            if entry is None:
                return
            used, expires_at = entry
            self.commit_sink(kind, grantor, identifier, expires_at, used)

    def restore(
        self,
        kind: str,
        grantor: PrincipalId,
        identifier: str,
        expires_at: float,
        used: int = 1,
    ) -> None:
        """Re-insert one committed registration during recovery.

        Expired entries are skipped (the paper keeps identifiers only
        "until the expiration time" — there is nothing left to protect).
        Counted entries keep the highest replayed use count, so replaying
        N commit records for the same key lands on ``used = N``'s final
        value rather than accumulating.
        """
        if expires_at < self._clock.now():
            return
        key = (grantor, identifier)
        if kind == "once":
            if key not in self._seen:
                self._seen[key] = expires_at
                heapq.heappush(self._expiry_heap, (expires_at, "once", key))
        else:
            prior_used, _ = self._counts.get(key, (0, 0.0))
            self._counts[key] = (max(prior_used, int(used)), expires_at)
            if prior_used == 0:
                heapq.heappush(self._expiry_heap, (expires_at, "count", key))

    def capture_state(self) -> dict:
        """Snapshot of every live registration (wire-form keys)."""
        self._expire()
        return {
            "seen": [
                [grantor.to_wire(), identifier, expires_at]
                for (grantor, identifier), expires_at in self._seen.items()
            ],
            "counts": [
                [grantor.to_wire(), identifier, used, expires_at]
                for (grantor, identifier), (used, expires_at)
                in self._counts.items()
            ],
        }

    def restore_state(self, state: dict) -> None:
        """Restore :meth:`capture_state` output (snapshot recovery)."""
        for grantor_wire, identifier, expires_at in state["seen"]:
            self.restore(
                "once",
                PrincipalId.from_wire(grantor_wire),
                identifier,
                float(expires_at),
            )
        for grantor_wire, identifier, used, expires_at in state["counts"]:
            self.restore(
                "count",
                PrincipalId.from_wire(grantor_wire),
                identifier,
                float(expires_at),
                used=int(used),
            )

    def _expire(self) -> None:
        now = self._clock.now()
        heap = self._expiry_heap
        while heap and heap[0][0] < now:
            expiry, kind, key = heapq.heappop(heap)
            if kind == "once":
                # Only drop if this heap entry is the live registration
                # (the key may have been re-registered after rollback).
                if self._seen.get(key) == expiry:
                    del self._seen[key]
            else:
                entry = self._counts.get(key)
                if entry is not None and entry[1] == expiry:
                    del self._counts[key]

    def __len__(self) -> int:
        self._expire()
        return len(self._seen) + len(self._counts)


class AuthenticatorCache:
    """Suppresses re-presentation of possession proofs within the window.

    Memory is bounded two ways.  Retention is clamped: an authenticator
    whose claimed timestamp sits at the far edge of the skew window can
    never be held past ``now + window + max_skew`` (a fresher claimed
    timestamp would be rejected as from-the-future by the caller, so
    nothing legitimately needs to be remembered longer).  On top of the
    clamp, ``max_entries`` is a hard cap with oldest-expiry-first
    eviction — an entry evicted early was already unreplayable without
    also failing the caller's freshness check by the time it mattered.
    """

    def __init__(
        self,
        clock: Clock,
        window: float = 300.0,
        max_skew: float = 60.0,
        max_entries: int = 65536,
    ) -> None:
        if max_entries <= 0:
            raise ValueError("authenticator cache needs a positive capacity")
        self._clock = clock
        self._window = window
        self._max_skew = max_skew
        self._max_entries = max_entries
        self._seen: Dict[bytes, float] = {}
        self._expiry_heap: List[Tuple[float, bytes]] = []

    def register(
        self, digest: bytes, timestamp: Optional[float] = None
    ) -> bool:
        """Record an authenticator digest.  True iff not seen before.

        ``timestamp`` is the authenticator's *claimed* creation time; when
        given, the entry is retained for ``window`` past that claim, but
        never beyond ``now + window + max_skew`` and never less than until
        ``now`` (so a replay attempted immediately is always caught).
        """
        self._expire()
        if digest in self._seen:
            return False
        now = self._clock.now()
        base = now if timestamp is None else float(timestamp)
        expires_at = max(now, min(base + self._window,
                                  now + self._window + self._max_skew))
        self._seen[digest] = expires_at
        heapq.heappush(self._expiry_heap, (expires_at, digest))
        while len(self._seen) > self._max_entries:
            self._evict_oldest()
        return True

    def _evict_oldest(self) -> None:
        heap = self._expiry_heap
        while heap:
            expiry, digest = heapq.heappop(heap)
            if self._seen.get(digest) == expiry:
                del self._seen[digest]
                return

    def _expire(self) -> None:
        now = self._clock.now()
        heap = self._expiry_heap
        while heap and heap[0][0] < now:
            expiry, digest = heapq.heappop(heap)
            if self._seen.get(digest) == expiry:
                del self._seen[digest]

    def __len__(self) -> int:
        self._expire()
        return len(self._seen)
