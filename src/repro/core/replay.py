"""Replay suppression state kept by end-servers.

Two kinds of replay must be stopped:

* **Authenticator replay** — an eavesdropper re-sends a captured possession
  proof.  Suppressed by :class:`AuthenticatorCache` within the freshness
  window, exactly as Kerberos replay caches do (§6.2).
* **Accept-once replay** — the same single-use proxy (e.g. a check, §7.7) is
  presented twice.  Suppressed by :class:`AcceptOnceRegistry`: "the
  accounting server keeps track of the check number until the expiration
  time on the check" (§4).

Both keep their entries in a :class:`~repro.bounded.BoundedStore`: expiry
costs O(log n) amortized rather than a full scan — an accounting server
tracks one entry per *live* check, which can be large.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.bounded import BoundedStore
from repro.clock import Clock
from repro.durable import Durable
from repro.encoding.identifiers import PrincipalId
from repro.encoding.schema import wire
from repro.errors import WireSchemaError


@wire
@dataclass(frozen=True)
class AcceptRecord:
    """One committed accept-once registration: the ``accept`` WAL record,
    and (its ``kind`` given by the list it is in) one snapshot row."""

    kind: str
    grantor: PrincipalId
    identifier: str
    expires_at: float
    used: int = field(metadata={"min": 1})

    def __post_init__(self) -> None:
        if self.kind not in ("once", "count"):
            raise ValueError(f"unknown registration kind {self.kind!r}")


#: A snapshot list, the kind of its rows, and a row's fields in order (a
#: ``seen`` row was used once).
_SNAPSHOT_ROWS = (
    ("seen", "once", ("grantor", "identifier", "expires_at")),
    ("counts", "count", ("grantor", "identifier", "used", "expires_at")),
)


class AcceptOnceRegistry(Durable):
    """Tracks accept-once identifiers per grantor until they expire (§7.7).

    Registrations can be made transactional: the paper records a check
    number only "once a check is paid" (§4), so a server wraps
    verification-plus-payment in :meth:`transaction` and a failure after
    verification rolls the identifier back, leaving the check usable.

    Count-limited identifiers (:meth:`register_counted`) support the
    ``use-limit`` restriction — accept-N rather than accept-once.

    Durable: a registration is logged as one ``accept`` record when it
    commits — immediately outside a transaction, at the outermost commit
    inside one, never once rolled back.
    """

    SNAPSHOT = "accept_once"
    RECORDS = ("accept",)

    def __init__(self, clock: Clock) -> None:
        #: (grantor, identifier) -> uses (1 here; so far, in ``_counts``),
        #: held until the proxy expires.  Uncapped: evicting a live
        #: identifier would re-admit a spent check.
        self._seen = BoundedStore(now=clock.now)
        self._counts = BoundedStore(now=clock.now)
        self._txn_stack: List[List[Tuple[str, Tuple[PrincipalId, str]]]] = []

    def register(
        self, grantor: PrincipalId, identifier: str, expires_at: float
    ) -> bool:
        """Record (grantor, identifier).  True iff this is the first sighting.

        An identifier becomes reusable once the proxy that carried it has
        expired — the paper keeps check numbers only "until the expiration
        time on the check".
        """
        key = (grantor, identifier)
        if key in self._seen:
            return False
        self._seen.put(key, 1, expires_at)
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
        key = (grantor, identifier)
        used = self._counts.get(key, 0)
        if used >= limit:
            return False
        self._counts.put(key, used + 1, expires_at)
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
        them); only the outermost commit makes them final and logs them.
        """
        added: List[Tuple[str, Tuple[PrincipalId, str]]] = []
        self._txn_stack.append(added)
        try:
            yield
        except BaseException:
            for kind, key in added:
                table = self._seen if kind == "once" else self._counts
                if table.get(key, 0) > 1:
                    table.put(key, table[key] - 1, table.expiry(key))
                else:
                    table.pop(key)
            raise
        finally:
            self._txn_stack.pop()
        if self._txn_stack:
            self._txn_stack[-1].extend(added)
        else:
            for kind, key in added:
                self._emit(kind, key)

    def _emit(self, kind: str, key: Tuple[PrincipalId, str]) -> None:
        """Log one *committed* registration."""
        table = self._seen if kind == "once" else self._counts
        used = table.get(key)
        if used is not None:
            grantor, identifier = key
            self.wal.append(
                "accept",
                AcceptRecord(kind, grantor, identifier, table.expiry(key), used),
            )

    def _restore(self, record: AcceptRecord) -> None:
        """Re-insert one committed registration.

        An expired one is not stored (the paper keeps identifiers only
        "until the expiration time" — there is nothing left to protect).
        Counted entries keep the highest replayed use count, so replaying
        N commit records for the same key lands on ``used = N``'s final
        value rather than accumulating.
        """
        table = self._seen if record.kind == "once" else self._counts
        key = (record.grantor, record.identifier)
        table.put(key, max(table.get(key, 0), record.used), record.expires_at)

    def replay(self, kind: str, data: dict) -> None:
        self._restore(AcceptRecord.from_wire(data))

    def capture_state(self) -> dict:
        """Snapshot of every live registration (wire-form keys)."""
        return {
            "seen": [
                [grantor.to_wire(), identifier, expires_at]
                for (grantor, identifier), _, expires_at
                in self._seen.entries()
            ],
            "counts": [
                [grantor.to_wire(), identifier, used, expires_at]
                for (grantor, identifier), used, expires_at
                in self._counts.entries()
            ],
        }

    def restore_state(self, state: dict) -> None:
        for name, kind, fields in _SNAPSHOT_ROWS:
            for row in state[name]:
                if type(row) is not list or len(row) != len(fields):
                    raise WireSchemaError(
                        f"AcceptRecord: {name} row {row!r} is not "
                        f"[{', '.join(fields)}]"
                    )
                self._restore(AcceptRecord.from_wire(
                    {"kind": kind, "used": 1, **dict(zip(fields, row))}
                ))

    def __len__(self) -> int:
        return len(self._seen) + len(self._counts)


class AuthenticatorCache:
    """Suppresses re-presentation of possession proofs within the window.

    Memory is bounded two ways.  Retention is clamped: an authenticator
    whose claimed timestamp sits at the far edge of the skew window can
    never be held past ``now + window + max_skew`` (a fresher claimed
    timestamp would be rejected as from-the-future by the caller, so
    nothing legitimately needs to be remembered longer).  On top of the
    clamp, ``max_entries`` is a hard cap evicting the soonest expiry.  An
    entry evicted at the cap is still inside its window, so a replay of it
    that passes the caller's freshness check is accepted: once the cache
    is full, a flood of fresh authenticators makes room for a replay (see
    ``tests/test_vcache.py::TestAuthenticatorCacheBounds``).
    """

    def __init__(
        self,
        clock: Clock,
        window: float = 300.0,
        max_skew: float = 60.0,
        max_entries: int = 65536,
    ) -> None:
        self._clock = clock
        self._window = window
        self._max_skew = max_skew
        #: digest -> True, held until its clamped expiry.
        self._seen = BoundedStore(max_entries, clock.now)

    def register(
        self, digest: bytes, timestamp: Optional[float] = None
    ) -> bool:
        """Record an authenticator digest.  True iff not seen before.

        ``timestamp`` is the authenticator's *claimed* creation time; when
        given, the entry is retained for ``window`` past that claim, but
        never beyond ``now + window + max_skew`` and never less than until
        ``now`` (so a replay attempted immediately is always caught).
        """
        if digest in self._seen:
            return False
        now = self._clock.now()
        base = now if timestamp is None else float(timestamp)
        expires_at = max(now, min(base + self._window,
                                  now + self._window + self._max_skew))
        self._seen.put(digest, True, expires_at)
        return True

    def __len__(self) -> int:
        return len(self._seen)
