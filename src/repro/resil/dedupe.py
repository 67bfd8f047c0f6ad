"""Server-side response deduplication: exactly-once over at-least-once.

A retry after a *response*-leg loss resends the request verbatim — but the
handler already ran, and its side effects (replay-cache registrations,
ticket issuance, account mutations) are committed; re-running it would be
rejected as a replay or, worse, double-applied.  The paper's accept-once
registry solves this for check numbers (§4: a check number is recorded
"once a check is paid"); :class:`ResponseCache` generalizes it to every
RPC: the first execution's reply is cached under the request's identity
and returned for any byte-identical resend.

Only requests stamped with a retry id (``_rid``, added by
:class:`~repro.resil.channel.ResilientChannel`) participate: the rid is
what distinguishes a *resend* from a new logical request that happens to
carry identical bytes (e.g. two ``get-challenge`` calls).
"""

from __future__ import annotations

import hashlib
from typing import Optional

from repro.bounded import BoundedStore
from repro.clock import Clock
from repro.durable import Durable
from repro.encoding.canonical import encode
from repro.encoding.schema import decoder
from repro.net.message import Message

#: Payload key carrying the channel's per-logical-request retry id.
RID_KEY = "_rid"

#: A logged entry's expiry, exactly as it was logged.
_expires_at = decoder(float, "ResponseCache", "expires_at")


class ResponseCache(Durable):
    """Remembers one response per retry id, for a bounded window.

    Durable: every stored reply is logged as one ``response`` record, so
    a post-restart resend is still answered, not re-run.
    """

    SNAPSHOT = "responses"
    RECORDS = ("response",)

    def __init__(
        self,
        clock: Clock,
        window: float = 300.0,
        max_entries: int = 4096,
    ) -> None:
        self.clock = clock
        self.window = window
        #: key -> response payload, held until stored + ``window``.
        self._entries = BoundedStore(max_entries, clock.now)

    @property
    def hits(self) -> int:
        return self._entries.hits

    @staticmethod
    def key_of(message: Message) -> Optional[bytes]:
        """The dedupe key, or None when the request carries no retry id.

        The key binds source, message type, and the full payload (rid
        included), so a rid can never alias across senders or operations
        and a *different* payload under a reused rid misses the cache.
        """
        if RID_KEY not in message.payload:
            return None
        return hashlib.sha256(
            encode(
                [
                    str(message.source),
                    message.msg_type,
                    message.payload,
                ]
            )
        ).digest()

    def get(self, key: bytes) -> Optional[dict]:
        return self._entries.lookup(key)

    def put(self, key: bytes, response: dict) -> None:
        expires_at = self.clock.now() + self.window
        self._entries.put(key, response, expires_at)
        self.wal.append(
            "response",
            {"key": key, "expires_at": expires_at, "response": response},
        )

    def replay(self, kind: str, data: dict) -> None:
        self._entries.put(
            data["key"], data["response"], _expires_at(data["expires_at"])
        )

    def capture_state(self) -> dict:
        """Snapshot of every live cache entry."""
        return {
            "entries": [
                [key, expires_at, response]
                for key, response, expires_at in self._entries.entries()
            ]
        }

    def restore_state(self, state: dict) -> None:
        for key, expires_at, response in state["entries"]:
            self._entries.put(key, response, _expires_at(expires_at))
