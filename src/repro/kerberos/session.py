"""The AP exchange: presenting a ticket to an end-server (§6.2).

"To prove its identity, a client sends the ticket to the end-server along
with an authenticator which has been encrypted using the session key.  The
authenticator proves that the client actually possesses the session key
included in the ticket.  Without this step an attacker would be able to
reuse a ticket that it obtained by eavesdropping."

Ticket ``authorization-data`` restrictions bind to the resulting session:
the end-server evaluates them on every request made in that session.  For a
*proxy ticket* — one whose authorization-data carries a grantee restriction
(issued by the TGS proxy exchange, §6.3) — the authenticator is made by the
grantee under its own name; the session records the ticket's client (the
grantor, whose rights apply) and the presenter (the grantee, who must be a
named delegate) separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.clock import Clock
from repro.core.replay import AuthenticatorCache
from repro.core.restrictions import Grantee, Restriction
from repro.crypto.keys import SymmetricKey
from repro.crypto.rng import DEFAULT_RNG, Rng
from repro.encoding.identifiers import PrincipalId
from repro.errors import AuthenticatorError, ReplayError, TicketError
from repro.kerberos.ticket import (
    ApRequest,
    Authenticator,
    AuthenticatorBody,
    Credentials,
)


def make_ap_request(
    credentials: Credentials,
    clock: Clock,
    presenter: Optional[PrincipalId] = None,
    subkey: Optional[SymmetricKey] = None,
    authorization_data: Tuple[Restriction, ...] = (),
    rng: Optional[Rng] = None,
) -> ApRequest:
    """Client side: build the AP-REQ.

    ``presenter`` defaults to the credentials' client; a grantee using a
    proxy ticket passes its own name.  ``subkey``/``authorization_data`` are
    the V5 fields through which a client layers a proxy onto existing
    credentials (§6.2).
    """
    body = AuthenticatorBody(
        client=presenter or credentials.client,
        timestamp=clock.now(),
        subkey=subkey,
        authorization_data=authorization_data,
    )
    return ApRequest(
        credentials.ticket,
        Authenticator.seal(body, credentials.session_key, rng=rng or DEFAULT_RNG),
    )


@dataclass
class Session:
    """An authenticated session as seen by the end-server.

    Attributes:
        client: the ticket's client — whose *rights* apply.
        presenter: who performed the AP exchange (differs from ``client``
            for proxy tickets).
        session_key: shared key for the session (the authenticator subkey
            when one was supplied, else the ticket session key; None for
            a public-key envelope, which agrees no key).
        restrictions: ticket authorization-data plus authenticator
            additions — evaluated on every request in this session.
        expires_at: ticket expiry.
    """

    client: PrincipalId
    presenter: PrincipalId
    session_key: Optional[SymmetricKey] = field(repr=False)
    restrictions: Tuple[Restriction, ...] = ()
    expires_at: float = float("inf")


class ApAcceptor:
    """Server-side AP exchange state: skew checks and replay suppression."""

    def __init__(
        self,
        server: PrincipalId,
        server_key: SymmetricKey,
        clock: Clock,
        max_skew: float = 60.0,
    ) -> None:
        self.server = server
        self._server_key = server_key
        self.clock = clock
        self.max_skew = max_skew
        self._replay = AuthenticatorCache(clock, window=2 * max_skew)

    def accept(self, ap_request: ApRequest) -> Session:
        """Validate an AP-REQ and return the established session.

        Raises:
            TicketError: ticket unopenable, expired, or for another server.
            AuthenticatorError: stale, mismatched, or unauthorized presenter.
            ReplayError: authenticator seen before.
        """
        ticket = ap_request.ticket
        if ticket.server != self.server:
            raise TicketError(
                f"ticket is for {ticket.server}, we are {self.server}"
            )
        body = ticket.open(self._server_key)
        now = self.clock.now()
        if body.expires_at < now:
            raise TicketError("ticket expired")

        auth = ap_request.authenticator.open(body.session_key)
        if abs(auth.timestamp - now) > self.max_skew:
            raise AuthenticatorError("authenticator outside skew window")
        if not self._replay.register(ap_request.authenticator.blob):
            raise ReplayError("authenticator replayed")

        # Who may present this ticket?  Normally only the named client; a
        # proxy ticket (grantee restriction in authorization-data) may be
        # presented by a named delegate instead (§6.3).
        grantee_lists = [
            r for r in body.authorization_data if isinstance(r, Grantee)
        ]
        if auth.client != body.client:
            allowed = any(
                auth.client in g.principals for g in grantee_lists
            )
            if not allowed:
                raise AuthenticatorError(
                    f"{auth.client} may not present a ticket issued to "
                    f"{body.client}"
                )

        restrictions = tuple(body.authorization_data) + tuple(
            auth.authorization_data
        )
        return Session(
            client=body.client,
            presenter=auth.client,
            session_key=auth.subkey or body.session_key,
            restrictions=restrictions,
            expires_at=body.expires_at,
        )
