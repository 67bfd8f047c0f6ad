"""Tickets and authenticators (V5 shape, §6.2).

"Credentials consist of two parts: a ticket, and a session key.  The ticket
contains the name of the authenticated principal and a session key.  It is
encrypted using the secret key shared by the end-server and the Kerberos
server."

The V5 feature the paper depends on is the **authorization-data** field:
"an arbitrary number of typed sub-fields, each of which places restrictions
on the use of the ticket ... restrictions must be additive."  We reuse the
core restriction vocabulary directly: authorization-data is a list of
restriction wire dicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.core.restrictions import Restriction
from repro.crypto import symmetric as _symmetric
from repro.crypto.keys import SymmetricKey
from repro.crypto.rng import DEFAULT_RNG, Rng
from repro.encoding.canonical import decode, encode
from repro.encoding.identifiers import PrincipalId
from repro.encoding.schema import wire
from repro.errors import IntegrityError, TicketError

_TICKET_AD = b"krb-ticket-v5"
_AUTHENTICATOR_AD = b"krb-authenticator-v5"


@wire
@dataclass(frozen=True)
class TicketBody:
    """Cleartext contents of a ticket (always travels sealed)."""

    client: PrincipalId
    server: PrincipalId
    session_key: SymmetricKey = field(repr=False)
    auth_time: float
    expires_at: float
    authorization_data: Tuple[Restriction, ...] = ()
    proxiable: bool = True


@wire
@dataclass(frozen=True)
class Ticket:
    """A sealed ticket: opaque to everyone but the named server."""

    server: PrincipalId
    blob: bytes = field(repr=False)

    @classmethod
    def seal(
        cls,
        body: TicketBody,
        server_key: SymmetricKey,
        rng: Optional[Rng] = None,
    ) -> "Ticket":
        blob = _symmetric.seal(
            server_key.secret,
            encode(body.to_wire()),
            associated_data=_TICKET_AD,
            rng=rng or DEFAULT_RNG,
        )
        return cls(server=body.server, blob=blob)

    def open(self, server_key: SymmetricKey) -> TicketBody:
        """Decrypt with the server's long-term key.

        Raises:
            TicketError: wrong key or tampering.
        """
        try:
            wire = decode(
                _symmetric.unseal(
                    server_key.secret, self.blob, associated_data=_TICKET_AD
                )
            )
        except IntegrityError as exc:
            raise TicketError(f"ticket failed to open: {exc}") from exc
        body = TicketBody.from_wire(wire)
        if body.server != self.server:
            raise TicketError("ticket server name mismatch")
        return body


@wire
@dataclass(frozen=True)
class AuthenticatorBody:
    """Cleartext authenticator: proves live possession of the session key.

    ``subkey`` and extra ``authorization_data`` are the V5 hooks the proxy
    mechanism uses (§6.2): "a client generates an authenticator specifying a
    proxy key in the subkey field and specifying additional restrictions in
    the authorization-data field."
    """

    client: PrincipalId
    timestamp: float
    subkey: Optional[SymmetricKey] = field(default=None, repr=False)
    authorization_data: Tuple[Restriction, ...] = ()


@wire
@dataclass(frozen=True)
class Authenticator:
    """Sealed authenticator (under the ticket's session key)."""

    blob: bytes = field(repr=False)

    @classmethod
    def seal(
        cls,
        body: AuthenticatorBody,
        session_key: SymmetricKey,
        rng: Optional[Rng] = None,
    ) -> "Authenticator":
        blob = _symmetric.seal(
            session_key.secret,
            encode(body.to_wire()),
            associated_data=_AUTHENTICATOR_AD,
            rng=rng or DEFAULT_RNG,
        )
        return cls(blob=blob)

    def open(self, session_key: SymmetricKey) -> AuthenticatorBody:
        try:
            wire = decode(
                _symmetric.unseal(
                    session_key.secret,
                    self.blob,
                    associated_data=_AUTHENTICATOR_AD,
                )
            )
        except IntegrityError as exc:
            raise TicketError(
                f"authenticator failed to open: {exc}"
            ) from exc
        return AuthenticatorBody.from_wire(wire)


@dataclass(frozen=True)
class Credentials:
    """What a client holds after a KDC exchange: ticket + session key."""

    ticket: Ticket
    session_key: SymmetricKey = field(repr=False)
    client: PrincipalId
    expires_at: float
    authorization_data: Tuple[Restriction, ...] = ()

    @property
    def server(self) -> PrincipalId:
        return self.ticket.server
