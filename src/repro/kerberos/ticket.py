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

Every message of the AS, TGS and AP exchanges is declared here too, so the
KDC, its clients and the end-servers read one accepted form of each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.core.presentation import PresentedProxy
from repro.core.restrictions import Restriction
from repro.crypto import symmetric as _symmetric
from repro.crypto.keys import SymmetricKey
from repro.crypto.rng import Rng
from repro.encoding.canonical import decode, encode
from repro.encoding.identifiers import PrincipalId
from repro.encoding.schema import wire
from repro.errors import IntegrityError, TicketError

_TICKET_AD = b"krb-ticket-v5"
_AUTHENTICATOR_AD = b"krb-authenticator-v5"


def seal_value(
    key: bytes, value, associated_data: bytes, rng: Optional[Rng] = None
) -> bytes:
    """A declared ``value``, canonically encoded and sealed under ``key``."""
    return _symmetric.seal(
        key, encode(value.to_wire()), associated_data=associated_data, rng=rng
    )


def open_value(kind: type, key: bytes, box: bytes, associated_data: bytes,
               error: type, what: str):
    """The ``kind`` that :func:`seal_value` sealed in ``box``; a box that
    does not open under ``key`` (wrong key, tampering) raises ``error``."""
    try:
        plain = _symmetric.unseal(key, box, associated_data=associated_data)
    except IntegrityError as exc:
        raise error(f"{what} failed to open: {exc}") from exc
    return kind.from_wire(decode(plain))


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
        blob = seal_value(server_key.secret, body, _TICKET_AD, rng)
        return cls(server=body.server, blob=blob)

    def open(self, server_key: SymmetricKey) -> TicketBody:
        """Decrypt with the server's long-term key.

        Raises:
            TicketError: wrong key or tampering.
        """
        body = open_value(
            TicketBody, server_key.secret, self.blob, _TICKET_AD,
            TicketError, "ticket",
        )
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
        return cls(
            blob=seal_value(session_key.secret, body, _AUTHENTICATOR_AD, rng)
        )

    def open(self, session_key: SymmetricKey) -> AuthenticatorBody:
        return open_value(
            AuthenticatorBody, session_key.secret, self.blob,
            _AUTHENTICATOR_AD, TicketError, "authenticator",
        )


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



@wire
@dataclass(frozen=True)
class AsRequest:
    """AS-REQ; its authorization-data restricts the TGT itself (§6.3)."""

    client: PrincipalId
    till: Optional[float]
    authorization_data: Tuple[Restriction, ...]
    nonce: int


@wire
@dataclass(frozen=True)
class ApRequest:
    """AP-REQ: a ticket and an authenticator sealed under its session key."""

    ticket: Ticket
    authenticator: Authenticator


@wire
@dataclass(frozen=True)
class TgsRequest(ApRequest):
    """TGS-REQ: an AP request to the TGS for a ticket to ``server``."""

    server: PrincipalId
    till: Optional[float]
    nonce: int


@wire
@dataclass(frozen=True)
class TgsProxyRequest:
    """§6.3: a ticket for ``server`` on the strength of a proxy for the
    TGS rooted in ``grantor_ticket``'s session key."""

    grantor_ticket: Ticket
    proxy: PresentedProxy
    grantee: PrincipalId
    server: PrincipalId


@wire
@dataclass(frozen=True)
class KdcReply:
    """Every KDC reply: the ticket, and its sealed secret part."""

    ticket: Ticket
    enc_part: bytes


@wire
@dataclass(frozen=True)
class AsReplyPart:
    """An AS reply's secret part, sealed under the client's own key."""

    AD = b"krb-as-reply"

    session_key: SymmetricKey = field(repr=False)
    server: PrincipalId
    expires_at: float
    nonce: int


@wire
@dataclass(frozen=True)
class ProxyReplyPart:
    """A TGS proxy reply's secret part, sealed under the final proxy key."""

    AD = b"krb-tgs-reply"

    session_key: SymmetricKey = field(repr=False)
    server: PrincipalId
    expires_at: float
    authorization_data: Tuple[Restriction, ...]


@wire
@dataclass(frozen=True)
class TgsReplyPart(ProxyReplyPart):
    """A TGS reply's secret part, sealed under the TGT's session key."""

    nonce: int


@wire
@dataclass(frozen=True)
class ProxyBundle:
    """A Kerberos-carried proxy as presented: the chain, and the tickets
    of its identity signers (§6.2)."""

    tickets: Tuple[Ticket, ...]
    presented: PresentedProxy
