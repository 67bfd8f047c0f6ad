"""The authorization server (§3.2, Fig. 3).

"An authorization server implemented using restricted proxies does not
directly specify that a particular principal is authorized ...  Instead,
when requested by an authorized client, the authorization server grants a
restricted proxy allowing the authorized client to act as the authorization
server for the purpose of asserting the client's rights to access particular
objects."

Protocol (Fig. 3):

0. (dashed) the client learns from a name server that end-server **S**
   honours this authorization server **R**;
1. authenticated authorization request (operation X) — here: an AP session
   plus a ``request`` message;
2. ``[operation X only]_R, {Kproxy}Ksession`` — the issued proxy as a
   :class:`ProxyDelivery`: the certificate and its ticket are returned
   openly and only the proxy key is sealed under the session key, so a
   tap learns nothing exercisable.  The group server and the accounting
   server deliver the proxies they issue the same way;
3. the client presents the proxy to **S** (not this server's concern).

The database is the same ACL abstraction as everywhere else (§3.5), one ACL
per end-server.  "The restrictions field of a matching access-control-list
entry can be copied to the restrictions field of the resulting proxy", and
restrictions carried by any proxy the client itself presented are
propagated (§7.9).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.acl import AccessControlList
from repro.clock import Clock
from repro.core.certificate import ProxyCertificate
from repro.core.proxy import Proxy
from repro.core.restrictions import (
    Authorized,
    AuthorizedEntry,
    IssuedFor,
    Restriction,
    propagate_restrictions,
)
from repro.crypto import symmetric
from repro.crypto.keys import SymmetricKey
from repro.encoding.identifiers import PrincipalId
from repro.encoding.schema import wire
from repro.errors import AuthorizationDenied, IntegrityError, ServiceError
from repro.kerberos.client import KerberosClient
from repro.kerberos.proxy_support import KerberosProxy, grant_via_credentials
from repro.kerberos.ticket import Ticket
from repro.net.network import Network
from repro.services.client import ServiceClient
from repro.services.endserver import AuthorizedRequest, EndServer

#: Associated data tag for sealed proxy keys (message 2).
PROXY_DELIVERY_AD = b"authz-proxy-delivery"

_LEN = struct.Struct(">I")


@wire
@dataclass(frozen=True)
class ProxyDelivery:
    """Fig. 3's message 2 on the wire: ``[operation X only]_R,
    {Kproxy}Ksession``.

    The tickets and certificates travel openly: they are what the client
    will show the end-server anyway, and without the key they are not
    exercisable (§2).  Only the proxy key is sealed, under the requester's
    session key, with the chain's signatures and tickets as associated
    data, so the key opens only beside the chain it was issued with.
    """

    tickets: Tuple[Ticket, ...] = field(metadata={"min_len": 1})
    certificates: Tuple[ProxyCertificate, ...] = field(
        metadata={"min_len": 1}
    )
    sealed_key: bytes


def _part(data: bytes) -> bytes:
    return _LEN.pack(len(data)) + data


def _delivery_ad(
    tickets: Tuple[Ticket, ...], certificates: Tuple[ProxyCertificate, ...]
) -> bytes:
    """:data:`PROXY_DELIVERY_AD`, then every certificate's signature and
    every ticket, each group counted and each part length-prefixed, so two
    different chains never share associated data.

    A signature is a MAC over its certificate's whole body, so binding it
    binds the one certificate the end-server will accept under it.
    """
    return b"".join(
        (
            PROXY_DELIVERY_AD,
            _LEN.pack(len(certificates)),
            *(_part(cert.signature) for cert in certificates),
            _LEN.pack(len(tickets)),
            *(
                _part(str(ticket.server).encode()) + _part(ticket.blob)
                for ticket in tickets
            ),
        )
    )


def seal_proxy_delivery(
    kproxy: KerberosProxy, session_key: SymmetricKey
) -> dict:
    """The wire form of a :class:`ProxyDelivery` of ``kproxy`` to the
    holder of ``session_key``.

    This is Fig. 3's ``{Kproxy}Ksession``: the certificates and tickets
    would survive a tap, but the proxy key never crosses the wire in the
    clear.
    """
    tickets, certificates = kproxy.tickets, kproxy.proxy.certificates
    return ProxyDelivery(
        tickets,
        certificates,
        symmetric.seal(
            session_key.secret,
            kproxy.proxy.proxy_key.secret,
            _delivery_ad(tickets, certificates),
        ),
    ).to_wire()


def open_proxy_delivery(
    delivery: Any, session_key: SymmetricKey
) -> KerberosProxy:
    """Client side of :func:`seal_proxy_delivery`.

    A delivery that is not a :class:`ProxyDelivery` is refused with
    :class:`WireSchemaError` (``malformed``); one whose key does not open
    under ``session_key`` beside exactly these certificates and tickets
    (a changed byte, a part from another delivery, the wrong session key)
    with :class:`ServiceError`.
    """
    form = ProxyDelivery.from_wire(delivery)
    try:
        secret = symmetric.unseal(
            session_key.secret,
            form.sealed_key,
            _delivery_ad(form.tickets, form.certificates),
        )
    except IntegrityError as exc:
        raise ServiceError(f"proxy delivery failed to open: {exc}") from exc
    return KerberosProxy(
        form.tickets, Proxy(form.certificates, SymmetricKey(secret))
    )


@wire
@dataclass(frozen=True)
class AuthorizeArgs:
    server: PrincipalId  # the end-server the proxy is for
    operations: Tuple[str, ...]
    targets: Tuple[str, ...]  # object patterns; none means all


class AuthorizationServer(EndServer):
    """Issues restricted proxies asserting clients' rights (§3.2)."""

    ISSUER_MODE = True

    def __init__(
        self,
        principal: PrincipalId,
        secret_key: SymmetricKey,
        network: Network,
        clock: Clock,
        kerberos: KerberosClient,
        default_lifetime: float = 3600.0,
        **kwargs,
    ) -> None:
        # The server-level ACL is open: anyone may *ask*; the per-end-server
        # databases decide what, if anything, is granted.
        kwargs.setdefault("acl", AccessControlList.open_to_all())
        super().__init__(principal, secret_key, network, clock, **kwargs)
        if kerberos.principal != principal:
            raise ServiceError(
                "authorization server needs its own Kerberos identity"
            )
        self.kerberos = kerberos
        self.default_lifetime = default_lifetime
        #: Per-end-server authorization databases (§3.2); plain ACLs (§3.5).
        self.databases: Dict[PrincipalId, AccessControlList] = {}
        self.register_operation("authorize", self._op_authorize, AuthorizeArgs)

    # ------------------------------------------------------------------

    def database_for(self, server: PrincipalId) -> AccessControlList:
        """The (created-on-demand) database for one end-server."""
        return self.databases.setdefault(server, AccessControlList())

    # ------------------------------------------------------------------

    def _op_authorize(self, request: AuthorizedRequest) -> dict:
        """Handle message 1: look up rights, issue the proxy (message 2).

        Every requested operation on every requested target must be
        allowed by the end-server's database.
        """
        if request.session_key is None:
            raise AuthorizationDenied(
                "authorization requests must be made over an "
                "authenticated session (Fig. 3 message 1)"
            )
        end_server = request.args.server
        operations = request.args.operations
        targets = request.args.targets or ("*",)
        if not operations:
            raise ServiceError("no operations requested")

        database = self.databases.get(end_server)
        if database is None:
            raise AuthorizationDenied(
                f"no authorization database for {end_server}"
            )
        principals = frozenset(
            p for p in (request.rights, request.claimant) if p is not None
        )
        # Every requested (operation, target) must be covered; collect the
        # per-entry restrictions to copy forward (§3.5).
        copied: Tuple[Restriction, ...] = ()
        for operation in operations:
            for target in targets:
                entry = database.match(
                    principals, request.groups, operation, target
                )
                if entry is None:
                    raise AuthorizationDenied(
                        f"{request.rights} may not {operation} {target} "
                        f"on {end_server}"
                    )
                copied = copied + tuple(
                    r for r in entry.restrictions if r not in copied
                )

        authorized = Authorized(
            entries=tuple(
                AuthorizedEntry(target=target, operations=operations)
                for target in targets
            )
        )
        # §7.9: restrictions on what the client presented flow onward.  The
        # issued proxy reaches only ``end_server`` (issued-for below), so
        # limit-restrictions scoped elsewhere may be dropped.  An issued-for
        # restriction is *not* carried: it binds the certificate that
        # carries it (which this server already honoured when accepting the
        # presentation), and the new proxy gets its own.
        carried = propagate_restrictions(
            tuple(
                r
                for r in request.presented_restrictions
                if not isinstance(r, IssuedFor)
            ),
            reachable_servers=(end_server,),
        )
        restrictions = (
            (authorized, IssuedFor(servers=(end_server,)))
            + copied
            + carried
        )
        now = self.clock.now()
        credentials = self.kerberos.get_ticket(end_server)
        kproxy = grant_via_credentials(
            credentials,
            restrictions,
            issued_at=now,
            expires_at=now + self.default_lifetime,
        )
        self.telemetry.inc(
            "authorization_proxies_issued_total",
            help="Proxies issued by authorization servers (Fig. 3 message 2).",
            server=str(self.principal),
            end_server=str(end_server),
        )
        if self.telemetry.enabled:
            # Cascaded authorization hops stay attributable: the issuance
            # lands on the request's span, so the trace shows which hop
            # minted the proxy a later server verified.
            self.telemetry.event(
                "authorization.issue",
                server=str(self.principal),
                end_server=str(end_server),
                grantor=str(request.rights) if request.rights else None,
                operations=",".join(operations),
            )
        return {"proxy": seal_proxy_delivery(kproxy, request.session_key)}


class AuthorizationClient:
    """Client side of Fig. 3 (messages 1–2)."""

    def __init__(
        self, kerberos: KerberosClient, authorization_server: PrincipalId
    ) -> None:
        self.service = ServiceClient(kerberos, authorization_server)

    def authorize(
        self,
        end_server: PrincipalId,
        operations: Tuple[str, ...],
        targets: Tuple[str, ...] = ("*",),
        proxy: Optional[KerberosProxy] = None,
        group_proxies=(),
    ) -> KerberosProxy:
        """Request authorization credentials for ``end_server``.

        Returns the issued proxy: the certificate as delivered, with the
        proxy key unsealed under this client's session key.
        """
        reply = self.service.request(
            "authorize",
            target=str(end_server),
            args=AuthorizeArgs(
                end_server, tuple(operations), tuple(targets)
            ).to_wire(),
            proxy=proxy,
            group_proxies=group_proxies,
        )
        session_key = self.service.kerberos.get_ticket(
            self.service.server
        ).session_key
        return open_proxy_delivery(reply["proxy"], session_key)
