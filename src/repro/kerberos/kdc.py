"""The Key Distribution Center: authentication server and ticket-granting server.

Faithful to the V5 shape the paper relies on (§6.2):

* **AS exchange** — a client authenticates with its long-term key and
  receives a ticket-granting ticket (TGT).  "The initial authentication of
  a user can itself be thought of as the granting of a proxy and
  restrictions can be placed on the credentials based on the
  characteristics of the initial exchange" (§6.3) — the AS request may carry
  requested authorization-data, which is copied into the TGT.
* **TGS exchange** — with a TGT, the client obtains tickets for end-servers.
  "When new tickets are issued based on existing credentials, restrictions
  may be added, but not removed": the TGS *concatenates* the TGT's
  authorization-data with any additions in the request/authenticator.
* **TGS proxy exchange** — §6.3: because a proxy can name the
  ticket-granting service as its end-server, a grantee holding such a proxy
  can obtain, from the TGS, tickets for further end-servers "with identical
  restrictions", issued in the *grantor's* name.  This is what makes
  conventional-crypto proxies usable at more than one end-server.

The KDC never talks to end-servers: tickets are sealed under server keys and
verified offline, which is precisely the property the Fig. 4 benchmark
contrasts with Sollins-style online verification.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Dict, Optional, Tuple

from repro.clock import Clock
from repro.core.certificate import ProxyCertificate
from repro.core.restrictions import Grantee, Restriction
from repro.core.verification import ProxyVerifier, SharedKeyCrypto
from repro.core.evaluation import RequestContext
from repro.crypto.keys import SymmetricKey
from repro.crypto.rng import DEFAULT_RNG, Rng
from repro.encoding.identifiers import PrincipalId
from repro.errors import (
    AuthenticatorError,
    KerberosError,
    TicketError,
)
from repro.kerberos.database import PrincipalDatabase
from repro.kerberos.ticket import (
    ApRequest,
    AsReplyPart,
    AsRequest,
    AuthenticatorBody,
    KdcReply,
    ProxyReplyPart,
    Ticket,
    TgsProxyRequest,
    TgsReplyPart,
    TgsRequest,
    TicketBody,
    seal_value,
)
from repro.net.message import Message
from repro.net.network import Network
from repro.net.service import Service

#: Default ticket lifetime, seconds.
DEFAULT_LIFETIME = 8 * 3600.0


def tgs_principal(realm: str = "REPRO.ORG") -> PrincipalId:
    """The well-known name of the ticket-granting service in a realm."""
    return PrincipalId("krbtgt", realm)


def kdc_principal(realm: str = "REPRO.ORG") -> PrincipalId:
    """The well-known name of the KDC endpoint in a realm."""
    return PrincipalId("kdc", realm)


def cross_realm_principal(remote_realm: str, local_realm: str) -> PrincipalId:
    """The inter-realm ticket-granting principal ``krbtgt.REMOTE@LOCAL``.

    A ticket for this principal, issued by LOCAL's TGS, is a *cross-realm
    TGT*: REMOTE's KDC shares its key and will accept it in a TGS exchange,
    issuing service tickets to the (foreign) client it names.
    """
    return PrincipalId(f"krbtgt.{remote_realm}", local_realm)


class KeyDistributionCenter(Service):
    """AS + TGS behind one network endpoint (as deployments co-locate them)."""

    def __init__(
        self,
        network: Network,
        clock: Clock,
        database: Optional[PrincipalDatabase] = None,
        realm: str = "REPRO.ORG",
        max_skew: float = 60.0,
        rng: Optional[Rng] = None,
        dedupe=None,
        endpoint: Optional[PrincipalId] = None,
    ) -> None:
        """``endpoint`` registers this KDC under a replica name instead of
        the realm's well-known ``kdc`` principal; replicas share a
        ``database`` so any of them can issue equivalent tickets."""
        super().__init__(
            kdc_principal(realm),
            network,
            clock,
            dedupe=dedupe,
            endpoint=endpoint,
        )
        self.realm = realm
        self.max_skew = max_skew
        self._rng = rng or DEFAULT_RNG
        self.database = database or PrincipalDatabase(
            realm=realm, rng=self._rng
        )
        # The TGS is itself a principal with a key, so TGTs are ordinary
        # tickets sealed under it.
        self.tgs = tgs_principal(realm)
        if not self.database.knows(self.tgs):
            self.database.register(self.tgs)
        #: Inter-realm keys: cross-realm TGT principal -> shared key.
        #: Tickets for these principals (issued by the *remote* realm's
        #: TGS) are accepted by our TGS exchange.
        self._cross_keys: Dict[PrincipalId, SymmetricKey] = {}

    def _issue(
        self,
        exchange: str,
        reply_key: bytes,
        part: type,
        nonce: Optional[int] = None,
        **ticket,
    ) -> dict:
        """Issue one ticket, whatever the exchange: a fresh session key
        goes into the ticket (the :class:`TicketBody` fields ``ticket``),
        sealed under its server's key, and into the reply's secret
        ``part``, sealed under ``reply_key``.  The part repeats the
        ticket's fields it declares, and echoes the request's ``nonce``."""
        server_key = self.database.key_of(ticket["server"])
        body = TicketBody(
            session_key=SymmetricKey.generate(rng=self._rng), **ticket
        )
        sealed = Ticket.seal(body, server_key, rng=self._rng)
        echoed = {} if nonce is None else {"nonce": nonce}
        secret = part(
            **{
                spec.name: getattr(body, spec.name)
                for spec in fields(part)
                if spec.name != "nonce"
            },
            **echoed,
        )
        enc_part = seal_value(reply_key, secret, secret.AD, self._rng)
        self.telemetry.inc(
            "kdc_tickets_issued_total",
            help="Tickets issued by the KDC, by exchange kind.",
            realm=self.realm,
            exchange=exchange,
        )
        return KdcReply(sealed, enc_part).to_wire()

    # ------------------------------------------------------------------
    # AS exchange
    # ------------------------------------------------------------------

    def op_as_request(self, message: Message) -> dict:
        """AS-REQ → TGT.

        The reply's secret part is sealed under the client's long-term key;
        possession of that key *is* the authentication.
        """
        request = AsRequest.from_wire(message.fields)
        client_key = self.database.key_of(request.client)
        now = self.clock.now()
        return self._issue(
            "as",
            client_key.secret,
            AsReplyPart,
            request.nonce,
            client=request.client,
            server=self.tgs,
            auth_time=now,
            expires_at=request.till or now + DEFAULT_LIFETIME,
            authorization_data=request.authorization_data,
        )

    # ------------------------------------------------------------------
    # TGS exchange
    # ------------------------------------------------------------------

    def _validate_tgt(
        self, request: ApRequest
    ) -> Tuple[TicketBody, AuthenticatorBody]:
        ticket = request.ticket
        if ticket.server == self.tgs:
            key = self.database.key_of(self.tgs)
        elif ticket.server in self._cross_keys:
            # A cross-realm TGT issued by a federated realm's TGS.
            key = self._cross_keys[ticket.server]
        else:
            raise TicketError("not a ticket-granting ticket")
        body = ticket.open(key)
        now = self.clock.now()
        if body.expires_at < now:
            raise TicketError("TGT expired")
        auth = request.authenticator.open(body.session_key)
        if auth.client != body.client:
            raise AuthenticatorError("authenticator client mismatch")
        if abs(auth.timestamp - now) > self.max_skew:
            raise AuthenticatorError("authenticator outside skew window")
        return body, auth

    def op_tgs_request(self, message: Message) -> dict:
        """TGS-REQ: TGT + authenticator + target server → service ticket.

        Authorization-data is additive: the issued ticket carries the TGT's
        restrictions plus any in the request's authenticator (§6.2).
        """
        request = TgsRequest.from_wire(message.fields)
        tgt_body, auth = self._validate_tgt(request)
        return self._issue(
            "tgs",
            tgt_body.session_key.secret,
            TgsReplyPart,
            request.nonce,
            client=tgt_body.client,
            server=request.server,
            auth_time=tgt_body.auth_time,
            expires_at=min(
                request.till or tgt_body.expires_at, tgt_body.expires_at
            ),
            authorization_data=tuple(tgt_body.authorization_data)
            + tuple(auth.authorization_data),
        )

    # ------------------------------------------------------------------
    # TGS proxy exchange (§6.3)
    # ------------------------------------------------------------------

    def op_tgs_proxy_request(self, message: Message) -> dict:
        """Obtain a service ticket on the strength of a TGS proxy.

        The grantor's TGT lets the TGS recover the session key under which
        the proxy chain's root was signed.  The issued ticket is in the
        grantor's name and carries the proxy's restrictions plus a grantee
        restriction naming the requester — a per-end-server proxy with
        identical restrictions (§6.3).
        """
        request = TgsProxyRequest.from_wire(message.fields)
        grantor_tgt = request.grantor_ticket
        if grantor_tgt.server != self.tgs:
            raise TicketError("grantor ticket is not a TGT")
        tgt_body = grantor_tgt.open(self.database.key_of(self.tgs))
        if tgt_body.expires_at < self.clock.now():
            raise TicketError("grantor TGT expired")

        presented = request.proxy
        # Verify the chain exactly as an end-server would, with the TGS in
        # the role of end-server and the TGT session key as the shared key.
        crypto = SharedKeyCrypto({tgt_body.client: tgt_body.session_key})
        verifier = ProxyVerifier(
            server=self.tgs,
            crypto=crypto,
            clock=self.clock,
            max_skew=self.max_skew,
            telemetry=self.telemetry,
        )
        verified = verifier.verify(
            presented,
            RequestContext(
                server=self.tgs,
                operation="obtain-ticket",
                target=str(request.server),
            ),
            issuer_mode=True,
        )
        if verified.grantor != tgt_body.client:
            raise KerberosError("proxy grantor does not match TGT client")

        # The new session key goes back sealed under the proxy chain's
        # final proxy key, which only the legitimate grantee holds.
        proxy_key = _recover_chain_key(verifier, presented.certificates)
        if not isinstance(proxy_key, bytes):
            raise KerberosError(
                "TGS proxies require conventional (symmetric) proxy keys"
            )
        # Identical restrictions (§6.3) plus the grantee pin.
        carried: Tuple[Restriction, ...] = tuple(
            r
            for cert in presented.certificates
            for r in cert.restrictions
        )
        return self._issue(
            "tgs-proxy",
            proxy_key,
            ProxyReplyPart,
            client=tgt_body.client,
            server=request.server,
            auth_time=self.clock.now(),
            expires_at=min(verified.expires_at, tgt_body.expires_at),
            authorization_data=carried
            + (Grantee(principals=(request.grantee,)),),
        )


def _recover_chain_key(
    verifier: ProxyVerifier, certs: Tuple[ProxyCertificate, ...]
):
    """Recover the possession material of the final link by walking the chain."""
    previous = None
    for index, cert in enumerate(certs):
        previous = verifier._possession_material(cert, index, previous)
    return previous


def federate(
    kdc_a: KeyDistributionCenter,
    kdc_b: KeyDistributionCenter,
    rng: Optional[Rng] = None,
) -> None:
    """Establish mutual cross-realm trust between two KDCs.

    For each direction, an inter-realm key is shared: realm A's database
    gains the principal ``krbtgt.B@A`` (so A's TGS can issue cross-realm
    TGTs toward B), and realm B's KDC holds the same key to open them —
    and vice versa.  After federation, a client of either realm can obtain
    service tickets in the other via one extra TGS exchange, which is what
    lets "clients and servers not previously known to one another" interact
    (§1) without a global authentication authority.
    """
    rng = rng or DEFAULT_RNG
    a_to_b = cross_realm_principal(kdc_b.realm, kdc_a.realm)
    key_ab = SymmetricKey.generate(rng=rng)
    kdc_a.database.register(a_to_b, key_ab)
    kdc_b._cross_keys[a_to_b] = key_ab

    b_to_a = cross_realm_principal(kdc_a.realm, kdc_b.realm)
    key_ba = SymmetricKey.generate(rng=rng)
    kdc_b.database.register(b_to_a, key_ba)
    kdc_a._cross_keys[b_to_a] = key_ba
