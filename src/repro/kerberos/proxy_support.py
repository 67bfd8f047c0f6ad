"""Restricted proxies layered on Kerberos credentials (§6.2–§6.3).

A Kerberos-carried proxy is a core conventional proxy whose root link is
signed (and whose proxy key is sealed) under the *session key* from the
grantor's ticket for the end-server.  Because the session key also lives
inside the ticket — which only the end-server can open — the proxy travels
"accompanied by credentials authenticating the grantor to the end-server".

Delegate-cascaded links (§3.4, e.g. check endorsements in Fig. 5) are signed
by each intermediate's *own* session key with the end-server, and each binds
a fresh symmetric proxy key sealed under that same session key, so the
bundle carries one ticket per identity-signing principal and no public-key
material:

* :func:`grant_via_credentials` — grantor side: mint the proxy from cached
  credentials for a server.
* :func:`endorse` — intermediate side: delegate-cascade using the
  intermediate's credentials for the same end-server.
* :class:`KerberosProxy` — the travelling bundle: tickets + core proxy.
* :class:`KerberosProxyAcceptor` — end-server side: opens every ticket with
  its long-term key (each distinct ticket once, while the verification
  cache is on), registers the session keys, runs core verification,
  and applies the root ticket's own authorization-data as additional
  restrictions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _dc_replace
from typing import Optional, Tuple

from repro.clock import Clock
from repro.core.certificate import ProxyCertificate
from repro.core.evaluation import RequestContext, evaluate
from repro.core.presentation import present
from repro.core.proxy import Proxy, delegate_cascade, grant_conventional
from repro.core.restrictions import Restriction
from repro.core.verification import ProxyVerifier, SharedKeyCrypto, VerifiedProxy
from repro.crypto.keys import SymmetricKey
from repro.crypto.rng import DEFAULT_RNG, Rng
from repro.crypto.signature import HmacSigner
from repro.encoding.identifiers import PrincipalId
from repro.encoding.schema import leaf, wire
from repro.errors import TicketError
from repro.kerberos.ticket import Credentials, ProxyBundle, Ticket, TicketBody


def grant_via_credentials(
    credentials: Credentials,
    restrictions: Tuple[Restriction, ...],
    issued_at: float,
    expires_at: Optional[float] = None,
    rng: Optional[Rng] = None,
) -> "KerberosProxy":
    """Mint a restricted proxy from credentials for an end-server (§6.2).

    The proxy cannot outlive the ticket whose session key signs it.
    """
    expiry = credentials.expires_at if expires_at is None else min(
        expires_at, credentials.expires_at
    )
    proxy = grant_conventional(
        grantor=credentials.client,
        shared_key=credentials.session_key,
        restrictions=restrictions,
        issued_at=issued_at,
        expires_at=expiry,
        rng=rng or DEFAULT_RNG,
    )
    return KerberosProxy(tickets=(credentials.ticket,), proxy=proxy)


def endorse(
    kproxy: "KerberosProxy",
    intermediate_credentials: Credentials,
    subordinate: PrincipalId,
    additional_restrictions: Tuple[Restriction, ...],
    issued_at: float,
    expires_at: float,
    rng: Optional[Rng] = None,
) -> "KerberosProxy":
    """Delegate-cascade a Kerberos-carried proxy (Fig. 5 endorsement).

    The intermediate (a named grantee of the current final link) signs the
    new link with its session key for the same end-server, seals the link's
    fresh symmetric proxy key under that session key, and attaches its
    ticket so the end-server can verify the signature and open the key.
    The result carries the full audit trail of endorsers (§3.4).
    """
    rng = rng or DEFAULT_RNG
    new_proxy = delegate_cascade(
        kproxy.proxy,
        intermediate=intermediate_credentials.client,
        intermediate_signer=HmacSigner(
            key=intermediate_credentials.session_key
        ),
        subordinate=subordinate,
        additional_restrictions=additional_restrictions,
        issued_at=issued_at,
        expires_at=min(expires_at, intermediate_credentials.expires_at),
        rng=rng,
    )
    return KerberosProxy(
        tickets=kproxy.tickets + (intermediate_credentials.ticket,),
        proxy=new_proxy,
    )


@wire
@dataclass(frozen=True)
class _Transferable:
    """A :class:`KerberosProxy`'s wire form: the chain flattened beside
    its tickets, with the proxy key (or None)."""

    tickets: Tuple[Ticket, ...]
    certificates: Tuple[ProxyCertificate, ...]
    proxy_key: Optional[SymmetricKey]


@leaf(
    dict,
    lambda kproxy: kproxy.transferable(),
    lambda value: KerberosProxy.from_transferable(value),
)
@dataclass(frozen=True)
class KerberosProxy:
    """A proxy plus the tickets authenticating its identity signers.

    ``tickets[0]`` belongs to the root grantor; each delegate link appends
    its signer's ticket.  All tickets are for the same end-server.
    """

    tickets: Tuple[Ticket, ...]
    proxy: Proxy

    @property
    def grantor(self) -> PrincipalId:
        return self.proxy.grantor

    def presentation(
        self,
        server: PrincipalId,
        timestamp: float,
        operation: str,
        target: Optional[str] = None,
        payload: bytes = b"",
        claimant: Optional[PrincipalId] = None,
        prove_possession: bool = True,
        challenge: bytes = b"",
    ) -> dict:
        """Wire payload the presenter sends with a request: a
        :class:`ProxyBundle`."""
        presented = present(
            self.proxy,
            server,
            timestamp,
            operation,
            target=target,
            payload=payload,
            claimant=claimant,
            prove_possession=prove_possession,
            challenge=challenge,
        )
        return ProxyBundle(self.tickets, presented).to_wire()

    def transferable(self) -> dict:
        """Wire form for handing the proxy itself to another principal.

        Includes the proxy key (symmetric: every key of a Kerberos chain
        is, §6.2) because the recipient needs it to prove possession; the
        caller must send this over a protected channel (§2: "care must be taken to
        protect the proxy key from disclosure").  A delegate chain handed to
        the grantee its final link names needs no key — that grantee
        presents it under its own authenticated identity — so it goes as
        ``handoff(proxy.without_key())``.
        """
        return _Transferable(
            self.tickets, self.proxy.certificates, self.proxy.proxy_key
        ).to_wire()

    @classmethod
    def from_transferable(cls, wire: dict) -> "KerberosProxy":
        form = _Transferable.from_wire(wire)
        return cls(form.tickets, Proxy(form.certificates, form.proxy_key))

    def handoff(self, proxy: Proxy) -> "KerberosProxy":
        """Re-bundle after cascading the inner proxy (same tickets)."""
        return KerberosProxy(tickets=self.tickets, proxy=proxy)


class KerberosProxyAcceptor:
    """End-server engine for Kerberos-carried proxies."""

    def __init__(
        self,
        server: PrincipalId,
        server_key: SymmetricKey,
        clock: Clock,
        max_skew: float = 60.0,
        telemetry=None,
        cache_config=None,
    ) -> None:
        self.server = server
        self._server_key = server_key
        self.clock = clock
        self._crypto = SharedKeyCrypto()
        self.verifier = ProxyVerifier(
            server=server,
            crypto=self._crypto,
            clock=clock,
            max_skew=max_skew,
            telemetry=telemetry,
            cache_config=cache_config,
        )
        #: Sealed ticket blob -> the body it opened to, held until the
        #: ticket expires; None when the verification cache is off.
        self._opened = self.verifier.cache_config.build_ticket_memo(
            clock.now
        )

    def _open(self, ticket: Ticket) -> TicketBody:
        """The body of a ticket for this server, each blob opened once.

        A sealed ticket is immutable and opens only under this server's
        fixed key, so a blob's body never changes; the memo keeps it until
        the ticket expires.  Only a blob that opened is stored — a changed
        byte is a different blob, opened (and refused) afresh.
        """
        memo = self._opened
        if memo is None:
            return ticket.open(self._server_key)
        telemetry = self.verifier.telemetry
        body = memo.lookup(ticket.blob)
        if body is not None:
            telemetry.inc(
                "vcache.ticket.hit",
                help="Ticket-memo hits (tickets not reopened).",
            )
            return body
        telemetry.inc(
            "vcache.ticket.miss", help="Ticket-memo misses (tickets opened)."
        )
        body = ticket.open(self._server_key)
        if memo.put(ticket.blob, body, body.expires_at):
            telemetry.inc(
                "vcache.evictions",
                help="Verification cache evictions, by layer.",
                layer="ticket",
            )
        return body

    def accept(self, wire: dict, *args, **kwargs) -> VerifiedProxy:
        """:meth:`verify` a :class:`ProxyBundle`'s wire form."""
        return self.verify(ProxyBundle.from_wire(wire), *args, **kwargs)

    def verify(
        self,
        bundle: ProxyBundle,
        request: RequestContext,
        expected_digest: Optional[bytes] = None,
        issuer_mode: bool = False,
    ) -> VerifiedProxy:
        """Open the accompanying tickets, then verify the proxy chain.

        Every ticket's server and expiry are checked on every use, memo
        hit or not.  The root ticket's authorization-data is checked as
        additional restrictions on the grantor's credentials (additivity
        across the whole derivation, §6.2).
        """
        tickets = bundle.tickets
        if not tickets:
            raise TicketError("proxy bundle carries no tickets")
        now = self.clock.now()
        bodies = []
        for ticket in tickets:
            if ticket.server != self.server:
                raise TicketError(
                    f"ticket for {ticket.server}, we are {self.server}"
                )
            body = self._open(ticket)
            if body.expires_at < now:
                raise TicketError(f"ticket of {body.client} expired")
            bodies.append(body)
        presented = bundle.presented

        # Session keys authenticate their clients for exactly this
        # verification; register, verify, restore.
        for body in bodies:
            self._crypto.add_shared_key(body.client, body.session_key)
        try:
            verified = self.verifier.verify(
                presented,
                request,
                expected_digest=expected_digest,
                issuer_mode=issuer_mode,
            )
        finally:
            for body in bodies:
                self._crypto.drop_shared_key(body.client)

        root = bodies[0]
        if root.client != verified.grantor:
            raise TicketError(
                "root ticket client does not match proxy grantor"
            )
        if root.authorization_data:
            link_context = _dc_replace(
                request,
                server=self.server,
                time=now,
                replay_registry=self.verifier.accept_once,
            ).for_link(
                grantor=root.client,
                exercisers=frozenset({root.client}),
                link_expires_at=root.expires_at,
            )
            evaluate(
                root.authorization_data,
                link_context,
                self.verifier.telemetry,
            )
        return verified
