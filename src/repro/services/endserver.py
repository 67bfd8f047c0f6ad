"""The application end-server framework (§3.5, §6).

"Application servers would be designed to base authorization on a local
access-control-list.  Where a capability-based approach is required, the
access-control-list would contain a single entry naming the principal ...
authorized to grant capabilities for server operations."

:class:`EndServerBase` is the one request pipeline.  §6's point is that
it does not depend on how the claimant authenticated, so a substrate
supplies only a front-end:

* :class:`EndServer` — Kerberos (§6.2): sessions from AP exchanges,
  ticket-carried proxies, group proxies (§3.3), server challenges (§2);
* :class:`~repro.services.pk_endserver.PkEndServer` — public key (§6.1):
  a signed envelope per request, proxies checked against a key directory.

Subclasses (file server, print server, accounting server, authorization
server...) register operations and supply their own state.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as _dc_replace
from typing import (
    Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple,
)

from repro.acl import AccessControlList
from repro.audit import AuditLog
from repro.bounded import BoundedStore
from repro.clock import Clock
from repro.core.evaluation import RequestContext, evaluate
from repro.core.presentation import PresentedProxy, request_digest
from repro.core.verification import ProxyVerifier, VerifiedProxy
from repro.crypto import signature as _signature
from repro.crypto.keys import SymmetricKey
from repro.crypto.rng import DEFAULT_RNG, Rng
from repro.encoding.identifiers import GroupId, PrincipalId
from repro.encoding.schema import decoder, wire
from repro.errors import (
    AuthorizationDenied,
    ProxyVerificationError,
    ReproError,
    ServiceError,
    UnknownSessionError,
)
from repro.kerberos.proxy_support import KerberosProxyAcceptor
from repro.kerberos.session import ApAcceptor, Session
from repro.kerberos.ticket import ApRequest, ProxyBundle
from repro.net.message import Message
from repro.net.network import Network
from repro.net.service import Service


@dataclass(frozen=True)
class AuthorizedRequest:
    """Everything a request handler may rely on — already verified.

    Attributes:
        operation / target: the application request.
        args: its arguments — an instance of the operation's declared
            ``Args`` type (see :meth:`EndServerBase.register_operation`).
        rights: the principal whose rights the request proceeds under
            (proxy grantor, or the authenticated identity).
        claimant: authenticated presenter (None for anonymous bearer use).
        groups: memberships asserted via group proxies.
        amounts: resources requested, by currency.
        verified: chain-verification result when a proxy was presented.
        session_key: the requester's session key, for replies that must be
            protected from disclosure (Fig. 3's ``{Kproxy}Ksession``).
        request_id: the resilience layer's retry id (``_rid``) when the
            request arrived over a :class:`~repro.resil.channel.
            ResilientChannel`; handlers with idempotent state machines
            (the accounting ledger) key dedupe on it so a resend that
            slips past the response cache still cannot double-apply.
    """

    operation: str
    target: Optional[str]
    args: Any
    rights: PrincipalId
    claimant: Optional[PrincipalId]
    groups: FrozenSet[GroupId]
    amounts: Dict[str, int]
    verified: Optional[VerifiedProxy] = None
    session_key: Optional[SymmetricKey] = field(default=None, repr=False)
    request_id: Optional[str] = None

    @property
    def presented_restrictions(self) -> Tuple:
        """All restrictions carried by the presented chain, in link order
        (for issuing servers to propagate, §7.9)."""
        return self.verified.restrictions if self.verified else ()


Handler = Callable[[AuthorizedRequest], dict]

#: What a hostile or malformed payload may raise while being decoded.
_MALFORMED = (ReproError, LookupError, TypeError, ValueError, AttributeError)


@wire
@dataclass(frozen=True)
class NoArgs:
    """The arguments of an operation that declares none."""


#: Requested resources by currency, exact non-negative ``int`` only: a
#: float would be truncated, a bool or string coerced, and a negative
#: amount passes every quota, so anything else is refused, not repaired.
_parse_amounts = decoder(Dict[str, int], "request", "amounts", min=0)


class EndServerBase(Service):
    """The request pipeline every end-server runs, whatever the substrate.

    :meth:`op_request` parses the amounts and the operation's declared
    arguments, authenticates the claimant, verifies any proxy in an
    accept-once transaction, marks degraded grants, evaluates identity
    restrictions, authorizes against the ACL the *rights principal*
    (proxy grantor, else the identity) plus
    asserted groups, evaluates the entry's restrictions, audits the proxy
    use and dispatches an :class:`AuthorizedRequest`.  A front-end
    subclass sets :attr:`verifier` and supplies the rest:

    * ``_authenticate(payload)`` — the claimant's
      :class:`~repro.kerberos.session.Session` (whose restrictions bind
      the request), or None;
    * ``_presented(bundle)`` / ``_verify_proxy(bundle, context, digest)``
      — a proxy bundle decoded / verified, its possession proof bound to
      this request's ``digest`` (and :meth:`_assert_groups`);
    * :meth:`_identity_checks` — identity signatures to prefetch.
    """

    #: ``endserver_requests_total`` path label of a request without a proxy.
    _IDENTITY_PATH = "session"

    verifier: ProxyVerifier

    def __init__(
        self,
        principal: PrincipalId,
        network: Network,
        clock: Clock,
        acl: Optional[AccessControlList] = None,
        rng: Optional[Rng] = None,
        authority_monitor: Optional[Callable[[PrincipalId], bool]] = None,
        **service,
    ) -> None:
        """``service``: :class:`Service`'s telemetry, dedupe and endpoint."""
        super().__init__(principal, network, clock, **service)
        #: Degraded-mode hook (§3.1–3.2): called with a verified grantor;
        #: returning True means that authority is currently unreachable,
        #: so the grant is honoured — proxies verify offline — but marked
        #: ``degraded`` in the verification result and the audit trail.
        #: Typically ``channel.authority_unreachable``.
        self.authority_monitor = authority_monitor
        self.acl = acl if acl is not None else AccessControlList()
        self._rng = rng or DEFAULT_RNG
        #: operation -> (handler, declared ``Args`` type).
        self._operations: Dict[str, Tuple[Handler, type]] = {}
        #: Every proxy-authorized request is recorded here (§3.4: delegate
        #: chains leave an audit trail; this is where it lands).  The audit
        #: log shares the server's telemetry so each record also lands as a
        #: span event, correlating audit trails with traces by run id.
        self.audit = AuditLog(telemetry=self.telemetry)
        #: Optional :class:`~repro.durability.DurabilityStore`, set by
        #: :meth:`_attach_durability`.
        self.durability = None
        #: The :class:`~repro.durability.RecoveryReport` from this
        #: server's startup recovery (None without durability).
        self.recovery = None

    # ------------------------------------------------------------------
    # Durability wiring
    # ------------------------------------------------------------------

    def _durable(self) -> list:
        """This server's :class:`~repro.durable.Durable` components, in
        snapshot order; a subclass with state of its own appends it."""
        return [
            component
            for component in (
                self.verifier.accept_once, self.dedupe, self.audit
            )
            if component is not None
        ]

    def _attach_durability(self, durability) -> None:
        """Attach every :meth:`_durable` component to ``durability`` and
        recover them, once, before the server answers anything — so a
        server rebuilt from the store still rejects a replayed single-use
        proxy and answers a resend from cache (``docs/durability.md``).
        Sessions are not persisted — clients re-establish them, as after
        any real restart."""
        if durability is None:
            return
        self.durability = durability
        for component in self._durable():
            durability.attach(component)
        self.recovery = durability.recover()

    # ------------------------------------------------------------------

    def register_operation(
        self, name: str, handler: Handler, args: type = NoArgs
    ) -> None:
        """Expose an application operation.  The request's arguments are
        decoded into ``args``, a :func:`~repro.encoding.schema.wire` type,
        before anything else runs — a malformed one is refused before
        verification, authorization or any state change — and the handler
        receives the instance as :attr:`AuthorizedRequest.args`.  An
        operation that declares nothing takes no arguments."""
        self._operations[name] = (handler, args)

    def signature_prefetcher(self) -> Callable[[Sequence[tuple]], int]:
        """Cross-request batch prefetcher for the async runtime.

        Install with ``aio_network.set_prefetcher(server.endpoint,
        server.signature_prefetcher())``.  Offered the ``(msg_type,
        payload)`` pairs of one inbox drain, it collects every request's
        identity checks (:meth:`_identity_checks`) and proxy-chain checks
        (:meth:`~repro.core.verification.ProxyVerifier.
        collect_signature_checks`), runs them all through one
        :func:`~repro.crypto.signature.verify_batch` call and returns how
        many it ran.  Positive results land in the signature cache, so
        each handler's own verification hits it.  Strictly an
        optimization: failures are never cached, malformed payloads are
        skipped, and every handler still verifies everything itself.
        """

        def prefetch(batch: Sequence[tuple]) -> int:
            checks: List[tuple] = []
            for msg_type, payload in batch:
                if msg_type != "request" or not isinstance(payload, dict):
                    continue
                try:
                    checks.extend(self._identity_checks(payload))
                except _MALFORMED:
                    pass
                if payload.get("proxy") is None:
                    continue
                try:
                    presented = self._presented(payload["proxy"])
                except _MALFORMED:
                    continue
                checks.extend(self.verifier.collect_signature_checks(presented))
            _signature.verify_batch(checks)
            return len(checks)

        return prefetch

    def _assert_groups(
        self, group_proxies: list, claimant: Optional[PrincipalId]
    ) -> FrozenSet[GroupId]:
        """Memberships asserted by group proxies: none, by default."""
        return frozenset()

    def _identity_checks(self, payload: dict) -> List[tuple]:
        """Identity signatures a queued request carries: none, by default."""
        return []

    # ------------------------------------------------------------------
    # The request path
    # ------------------------------------------------------------------

    def op_request(self, message: Message) -> dict:
        """Authorize and execute one application request.

        Payload fields: ``operation``, ``target``, ``args``, ``amounts``,
        the front-end's identity fields, and optionally ``proxy`` (a
        proxy bundle) and ``_rid``.
        """
        payload = message.payload
        operation = payload["operation"]
        target = payload.get("target")
        amounts = _parse_amounts(payload.get("amounts", {}))
        handler, declared = self._operations.get(operation, (None, NoArgs))
        args = declared.from_wire(payload.get("args", {}))
        session = self._authenticate(payload)
        claimant = session.presenter if session is not None else None
        # Accept-once identifiers consumed while verifying are rolled back
        # if the request ultimately fails (the paper records a check number
        # only once the check is *paid*, §4).
        with self.verifier.accept_once.transaction():
            groups = self._assert_groups(
                payload.get("group_proxies") or [], claimant
            )
            context = RequestContext(
                server=self.principal,
                operation=operation,
                target=target,
                claimant=claimant,
                supporting_groups=groups,
                amounts=amounts,
                time=self.clock.now(),
                replay_registry=self.verifier.accept_once,
            )
            verified: Optional[VerifiedProxy] = None
            if payload.get("proxy") is not None:
                # A possession proof is good for the request it was made
                # for, never for an operation or target resent under it.
                verified = self._verify_proxy(
                    payload["proxy"], context,
                    request_digest(operation, target),
                )
                if self.authority_monitor is not None and (
                    self.authority_monitor(verified.grantor)
                ):
                    verified = _dc_replace(verified, degraded=True)
                    self.telemetry.inc(
                        "resil.degraded_grants_total",
                        help="Grants honoured while the issuing authority "
                        "was unreachable (degraded mode).",
                        service=str(self.principal),
                        grantor=str(verified.grantor),
                    )
                    if self.telemetry.enabled:
                        self.telemetry.event(
                            "degraded.grant",
                            service=str(self.principal),
                            grantor=str(verified.grantor),
                            operation=operation,
                        )
                rights = verified.grantor
            elif session is not None:
                rights = session.client
            else:
                raise AuthorizationDenied(
                    "request carries neither an authenticated identity "
                    "nor a proxy"
                )

            # Identity restrictions (a Kerberos session's ticket and
            # authenticator restrictions) bind every request (§6.2).
            if session is not None and session.restrictions:
                evaluate(
                    session.restrictions,
                    context.for_link(
                        grantor=session.client,
                        exercisers=frozenset({session.presenter}),
                        link_expires_at=session.expires_at,
                    ),
                    self.telemetry,
                )

            principals = frozenset(
                p for p in (rights, claimant) if p is not None
            )
            entry = self.acl.authorize(principals, groups, operation, target)
            if entry.restrictions:
                evaluate(
                    entry.restrictions,
                    context.for_link(
                        grantor=rights,
                        exercisers=principals,
                        link_expires_at=float("inf"),
                    ),
                    self.telemetry,
                )

            if handler is None:
                raise ServiceError(
                    f"{self.principal} has no operation {operation!r}"
                )
            if verified is not None:
                # Only an authorized use of delegated rights is evidence;
                # a refused request leaves no record (§3.4).
                self.audit.record(
                    self.clock.now(), self.principal, verified, operation,
                    target,
                )
            self.telemetry.inc(
                "endserver_requests_total",
                help="Authorized application requests, by operation and "
                "path.",
                service=str(self.principal),
                operation=operation,
                path="proxy" if verified is not None else self._IDENTITY_PATH,
            )
            request = AuthorizedRequest(
                operation=operation,
                target=target,
                args=args,
                rights=rights,
                claimant=claimant,
                groups=groups,
                amounts=amounts,
                verified=verified,
                session_key=(
                    session.session_key if session is not None else None
                ),
                request_id=payload.get("_rid"),
            )
            if self.telemetry.usage is not None:
                # Metered runs get a handler-proper frame: the profiler can
                # split authorization overhead from the operation itself.
                with self.telemetry.span(
                    "op.exec",
                    service=str(self.principal),
                    operation=operation,
                    principal=str(rights),
                ):
                    return handler(request)
            return handler(request)


class EndServer(EndServerBase):
    """The Kerberos front-end (§6.2): sessions, ticket-carried proxies,
    group proxies and server challenges."""

    #: Issuing servers (authorization server, group server) verify presented
    #: proxies in issuer mode: end-server-interpreted restrictions are
    #: propagated into the proxies they issue rather than evaluated against
    #: the issuing operation itself (§7.9).
    ISSUER_MODE = False

    def __init__(
        self,
        principal: PrincipalId,
        secret_key: SymmetricKey,
        network: Network,
        clock: Clock,
        acl: Optional[AccessControlList] = None,
        max_skew: float = 60.0,
        rng: Optional[Rng] = None,
        telemetry=None,
        cache_config=None,
        dedupe=None,
        endpoint: Optional[PrincipalId] = None,
        authority_monitor: Optional[
            Callable[[PrincipalId], bool]
        ] = None,
        durability=None,
    ) -> None:
        super().__init__(
            principal, network, clock, acl=acl, rng=rng,
            authority_monitor=authority_monitor, telemetry=telemetry,
            dedupe=dedupe, endpoint=endpoint,
        )
        self.ap = ApAcceptor(principal, secret_key, clock, max_skew=max_skew)
        self.acceptor = KerberosProxyAcceptor(
            principal,
            secret_key,
            clock,
            max_skew=max_skew,
            telemetry=self.telemetry,
            cache_config=cache_config,
        )
        self.verifier = self.acceptor.verifier
        #: session id -> Session, held until the session's ticket expires.
        self.sessions = BoundedStore(now=clock.now)
        #: Outstanding server-issued challenges for challenge-based
        #: possession proofs (§2: "a signed or encrypted timestamp or
        #: server challenge"), each held for one freshness window.
        self._challenges = BoundedStore(now=clock.now)
        self._attach_durability(durability)

    # ------------------------------------------------------------------
    # Session establishment
    # ------------------------------------------------------------------

    def op_ap_request(self, message: Message) -> dict:
        """Accept an AP exchange; returns an opaque session id."""
        session = self.ap.accept(ApRequest.from_wire(message.fields))
        session_id = self._rng.bytes(16)
        self.sessions.put(session_id, session, session.expires_at)
        return {"session_id": session_id}

    def op_get_challenge(self, message: Message) -> dict:
        """Issue a nonce for a challenge-based possession proof (§2)."""
        challenge = self._rng.bytes(16)
        self._challenges.put(
            challenge, True, self.clock.now() + self.verifier.freshness_window
        )
        return {"challenge": challenge}

    def _consume_challenge(self, challenge: bytes) -> None:
        """A presented challenge must be ours, unexpired and unused."""
        if self._challenges.pop(challenge) is None:
            raise ProxyVerificationError(
                "unknown, expired or reused server challenge"
            )

    # ------------------------------------------------------------------
    # The front-end
    # ------------------------------------------------------------------

    def _authenticate(self, payload: dict) -> Optional[Session]:
        session_id = payload.get("session_id")
        if session_id is None:
            return None
        session = self.sessions.get(session_id)
        if session is None:
            raise UnknownSessionError("unknown session id")
        return session

    def _assert_groups(
        self,
        group_proxies: list,
        claimant: Optional[PrincipalId],
    ) -> FrozenSet[GroupId]:
        """Verify each supporting group proxy and collect asserted groups.

        Each bundle asserts one group.  The proxy's grantor must be the
        group's own server and the chain must carry a ``group-membership``
        restriction covering the group (our group server always includes
        one — without it the proxy would assert *all* groups, §7.6).
        """
        asserted = set()
        for item in group_proxies:
            group = GroupId.from_wire(item["group"])
            context = RequestContext(
                server=self.principal,
                operation="assert-membership",
                asserting_group=group,
                claimant=claimant,
            )
            verified = self.acceptor.accept(item["bundle"], context)
            if verified.grantor != group.server:
                raise ProxyVerificationError(
                    f"group proxy for {group} granted by {verified.grantor}, "
                    f"not the group's server"
                )
            asserted.add(group)
        return frozenset(asserted)

    def _presented(self, bundle: dict) -> PresentedProxy:
        return ProxyBundle.from_wire(bundle).presented

    def _verify_proxy(
        self, wire: dict, context: RequestContext, expected_digest: bytes
    ) -> VerifiedProxy:
        """Consume the §2 server challenge, if the proof names one; open
        the bundle's tickets and verify the chain."""
        bundle = ProxyBundle.from_wire(wire)
        proof = bundle.presented.proof
        if proof is not None and proof.challenge:
            self._consume_challenge(proof.challenge)
        return self.acceptor.verify(
            bundle, context, expected_digest=expected_digest,
            issuer_mode=self.ISSUER_MODE,
        )
