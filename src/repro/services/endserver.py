"""The application end-server framework (§3.5).

"Application servers would be designed to base authorization on a local
access-control-list.  Where a capability-based approach is required, the
access-control-list would contain a single entry naming the principal ...
authorized to grant capabilities for server operations."

An :class:`EndServer`:

* accepts Kerberos AP exchanges (sessions with authenticated identity and
  ticket-borne restrictions);
* accepts restricted-proxy presentations (the capability path) and group
  proxies asserting membership (§3.3);
* authorizes each request against its local ACL using the *rights
  principal* — the proxy grantor when a proxy is presented, else the
  session identity — plus asserted groups;
* enforces restrictions from every layer: proxy chain, ticket
  authorization-data, session authenticator, and matched ACL entry;
* dispatches to registered operation handlers.

Subclasses (file server, print server, accounting server, authorization
server...) register operations and supply their own state.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as _dc_replace
from typing import Callable, Dict, FrozenSet, Optional, Tuple

from repro.acl import AccessControlList
from repro.audit import AuditLog, AuditRecord
from repro.clock import Clock
from repro.core.evaluation import RequestContext, evaluate
from repro.core.restrictions import GroupMembership
from repro.core.verification import VerifiedProxy
from repro.crypto.keys import SymmetricKey
from repro.crypto.rng import DEFAULT_RNG, Rng
from repro.encoding.identifiers import GroupId, PrincipalId
from repro.errors import (
    AuthorizationDenied,
    ProxyVerificationError,
    ServiceError,
)
from repro.kerberos.proxy_support import KerberosProxyAcceptor
from repro.kerberos.session import ApAcceptor, Session
from repro.net.message import Message
from repro.net.network import Network
from repro.net.service import Service


@dataclass(frozen=True)
class AuthorizedRequest:
    """Everything a request handler may rely on — already verified.

    Attributes:
        operation / target / args: the application request.
        rights: the principal whose rights the request proceeds under
            (proxy grantor, or the session identity).
        claimant: authenticated presenter (None for anonymous bearer use).
        groups: memberships asserted via group proxies.
        amounts: resources requested, by currency.
        verified: chain-verification result when a proxy was presented.
        presented_restrictions: all restrictions carried by the presented
            chain (for issuing servers to propagate, §7.9).
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
    args: dict
    rights: PrincipalId
    claimant: Optional[PrincipalId]
    groups: FrozenSet[GroupId]
    amounts: Dict[str, int]
    verified: Optional[VerifiedProxy] = None
    presented_restrictions: Tuple = ()
    session_key: Optional[SymmetricKey] = field(default=None, repr=False)
    request_id: Optional[str] = None


Handler = Callable[[AuthorizedRequest], dict]


class EndServer(Service):
    """ACL-guarded application server accepting sessions and proxies."""

    #: Issuing servers (authorization server, group server) verify presented
    #: proxies in issuer mode: end-server-interpreted restrictions are
    #: propagated into the proxies they issue rather than evaluated against
    #: the issuing operation itself (§7.9).
    ISSUER_MODE = False

    #: Whether ``__init__`` runs recovery itself.  Subclasses that wire
    #: additional durable components *after* ``super().__init__`` (the
    #: accounting server's ledger, the file server's file store) set this
    #: False and call :meth:`_recover_durable_state` once fully wired —
    #: recovery must see every handler or replay reports problems.
    _DURABILITY_AUTORECOVER = True

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
            principal,
            network,
            clock,
            telemetry=telemetry,
            dedupe=dedupe,
            endpoint=endpoint,
        )
        #: Degraded-mode hook (§3.1–3.2): called with a verified grantor;
        #: returning True means that authority is currently unreachable,
        #: so the grant is honoured — proxies verify offline — but marked
        #: ``degraded`` in the verification result and the audit trail.
        #: Typically ``channel.authority_unreachable``.
        self.authority_monitor = authority_monitor
        self.acl = acl if acl is not None else AccessControlList()
        self._rng = rng or DEFAULT_RNG
        self.ap = ApAcceptor(principal, secret_key, clock, max_skew=max_skew)
        self.acceptor = KerberosProxyAcceptor(
            principal,
            secret_key,
            clock,
            max_skew=max_skew,
            telemetry=self.telemetry,
            cache_config=cache_config,
        )
        self.sessions: Dict[bytes, Session] = {}
        self._operations: Dict[str, Handler] = {}
        #: Every proxy-authorized request is recorded here (§3.4: delegate
        #: chains leave an audit trail; this is where it lands).  The audit
        #: log shares the server's telemetry so each record also lands as a
        #: span event, correlating audit trails with traces by run id.
        self.audit = AuditLog(telemetry=self.telemetry)
        #: Outstanding server-issued challenges for challenge-based
        #: possession proofs (§2: "a signed or encrypted timestamp or
        #: server challenge").
        self._challenges: Dict[bytes, float] = {}
        #: When :meth:`_sweep_expired` next scans the two tables above.
        self._next_sweep = 0.0
        #: Optional :class:`~repro.durability.DurabilityStore`.  When set,
        #: accept-once registrations, ``_rid``-keyed cached responses, and
        #: audit records survive a crash-restart: a server rebuilt from
        #: the same store still rejects a replayed single-use proxy and
        #: still answers a resent request from cache (``docs/
        #: durability.md``).  Sessions are deliberately *not* persisted —
        #: clients re-establish them, as with any real server restart.
        self.durability = durability
        #: The :class:`~repro.durability.RecoveryReport` from this
        #: server's startup recovery (None without durability).
        self.recovery = None
        if durability is not None:
            self._wire_durability()
            if self._DURABILITY_AUTORECOVER:
                self._recover_durable_state()

    # ------------------------------------------------------------------
    # Durability wiring
    # ------------------------------------------------------------------

    def _wire_durability(self) -> None:
        """Connect the durable components to the store.

        Three per-server components persist: the accept-once registry
        (consumed single-use identifiers — check numbers, §4), the
        response cache (``_rid`` -> reply, the exactly-once layer), and
        the audit log.  Each commits to the WAL as it changes and
        registers a snapshotter for compaction.
        """
        store = self.durability
        accept_once = self.acceptor.verifier.accept_once

        def sink_accept(kind, grantor, identifier, expires_at, used):
            store.append(
                "accept",
                {
                    "kind": kind,
                    "grantor": grantor.to_wire(),
                    "identifier": identifier,
                    "expires_at": expires_at,
                    "used": used,
                },
            )

        accept_once.commit_sink = sink_accept
        store.handler(
            "accept",
            lambda data: accept_once.restore(
                data["kind"],
                PrincipalId.from_wire(data["grantor"]),
                data["identifier"],
                float(data["expires_at"]),
                used=int(data.get("used", 1)),
            ),
        )
        store.snapshotter(
            "accept_once",
            accept_once.capture_state,
            accept_once.restore_state,
        )

        if self.dedupe is not None:
            dedupe = self.dedupe

            def sink_response(key, expires_at, response):
                store.append(
                    "response",
                    {
                        "key": key,
                        "expires_at": expires_at,
                        "response": response,
                    },
                )

            dedupe.sink = sink_response
            store.handler(
                "response",
                lambda data: dedupe.restore(
                    data["key"],
                    float(data["expires_at"]),
                    data["response"],
                ),
            )
            store.snapshotter(
                "responses", dedupe.capture_state, dedupe.restore_state
            )

        audit = self.audit
        audit.sink = lambda entry: store.append("audit", entry.to_wire())
        store.handler(
            "audit",
            lambda data: audit.restore(AuditRecord.from_wire(data)),
        )
        store.snapshotter(
            "audit", audit.capture_state, audit.restore_state
        )

    def _recover_durable_state(self) -> None:
        """Replay snapshot + WAL into the wired components."""
        self.recovery = self.durability.recover()

    # ------------------------------------------------------------------

    def register_operation(self, name: str, handler: Handler) -> None:
        """Expose an application operation."""
        self._operations[name] = handler

    def signature_prefetcher(self):
        """Cross-request batch prefetcher for the async runtime.

        Install with ``aio_network.set_prefetcher(server.endpoint,
        server.signature_prefetcher())``: queued proxy presentations are
        signature-checked in one batch to warm the verification cache
        before the handlers run.  See :mod:`repro.services.prefetch`.
        """
        from repro.services.prefetch import proxy_request_prefetcher

        return proxy_request_prefetcher(self.acceptor.verifier)

    # ------------------------------------------------------------------
    # Session establishment
    # ------------------------------------------------------------------

    def op_ap_request(self, message: Message) -> dict:
        """Accept an AP exchange; returns an opaque session id."""
        session = self.ap.accept(message.payload)
        self._sweep_expired()
        session_id = self._rng.bytes(16)
        self.sessions[session_id] = session
        return {"session_id": session_id}

    def op_get_challenge(self, message: Message) -> dict:
        """Issue a nonce for a challenge-based possession proof (§2)."""
        self._sweep_expired()
        challenge = self._rng.bytes(16)
        self._challenges[challenge] = (
            self.clock.now() + self.acceptor.verifier.freshness_window
        )
        return {"challenge": challenge}

    def _sweep_expired(self) -> None:
        """Drop expired sessions and unused challenges.

        Called where entries are inserted, and scanning at most once per
        freshness window, so clients that go away, replaced sessions and
        challenges never presented cannot accumulate — at a cost the
        ``request`` path never pays.
        """
        now = self.clock.now()
        if now < self._next_sweep:
            return
        self._next_sweep = now + self.acceptor.verifier.freshness_window
        for sid in [k for k, s in self.sessions.items() if s.expires_at < now]:
            del self.sessions[sid]
        for nonce in [k for k, t in self._challenges.items() if t < now]:
            del self._challenges[nonce]

    def _consume_challenge(self, challenge: bytes) -> None:
        """A presented challenge must be ours, fresh, and single-use."""
        expiry = self._challenges.pop(challenge, None)
        if expiry is None:
            raise ProxyVerificationError("unknown or reused server challenge")
        if expiry < self.clock.now():
            raise ProxyVerificationError("server challenge expired")

    def _session_for(self, payload: dict) -> Optional[Session]:
        session_id = payload.get("session_id")
        if session_id is None:
            return None
        session = self.sessions.get(session_id)
        if session is None:
            raise ServiceError("unknown session id")
        if session.expires_at < self.clock.now():
            del self.sessions[session_id]
            raise ServiceError("session expired")
        return session

    # ------------------------------------------------------------------
    # Group proxies (§3.3)
    # ------------------------------------------------------------------

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

    # ------------------------------------------------------------------
    # The request path
    # ------------------------------------------------------------------

    def op_request(self, message: Message) -> dict:
        """Authorize and execute one application request.

        Payload fields: ``operation``, ``target``, ``args``, ``amounts``,
        and optionally ``session_id``, ``proxy`` (a Kerberos proxy bundle),
        ``group_proxies`` (list of {group, bundle}).
        """
        # Accept-once identifiers consumed while verifying are rolled back
        # if the request ultimately fails (the paper records a check number
        # only once the check is *paid*, §4).
        with self.acceptor.verifier.accept_once.transaction():
            return self._authorized_request(message)

    def _authorized_request(self, message: Message) -> dict:
        payload = message.payload
        operation = payload["operation"]
        target = payload.get("target")
        amounts = {
            str(k): int(v) for k, v in (payload.get("amounts") or {}).items()
        }
        session = self._session_for(payload)
        claimant = session.presenter if session is not None else None

        groups = self._assert_groups(
            payload.get("group_proxies") or [], claimant
        )

        verified: Optional[VerifiedProxy] = None
        presented_restrictions: tuple = ()
        if payload.get("proxy") is not None:
            proof_wire = payload["proxy"]["presented"].get("proof")
            if proof_wire is not None and proof_wire.get("challenge"):
                self._consume_challenge(proof_wire["challenge"])
            context = RequestContext(
                server=self.principal,
                operation=operation,
                target=target,
                claimant=claimant,
                supporting_groups=groups,
                amounts=amounts,
            )
            verified = self.acceptor.accept(
                payload["proxy"], context, issuer_mode=self.ISSUER_MODE
            )
            if self.authority_monitor is not None and self.authority_monitor(
                verified.grantor
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
            self.audit.record(
                self.clock.now(), self.principal, verified, operation, target
            )
            from repro.core.presentation import PresentedProxy as _PP

            presented_restrictions = tuple(
                r
                for cert in _PP.from_wire(
                    payload["proxy"]["presented"]
                ).certificates
                for r in cert.restrictions
            )
        elif session is not None:
            rights = session.client
        else:
            raise AuthorizationDenied(
                "request carries neither a session nor a proxy"
            )

        # Session (ticket + authenticator) restrictions bind every request
        # made in the session (§6.2).
        if session is not None and session.restrictions:
            evaluate(
                session.restrictions,
                RequestContext(
                    server=self.principal,
                    operation=operation,
                    target=target,
                    claimant=claimant,
                    supporting_groups=groups,
                    amounts=amounts,
                    time=self.clock.now(),
                    grantor=session.client,
                    exercisers=frozenset({session.presenter}),
                    replay_registry=self.acceptor.verifier.accept_once,
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
                RequestContext(
                    server=self.principal,
                    operation=operation,
                    target=target,
                    claimant=claimant,
                    supporting_groups=groups,
                    amounts=amounts,
                    time=self.clock.now(),
                    grantor=rights,
                    exercisers=principals,
                    replay_registry=self.acceptor.verifier.accept_once,
                ),
                self.telemetry,
            )

        handler = self._operations.get(operation)
        if handler is None:
            raise ServiceError(
                f"{self.principal} has no operation {operation!r}"
            )
        self.telemetry.inc(
            "endserver_requests_total",
            help="Authorized application requests, by operation and path.",
            service=str(self.principal),
            operation=operation,
            path="proxy" if verified is not None else "session",
        )
        request = AuthorizedRequest(
            operation=operation,
            target=target,
            args=payload.get("args") or {},
            rights=rights,
            claimant=claimant,
            groups=groups,
            amounts=amounts,
            verified=verified,
            presented_restrictions=presented_restrictions,
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
