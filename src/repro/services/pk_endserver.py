"""A public-key end-server: the §6.1 deployment with no KDC at all.

"If the authentication system is purely public-key … the end-server
decrypts the proxy using the public key of the grantor (obtained from an
authentication/name server), verifies the authenticity of the proxy,
accepts additional authentication from the grantee …, checks the
restrictions, and if all checks out, performs the requested operation."

Pieces:

* :class:`PublicKeyDirectory` — the authentication/name-server stand-in:
  principal → public key.  Shared by servers and clients; removing a
  principal is the public-key world's revocation lever.
* :class:`SignedEnvelope` — client identity authentication: a signature by
  the claimant's long-term key over (server, timestamp, nonce, request
  digest); replay-suppressed and skew-checked like an authenticator.
* :class:`PkEndServer` — the public-key front-end of the one end-server
  pipeline (:class:`~repro.services.endserver.EndServerBase`): it checks
  envelopes and Fig. 6 proxies (pure public or §6.1 hybrid bindings).
* :class:`PkClient` — the client agent: signs envelopes, attaches proxies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.acl import AccessControlList
from repro.clock import Clock
from repro.core.evaluation import RequestContext
from repro.core.presentation import (
    PresentedProxy,
    present,
    request_digest,
)
from repro.core.proxy import Proxy
from repro.core.replay import AuthenticatorCache
from repro.core.verification import (
    ProxyVerifier,
    PublicKeyCrypto,
    VerifiedProxy,
)
from repro.crypto import schnorr
from repro.crypto.rng import DEFAULT_RNG, Rng
from repro.crypto.schnorr_groups import DEFAULT_GROUP, SchnorrGroup
from repro.crypto.signature import SchnorrSigner, SchnorrVerifier, Verifier
from repro.encoding.canonical import encode
from repro.encoding.identifiers import PrincipalId
from repro.encoding.schema import wire
from repro.errors import (
    AuthenticatorError,
    ProxyVerificationError,
    ReplayError,
    SignatureError,
    UnknownPrincipalError,
)
from repro.kerberos.session import Session
from repro.net.network import Network
from repro.services.endserver import EndServerBase

_ENVELOPE_DOMAIN = "repro-pk-envelope-v1"


class PublicKeyDirectory:
    """Principal → public key, as a name server would publish it (§6.1)."""

    def __init__(self) -> None:
        self._keys: Dict[PrincipalId, schnorr.SchnorrPublicKey] = {}

    def publish(
        self, principal: PrincipalId, public: schnorr.SchnorrPublicKey
    ) -> None:
        self._keys[principal] = public

    def revoke(self, principal: PrincipalId) -> None:
        """Drop a principal — every proxy rooted at it dies at once."""
        self._keys.pop(principal, None)

    def key_of(self, principal: PrincipalId) -> schnorr.SchnorrPublicKey:
        try:
            return self._keys[principal]
        except KeyError:
            raise UnknownPrincipalError(str(principal)) from None

    def verifier_for(self, principal: PrincipalId) -> SchnorrVerifier:
        return SchnorrVerifier(public=self.key_of(principal))


class _DirectoryCrypto(PublicKeyCrypto):
    """PublicKeyCrypto view over a live directory (no copied snapshot)."""

    def __init__(
        self,
        directory: PublicKeyDirectory,
        own_schnorr: Optional[schnorr.SchnorrPrivateKey],
    ) -> None:
        super().__init__(directory={}, own_schnorr=own_schnorr)
        self._live = directory

    def grantor_verifier(self, grantor: PrincipalId) -> Verifier:
        try:
            return self._live.verifier_for(grantor)
        except UnknownPrincipalError:
            raise ProxyVerificationError(
                f"grantor {grantor} not in key directory"
            ) from None


@wire
@dataclass(frozen=True)
class SignedEnvelope:
    """Identity authentication for one request (the PK 'authenticator')."""

    claimant: PrincipalId
    server: PrincipalId
    timestamp: float
    nonce: bytes
    digest: bytes
    signature: bytes = field(repr=False)

    @staticmethod
    def signed_body(
        claimant: PrincipalId,
        server: PrincipalId,
        timestamp: float,
        nonce: bytes,
        digest: bytes,
    ) -> bytes:
        return encode(
            [
                _ENVELOPE_DOMAIN,
                claimant,
                server,
                float(timestamp),
                nonce,
                digest,
            ]
        )

    def body_bytes(self) -> bytes:
        return self.signed_body(
            self.claimant, self.server, self.timestamp, self.nonce, self.digest
        )


class PkEndServer(EndServerBase):
    """The public-key front-end (§6.1): no KDC, a key directory."""

    _IDENTITY_PATH = "envelope"

    def __init__(
        self,
        principal: PrincipalId,
        network: Network,
        clock: Clock,
        directory: PublicKeyDirectory,
        acl: Optional[AccessControlList] = None,
        group: SchnorrGroup = DEFAULT_GROUP,
        max_skew: float = 60.0,
        rng: Optional[Rng] = None,
        telemetry=None,
        cache_config=None,
        dedupe=None,
    ) -> None:
        super().__init__(
            principal, network, clock, acl=acl, rng=rng,
            telemetry=telemetry, dedupe=dedupe,
        )
        self.directory = directory
        self.identity = schnorr.generate_keypair(group, rng=self._rng)
        directory.publish(principal, self.identity.public)
        self.verifier = ProxyVerifier(
            server=principal,
            crypto=_DirectoryCrypto(directory, own_schnorr=self.identity),
            clock=clock,
            max_skew=max_skew,
            telemetry=self.telemetry,
            cache_config=cache_config,
        )
        self._envelope_replay = AuthenticatorCache(
            clock,
            window=self.verifier.freshness_window,
            max_skew=max_skew,
        )

    # ------------------------------------------------------------------
    # The front-end
    # ------------------------------------------------------------------

    def _authenticate(self, payload: dict) -> Optional[Session]:
        """The signed envelope, if any: a one-request session with no key
        and no identity restrictions."""
        if payload.get("envelope") is None:
            return None
        envelope = SignedEnvelope.from_wire(payload["envelope"])
        if envelope.server != self.principal:
            raise AuthenticatorError("envelope made for another server")
        now = self.clock.now()
        if abs(envelope.timestamp - now) > self.verifier.max_skew:
            raise AuthenticatorError("envelope outside skew window")
        if envelope.digest != request_digest(
            payload["operation"], payload.get("target")
        ):
            raise AuthenticatorError("envelope bound to another request")
        body = envelope.body_bytes()
        try:
            self.verifier.verify_identity(
                self.directory.verifier_for(envelope.claimant),
                body,
                envelope.signature,
            )
        except (SignatureError, UnknownPrincipalError) as exc:
            raise AuthenticatorError(f"envelope rejected: {exc}") from exc
        if not self._envelope_replay.register(
            body + envelope.signature,
            timestamp=envelope.timestamp,
        ):
            raise ReplayError("envelope replayed")
        return Session(envelope.claimant, envelope.claimant, None)

    def _presented(self, bundle: dict) -> PresentedProxy:
        return PresentedProxy.from_wire(bundle)

    def _verify_proxy(
        self, bundle: dict, context: RequestContext, expected_digest: bytes
    ) -> VerifiedProxy:
        return self.verifier.verify(
            self._presented(bundle), context, expected_digest=expected_digest
        )

    def _identity_checks(self, payload: dict) -> List[tuple]:
        if payload.get("envelope") is None:
            return []
        envelope = SignedEnvelope.from_wire(payload["envelope"])
        return [
            (
                self.directory.verifier_for(envelope.claimant),
                envelope.body_bytes(),
                envelope.signature,
            )
        ]


class PkClient:
    """Client agent for the public-key world: a keypair and a directory."""

    def __init__(
        self,
        principal: PrincipalId,
        network: Network,
        clock: Clock,
        directory: PublicKeyDirectory,
        group: SchnorrGroup = DEFAULT_GROUP,
        rng: Optional[Rng] = None,
    ) -> None:
        self.principal = principal
        self.network = network
        self.clock = clock
        self.directory = directory
        self._rng = rng or DEFAULT_RNG
        self.identity = schnorr.generate_keypair(group, rng=self._rng)
        directory.publish(principal, self.identity.public)

    @property
    def signer(self) -> SchnorrSigner:
        return SchnorrSigner(self.identity)

    def _envelope(
        self, server: PrincipalId, digest: bytes
    ) -> SignedEnvelope:
        nonce = self._rng.bytes(8)
        timestamp = self.clock.now()
        body = SignedEnvelope.signed_body(
            self.principal, server, timestamp, nonce, digest
        )
        return SignedEnvelope(
            claimant=self.principal,
            server=server,
            timestamp=timestamp,
            nonce=nonce,
            digest=digest,
            signature=self.signer.sign(body),
        )

    def request(
        self,
        server: PrincipalId,
        operation: str,
        target: Optional[str] = None,
        args: Optional[dict] = None,
        amounts: Optional[Dict[str, int]] = None,
        proxy: Optional[Proxy] = None,
        anonymous: bool = False,
    ) -> dict:
        """One authorized request, signed and/or proxy-backed."""
        from repro.net.message import raise_if_error

        digest = request_digest(operation, target)
        payload: dict = {
            "operation": operation,
            "target": target,
            "args": args or {},
            "amounts": dict(amounts or {}),
        }
        if not anonymous:
            payload["envelope"] = self._envelope(server, digest).to_wire()
        if proxy is not None:
            payload["proxy"] = present(
                proxy,
                server,
                self.clock.now(),
                operation,
                target=target,
                prove_possession=proxy.proxy_key is not None,
            ).to_wire()
        return raise_if_error(
            self.network.send(self.principal, server, "request", payload)
        )
