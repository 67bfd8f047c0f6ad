"""End-server verification of presented proxies (§2, §3.4, §6).

This is the trust boundary of the whole system: everything that arrives in a
:class:`~repro.core.presentation.PresentedProxy` is attacker-controlled bytes
until this module has checked it.  Verification proceeds in five stages:

1. **Root signature** — the first certificate must verify under the
   grantor's authentication credentials, resolved through the pluggable
   :class:`EndServerCryptoContext` (shared keys for conventional crypto,
   a key directory for public-key crypto — §6).
2. **Chain walk** (Fig. 4) — each subsequent link must be signed either by
   the *previous link's proxy key* (bearer cascade) or by the *identity key
   of an intermediate named in the previous link's grantee list* (delegate
   cascade, which contributes to the audit trail).
3. **Freshness** — every link unexpired, no link issued in the future
   (modulo clock skew), possession proof within the freshness window and
   not replayed.
4. **Possession / identity** — bearer use requires a valid possession proof
   under the final proxy key; delegate use requires the authenticated
   claimant to satisfy the grantee restriction.
5. **Restrictions** — every restriction of every link is evaluated against
   the request (additive semantics, §6.2); ``limit-restriction`` scoping and
   ``accept-once`` state are handled by the restriction objects themselves.

The result is a :class:`VerifiedProxy`: the root grantor whose rights apply,
the audit trail of intermediates, and the chain's effective expiry.
"""

from __future__ import annotations

import hashlib as _hashlib
import time as _time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Optional, Tuple, Union

from repro.bounded import BoundedStore
from repro.clock import Clock
from repro.core.certificate import (
    LINK_CASCADE,
    LINK_DELEGATE,
    LINK_ROOT,
    HybridKeyBinding,
    ProxyCertificate,
    PublicKeyBinding,
    SealedKeyBinding,
)
from repro.core.evaluation import RequestContext, evaluate
from repro.core.presentation import PresentedProxy
from repro.core.replay import AcceptOnceRegistry, AuthenticatorCache
from repro.core.restrictions import (
    Expiration,
    Grantee,
    IssuedFor,
    LimitRestriction,
    Restriction,
)
from repro.core.vcache import (
    ChainPrefixCache,
    VerificationCacheConfig,
    current_config,
)
from repro.crypto import rsa as _rsa
from repro.crypto import schnorr as _schnorr
from repro.crypto import symmetric as _symmetric
from repro.crypto.keys import KeyPair, SymmetricKey
from repro.crypto.signature import (
    HmacSigner,
    RsaVerifier,
    SchnorrVerifier,
    Verifier,
)
from repro.encoding.identifiers import PrincipalId
from repro.errors import (
    CryptoError,
    IntegrityError,
    ProxyExpiredError,
    ProxyVerificationError,
    ReplayError,
    ReproError,
    SignatureError,
)
from repro.obs.telemetry import NO_TELEMETRY, Telemetry


# ---------------------------------------------------------------------------
# Crypto contexts (§6: conventional vs public-key infrastructure)
# ---------------------------------------------------------------------------

class EndServerCryptoContext(ABC):
    """How this end-server resolves grantor keys and unseals proxy keys."""

    @abstractmethod
    def grantor_verifier(self, grantor: PrincipalId) -> Verifier:
        """Verifier for signatures made with ``grantor``'s credentials.

        Raises:
            ProxyVerificationError: when the grantor is unknown here.
        """

    @abstractmethod
    def unseal_root_key(self, grantor: PrincipalId, box: bytes) -> bytes:
        """Recover a symmetric proxy key sealed by ``grantor`` for us (§6.2)."""

    @abstractmethod
    def decrypt_hybrid(self, scheme: str, box: bytes) -> bytes:
        """Recover a symmetric proxy key encrypted to our public key (§6.1)."""


class SharedKeyCrypto(EndServerCryptoContext):
    """Conventional cryptography: pairwise shared (session) keys (§6.2).

    The Kerberos substrate populates ``shared_keys`` from AP exchanges; tests
    may populate it directly.  A grantor signature is an HMAC under the
    shared key and the sealed proxy key opens under the same key.
    """

    def __init__(
        self, shared_keys: Optional[Dict[PrincipalId, SymmetricKey]] = None
    ) -> None:
        self._shared_keys: Dict[PrincipalId, SymmetricKey] = dict(
            shared_keys or {}
        )

    def add_shared_key(self, principal: PrincipalId, key: SymmetricKey) -> None:
        self._shared_keys[principal] = key

    def drop_shared_key(self, principal: PrincipalId) -> None:
        self._shared_keys.pop(principal, None)

    def _key_for(self, grantor: PrincipalId) -> SymmetricKey:
        try:
            return self._shared_keys[grantor]
        except KeyError:
            raise ProxyVerificationError(
                f"no shared key with grantor {grantor}"
            ) from None

    def grantor_verifier(self, grantor: PrincipalId) -> Verifier:
        return HmacSigner(key=self._key_for(grantor))

    def unseal_root_key(self, grantor: PrincipalId, box: bytes) -> bytes:
        try:
            return _symmetric.unseal(self._key_for(grantor).secret, box)
        except IntegrityError as exc:
            raise ProxyVerificationError(
                f"sealed proxy key from {grantor} failed to open: {exc}"
            ) from exc

    def decrypt_hybrid(self, scheme: str, box: bytes) -> bytes:
        raise ProxyVerificationError(
            "conventional-crypto server cannot open hybrid bindings"
        )


class PublicKeyCrypto(EndServerCryptoContext):
    """Public-key infrastructure (§6.1): a directory of identity verifiers.

    ``directory`` maps principals to their public-key verifiers (obtained
    "from an authentication/name server").  The server's own private keys
    open hybrid bindings.
    """

    def __init__(
        self,
        directory: Optional[Dict[PrincipalId, Verifier]] = None,
        own_schnorr: Optional[_schnorr.SchnorrPrivateKey] = None,
        own_rsa: Optional[KeyPair] = None,
    ) -> None:
        self._directory: Dict[PrincipalId, Verifier] = dict(directory or {})
        self._own_schnorr = own_schnorr
        self._own_rsa = own_rsa

    def add_principal(self, principal: PrincipalId, verifier: Verifier) -> None:
        self._directory[principal] = verifier

    def remove_principal(self, principal: PrincipalId) -> None:
        self._directory.pop(principal, None)

    def grantor_verifier(self, grantor: PrincipalId) -> Verifier:
        try:
            return self._directory[grantor]
        except KeyError:
            raise ProxyVerificationError(
                f"grantor {grantor} not in key directory"
            ) from None

    def unseal_root_key(self, grantor: PrincipalId, box: bytes) -> bytes:
        raise ProxyVerificationError(
            "public-key server holds no shared keys; use hybrid bindings"
        )

    def decrypt_hybrid(self, scheme: str, box: bytes) -> bytes:
        try:
            if scheme == "schnorr-ies":
                if self._own_schnorr is None:
                    raise ProxyVerificationError(
                        "server has no Schnorr private key"
                    )
                return _schnorr.decrypt(self._own_schnorr, box)
            if scheme == "rsa-oaep":
                if self._own_rsa is None or not self._own_rsa.has_private:
                    raise ProxyVerificationError(
                        "server has no RSA private key"
                    )
                return _rsa.decrypt(self._own_rsa.require_private(), box)
        except (CryptoError, IntegrityError) as exc:
            raise ProxyVerificationError(
                f"hybrid proxy key failed to open: {exc}"
            ) from exc
        raise ProxyVerificationError(f"unknown hybrid scheme {scheme!r}")


# ---------------------------------------------------------------------------
# Verification result
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifiedProxy:
    """Outcome of successful verification.

    Attributes:
        grantor: the root grantor — the principal whose rights the request
            now proceeds under ("the operation is performed with the rights
            of the grantor", §3.1).
        claimant: authenticated presenter identity, if any.
        audit_trail: identity-signed intermediates, in chain order (§3.4:
            delegate cascade "leaves an audit trail").
        expires_at: effective expiry (tightest link).
        bearer: True when the final link was exercised by key possession.
        chain_length: number of certificate links verified.
        degraded: True when the grant was honoured while the issuing
            authority was unreachable — the proxy itself verified offline
            as always (§3.1–3.2: that is the availability mechanism), but
            the server flags the decision for the audit trail.
        restrictions: every restriction the chain carries, in link order —
            what an issuing server propagates into what it issues (§7.9).
    """

    grantor: PrincipalId
    claimant: Optional[PrincipalId]
    audit_trail: Tuple[PrincipalId, ...]
    expires_at: float
    bearer: bool
    chain_length: int
    degraded: bool = False
    restrictions: Tuple[Restriction, ...] = field(
        default=(), repr=False, compare=False
    )


#: What we track while walking the chain: either a symmetric proxy key
#: (conventional) or a public-key verifier (public scheme).
_PossessionMaterial = Union[bytes, Verifier]

#: Domain separator seeding the rolling chain-prefix cache key.
_CHAIN_CACHE_DOMAIN = b"repro-vchain-v1"

#: Restriction types an *issuing* server (authorization server, group
#: server, TGS) evaluates when accepting a proxy it will re-issue from.
#: Everything else is "to be interpreted by the end-server" (§7.5) and is
#: propagated, not evaluated (§7.9).
ISSUER_CHECKED_RESTRICTIONS = (Grantee, IssuedFor, Expiration, LimitRestriction)


class ProxyVerifier:
    """The end-server's verification engine.

    Args:
        server: this end-server's principal id.
        crypto: key-resolution context (shared-key or public-key).
        clock: injected time source.
        max_skew: tolerated clock skew for issue times and possession
            proofs, seconds.
        freshness_window: how old a possession proof may be.
        max_chain_length: upper bound on accepted cascade depth (defense
            against resource-exhaustion chains).
        telemetry: observability sink; each verification opens a
            ``verify.chain`` span and feeds the ``verify_chain_seconds``
            histogram.  Defaults to the no-op telemetry.
        cache_config: verification fast-path configuration; defaults to
            the process default (:func:`repro.core.vcache.current_config`).
        chain_cache: inject a prebuilt chain-prefix cache (mainly for
            tests); defaults to one built from ``cache_config``.
    """

    def __init__(
        self,
        server: PrincipalId,
        crypto: EndServerCryptoContext,
        clock: Clock,
        max_skew: float = 60.0,
        freshness_window: float = 300.0,
        max_chain_length: int = 32,
        telemetry: Optional[Telemetry] = None,
        cache_config: Optional[VerificationCacheConfig] = None,
        chain_cache: Optional[ChainPrefixCache] = None,
    ) -> None:
        self.server = server
        self.crypto = crypto
        self.clock = clock
        self.max_skew = max_skew
        self.freshness_window = freshness_window
        self.max_chain_length = max_chain_length
        self.telemetry = (
            telemetry if telemetry is not None else NO_TELEMETRY
        )
        self.cache_config = (
            cache_config if cache_config is not None else current_config()
        )
        self.chain_cache = (
            chain_cache
            if chain_cache is not None
            else self.cache_config.build_chain_cache()
        )
        self.accept_once = AcceptOnceRegistry(clock)
        self.authenticators = AuthenticatorCache(
            clock, window=freshness_window, max_skew=max_skew
        )
        #: Claimant keys an identity signature has verified under here
        #: (:meth:`verify_identity`), bounded like the key tables.
        self._seen_keys = BoundedStore(_schnorr._MAX_KEY_TABLES)

    # -- helpers ------------------------------------------------------------

    def _possession_material(
        self,
        cert: ProxyCertificate,
        index: int,
        previous: Optional[_PossessionMaterial],
    ) -> _PossessionMaterial:
        """Extract the material needed to check signatures by this link's key."""
        binding = cert.key_binding
        if isinstance(binding, PublicKeyBinding):
            if binding.scheme == "schnorr":
                try:
                    public = _schnorr.SchnorrPublicKey.from_wire(
                        binding.key_wire
                    )
                except CryptoError as exc:
                    raise ProxyVerificationError(
                        f"link {index} carries an unusable schnorr key: {exc}"
                    ) from exc
                return SchnorrVerifier(public=public)
            if binding.scheme == "rsa":
                return RsaVerifier(
                    public=_rsa.RsaPublicKey.from_wire(binding.key_wire)
                )
            raise ProxyVerificationError(
                f"unknown public binding scheme {binding.scheme!r}"
            )
        if isinstance(binding, SealedKeyBinding):
            if index == 0 or cert.link_kind == LINK_DELEGATE:
                key = self.crypto.unseal_root_key(cert.grantor, binding.box)
            else:
                if not isinstance(previous, bytes):
                    raise ProxyVerificationError(
                        "sealed cascade link requires a symmetric previous key"
                    )
                try:
                    key = _symmetric.unseal(previous, binding.box)
                except IntegrityError as exc:
                    raise ProxyVerificationError(
                        f"cascaded proxy key failed to open: {exc}"
                    ) from exc
            fp = SymmetricKey(secret=key).fingerprint()
            if fp != binding.fingerprint:
                raise ProxyVerificationError(
                    "sealed key fingerprint mismatch"
                )
            return key
        if isinstance(binding, HybridKeyBinding):
            if binding.server != self.server:
                raise ProxyVerificationError(
                    f"hybrid binding sealed for {binding.server}, "
                    f"we are {self.server}"
                )
            key = self.crypto.decrypt_hybrid(binding.scheme, binding.box)
            fp = SymmetricKey(secret=key).fingerprint()
            if fp != binding.fingerprint:
                raise ProxyVerificationError("hybrid key fingerprint mismatch")
            return key
        raise ProxyVerificationError(
            f"unsupported key binding {type(binding).__name__}"
        )

    @staticmethod
    def _verifier_from_material(material: _PossessionMaterial) -> Verifier:
        if isinstance(material, bytes):
            return HmacSigner(key=SymmetricKey(secret=material))
        return material

    def _check_link_times(self, cert: ProxyCertificate) -> None:
        now = self.clock.now()
        if cert.expires_at < now:
            raise ProxyExpiredError(
                f"certificate expired at {cert.expires_at}, now {now}"
            )
        if cert.issued_at > now + self.max_skew:
            raise ProxyVerificationError(
                f"certificate issued in the future ({cert.issued_at} > "
                f"{now} + skew {self.max_skew})"
            )

    def _register_key(self, public: _schnorr.SchnorrPublicKey) -> bool:
        """Give a recurring Schnorr key a precomputed table; count evictions.

        Returns True when a table was newly built.  The table store is
        process-wide, so an eviction is billed to the verifier whose
        registration caused it.

        Raises:
            CryptoError: the key is outside its group's order-q subgroup.
        """
        evicted = _schnorr.key_table_evictions()
        try:
            return _schnorr.register_verification_key(public)
        finally:
            evicted = _schnorr.key_table_evictions() - evicted
            if evicted:
                self.telemetry.inc(
                    "vcache.evictions",
                    evicted,
                    help="Verification cache evictions, by layer.",
                    layer="keytable",
                )

    def _promote_key(self, public: _schnorr.SchnorrPublicKey) -> None:
        """Give a key that has verified here before a table.

        Two kinds of signature are fresh on every request under the same
        key: the possession proof under a warm chain's proxy key (§3.1,
        §3.4) — certificate signatures are absorbed by the chain cache —
        and a claimant's identity signature (:meth:`verify_identity`).
        Once this server has verified under such a key, it recurs and
        earns a table.  A key outside the order-q subgroup is refused
        one; its signatures keep verifying natively, exactly as without
        promotion.
        """
        try:
            built = self._register_key(public)
        except CryptoError:
            return
        if built:
            self.telemetry.inc(
                "vcache.keytable.promoted",
                help="Recurring keys given a table: a proxy key on a warm "
                "chain hit, a claimant key on its second request.",
            )

    def verify_identity(
        self, verifier: SchnorrVerifier, message: bytes, signature: bytes
    ) -> None:
        """Check a claimant's identity signature (a §6.1 envelope).

        A claimant signs every request under its one long-term key, so a
        key whose signature has verified here once is promoted
        (:meth:`_promote_key`) when it comes back, before that check.  A
        first request builds nothing; the marks are bounded like the
        tables they lead to.

        Raises:
            SignatureError: the signature does not verify.
        """
        public = verifier.public
        seen = self._seen_keys.lookup(public, False)
        if seen:
            self._promote_key(public)
        verifier.verify(message, signature)
        if not seen:
            self._seen_keys.put(public, True)

    # -- the stage 1+2 chain walk ---------------------------------------------

    def _resolve_link(
        self, index: int, cert: ProxyCertificate, audit_trail: list
    ) -> Optional[Verifier]:
        """Per-link freshness + identity-key resolution + kind check.

        Runs on every link of every presentation (hot or cold) so expiry
        and revocation behave identically regardless of caching.

        A Schnorr identity (grantor/delegate) key is registered for
        precomputation on first sight: it signs every cold chain it
        roots.  (Embedded proxy keys earn a table later, on a warm chain
        hit — see :meth:`_promote_key`.)  Rotation is safe because
        a rotated key is a different ``(p, y)`` table key *and* a
        different chain-cache identity token.
        """
        self._check_link_times(cert)
        identity_verifier: Optional[Verifier] = None
        if index == 0 or cert.link_kind == LINK_DELEGATE:
            identity_verifier = self.crypto.grantor_verifier(cert.grantor)
            if isinstance(identity_verifier, SchnorrVerifier):
                try:
                    self._register_key(identity_verifier.public)
                except CryptoError as exc:
                    raise ProxyVerificationError(
                        f"link {index}: grantor key refused: {exc}"
                    ) from exc
            if index > 0:
                audit_trail.append(cert.grantor)
        elif cert.link_kind != LINK_CASCADE:
            raise ProxyVerificationError(
                f"link {index} has kind {cert.link_kind!r}"
            )
        return identity_verifier

    def _walk_chain(
        self,
        certs: Tuple[ProxyCertificate, ...],
        cache: Optional[ChainPrefixCache],
        audit_trail: list,
        check: Callable[[int, Verifier, bytes, bytes], None],
    ) -> Tuple[Optional[_PossessionMaterial], int, int, int]:
        """Walk possession material along the chain, link by link.

        ``check(index, verifier, body, signature)`` is what happens to
        each link signature that the chain cache does not absorb:
        :meth:`_verify_presentation` verifies it and raises,
        :meth:`collect_signature_checks` only records it.  Entries are
        stored as the walk goes, so the cache only ever holds links
        before the first failure.
        """
        previous: Optional[_PossessionMaterial] = None
        prefix_key = _CHAIN_CACHE_DOMAIN
        chain_hits = chain_misses = chain_evictions = 0
        for index, cert in enumerate(certs):
            identity_verifier = self._resolve_link(index, cert, audit_trail)
            if cache is not None:
                token = (
                    identity_verifier.key_id()
                    if identity_verifier is not None
                    else b""
                )
                prefix_key = _hashlib.sha256(
                    prefix_key + cert.digest() + token
                ).digest()
                cached = cache.get(prefix_key)
                if cached is not None:
                    previous = cached
                    chain_hits += 1
                    continue
                chain_misses += 1
            verifier = (
                identity_verifier
                if identity_verifier is not None
                else self._verifier_from_material(previous)
            )
            check(index, verifier, cert.body_bytes(), cert.signature)
            previous = self._possession_material(cert, index, previous)
            if cache is not None:
                chain_evictions += cache.put(prefix_key, previous)
        return previous, chain_hits, chain_misses, chain_evictions

    @staticmethod
    def _verify_link(
        index: int, verifier: Verifier, body: bytes, signature: bytes
    ) -> None:
        try:
            verifier.verify(body, signature)
        except SignatureError as exc:
            raise ProxyVerificationError(
                f"signature of link {index} invalid: {exc}"
            ) from exc

    # -- cross-request prefetch -----------------------------------------------

    def collect_signature_checks(
        self, presented: PresentedProxy
    ) -> list:
        """Best-effort collection of the checks :meth:`verify` will run.

        Returns ``(verifier, message, signature)`` triples for the chain's
        link signatures and (when present) the possession proof — the same
        checks the stage 1+2 walk performs, gathered by that walk with no
        chain cache — *without* a verdict: nothing is cached here and no
        replay key is registered.  The async runtime's cross-request
        prefetchers feed these triples from every queued request into one
        :func:`repro.crypto.signature.verify_batch` call, so by the time
        each handler runs its own :meth:`verify`, the process-wide
        signature cache is already warm.

        Collection is conservative: any resolution failure (expired link,
        unknown grantor, unopenable sealed key) stops collection at that
        link and returns what was gathered so far.  Correctness never
        depends on this method — the signature cache stores positive
        results only, and :meth:`verify` re-checks everything.
        """
        checks: list = []
        try:
            previous, _, _, _ = self._walk_chain(
                presented.certificates,
                None,
                [],
                lambda index, *check: checks.append(check),
            )
            proof = presented.proof
            if proof is not None and previous is not None:
                checks.append(
                    (
                        self._verifier_from_material(previous),
                        proof.body_bytes(),
                        proof.signature,
                    )
                )
        except ReproError:
            # Partial collection: verify() will reach the same failure and
            # raise the authoritative error; prefetch just stops early.
            pass
        return checks

    # -- the main entry point ------------------------------------------------

    def verify(
        self,
        presented: PresentedProxy,
        request: RequestContext,
        expected_digest: Optional[bytes] = None,
        issuer_mode: bool = False,
    ) -> VerifiedProxy:
        """Instrumented wrapper around :meth:`_verify_presentation`.

        Chain verification is the trust boundary *and* the compute hot
        path, so it is both traced (a ``verify.chain`` span carrying
        grantor, chain length, and outcome) and measured (the
        ``verify_chain_seconds`` histogram uses real CPU time — this cost
        is cryptography, not simulated latency).
        """
        telemetry = self.telemetry
        start = _time.perf_counter()
        outcome = "verified"
        try:
            with telemetry.span(
                "verify.chain",
                server=str(self.server),
                chain_length=len(presented.certificates),
                issuer_mode=issuer_mode,
            ) as span:
                verified = self._verify_presentation(
                    presented, request, expected_digest, issuer_mode
                )
                span.set(
                    grantor=str(verified.grantor),
                    bearer=verified.bearer,
                    claimant=(
                        str(verified.claimant)
                        if verified.claimant is not None
                        else None
                    ),
                    audit_trail=[str(p) for p in verified.audit_trail],
                )
                return verified
        except ReproError as exc:
            outcome = type(exc).__name__
            raise
        finally:
            telemetry.observe(
                "verify_chain_seconds",
                _time.perf_counter() - start,
                help="Real time spent verifying one proxy chain.",
            )
            telemetry.inc(
                "proxy_verifications_total",
                help="Proxy-chain verifications, by outcome.",
                outcome=outcome,
            )

    def _verify_presentation(
        self,
        presented: PresentedProxy,
        request: RequestContext,
        expected_digest: Optional[bytes] = None,
        issuer_mode: bool = False,
    ) -> VerifiedProxy:
        """Verify a presentation against a request; raise on any failure.

        ``request`` should carry the operation, target, amounts, supporting
        groups, etc.; this method fills in the per-link fields and the
        server/time/replay plumbing.  When ``expected_digest`` is given the
        possession proof must be bound to exactly that request digest.

        ``issuer_mode`` is for servers that accept proxies in order to issue
        new ones (authorization servers, group servers, the TGS): only
        issuer-relevant restrictions (grantee, issued-for, expiration) are
        evaluated; end-server-interpreted restrictions are left for the
        issuer to *propagate* (§7.9).
        """
        request = request.with_values(
            server=self.server,
            time=self.clock.now(),
            replay_registry=self.accept_once,
        )
        certs = presented.certificates
        if not certs:
            raise ProxyVerificationError("empty certificate chain")
        if len(certs) > self.max_chain_length:
            raise ProxyVerificationError(
                f"chain length {len(certs)} exceeds limit "
                f"{self.max_chain_length}"
            )
        if certs[0].link_kind != LINK_ROOT:
            raise ProxyVerificationError("chain must start with a root link")

        # Stage 1+2: signatures, walking possession material along the chain.
        # Certificates are immutable, so a chain prefix whose signatures
        # verified under given key material verifies forever.  The walk keys
        # a rolling hash on each link's content digest plus an identity
        # token derived from the *live* key used to check that link (empty
        # for cascade links, whose trust flows from the previous proxy key
        # already folded into the prefix).  A prefix hit restores the
        # possession material and skips re-verification of those links;
        # freshness (`_check_link_times`) and grantor-key resolution still
        # run on every link of every presentation, so expiry and revocation
        # behave identically hot or cold.
        cache = self.chain_cache
        audit_trail: list = []
        previous, chain_hits, chain_misses, chain_evictions = self._walk_chain(
            certs, cache, audit_trail, self._verify_link
        )
        if cache is not None:
            telemetry = self.telemetry
            if chain_hits:
                telemetry.inc(
                    "vcache.chain.hit",
                    chain_hits,
                    help="Chain-prefix cache hits (links skipped).",
                )
            if chain_misses:
                telemetry.inc(
                    "vcache.chain.miss",
                    chain_misses,
                    help="Chain-prefix cache misses (links verified).",
                )
            if chain_evictions:
                telemetry.inc(
                    "vcache.evictions",
                    chain_evictions,
                    help="Verification cache evictions, by layer.",
                    layer="chain",
                )
            if telemetry.enabled and (chain_hits or chain_misses):
                # Pin the cache outcome to the request being verified so
                # its trace shows which links the prefix cache absorbed.
                telemetry.event(
                    "vcache.chain",
                    hits=chain_hits,
                    misses=chain_misses,
                )

        # Stage 3+4: how is the final link exercised?
        final = certs[-1]
        bearer_use = presented.proof is not None
        if bearer_use:
            if chain_hits == len(certs) and isinstance(
                previous, SchnorrVerifier
            ):
                self._promote_key(previous.public)
            self._verify_possession_proof(presented, previous)
            if (
                expected_digest is not None
                and presented.proof.digest != expected_digest
            ):
                raise ProxyVerificationError(
                    "possession proof bound to a different request"
                )
        # The claimant must come from the *trusted* request context (set by
        # the server's session layer after authenticating the peer), never
        # from the attacker-controlled wire form.
        claimant = request.claimant
        final_exercisers: FrozenSet[PrincipalId] = (
            frozenset({claimant}) if claimant is not None else frozenset()
        )
        if not bearer_use and claimant is None:
            raise ProxyVerificationError(
                "presentation has neither possession proof nor an "
                "authenticated claimant"
            )

        # Stage 5: restriction evaluation, link by link.  The exercisers of
        # link i are: the signer of link i+1 for delegate links, nobody for
        # anonymous bearer cascades, and the final claimant for the last
        # link.  A Grantee restriction on a link exercised anonymously
        # therefore fails — exactly the §3.4 rule that delegate proxies
        # cannot be cascaded by mere key possession.
        expires_at = min(cert.expires_at for cert in certs)
        for index, cert in enumerate(certs):
            if index + 1 < len(certs):
                next_cert = certs[index + 1]
                if next_cert.link_kind == LINK_DELEGATE:
                    exercisers: FrozenSet[PrincipalId] = frozenset(
                        {next_cert.grantor}
                    )
                else:
                    exercisers = frozenset()
            else:
                exercisers = final_exercisers
            link_context = request.for_link(
                grantor=cert.grantor,
                exercisers=exercisers,
                link_expires_at=cert.expires_at,
            )
            restrictions = cert.restrictions
            if issuer_mode:
                restrictions = tuple(
                    r
                    for r in restrictions
                    if isinstance(r, ISSUER_CHECKED_RESTRICTIONS)
                )
            evaluate(restrictions, link_context, self.telemetry)

        return VerifiedProxy(
            grantor=certs[0].grantor,
            claimant=claimant,
            audit_trail=tuple(audit_trail),
            expires_at=expires_at,
            bearer=bearer_use,
            chain_length=len(certs),
            restrictions=tuple(r for cert in certs for r in cert.restrictions),
        )

    def _verify_possession_proof(
        self, presented: PresentedProxy, material: _PossessionMaterial
    ) -> None:
        proof = presented.proof
        assert proof is not None
        if proof.server != self.server:
            raise ProxyVerificationError(
                f"possession proof made for {proof.server}, we are "
                f"{self.server}"
            )
        now = self.clock.now()
        if proof.timestamp > now + self.max_skew:
            raise ProxyVerificationError("possession proof from the future")
        if proof.timestamp < now - self.freshness_window:
            raise ProxyVerificationError("possession proof too old")
        verifier = self._verifier_from_material(material)
        try:
            verifier.verify(proof.body_bytes(), proof.signature)
        except SignatureError as exc:
            raise ProxyVerificationError(
                f"possession proof invalid: {exc}"
            ) from exc
        if not self.authenticators.register(
            proof.replay_key(), timestamp=proof.timestamp
        ):
            raise ReplayError("possession proof replayed")
