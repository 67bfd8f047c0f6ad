"""Proxies: certificate chains plus the private proxy-key material (§2, §3.4).

A :class:`Proxy` is what a grantee holds: the chain of certificates (one link
for a freshly-granted proxy, several for a cascaded one — Fig. 4) and the
private side of the *final* link's proxy key.  Only the final key is held:
"the certificates from both proxies are provided to the subordinate server,
but only the proxy key from the final proxy in the chain is provided."

Granting functions cover the three schemes of §6:

* :func:`grant_conventional` — Kerberos-style: HMAC-signed certificate and a
  symmetric proxy key sealed under a grantor↔end-server shared key.
* :func:`grant_public` — pure public-key (Fig. 6): signed with the grantor's
  identity key; the binding is the public half of a fresh keypair.
* :func:`grant_hybrid` — §6.1 hybrid: public-key signed, but the proxy key
  is symmetric, encrypted to the end-server's public key.

Cascading functions cover §3.4's two flavours:

* :func:`cascade` — bearer cascade: the new link is signed with the previous
  proxy key; anonymous, no audit trail.
* :func:`delegate_cascade` — delegate cascade: the new link is signed by the
  named intermediate's own identity key, leaving an audit trail.

Both follow one key-kind rule: a new link's proxy key is of the kind of the
key that signs the link.  A link signed under a shared key (an HMAC signer:
a symmetric previous proxy key, or a Kerberos intermediate's session key)
binds a fresh symmetric key sealed under that same shared key, so only the
end-server can recover it (§6.2); any other signer binds a fresh Schnorr
keypair (Fig. 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

from repro.core.certificate import (
    LINK_CASCADE,
    LINK_DELEGATE,
    LINK_ROOT,
    HybridKeyBinding,
    KeyBinding,
    ProxyCertificate,
    PublicKeyBinding,
    SealedKeyBinding,
    build_certificate,
)
from repro.core.restrictions import Grantee, Restriction, is_bearer
from repro.crypto import schnorr as _schnorr
from repro.crypto import symmetric as _symmetric
from repro.crypto.keys import SymmetricKey
from repro.crypto.rng import DEFAULT_RNG, Rng
from repro.crypto.schnorr_groups import DEFAULT_GROUP, SchnorrGroup
from repro.crypto.signature import HmacSigner, SchnorrSigner, Signer
from repro.encoding.identifiers import PrincipalId
from repro.errors import DelegationError, ProxyError

#: Private proxy-key material a grantee can hold.
ProxyKeyMaterial = Union[SymmetricKey, _schnorr.SchnorrPrivateKey]


def possession_signer(key: ProxyKeyMaterial) -> Signer:
    """The signer a grantee uses to prove possession of a proxy key (§2)."""
    if isinstance(key, SymmetricKey):
        return HmacSigner(key=key)
    if isinstance(key, _schnorr.SchnorrPrivateKey):
        return SchnorrSigner(private=key)
    raise ProxyError(f"unsupported proxy key material: {type(key).__name__}")


@dataclass(frozen=True)
class Proxy:
    """A proxy as held by a grantee: certificate chain + final proxy key.

    ``proxy_key`` may be None for a *received presentation* of a delegate
    proxy where possession of the key is not required; grantees that intend
    to cascade always hold the key.
    """

    certificates: Tuple[ProxyCertificate, ...]
    proxy_key: Optional[ProxyKeyMaterial] = field(repr=False, default=None)

    def __post_init__(self) -> None:
        if not self.certificates:
            raise ProxyError("a proxy needs at least one certificate")
        if self.certificates[0].link_kind != LINK_ROOT:
            raise ProxyError("first certificate must be a root link")
        for cert in self.certificates[1:]:
            if cert.link_kind == LINK_ROOT:
                raise ProxyError("root link may only appear first")

    @property
    def root(self) -> ProxyCertificate:
        return self.certificates[0]

    @property
    def final(self) -> ProxyCertificate:
        return self.certificates[-1]

    @property
    def grantor(self) -> PrincipalId:
        """The principal whose rights this proxy conveys (chain root)."""
        return self.root.grantor

    @property
    def is_bearer(self) -> bool:
        """Bearer iff the final link names no grantee (§2, §7.1)."""
        return is_bearer(self.final.restrictions)

    @property
    def expires_at(self) -> float:
        """Effective expiry: the tightest link wins (restrictions are additive)."""
        return min(cert.expires_at for cert in self.certificates)

    def all_restrictions(self) -> Tuple[Restriction, ...]:
        """Every restriction across the chain (additive union)."""
        collected: list = []
        for cert in self.certificates:
            collected.extend(cert.restrictions)
        return tuple(collected)

    def pop_signer(self) -> Signer:
        """Signer proving possession of the final proxy key."""
        if self.proxy_key is None:
            raise ProxyError("this proxy copy does not hold the proxy key")
        return possession_signer(self.proxy_key)

    def without_key(self) -> "Proxy":
        """A copy safe to hand to a verifier or log (no private material)."""
        return Proxy(certificates=self.certificates, proxy_key=None)


def _mint_link_key(
    signer: Signer, group: SchnorrGroup, rng: Rng
) -> Tuple[ProxyKeyMaterial, KeyBinding]:
    """A fresh proxy key for a link ``signer`` signs, and its binding.

    The key-kind rule: under a shared-key (HMAC) signer the key is
    symmetric, sealed under the signer's own key so that only the end-server
    sharing it can recover it (§6.2); under any other signer it is a
    Schnorr keypair in ``group`` whose public half rides in the link.
    """
    if isinstance(signer, HmacSigner):
        key = SymmetricKey.generate(rng=rng)
        return key, SealedKeyBinding(
            box=_symmetric.seal(signer.key.secret, key.secret, rng=rng),
            fingerprint=key.fingerprint(),
        )
    private = _schnorr.generate_keypair(group=group, rng=rng)
    return private, PublicKeyBinding(
        scheme="schnorr", key_wire=private.public.to_wire()
    )


# ---------------------------------------------------------------------------
# Granting (§2, §6)
# ---------------------------------------------------------------------------

def grant_conventional(
    grantor: PrincipalId,
    shared_key: SymmetricKey,
    restrictions: Tuple[Restriction, ...],
    issued_at: float,
    expires_at: float,
    rng: Optional[Rng] = None,
) -> Proxy:
    """Grant a proxy under conventional cryptography (§6.2 shape).

    ``shared_key`` is a key the grantor shares with the end-server — in
    Kerberos terms, the session key from the grantor's ticket for that
    server.  The certificate is integrity-sealed under it and the fresh
    symmetric proxy key is sealed under it too, so only that end-server can
    recover the proxy key (this is why conventional proxies are valid at a
    single end-server, §6.3).
    """
    rng = rng or DEFAULT_RNG
    signer = HmacSigner(key=shared_key)
    proxy_key, binding = _mint_link_key(signer, DEFAULT_GROUP, rng)
    cert = build_certificate(
        grantor=grantor,
        restrictions=restrictions,
        key_binding=binding,
        issued_at=issued_at,
        expires_at=expires_at,
        link_kind=LINK_ROOT,
        signer=signer,
        rng=rng,
    )
    return Proxy(certificates=(cert,), proxy_key=proxy_key)


def grant_public(
    grantor: PrincipalId,
    identity_signer: Signer,
    restrictions: Tuple[Restriction, ...],
    issued_at: float,
    expires_at: float,
    rng: Optional[Rng] = None,
    group: SchnorrGroup = DEFAULT_GROUP,
) -> Proxy:
    """Grant a pure public-key proxy (Fig. 6).

    The proxy key is a fresh Schnorr keypair; its public half rides in the
    certificate, the private half goes to the grantee.  Without an
    ``issued-for`` restriction such a proxy is verifiable everywhere (§7.3).
    """
    rng = rng or DEFAULT_RNG
    proxy_private = _schnorr.generate_keypair(group=group, rng=rng)
    binding = PublicKeyBinding(
        scheme="schnorr", key_wire=proxy_private.public.to_wire()
    )
    cert = build_certificate(
        grantor=grantor,
        restrictions=restrictions,
        key_binding=binding,
        issued_at=issued_at,
        expires_at=expires_at,
        link_kind=LINK_ROOT,
        signer=identity_signer,
        rng=rng,
    )
    return Proxy(certificates=(cert,), proxy_key=proxy_private)


def grant_hybrid(
    grantor: PrincipalId,
    identity_signer: Signer,
    server: PrincipalId,
    server_public: _schnorr.SchnorrPublicKey,
    restrictions: Tuple[Restriction, ...],
    issued_at: float,
    expires_at: float,
    rng: Optional[Rng] = None,
) -> Proxy:
    """Grant a hybrid proxy (§6.1): public-key signed, symmetric proxy key.

    The symmetric proxy key is "additionally encrypted in the public key of
    the end-server to protect it from disclosure", so the proxy is usable
    only at ``server`` even before any ``issued-for`` restriction.  The
    key is encrypted to ``server_public`` with Schnorr-group integrated
    encryption (scheme ``"schnorr-ies"``).
    """
    rng = rng or DEFAULT_RNG
    proxy_key = SymmetricKey.generate(rng=rng)
    binding = HybridKeyBinding(
        box=_schnorr.encrypt_to(server_public, proxy_key.secret, rng=rng),
        scheme="schnorr-ies",
        server=server,
        fingerprint=proxy_key.fingerprint(),
    )
    cert = build_certificate(
        grantor=grantor,
        restrictions=restrictions,
        key_binding=binding,
        issued_at=issued_at,
        expires_at=expires_at,
        link_kind=LINK_ROOT,
        signer=identity_signer,
        rng=rng,
    )
    return Proxy(certificates=(cert,), proxy_key=proxy_key)


# ---------------------------------------------------------------------------
# Cascading (§3.4, Fig. 4)
# ---------------------------------------------------------------------------

def cascade(
    proxy: Proxy,
    additional_restrictions: Tuple[Restriction, ...],
    issued_at: float,
    expires_at: float,
    rng: Optional[Rng] = None,
) -> Proxy:
    """Bearer cascade: re-restrict a proxy by signing a new link with its key.

    "Restrictions are added by signing a new proxy with the proxy key from
    the original proxy.  The new proxy specifies any additional restrictions
    and a new proxy key" (§3.4).  Only bearer proxies cascade this way —
    possession of the key *is* the right to use a bearer proxy; a delegate
    proxy's named grantee must use :func:`delegate_cascade` instead.
    """
    if proxy.proxy_key is None:
        raise DelegationError("cannot cascade without the proxy key")
    if not proxy.is_bearer:
        raise DelegationError(
            "delegate proxies cascade via delegate_cascade (§3.4): "
            "possession of the key does not discharge a grantee restriction"
        )
    rng = rng or DEFAULT_RNG
    signer = proxy.pop_signer()
    group = (
        proxy.proxy_key.public.group
        if isinstance(proxy.proxy_key, _schnorr.SchnorrPrivateKey)
        else DEFAULT_GROUP
    )
    new_key, binding = _mint_link_key(signer, group, rng)

    cert = build_certificate(
        # The chain originator's rights continue to flow; the cascade link
        # inherits the previous link's grantor for accept-once scoping.
        grantor=proxy.final.grantor,
        restrictions=additional_restrictions,
        key_binding=binding,
        issued_at=issued_at,
        expires_at=expires_at,
        link_kind=LINK_CASCADE,
        signer=signer,
        rng=rng,
    )
    return Proxy(
        certificates=proxy.certificates + (cert,), proxy_key=new_key
    )


def delegate_cascade(
    proxy: Proxy,
    intermediate: PrincipalId,
    intermediate_signer: Signer,
    subordinate: PrincipalId,
    additional_restrictions: Tuple[Restriction, ...],
    issued_at: float,
    expires_at: float,
    rng: Optional[Rng] = None,
    group: SchnorrGroup = DEFAULT_GROUP,
) -> Proxy:
    """Delegate cascade: a named intermediate passes a delegate proxy on.

    "Because the intermediate server is explicitly named in the original
    proxy, it also grants the subordinate a new proxy allowing the
    subordinate to act as the intermediate server ...  Instead of signing the
    new proxy with the proxy key from the original proxy, it is signed
    directly by the intermediate server" (§3.4).  The signature by the
    intermediate's identity key is what "leaves an audit trail".

    The new link names ``subordinate`` as its grantee (the subordinate acts
    *as the intermediate*, under its own identity).  Its proxy key follows
    the signer's kind: an :class:`HmacSigner` intermediate (a Kerberos
    endorser's session key with the end-server) binds a symmetric key
    sealed under that session key; any other signer binds a Schnorr keypair
    in ``group``.
    """
    grantees = [
        r for r in proxy.final.restrictions if isinstance(r, Grantee)
    ]
    if not grantees:
        raise DelegationError(
            "delegate_cascade requires a delegate proxy (grantee restriction)"
        )
    if not any(intermediate in g.principals for g in grantees):
        raise DelegationError(
            f"{intermediate} is not a named grantee of this proxy"
        )
    rng = rng or DEFAULT_RNG
    new_key, binding = _mint_link_key(intermediate_signer, group, rng)
    restrictions = (Grantee(principals=(subordinate,)),) + tuple(
        additional_restrictions
    )
    cert = build_certificate(
        grantor=intermediate,
        restrictions=restrictions,
        key_binding=binding,
        issued_at=issued_at,
        expires_at=expires_at,
        link_kind=LINK_DELEGATE,
        signer=intermediate_signer,
        rng=rng,
    )
    return Proxy(
        certificates=proxy.certificates + (cert,), proxy_key=new_key
    )
