"""The paper's primary contribution: restricted proxies.

Public surface:

* restrictions (§7): :class:`Grantee`, :class:`ForUseByGroup`,
  :class:`IssuedFor`, :class:`Quota`, :class:`Authorized`,
  :class:`GroupMembership`, :class:`AcceptOnce`, :class:`LimitRestriction`,
  :class:`Expiration`, plus :func:`propagate_restrictions` (§7.9);
* certificates and proxies (§2, Fig. 1/4/6): :class:`ProxyCertificate`,
  :class:`Proxy`, :func:`grant_conventional`, :func:`grant_public`,
  :func:`grant_hybrid`, :func:`cascade`, :func:`delegate_cascade`;
* presentation and verification: :func:`present`, :class:`PresentedProxy`,
  :class:`ProxyVerifier`, :class:`VerifiedProxy`, crypto contexts.
"""

from repro.core.certificate import (
    HybridKeyBinding,
    KeyBinding,
    ProxyCertificate,
    PublicKeyBinding,
    SealedKeyBinding,
    build_certificate,
)
from repro.core.evaluation import RequestContext
from repro.core.presentation import (
    PossessionProof,
    PresentedProxy,
    make_possession_proof,
    present,
    request_digest,
)
from repro.core.proxy import (
    Proxy,
    cascade,
    delegate_cascade,
    grant_conventional,
    grant_hybrid,
    grant_public,
    possession_signer,
)
from repro.core.replay import AcceptOnceRegistry, AuthenticatorCache
from repro.core.restrictions import (
    AcceptOnce,
    Authorized,
    AuthorizedEntry,
    Expiration,
    ForUseByGroup,
    Grantee,
    GroupMembership,
    IssuedFor,
    LimitRestriction,
    Quota,
    Restriction,
    TimeWindow,
    UseLimit,
    check_all,
    is_bearer,
    propagate_restrictions,
    restriction_from_wire,
    restrictions_from_wire,
    restrictions_to_wire,
)
from repro.core.verification import (
    EndServerCryptoContext,
    ProxyVerifier,
    PublicKeyCrypto,
    SharedKeyCrypto,
    VerifiedProxy,
)

__all__ = [
    # restrictions
    "Restriction",
    "Grantee",
    "ForUseByGroup",
    "IssuedFor",
    "Quota",
    "Authorized",
    "AuthorizedEntry",
    "GroupMembership",
    "AcceptOnce",
    "LimitRestriction",
    "Expiration",
    "UseLimit",
    "TimeWindow",
    "restriction_from_wire",
    "restrictions_from_wire",
    "restrictions_to_wire",
    "propagate_restrictions",
    "is_bearer",
    "check_all",
    # certificates / proxies
    "ProxyCertificate",
    "KeyBinding",
    "PublicKeyBinding",
    "SealedKeyBinding",
    "HybridKeyBinding",
    "build_certificate",
    "Proxy",
    "grant_conventional",
    "grant_public",
    "grant_hybrid",
    "cascade",
    "delegate_cascade",
    "possession_signer",
    # presentation / verification
    "RequestContext",
    "PossessionProof",
    "PresentedProxy",
    "present",
    "make_possession_proof",
    "request_digest",
    "ProxyVerifier",
    "VerifiedProxy",
    "EndServerCryptoContext",
    "SharedKeyCrypto",
    "PublicKeyCrypto",
    "AcceptOnceRegistry",
    "AuthenticatorCache",
]
