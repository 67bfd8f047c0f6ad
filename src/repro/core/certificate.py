"""Proxy certificates and proxy-key bindings (Fig. 1, Fig. 6).

A restricted proxy has two parts (§2): a **certificate** signed by the
grantor — enumerating restrictions and establishing a key "to be used by the
end-server to verify that the proxy was properly issued to the bearer" — and
the **proxy key** itself, held by the grantee.

The certificate embeds the *verification side* of the proxy key as a
:class:`KeyBinding`, in one of three forms matching §6:

* :class:`PublicKeyBinding` — pure public-key scheme (Fig. 6): the binding is
  the public half of a fresh keypair; the grantee holds the private half.
* :class:`SealedKeyBinding` — conventional scheme (§6.2): a symmetric proxy
  key sealed so the end-server can recover it.  In a root certificate the
  sealing key is one the grantor shares with the end-server (a Kerberos
  session key); in a delegate certificate it is the one the *endorser*
  shares with the end-server; in a cascaded certificate it is the
  *previous* proxy key (Fig. 4 — each link is signed, and its key sealed,
  under the key of the link before it).
* :class:`HybridKeyBinding` — hybrid scheme (§6.1): a symmetric proxy key
  encrypted in the *public key of the end-server*, so a public-key-signed
  certificate can carry a cheap conventional proxy key.

Certificate link kinds (``link_kind``):

* ``root`` — signed by the grantor's own authentication credentials.
* ``cascade`` — signed by the previous link's proxy key (bearer cascade,
  §3.4 / Fig. 4).
* ``delegate`` — signed by the identity key of an intermediate that was
  *named* in the previous link's grantee list (delegate cascade, §3.4);
  this variant leaves an audit trail.

A certificate travels as the bytes it was signed over: its wire form is
``{"body": bytes, "signature": bytes}``, and a receiver checks the
signature over the body exactly as it arrived.  Each distinct certificate
is decoded once per process (:data:`DECODED`).
"""

from __future__ import annotations

import hashlib
from abc import ABC
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.bounded import BoundedStore
from repro.core.restrictions import Restriction
from repro.core.vcache import DEFAULT_MAX_ENTRIES
from repro.crypto.rng import DEFAULT_RNG, Rng
from repro.crypto.signature import Signer
from repro.encoding.canonical import encode
from repro.encoding.identifiers import PrincipalId
from repro.encoding.schema import union, wire
from repro.errors import ProxyError

#: Version string bound into every signature so future format changes can
#: never be confused with this one.
_CERT_DOMAIN = "repro-proxy-cert-v1"

#: Domain separator for content digests (cache keys), distinct from the
#: signature domain so a digest can never be mistaken for signable bytes.
_DIGEST_DOMAIN = b"repro-cert-digest-v1"

LINK_ROOT = "root"
LINK_CASCADE = "cascade"
LINK_DELEGATE = "delegate"
_LINK_KINDS = (LINK_ROOT, LINK_CASCADE, LINK_DELEGATE)


# ---------------------------------------------------------------------------
# Key bindings
# ---------------------------------------------------------------------------

@union("kind", "KIND")
class KeyBinding(ABC):
    """The end-server-visible side of a proxy key."""

    KIND: str = ""


@wire
@dataclass(frozen=True, eq=False)
class PublicKeyBinding(KeyBinding):
    """Fig. 6: the proxy key in the certificate is a public key.

    ``scheme`` is ``"schnorr"``, the only one a verifier accepts;
    ``key_wire`` is the public key's own wire dict.
    """

    KIND = "public"

    scheme: str
    key_wire: dict = field(metadata={"key": "key"})


@wire
@dataclass(frozen=True, eq=False)
class SealedKeyBinding(KeyBinding):
    """§6.2: a symmetric proxy key sealed for recovery by the end-server.

    Attributes:
        box: the sealed key (under a grantor↔end-server shared key for root
            links; under the endorser↔end-server shared key — the link's
            own signing key — for delegate links; under the previous proxy
            key for cascade links).
        fingerprint: fingerprint of the sealed key, letting holders match
            keys without unsealing.
    """

    KIND = "sealed"

    box: bytes = field(repr=False)
    fingerprint: bytes = field(metadata={"key": "fp"})


@wire
@dataclass(frozen=True, eq=False)
class HybridKeyBinding(KeyBinding):
    """§6.1 hybrid: symmetric proxy key encrypted to the end-server's
    public key ("the proxy key must be additionally encrypted in the public
    key of the end-server to protect it from disclosure").

    Attributes:
        box: public-key-encrypted symmetric proxy key.
        scheme: ``"schnorr-ies"``, the only one a verifier accepts.
        server: the end-server whose key was used (only it can unseal).
        fingerprint: fingerprint of the enclosed symmetric key.
    """

    KIND = "hybrid"

    box: bytes = field(repr=False)
    scheme: str
    server: PrincipalId
    fingerprint: bytes = field(metadata={"key": "fp"})


# ---------------------------------------------------------------------------
# The certificate
# ---------------------------------------------------------------------------

#: Exact ``(body, signature)`` bytes -> the certificate they decoded to,
#: least recently used out first.  A certificate is immutable and its
#: validity is re-checked on every use, so entries never expire; only a
#: body that decoded is stored, and a one-byte change is another key.
#: Process-wide, like the signature memo: it caches a decode, never a
#: verdict, so it stays on when the verification cache is off.
DECODED = BoundedStore(DEFAULT_MAX_ENTRIES)


@wire(signed=_CERT_DOMAIN, memo=DECODED)
@dataclass(frozen=True)
class ProxyCertificate:
    """One signed link of a proxy (Fig. 1 / Fig. 4 / Fig. 6).

    Attributes:
        grantor: for a root link, the principal whose rights the proxy
            conveys; for a delegate link, the intermediate that signed it.
            (Cascade links keep the issuing link implicit — they are signed
            by the previous proxy key.)
        restrictions: this link's additional restrictions (§7).
        key_binding: end-server-verifiable side of this link's proxy key.
        issued_at / expires_at: validity window.  Effective expiry of a
            chain is the minimum over links.
        link_kind: ``root`` | ``cascade`` | ``delegate``.
        nonce: uniqueness; makes two otherwise-identical grants distinct.
        signature: over the body, the canonical encoding of
            ``[_CERT_DOMAIN, grantor, ..., nonce]`` (:meth:`signed_body`),
            which is also what travels on the wire.
    """

    grantor: PrincipalId
    restrictions: Tuple[Restriction, ...]
    key_binding: KeyBinding
    issued_at: float
    expires_at: float
    link_kind: str
    nonce: bytes
    signature: bytes = field(repr=False)

    def __post_init__(self) -> None:
        if self.link_kind not in _LINK_KINDS:
            raise ProxyError(f"bad link kind {self.link_kind!r}")
        if self.expires_at < self.issued_at:
            raise ProxyError("certificate expires before it is issued")

    # -- signing ----------------------------------------------------------

    @staticmethod
    def signed_body(
        grantor: PrincipalId,
        restrictions: Tuple[Restriction, ...],
        key_binding: KeyBinding,
        issued_at: float,
        expires_at: float,
        link_kind: str,
        nonce: bytes,
    ) -> bytes:
        """The canonical byte string covered by the signature."""
        return encode(
            [
                _CERT_DOMAIN,
                grantor,
                restrictions,
                key_binding,
                float(issued_at),
                float(expires_at),
                link_kind,
                nonce,
            ]
        )

    def body_bytes(self) -> bytes:
        # Certificates are frozen, so the canonical signed bytes are
        # computed once and memoized (encode-once fast path); a decoded
        # certificate's memo is seeded with the bytes that arrived.
        # Stored via object.__setattr__ because the dataclass is frozen;
        # the memo lives in __dict__ and is invisible to dataclass eq/hash.
        cached = self.__dict__.get("_body")
        if cached is not None:
            return cached
        body = self.signed_body(
            self.grantor,
            self.restrictions,
            self.key_binding,
            self.issued_at,
            self.expires_at,
            self.link_kind,
            self.nonce,
        )
        object.__setattr__(self, "_body", body)
        return body

    def digest(self) -> bytes:
        """Stable content digest over body *and* signature.

        Used as a cache key by the verification fast path: two
        certificates with the same digest are byte-identical links
        (canonical encoding is injective).
        """
        cached = self.__dict__.get("_digest")
        if cached is not None:
            return cached
        value = hashlib.sha256(
            _DIGEST_DOMAIN + self.body_bytes() + self.signature
        ).digest()
        object.__setattr__(self, "_digest", value)
        return value

    # -- wire -------------------------------------------------------------

    def to_bytes(self) -> bytes:
        cached = self.__dict__.get("_encoded")
        if cached is not None:
            return cached
        data = encode(self)
        object.__setattr__(self, "_encoded", data)
        return data

    @classmethod
    def from_bytes(cls, data: bytes) -> "ProxyCertificate":
        from repro.encoding.canonical import decode

        return cls.from_wire(decode(data))


def build_certificate(
    grantor: PrincipalId,
    restrictions: Tuple[Restriction, ...],
    key_binding: KeyBinding,
    issued_at: float,
    expires_at: float,
    link_kind: str,
    signer: Signer,
    rng: Optional[Rng] = None,
) -> ProxyCertificate:
    """Assemble and sign a certificate link."""
    nonce = (rng or DEFAULT_RNG).bytes(16)
    body = ProxyCertificate.signed_body(
        grantor, restrictions, key_binding, issued_at, expires_at, link_kind, nonce
    )
    cert = ProxyCertificate(
        grantor=grantor,
        restrictions=restrictions,
        key_binding=key_binding,
        issued_at=issued_at,
        expires_at=expires_at,
        link_kind=link_kind,
        nonce=nonce,
        signature=signer.sign(body),
    )
    # Seed the encode-once memo with the bytes we just signed over.
    object.__setattr__(cert, "_body", body)
    return cert
