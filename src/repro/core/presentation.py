"""Presenting a proxy to an end-server (§2).

"To present a bearer proxy to an end-server, the grantee sends the
certificate to the server and uses the proxy key to partake in an
authentication exchange ...  Usually this exchange involves sending a signed
or encrypted timestamp or server challenge, proving possession of the proxy
key."

The presentation object bundles:

* the certificate chain (never the proxy key itself — "the bearer does not
  send the entire proxy across the network", §3.1);
* an optional :class:`PossessionProof` — a signed timestamp/challenge bound
  to the end-server and to a digest of the application request, so a proof
  captured off the wire cannot be replayed elsewhere or attached to a
  different request;
* for delegate proxies, the presenter's authenticated identity is supplied
  out-of-band by the session layer (``claimant``) — "the grantee ...
  authenticates itself to the end-server under its own identity."
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.core.certificate import ProxyCertificate
from repro.core.proxy import Proxy
from repro.encoding.canonical import encode
from repro.encoding.identifiers import PrincipalId
from repro.encoding.schema import wire

_POP_DOMAIN = "repro-proxy-pop-v1"


def request_digest(operation: str, target: Optional[str], payload: bytes = b"") -> bytes:
    """Digest binding a possession proof to one application request."""
    return hashlib.sha256(
        encode(["repro-request-v1", operation, target, payload])
    ).digest()


@wire
@dataclass(frozen=True)
class PossessionProof:
    """A signed timestamp (and optional server challenge) proving key possession.

    Attributes:
        server: the end-server this proof was made for.
        timestamp: the presenter's clock at signing (freshness window check).
        challenge: server-issued nonce when the exchange is challenge-based;
            empty for timestamp-only presentations.
        digest: :func:`request_digest` of the accompanying request.
        nonce: client uniqueness, so two proofs made at the same clock tick
            are still distinct (Kerberos uses microsecond counters for the
            same purpose).
        signature: by the final proxy key over all of the above.
    """

    server: PrincipalId
    timestamp: float
    challenge: bytes
    digest: bytes
    nonce: bytes
    signature: bytes = field(repr=False)

    @staticmethod
    def signed_body(
        server: PrincipalId,
        timestamp: float,
        challenge: bytes,
        digest: bytes,
        nonce: bytes,
    ) -> bytes:
        return encode(
            [
                _POP_DOMAIN,
                server,
                float(timestamp),
                challenge,
                digest,
                nonce,
            ]
        )

    def body_bytes(self) -> bytes:
        # Encoded once per proof, like ``ProxyCertificate.body_bytes``: the
        # verifier checks the signature over it and keys its replay cache
        # on it.  The memo lives in __dict__, outside eq and hash.
        cached = self.__dict__.get("_body")
        if cached is not None:
            return cached
        body = self.signed_body(
            self.server, self.timestamp, self.challenge, self.digest, self.nonce
        )
        object.__setattr__(self, "_body", body)
        return body

    def replay_key(self) -> bytes:
        """Digest used by the end-server's authenticator replay cache."""
        return hashlib.sha256(self.body_bytes() + self.signature).digest()


def make_possession_proof(
    proxy: Proxy,
    server: PrincipalId,
    timestamp: float,
    digest: bytes,
    challenge: bytes = b"",
    rng=None,
) -> PossessionProof:
    """Sign a possession proof with the proxy's final key (grantee side)."""
    from repro.crypto.rng import DEFAULT_RNG

    nonce = (rng or DEFAULT_RNG).bytes(8)
    body = PossessionProof.signed_body(
        server, timestamp, challenge, digest, nonce
    )
    proof = PossessionProof(
        server=server,
        timestamp=timestamp,
        challenge=challenge,
        digest=digest,
        nonce=nonce,
        signature=proxy.pop_signer().sign(body),
    )
    # Seed the encode-once memo with the bytes just signed over.
    object.__setattr__(proof, "_body", body)
    return proof


@wire
@dataclass(frozen=True)
class PresentedProxy:
    """What travels to (or arrives at) an end-server: chain + proofs.

    ``claimant`` is the identity the session layer authenticated for the
    presenter, or None when the presenter chose to remain anonymous (pure
    bearer presentation).  The core trusts the session layer for this; the
    Kerberos substrate fills it from the AP exchange.
    """

    certificates: Tuple[ProxyCertificate, ...]
    proof: Optional[PossessionProof] = None
    claimant: Optional[PrincipalId] = None


def present(
    proxy: Proxy,
    server: PrincipalId,
    timestamp: float,
    operation: str,
    target: Optional[str] = None,
    payload: bytes = b"",
    challenge: bytes = b"",
    claimant: Optional[PrincipalId] = None,
    prove_possession: bool = True,
) -> PresentedProxy:
    """Build the presentation of ``proxy`` for one request (grantee side).

    Bearer presentations set ``prove_possession=True`` (the default); a
    delegate presentation by a named grantee may skip the possession proof
    and rely on ``claimant`` (its authenticated identity) instead.
    """
    proof = None
    if prove_possession:
        digest = request_digest(operation, target, payload)
        proof = make_possession_proof(
            proxy, server, timestamp, digest, challenge=challenge
        )
    return PresentedProxy(
        certificates=proxy.certificates, proof=proof, claimant=claimant
    )
