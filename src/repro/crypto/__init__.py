"""Cryptographic substrate built from scratch on the standard library.

Everything the paper's mechanisms need from "existing authentication
systems": random keys, prime generation, RSA signatures,
Schnorr signatures and integrated encryption (the DH/ElGamal KEM in
:func:`repro.crypto.schnorr.encrypt_to`), authenticated symmetric
encryption, and HMAC integrity seals — all behind the unified
:class:`Signer`/:class:`Verifier` interface so the proxy core is agnostic
to the mechanism (§6).
"""

from repro.crypto.keys import KeyPair, SymmetricKey
from repro.crypto.rng import DEFAULT_RNG, Rng
from repro.crypto.signature import (
    HmacSigner,
    RsaSigner,
    RsaVerifier,
    Signer,
    Verifier,
)

__all__ = [
    "KeyPair",
    "SymmetricKey",
    "Rng",
    "DEFAULT_RNG",
    "Signer",
    "Verifier",
    "HmacSigner",
    "RsaSigner",
    "RsaVerifier",
]
