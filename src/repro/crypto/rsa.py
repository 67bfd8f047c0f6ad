"""RSA key generation and signatures (from scratch).

The paper's public-key proxies (§6.1, Fig. 6) require a public-key system in
which the grantor *signs* a certificate.  This module provides RSA identity
signatures:

* **Signatures** use full-domain-hash RSA: the message is expanded with an
  MGF1-style mask to a value below the modulus, then raised to the private
  exponent.  Verification recomputes the expansion and compares.

A hybrid proxy's key is encrypted to the end-server with Schnorr-group
integrated encryption (:func:`repro.crypto.schnorr.encrypt_to`), not RSA.

This is a faithful, readable reimplementation of textbook constructions —
sufficient to exercise every protocol path in the paper.  It is *not* a
hardened production cryptosystem (no constant-time guarantees), which is
irrelevant to reproducing the paper's mechanisms.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from repro.crypto.primes import generate_prime
from repro.crypto.rng import DEFAULT_RNG, Rng
from repro.errors import CryptoError, SignatureError

_HASH = hashlib.sha256
#: Public exponent; standard choice.
_PUBLIC_EXPONENT = 65537


def _mgf1(seed: bytes, length: int) -> bytes:
    """MGF1 mask generation with SHA-256."""
    out = bytearray()
    counter = 0
    while len(out) < length:
        out.extend(_HASH(seed + counter.to_bytes(4, "big")).digest())
        counter += 1
    return bytes(out[:length])


def _egcd(a: int, b: int) -> tuple:
    if b == 0:
        return a, 1, 0
    g, x, y = _egcd(b, a % b)
    return g, y, x - (a // b) * y


def _modinv(a: int, m: int) -> int:
    g, x, _ = _egcd(a % m, m)
    if g != 1:
        raise CryptoError("modular inverse does not exist")
    return x % m


@dataclass(frozen=True)
class RsaPublicKey:
    """RSA public key (n, e)."""

    n: int
    e: int

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8


@dataclass(frozen=True)
class RsaPrivateKey:
    """RSA private key with CRT parameters for fast exponentiation."""

    n: int
    e: int
    d: int
    p: int
    q: int

    @property
    def public(self) -> RsaPublicKey:
        return RsaPublicKey(n=self.n, e=self.e)

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def _private_op(self, value: int) -> int:
        """Compute value**d mod n via the Chinese Remainder Theorem."""
        dp = self.d % (self.p - 1)
        dq = self.d % (self.q - 1)
        q_inv = _modinv(self.q, self.p)
        m1 = pow(value % self.p, dp, self.p)
        m2 = pow(value % self.q, dq, self.q)
        h = (q_inv * (m1 - m2)) % self.p
        return m2 + h * self.q


def generate_keypair(bits: int = 1024, rng: Optional[Rng] = None) -> RsaPrivateKey:
    """Generate an RSA keypair with a ``bits``-bit modulus.

    512-bit keys are accepted for fast test fixtures; anything smaller is
    rejected because the FDH framing no longer fits.
    """
    if bits < 512:
        raise ValueError("modulus must be at least 512 bits")
    rng = rng or DEFAULT_RNG
    half = bits // 2
    while True:
        p = generate_prime(half, rng=rng)
        q = generate_prime(bits - half, rng=rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        if phi % _PUBLIC_EXPONENT == 0:
            continue
        d = _modinv(_PUBLIC_EXPONENT, phi)
        return RsaPrivateKey(n=n, e=_PUBLIC_EXPONENT, d=d, p=p, q=q)


# ---------------------------------------------------------------------------
# Full-domain-hash signatures
# ---------------------------------------------------------------------------

def _fdh_expand(message: bytes, byte_length: int) -> int:
    """Expand a message to an integer uniformly below 2**(8*len-1)."""
    digest = _HASH(b"fdh:" + message).digest()
    expanded = _mgf1(digest, byte_length)
    # Clear the top bit so the value is below the modulus for any modulus
    # with the high bit set (guaranteed by key generation).
    value = int.from_bytes(expanded, "big")
    value &= (1 << (byte_length * 8 - 1)) - 1
    return value


def sign(key: RsaPrivateKey, message: bytes) -> bytes:
    """Sign ``message`` with full-domain-hash RSA."""
    representative = _fdh_expand(message, key.byte_length)
    signature = key._private_op(representative)
    return signature.to_bytes(key.byte_length, "big")


def verify(key: RsaPublicKey, message: bytes, signature: bytes) -> None:
    """Verify an FDH-RSA signature.

    Raises:
        SignatureError: when the signature does not match.
    """
    if len(signature) != key.byte_length:
        raise SignatureError("signature length does not match modulus")
    sig_int = int.from_bytes(signature, "big")
    if sig_int >= key.n:
        raise SignatureError("signature out of range")
    recovered = pow(sig_int, key.e, key.n)
    expected = _fdh_expand(message, key.byte_length)
    if recovered != expected:
        raise SignatureError("RSA signature verification failed")
