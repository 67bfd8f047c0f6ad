"""Key object wrappers.

The proxy core never handles raw key bytes or RSA integers directly; it works
with these wrappers so a proxy key can be conventional (symmetric) or
public-key without the core caring (§6: proxies layer over either kind of
authentication system).

:class:`SymmetricKey` wraps a 32-byte secret.  :class:`KeyPair` wraps an RSA
identity keypair.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from repro.crypto import rsa as _rsa
from repro.crypto.rng import DEFAULT_RNG, Rng
from repro.crypto.symmetric import KEY_LEN
from repro.encoding.schema import leaf
from repro.errors import KeyError_


@leaf(bytes, lambda key: key.secret, lambda secret: SymmetricKey(secret))
@dataclass(frozen=True)
class SymmetricKey:
    """A shared secret key for sealing and HMAC signing; on the wire, its
    secret (inside sealed boxes only)."""

    secret: bytes = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.secret) != KEY_LEN:
            raise KeyError_(
                f"symmetric key must be {KEY_LEN} bytes, got {len(self.secret)}"
            )

    @classmethod
    def generate(cls, rng: Optional[Rng] = None) -> "SymmetricKey":
        return cls(secret=(rng or DEFAULT_RNG).bytes(KEY_LEN))

    def fingerprint(self) -> bytes:
        """Non-reversible identifier, safe to embed in cleartext fields."""
        return hashlib.sha256(b"sym-fp:" + self.secret).digest()[:16]

    def __repr__(self) -> str:  # never leak the secret in logs
        return f"SymmetricKey(fp={self.fingerprint().hex()})"


@dataclass(frozen=True)
class KeyPair:
    """An RSA keypair; ``private`` may be absent for public-only copies."""

    public: _rsa.RsaPublicKey
    private: Optional[_rsa.RsaPrivateKey] = field(default=None, repr=False)

    @classmethod
    def generate(cls, bits: int = 1024, rng: Optional[Rng] = None) -> "KeyPair":
        private = _rsa.generate_keypair(bits=bits, rng=rng)
        return cls(public=private.public, private=private)

    def require_private(self) -> _rsa.RsaPrivateKey:
        if self.private is None:
            raise KeyError_("operation requires the private key")
        return self.private
