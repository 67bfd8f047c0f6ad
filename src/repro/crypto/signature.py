"""Unified signing interface over conventional and public-key cryptography.

The paper's central implementation claim (§6) is that restricted proxies
layer over *existing* authentication mechanisms, whether conventional
(Kerberos, §6.2) or public-key (§6.1).  The proxy core therefore signs and
verifies through this interface and never mentions HMAC or RSA directly:

* :class:`HmacSigner` — "conventional signature": an integrity seal under a
  shared key.  Anyone holding the key can both create and verify; this is the
  trust model of a proxy key or a Kerberos session key.
* :class:`RsaSigner` / :class:`RsaVerifier` — true public-key signatures,
  verification requires only the public half.

Signatures are produced over canonical encodings; callers pass the bytes.
Each signature is tagged with a scheme byte so a signature made under one
scheme can never verify under another.

Signing and verifying are the system's compute hot path, so the base
classes expose an observation point: install a callable with
:func:`set_signature_observer` (normally via
:meth:`repro.obs.telemetry.Telemetry.capture_crypto`) and every operation
reports ``(scheme, op, seconds, ok)``.  With no observer installed the
cost is a single global load per operation.

Because certificates are immutable, the same (key, message, signature)
triple is re-verified on every repeat presentation of a chain.  The
process-wide :class:`SignatureCache` memoizes *successful* verifications —
a hit skips the modular exponentiation (or HMAC) entirely.  Failed
verifications are never cached: a negative result must always be
recomputed so key changes and tampering are re-examined from scratch.
The cache only ever maps "this exact signature did verify under this
exact key" — a statement that immutability makes permanent — so a hit can
never turn a rejection into an acceptance that fresh verification would
not also produce.  Signing is never cached (Schnorr signatures are
randomized, and a signer's output is not evidence the *verifier* would
accept it in a deployment where the two are separate hosts).
"""

from __future__ import annotations

import hashlib as _hashlib
import time as _time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.bounded import BoundedStore
from repro.crypto import mac as _mac
from repro.crypto import rsa as _rsa
from repro.crypto import schnorr as _schnorr
from repro.crypto.keys import KeyPair, SymmetricKey
from repro.errors import SignatureError

_SCHEME_HMAC = b"\x01"
_SCHEME_RSA = b"\x02"
_SCHEME_SCHNORR = b"\x03"

#: Observer of signature operations: (scheme, op, seconds, ok) -> None.
#: Process-wide because signers are frozen value objects with no deployment
#: back-pointer; the telemetry facade installs and releases it.
SignatureObserver = Callable[[str, str, float, bool], None]

_observer: Optional[SignatureObserver] = None


def set_signature_observer(
    observer: Optional[SignatureObserver],
) -> Optional[SignatureObserver]:
    """Install (or with ``None``, remove) the observer; returns the previous."""
    global _observer
    previous = _observer
    _observer = observer
    return previous


# ---------------------------------------------------------------------------
# Signature-verification memoization
# ---------------------------------------------------------------------------

#: Cache key: (scheme, key fingerprint, message digest, signature bytes).
SignatureCacheKey = Tuple[str, bytes, bytes, bytes]

#: Observer of cache events: (event, scheme) with event in
#: ``{"hit", "miss", "evict"}``.  Installed alongside the signature
#: observer by the telemetry facade.
SignatureCacheObserver = Callable[[str, str], None]

_cache_observer: Optional[SignatureCacheObserver] = None


def set_signature_cache_observer(
    observer: Optional[SignatureCacheObserver],
) -> Optional[SignatureCacheObserver]:
    """Install (or remove) the cache-event observer; returns the previous."""
    global _cache_observer
    previous = _cache_observer
    _cache_observer = observer
    return previous


class SignatureCache:
    """LRU memo of successful signature verifications.

    Shared by the RSA, Schnorr, and HMAC verifiers through the
    :meth:`Verifier.verify` wrapper.  Only positive results are stored;
    a lookup miss (or a failed verification) always runs the real
    scheme-specific check.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        self.max_entries = max_entries
        self._entries = BoundedStore(max_entries)

    def lookup(self, key: SignatureCacheKey) -> bool:
        """True iff this exact verification already succeeded."""
        return self._entries.lookup(key, False)

    def store(self, key: SignatureCacheKey) -> int:
        """Record a successful verification; returns evictions performed."""
        return self._entries.put(key, True)

    def stats(self) -> dict:
        return self._entries.stats()


#: The process-wide cache, default-on (see VerificationCacheConfig for the
#: injectable switch).  ``None`` disables memoization entirely.
_sig_cache: Optional[SignatureCache] = SignatureCache()


def set_signature_cache(
    cache: Optional[SignatureCache],
) -> Optional[SignatureCache]:
    """Install (or with ``None``, disable) the global cache; returns previous."""
    global _sig_cache
    previous = _sig_cache
    _sig_cache = cache
    return previous


def get_signature_cache() -> Optional[SignatureCache]:
    """The currently installed global signature cache, if any."""
    return _sig_cache


class Verifier(ABC):
    """Anything able to check a signature."""

    #: Scheme tag reported to the signature observer.
    scheme = "unknown"

    @abstractmethod
    def _verify(self, message: bytes, signature: bytes) -> None:
        """Scheme-specific verification; raise :class:`SignatureError`."""

    @abstractmethod
    def key_id(self) -> bytes:
        """Stable identifier of the verification key."""

    def verify(self, message: bytes, signature: bytes) -> None:
        """Raise :class:`SignatureError` unless ``signature`` is valid."""
        cache = _sig_cache
        key: Optional[SignatureCacheKey] = None
        if cache is not None:
            key = (
                self.scheme,
                self.key_id(),
                _hashlib.sha256(message).digest(),
                signature,
            )
            if cache.lookup(key):
                if _cache_observer is not None:
                    _cache_observer("hit", self.scheme)
                return
            if _cache_observer is not None:
                _cache_observer("miss", self.scheme)
        if _observer is None:
            self._verify(message, signature)
        else:
            start = _time.perf_counter()
            try:
                self._verify(message, signature)
            except SignatureError:
                _observer(
                    self.scheme, "verify", _time.perf_counter() - start, False
                )
                raise
            _observer(
                self.scheme, "verify", _time.perf_counter() - start, True
            )
        if key is not None and cache.store(key):
            if _cache_observer is not None:
                _cache_observer("evict", self.scheme)


class Signer(Verifier):
    """Anything able to create (and therefore also check) a signature."""

    @abstractmethod
    def _sign(self, message: bytes) -> bytes:
        """Scheme-specific signature creation."""

    def sign(self, message: bytes) -> bytes:
        """Produce a signature over ``message``."""
        if _observer is None:
            return self._sign(message)
        start = _time.perf_counter()
        signature = self._sign(message)
        _observer(self.scheme, "sign", _time.perf_counter() - start, True)
        return signature


@dataclass(frozen=True)
class HmacSigner(Signer):
    """Conventional-cryptography signer (shared-key integrity seal)."""

    key: SymmetricKey
    scheme = "hmac"

    def _sign(self, message: bytes) -> bytes:
        return _SCHEME_HMAC + _mac.tag(self.key.secret, message)

    def _verify(self, message: bytes, signature: bytes) -> None:
        if not signature.startswith(_SCHEME_HMAC):
            raise SignatureError("not an HMAC signature")
        _mac.verify(self.key.secret, message, signature[1:])

    def key_id(self) -> bytes:
        return self.key.fingerprint()


@dataclass(frozen=True)
class RsaVerifier(Verifier):
    """Public-key verifier; holds only the public half."""

    public: _rsa.RsaPublicKey
    scheme = "rsa"

    def _verify(self, message: bytes, signature: bytes) -> None:
        if not signature.startswith(_SCHEME_RSA):
            raise SignatureError("not an RSA signature")
        _rsa.verify(self.public, message, signature[1:])

    def key_id(self) -> bytes:
        public = self.public
        material = public.n.to_bytes(public.byte_length, "big")
        return _hashlib.sha256(
            b"rsa-fp:" + material + public.e.to_bytes(8, "big")
        ).digest()[:16]


@dataclass(frozen=True)
class RsaSigner(RsaVerifier, Signer):
    """Public-key signer; holds the full keypair."""

    keypair: KeyPair = None  # type: ignore[assignment]

    def __init__(self, keypair: KeyPair) -> None:
        object.__setattr__(self, "keypair", keypair)
        object.__setattr__(self, "public", keypair.public)

    def _sign(self, message: bytes) -> bytes:
        return _SCHEME_RSA + _rsa.sign(self.keypair.require_private(), message)


@dataclass(frozen=True)
class SchnorrVerifier(Verifier):
    """Public-key verifier for Schnorr signatures (cheap per-proxy keys)."""

    public: _schnorr.SchnorrPublicKey
    scheme = "schnorr"

    def _verify(self, message: bytes, signature: bytes) -> None:
        if not signature.startswith(_SCHEME_SCHNORR):
            raise SignatureError("not a Schnorr signature")
        _schnorr.verify(self.public, message, signature[1:])

    def key_id(self) -> bytes:
        return self.public.fingerprint()


@dataclass(frozen=True)
class SchnorrSigner(SchnorrVerifier, Signer):
    """Public-key signer holding a Schnorr private key."""

    private: _schnorr.SchnorrPrivateKey = None  # type: ignore[assignment]

    def __init__(self, private: _schnorr.SchnorrPrivateKey) -> None:
        object.__setattr__(self, "private", private)
        object.__setattr__(self, "public", private.public)

    def _sign(self, message: bytes) -> bytes:
        return _SCHEME_SCHNORR + _schnorr.sign(self.private, message)

    def verifier(self) -> SchnorrVerifier:
        """The public-only verifier for this signer."""
        return SchnorrVerifier(public=self.public)


# ---------------------------------------------------------------------------
# Batch verification
# ---------------------------------------------------------------------------

def verify_batch(
    checks: Sequence[Tuple[Verifier, bytes, bytes]],
) -> List[Optional[SignatureError]]:
    """Verify many (verifier, message, signature) checks.

    Equivalent to calling ``verifier.verify(message, signature)`` for
    each entry: the same cache lookups, the same observer events, the
    same positive-only cache stores, and the same
    :class:`SignatureError` messages.  Schnorr checks that miss the
    cache go to :func:`repro.crypto.schnorr.verify_batch` in one call;
    every other scheme (and every cache hit) is handled inline.

    ``errors[i]`` is None when check ``i`` verified and the error
    :meth:`Verifier.verify` would have raised otherwise.
    """
    errors: List[Optional[SignatureError]] = [None] * len(checks)
    cache = _sig_cache
    pending: List[Tuple[int, SchnorrVerifier, bytes, bytes, Optional[SignatureCacheKey]]] = []
    for index, (verifier, message, signature) in enumerate(checks):
        if not isinstance(verifier, SchnorrVerifier):
            try:
                verifier.verify(message, signature)
            except SignatureError as exc:
                errors[index] = exc
            continue
        key: Optional[SignatureCacheKey] = None
        if cache is not None:
            key = (
                verifier.scheme,
                verifier.key_id(),
                _hashlib.sha256(message).digest(),
                signature,
            )
            if cache.lookup(key):
                if _cache_observer is not None:
                    _cache_observer("hit", verifier.scheme)
                continue
            if _cache_observer is not None:
                _cache_observer("miss", verifier.scheme)
        if not signature.startswith(_SCHEME_SCHNORR):
            errors[index] = SignatureError("not a Schnorr signature")
            if _observer is not None:
                _observer(verifier.scheme, "verify", 0.0, False)
            continue
        pending.append((index, verifier, message, signature[1:], key))

    if pending:
        start = _time.perf_counter()
        batch_errors = _schnorr.verify_batch(
            [(v.public, m, s) for (_, v, m, s, _) in pending]
        )
        share = (_time.perf_counter() - start) / len(pending)
        for (index, verifier, _, _, key), error in zip(pending, batch_errors):
            ok = error is None
            if _observer is not None:
                _observer(verifier.scheme, "verify", share, ok)
            if not ok:
                errors[index] = error
            elif key is not None and cache.store(key):
                if _cache_observer is not None:
                    _cache_observer("evict", verifier.scheme)
    return errors
