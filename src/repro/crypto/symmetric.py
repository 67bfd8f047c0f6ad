"""Symmetric authenticated encryption (from scratch, stdlib only).

Kerberos-style proxies (§6.2) seal proxy certificates and session keys under
shared secret keys.  This module provides the sealing primitive: a stream
cipher built from SHA-256 in counter mode, composed encrypt-then-MAC with
HMAC-SHA256.  Decryption verifies the tag before releasing any plaintext, so
any tampering surfaces as :class:`~repro.errors.IntegrityError`.

Wire layout of a sealed box::

    nonce (16) || ciphertext || tag (32)

Keys are raw 32-byte strings wrapped by :class:`~repro.crypto.keys.SymmetricKey`;
this module takes the raw bytes so it stays dependency-free.

Each byte is touched once per primitive, in C: the keystream is XORed in as
one big-integer operation, its blocks are copies of one hash object seeded
with ``key || nonce``, and a key's encryption/authentication subkeys are
derived once and memoized (:func:`_subkeys`).  None of this changes a byte of
any box — ``tests/test_crypto_symmetric.py`` holds vectors sealed by the
per-byte implementation this replaced.
"""

from __future__ import annotations

import functools
import hashlib
import hmac as _hmac
from typing import Optional, Tuple

from repro.crypto.rng import DEFAULT_RNG, Rng
from repro.errors import IntegrityError

KEY_LEN = 32
NONCE_LEN = 16
TAG_LEN = 32
_BLOCK = 32  # SHA-256 output size


@functools.lru_cache(maxsize=128)
def _subkeys(key: bytes) -> Tuple[bytes, bytes]:
    """The independent ``(encryption, authentication)`` subkeys of ``key``.

    Derived once per key, not twice per box: a server key or session key
    seals and opens many boxes, and each derivation is a full HMAC.  The
    memo is keyed by the whole key, so two keys can never share subkeys
    through it, and bounded — the long-lived keys that repay it stay
    recent, one-shot proxy keys fall out.
    """
    return (
        _hmac.digest(key, b"derive:enc", hashlib.sha256),
        _hmac.digest(key, b"derive:mac", hashlib.sha256),
    )


def _xor_keystream(enc_key: bytes, nonce: bytes, data: bytes) -> bytes:
    """``data`` XOR the SHA-256 counter-mode keystream of ``(key, nonce)``.

    Block ``i`` is ``sha256(enc_key + nonce + i.to_bytes(8, "big"))``; the
    ``enc_key + nonce`` prefix is hashed once and copied per block, and the
    XOR is one big-integer operation over the whole message.
    """
    length = len(data)
    seeded = hashlib.sha256(enc_key + nonce)
    blocks = []
    for counter in range((length + _BLOCK - 1) // _BLOCK):
        block = seeded.copy()
        block.update(counter.to_bytes(8, "big"))
        blocks.append(block.digest())
    stream = b"".join(blocks)[:length]
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    ).to_bytes(length, "big")


def _tag(mac_key: bytes, associated_data: bytes, sealed: bytes) -> bytes:
    """HMAC over ``len(ad) || ad || nonce || ciphertext``."""
    mac_input = (
        len(associated_data).to_bytes(8, "big") + associated_data + sealed
    )
    return _hmac.digest(mac_key, mac_input, hashlib.sha256)


def seal(
    key: bytes,
    plaintext: bytes,
    associated_data: bytes = b"",
    rng: Optional[Rng] = None,
) -> bytes:
    """Encrypt-then-MAC ``plaintext`` under ``key``.

    ``associated_data`` is authenticated but not encrypted (used to bind a
    sealed box to its context, e.g. the message type carrying it).
    """
    if len(key) != KEY_LEN:
        raise ValueError(f"key must be {KEY_LEN} bytes, got {len(key)}")
    enc_key, mac_key = _subkeys(key)
    nonce = (rng or DEFAULT_RNG).bytes(NONCE_LEN)
    sealed = nonce + _xor_keystream(enc_key, nonce, plaintext)
    return sealed + _tag(mac_key, associated_data, sealed)


def unseal(key: bytes, box: bytes, associated_data: bytes = b"") -> bytes:
    """Verify and decrypt a box produced by :func:`seal`.

    Raises:
        IntegrityError: when the tag does not verify (wrong key, tampering,
            or mismatched associated data).
    """
    if len(key) != KEY_LEN:
        raise ValueError(f"key must be {KEY_LEN} bytes, got {len(key)}")
    if len(box) < NONCE_LEN + TAG_LEN:
        raise IntegrityError("sealed box too short")
    enc_key, mac_key = _subkeys(key)
    sealed = box[:-TAG_LEN]
    if not _hmac.compare_digest(
        box[-TAG_LEN:], _tag(mac_key, associated_data, sealed)
    ):
        raise IntegrityError("authentication tag mismatch")
    return _xor_keystream(enc_key, sealed[:NONCE_LEN], sealed[NONCE_LEN:])


def new_key(rng: Optional[Rng] = None) -> bytes:
    """Generate a fresh random symmetric key."""
    return (rng or DEFAULT_RNG).bytes(KEY_LEN)
