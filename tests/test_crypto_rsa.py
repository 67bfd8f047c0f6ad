"""RSA full-domain-hash signatures (substrate for §6.1)."""

import pytest

from repro.crypto import rsa
from repro.crypto.rng import Rng
from repro.crypto.signature import RsaVerifier
from repro.errors import SignatureError


@pytest.fixture(scope="module")
def key():
    return rsa.generate_keypair(bits=1024, rng=Rng(seed=b"rsa-module"))


class TestKeygen:
    def test_modulus_size(self, key):
        assert key.n.bit_length() == 1024

    def test_public_half(self, key):
        assert key.public.n == key.n
        assert key.public.e == 65537

    def test_keygen_rejects_tiny_moduli(self):
        with pytest.raises(ValueError):
            rsa.generate_keypair(bits=256)

    def test_fingerprint_stable_and_short(self, key):
        fingerprint = RsaVerifier(public=key.public).key_id()
        assert fingerprint == RsaVerifier(public=key.public).key_id()
        assert len(fingerprint) == 16


class TestSignatures:
    def test_sign_verify(self, key):
        sig = rsa.sign(key, b"message")
        rsa.verify(key.public, b"message", sig)  # no raise

    def test_wrong_message_rejected(self, key):
        sig = rsa.sign(key, b"message")
        with pytest.raises(SignatureError):
            rsa.verify(key.public, b"other", sig)

    def test_tampered_signature_rejected(self, key):
        sig = bytearray(rsa.sign(key, b"m"))
        sig[3] ^= 0x40
        with pytest.raises(SignatureError):
            rsa.verify(key.public, b"m", bytes(sig))

    def test_wrong_key_rejected(self, key):
        other = rsa.generate_keypair(bits=1024, rng=Rng(seed=b"other-key"))
        sig = rsa.sign(key, b"m")
        with pytest.raises(SignatureError):
            rsa.verify(other.public, b"m", sig)

    def test_wrong_length_rejected(self, key):
        with pytest.raises(SignatureError):
            rsa.verify(key.public, b"m", b"\x01" * 10)

    def test_out_of_range_signature_rejected_before_exponentiation(self, key):
        # A correctly-sized signature whose integer value is >= n must be
        # rejected by the range guard, not fed to the modular
        # exponentiation (cheap DoS hardening, mirrors Schnorr's checks).
        too_big = (key.n + 1).to_bytes(key.public.byte_length, "big")
        with pytest.raises(SignatureError, match="out of range"):
            rsa.verify(key.public, b"m", too_big)
        exactly_n = key.n.to_bytes(key.public.byte_length, "big")
        with pytest.raises(SignatureError, match="out of range"):
            rsa.verify(key.public, b"m", exactly_n)

    def test_empty_message_signable(self, key):
        sig = rsa.sign(key, b"")
        rsa.verify(key.public, b"", sig)
