"""The unified Signer/Verifier interface (§6: mechanism-agnostic core)."""

import pytest

from repro.crypto import schnorr
from repro.crypto.keys import KeyPair, SymmetricKey
from repro.crypto.rng import Rng
from repro.crypto.schnorr_groups import TEST_GROUP
from repro.crypto.signature import (
    HmacSigner,
    RsaSigner,
    RsaVerifier,
    SchnorrSigner,
)
from repro.errors import KeyError_, SignatureError


class TestHmacSigner:
    def test_sign_verify(self, symmetric_key):
        signer = HmacSigner(key=symmetric_key)
        sig = signer.sign(b"m")
        signer.verify(b"m", sig)

    def test_wrong_key(self, symmetric_key, rng):
        signer = HmacSigner(key=symmetric_key)
        other = HmacSigner(key=SymmetricKey.generate(rng=rng))
        with pytest.raises(SignatureError):
            other.verify(b"m", signer.sign(b"m"))

    def test_key_id(self, symmetric_key):
        assert HmacSigner(key=symmetric_key).key_id() == symmetric_key.fingerprint()


class TestSchnorrSigner:
    def test_sign_verify_via_public_verifier(self, schnorr_key):
        signer = SchnorrSigner(private=schnorr_key)
        sig = signer.sign(b"m")
        signer.verifier().verify(b"m", sig)

    def test_verifier_has_no_private(self, schnorr_key):
        verifier = SchnorrSigner(private=schnorr_key).verifier()
        assert not hasattr(verifier, "sign")


class TestRsaSigner:
    def test_sign_verify(self, rsa_keypair):
        signer = RsaSigner(keypair=rsa_keypair)
        sig = signer.sign(b"m")
        RsaVerifier(public=rsa_keypair.public).verify(b"m", sig)

    def test_public_only_keypair_cannot_sign(self, rsa_keypair):
        public = KeyPair(public=rsa_keypair.public)
        signer = RsaSigner(keypair=public)
        with pytest.raises(KeyError_):
            signer.sign(b"m")


class TestSchemeSeparation:
    """A signature under one scheme never verifies under another."""

    def test_hmac_vs_schnorr(self, symmetric_key, schnorr_key):
        hmac_signer = HmacSigner(key=symmetric_key)
        schnorr_signer = SchnorrSigner(private=schnorr_key)
        with pytest.raises(SignatureError):
            schnorr_signer.verify(b"m", hmac_signer.sign(b"m"))
        with pytest.raises(SignatureError):
            hmac_signer.verify(b"m", schnorr_signer.sign(b"m"))

    def test_rsa_vs_schnorr(self, rsa_keypair, schnorr_key):
        rsa_signer = RsaSigner(keypair=rsa_keypair)
        schnorr_signer = SchnorrSigner(private=schnorr_key)
        with pytest.raises(SignatureError):
            schnorr_signer.verify(b"m", rsa_signer.sign(b"m"))
        with pytest.raises(SignatureError):
            rsa_signer.verify(b"m", schnorr_signer.sign(b"m"))


class TestConvenience:
    def test_signer_for_symmetric(self, symmetric_key):
        signer = HmacSigner(key=symmetric_key)
        signer.verify(b"x", signer.sign(b"x"))

    def test_signer_for_keypair(self, rsa_keypair):
        signer = RsaSigner(keypair=rsa_keypair)
        signer.verify(b"x", signer.sign(b"x"))


class TestKeyWrappers:
    def test_symmetric_repr_hides_secret(self, symmetric_key):
        assert symmetric_key.secret.hex() not in repr(symmetric_key)

    def test_symmetric_wrong_length(self):
        with pytest.raises(KeyError_):
            SymmetricKey(secret=b"short")

    def test_keypair_public_only(self, rsa_keypair):
        pub = KeyPair(public=rsa_keypair.public)
        with pytest.raises(KeyError_):
            pub.require_private()
