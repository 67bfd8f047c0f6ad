"""Authenticated symmetric encryption and HMAC sealing."""

import hashlib

import pytest

from repro.crypto import mac, symmetric
from repro.crypto.rng import Rng
from repro.errors import IntegrityError, SignatureError


@pytest.fixture
def key(rng):
    return symmetric.new_key(rng)


class TestSeal:
    def test_round_trip(self, key):
        box = symmetric.seal(key, b"plaintext")
        assert symmetric.unseal(key, box) == b"plaintext"

    def test_empty_plaintext(self, key):
        assert symmetric.unseal(key, symmetric.seal(key, b"")) == b""

    def test_large_plaintext(self, key):
        data = bytes(range(256)) * 100
        assert symmetric.unseal(key, symmetric.seal(key, data)) == data

    def test_randomized_nonces(self, key):
        assert symmetric.seal(key, b"x") != symmetric.seal(key, b"x")

    def test_wrong_key_rejected(self, key, rng):
        other = symmetric.new_key(rng)
        box = symmetric.seal(key, b"secret")
        with pytest.raises(IntegrityError):
            symmetric.unseal(other, box)

    def test_ciphertext_tamper_rejected(self, key):
        box = bytearray(symmetric.seal(key, b"secret data"))
        box[symmetric.NONCE_LEN] ^= 1
        with pytest.raises(IntegrityError):
            symmetric.unseal(key, bytes(box))

    def test_tag_tamper_rejected(self, key):
        box = bytearray(symmetric.seal(key, b"secret data"))
        box[-1] ^= 1
        with pytest.raises(IntegrityError):
            symmetric.unseal(key, bytes(box))

    def test_nonce_tamper_rejected(self, key):
        box = bytearray(symmetric.seal(key, b"secret data"))
        box[0] ^= 1
        with pytest.raises(IntegrityError):
            symmetric.unseal(key, bytes(box))

    def test_truncated_box_rejected(self, key):
        with pytest.raises(IntegrityError):
            symmetric.unseal(key, b"short")

    def test_associated_data_binds(self, key):
        box = symmetric.seal(key, b"p", associated_data=b"ctx-a")
        assert symmetric.unseal(key, box, associated_data=b"ctx-a") == b"p"
        with pytest.raises(IntegrityError):
            symmetric.unseal(key, box, associated_data=b"ctx-b")

    def test_bad_key_length_rejected(self):
        with pytest.raises(ValueError):
            symmetric.seal(b"short-key", b"p")
        with pytest.raises(ValueError):
            symmetric.unseal(b"short-key", b"x" * 64)

    def test_plaintext_confidential(self, key):
        """The sealed box must not contain the plaintext verbatim."""
        secret = b"extremely secret proxy key material"
        assert secret not in symmetric.seal(key, secret)


KAT_KEY = bytes(range(32))
KAT_AD = b"authz-proxy-delivery"

#: ``(plaintext length, associated data, expected box)`` — produced by the
#: per-byte implementation this module had before the word-wide rewrite
#: (``seal(KAT_KEY, Rng(seed=b"seal-kat-plaintext").bytes(n), ad,
#: rng=Rng(seed=b"seal-kat-nonce-<n>"))``).  Boxes over 64 bytes of
#: plaintext are pinned by their SHA-256.  Lengths straddle the 32-byte
#: keystream block, the per-op volume of the authorization benchmark
#: (2353) and a counter above 2047 blocks (70 000).
SEAL_VECTORS = [
    (0, b"",
     "337581f0ae77a495e035149453653be857cde9e645f2205535050f8ac440"
     "c5afbfdae032130965de0bac122a4b8f5a42"
    ),
    (0, KAT_AD,
     "337581f0ae77a495e035149453653be85a2728c1b83d7ca397532ed6eb96"
     "2716094ad940a602cb4e927b964906303275"
    ),
    (1, b"",
     "ab73b42f0722afd5acda40f6b7892e051d7bb9811a42fd258d64ee867d5d"
     "868cd1c2d1364e705503d1d178d8165eba7d84"
    ),
    (1, KAT_AD,
     "ab73b42f0722afd5acda40f6b7892e051da22d3a4e2e0c64166a6cff5567"
     "b9e663582012e65cd8ec68b0e34964b1648eb1"
    ),
    (31, b"",
     "f0e272291d6875e140686bea83f4d4ac3c5e896a689495c237a5bd347082"
     "4b1f4be740a63291849aa8234bb49fb3ace21e0825af52219e7a57fcff00"
     "c5c1a5ed4e17b647aa577e0ff3f76b3b3d2d78"
    ),
    (31, KAT_AD,
     "f0e272291d6875e140686bea83f4d4ac3c5e896a689495c237a5bd347082"
     "4b1f4be740a63291849aa8234bb49fb3acd3cd0d832c764f5d94176f35d7"
     "824889d4d73ad0ad0745c87ccab9bbccc94689"
    ),
    (32, b"",
     "96ca440992b87b5ce1b9fd9bec071303ed36d8251dce1c6a71728704ab28"
     "5852aafcaac5ed339ac3a1b7efa854cac23950efbbc85f3842cd597a40ab"
     "cd3b6a7849f3ca2c5582c212c0541e5d48fe83ed"
    ),
    (32, KAT_AD,
     "96ca440992b87b5ce1b9fd9bec071303ed36d8251dce1c6a71728704ab28"
     "5852aafcaac5ed339ac3a1b7efa854cac239126da063e99c8e07c43b4550"
     "d0ccea5b95e577e7416dd04f50f67fab9326205a"
    ),
    (33, b"",
     "d1d7dfa5e3eb6938a5735632bb4267886faf2084b3405ef651bcecfd192b"
     "4eebb495f4afd67cdf184af882ff4223c259fad2bd4d21c91ff941f0c0eb"
     "31652b844d31ae56de5a47f3bb825f54bff80f0730"
    ),
    (33, KAT_AD,
     "d1d7dfa5e3eb6938a5735632bb4267886faf2084b3405ef651bcecfd192b"
     "4eebb495f4afd67cdf184af882ff4223c259fa0c81447bb872d9abad2169"
     "ba3b37fc95cf98f135ca4a8efcd595fe883a828872"
    ),
    (64, b"",
     "858d1c8634b43a216b67417758d86bc8e2aa8cca347e7962f82676898ed3"
     "f065847deb88a41b514e730542781e47b14ef0bb1d3683759d0528bd7a3c"
     "5dcce905c6fcbc398ddd3670fbb9a62b7451671ac0a8ebb6b348a9597e88"
     "03884bb23afc2d2dd6023cc55c385c2f3fac0f0cc13a"
    ),
    (64, KAT_AD,
     "858d1c8634b43a216b67417758d86bc8e2aa8cca347e7962f82676898ed3"
     "f065847deb88a41b514e730542781e47b14ef0bb1d3683759d0528bd7a3c"
     "5dcce905c6fcbc398ddd3670fbb9a62b7451671a5384611b4a3978918365"
     "a4053cb5477f1532aa0651f78662daefefa385f12c22"
    ),
    (2353, b"",
     "sha256:ed80a37c5a70dbf7560d3fd246e737207f6b92749746409249456"
     "d1a50c94dc6"
    ),
    (2353, KAT_AD,
     "sha256:ddd9cbe585c748dce7685006839b22a635f0fae066e46737a42bd"
     "4204b610d64"
    ),
    (70000, b"",
     "sha256:883e24bc3121930ad93f9aa7105ad4401b182f50708c76e75619e"
     "463383ed877"
    ),
    (70000, KAT_AD,
     "sha256:b9b5c9d826caae92f9a50e814dad309bdad86a8b56535023d891c"
     "e5a67522a6a"
    ),
]


def _kat_plaintext(length):
    return Rng(seed=b"seal-kat-plaintext").bytes(length)


def _kat_box(length, associated_data):
    return symmetric.seal(
        KAT_KEY,
        _kat_plaintext(length),
        associated_data=associated_data,
        rng=Rng(seed=b"seal-kat-nonce-%d" % length),
    )


class TestKnownAnswers:
    """seal/unseal are bit-for-bit what they were: old boxes (tickets,
    sealed proxy keys) open, and every figure's bytes stay put."""

    @pytest.mark.parametrize("length,associated_data,expected", SEAL_VECTORS)
    def test_seal_reproduces_vector(self, length, associated_data, expected):
        box = _kat_box(length, associated_data)
        assert type(box) is bytes
        assert len(box) == symmetric.NONCE_LEN + length + symmetric.TAG_LEN
        if expected.startswith("sha256:"):
            assert "sha256:" + hashlib.sha256(box).hexdigest() == expected
        else:
            assert box.hex() == expected

    @pytest.mark.parametrize("length,associated_data,expected", SEAL_VECTORS)
    def test_unseal_opens_vector(self, length, associated_data, expected):
        if expected.startswith("sha256:"):
            box = _kat_box(length, associated_data)
        else:
            box = bytes.fromhex(expected)
        opened = symmetric.unseal(
            KAT_KEY, box, associated_data=associated_data
        )
        assert type(opened) is bytes
        assert opened == _kat_plaintext(length)

    @pytest.mark.parametrize("associated_data", [b"", KAT_AD])
    def test_every_single_bit_flip_is_refused(self, associated_data):
        box = _kat_box(33, associated_data)
        for bit in range(len(box) * 8):
            flipped = bytearray(box)
            flipped[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(IntegrityError):
                symmetric.unseal(
                    KAT_KEY, bytes(flipped), associated_data=associated_data
                )
        for bit in range(len(associated_data) * 8):
            flipped = bytearray(associated_data)
            flipped[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(IntegrityError):
                symmetric.unseal(KAT_KEY, box, associated_data=bytes(flipped))


class TestSubkeyMemo:
    def test_keys_never_share_subkeys(self, rng):
        key_a, key_b = symmetric.new_key(rng), symmetric.new_key(rng)
        box_a = symmetric.seal(key_a, b"for a", rng=rng)
        with pytest.raises(IntegrityError):
            symmetric.unseal(key_b, box_a)
        box_b = symmetric.seal(key_b, b"for b", rng=rng)
        with pytest.raises(IntegrityError):
            symmetric.unseal(key_a, box_b)
        # Interleaved A/B/A: each key still opens its own boxes.
        assert symmetric.unseal(key_a, box_a) == b"for a"
        assert symmetric.unseal(key_b, box_b) == b"for b"
        again = symmetric.seal(key_a, b"again", rng=rng)
        assert symmetric.unseal(key_a, again) == b"again"

    def test_memo_does_not_change_the_bytes(self):
        """A cold derivation and a memoized one seal identically, and more
        keys than the memo holds still round-trip."""
        symmetric._subkeys.cache_clear()
        cold = _kat_box(31, KAT_AD)
        assert _kat_box(31, KAT_AD) == cold
        key_rng = Rng(seed=b"many-keys")
        keys = [symmetric.new_key(key_rng) for _ in range(300)]
        boxes = [symmetric.seal(k, k[:5]) for k in keys]
        for k, box in zip(keys, boxes):
            assert symmetric.unseal(k, box) == k[:5]
        assert _kat_box(31, KAT_AD) == cold

    def test_short_box_refused_before_any_hmac(self, key, monkeypatch):
        def no_hmac(*args, **kwargs):
            raise AssertionError("HMAC computed for a box too short")

        symmetric._subkeys.cache_clear()
        monkeypatch.setattr(symmetric._hmac, "digest", no_hmac)
        monkeypatch.setattr(symmetric._hmac, "new", no_hmac)
        for length in (0, 1, 47):
            with pytest.raises(IntegrityError, match="too short"):
                symmetric.unseal(key, b"\x00" * length)


class TestMac:
    def test_tag_verify(self, key):
        t = mac.tag(key, b"msg")
        mac.verify(key, b"msg", t)

    def test_tag_deterministic(self, key):
        assert mac.tag(key, b"m") == mac.tag(key, b"m")

    def test_wrong_message(self, key):
        with pytest.raises(SignatureError):
            mac.verify(key, b"other", mac.tag(key, b"msg"))

    def test_wrong_key(self, key, rng):
        other = symmetric.new_key(rng)
        with pytest.raises(SignatureError):
            mac.verify(other, b"msg", mac.tag(key, b"msg"))

    def test_tag_length(self, key):
        assert len(mac.tag(key, b"m")) == mac.TAG_LEN
