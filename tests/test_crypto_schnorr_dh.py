"""Schnorr signatures and integrated encryption."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import schnorr
from repro.crypto.primes import generate_schnorr_group, is_probable_prime
from repro.crypto.rng import Rng
from repro.crypto.schnorr_groups import (
    DEFAULT_GROUP,
    DEFAULT_GROUP_SEED,
    GROUPS,
    TEST_GROUP,
    TEST_GROUP_SEED,
    SchnorrGroup,
)
from repro.errors import CryptoError, IntegrityError, SignatureError
from tests.conftest import RFC3526_PRIME_2048

#: A 512-bit safe prime that is in no group table either.
SAFE_PRIME_512 = int(
    "FAD304E48D3AE4C94F32D880260DB0089FE4B26A35128A58"
    "075E30E284F3CAAF65A5448ACE943F6A95F2F37562EAABB6"
    "1BA0957963E489293105DFB2DD2DB9AB",
    16,
)


@pytest.fixture
def key(rng):
    return schnorr.generate_keypair(TEST_GROUP, rng=rng)


class TestSchnorrSignatures:
    def test_sign_verify(self, key, rng):
        sig = schnorr.sign(key, b"message", rng=rng)
        schnorr.verify(key.public, b"message", sig)

    def test_wrong_message(self, key, rng):
        sig = schnorr.sign(key, b"message", rng=rng)
        with pytest.raises(SignatureError):
            schnorr.verify(key.public, b"other", sig)

    def test_tampered_signature(self, key, rng):
        sig = bytearray(schnorr.sign(key, b"m", rng=rng))
        sig[5] ^= 1
        with pytest.raises(SignatureError):
            schnorr.verify(key.public, b"m", bytes(sig))

    def test_wrong_key(self, key, rng):
        other = schnorr.generate_keypair(TEST_GROUP, rng=rng)
        sig = schnorr.sign(key, b"m", rng=rng)
        with pytest.raises(SignatureError):
            schnorr.verify(other.public, b"m", sig)

    def test_bad_length(self, key):
        with pytest.raises(SignatureError):
            schnorr.verify(key.public, b"m", b"\x00" * 7)

    def test_signatures_randomized(self, key):
        assert schnorr.sign(key, b"m") != schnorr.sign(key, b"m")

    def test_public_wire_round_trip(self, key):
        pub = schnorr.SchnorrPublicKey.from_wire(key.public.to_wire())
        assert pub == key.public

    def test_fingerprint_distinct(self, key, rng):
        other = schnorr.generate_keypair(TEST_GROUP, rng=rng)
        assert key.public.fingerprint() != other.public.fingerprint()


class TestSchnorrIes:
    def test_round_trip(self, key, rng):
        box = schnorr.encrypt_to(key.public, b"proxy key bytes", rng=rng)
        assert schnorr.decrypt(key, box) == b"proxy key bytes"

    def test_randomized(self, key):
        assert schnorr.encrypt_to(key.public, b"x") != schnorr.encrypt_to(
            key.public, b"x"
        )

    def test_wrong_key(self, key, rng):
        other = schnorr.generate_keypair(TEST_GROUP, rng=rng)
        box = schnorr.encrypt_to(key.public, b"secret")
        with pytest.raises(IntegrityError):
            schnorr.decrypt(other, box)

    def test_tamper_detected(self, key):
        box = bytearray(schnorr.encrypt_to(key.public, b"secret"))
        box[-1] ^= 1
        with pytest.raises(IntegrityError):
            schnorr.decrypt(key, bytes(box))

    def test_truncated(self, key):
        with pytest.raises(CryptoError):
            schnorr.decrypt(key, b"tiny")

    def test_plaintext_confidential(self, key):
        secret = b"very secret conventional proxy key"
        assert secret not in schnorr.encrypt_to(key.public, secret)


BOTH_GROUPS = pytest.mark.parametrize(
    "group", [TEST_GROUP, DEFAULT_GROUP], ids=["test-512", "default-2048"]
)


def _non_member(group):
    """A range-valid element outside the order-q subgroup."""
    h = 2
    while pow(h, group.q, group.p) == 1:
        h += 1
    return h


class TestGroupProvenance:
    @pytest.mark.parametrize(
        "group, seed, pbits",
        [
            (TEST_GROUP, TEST_GROUP_SEED, 512),
            (DEFAULT_GROUP, DEFAULT_GROUP_SEED, 2048),
        ],
        ids=["test-512", "default-2048"],
    )
    def test_seeded_generator_reproduces_literals(self, group, seed, pbits):
        p, q, g = generate_schnorr_group(pbits, 256, Rng(seed=seed))
        assert (p, q, g) == (group.p, group.q, group.g)

    @BOTH_GROUPS
    def test_group_is_valid(self, group):
        assert is_probable_prime(group.p)
        assert is_probable_prime(group.q)
        assert group.q.bit_length() == 256
        assert (group.p - 1) % group.q == 0
        assert 1 < group.g < group.p
        assert pow(group.g, group.q, group.p) == 1

    def test_table_is_keyed_by_modulus(self):
        assert GROUPS == {
            TEST_GROUP.p: TEST_GROUP, DEFAULT_GROUP.p: DEFAULT_GROUP,
        }
        assert TEST_GROUP.p.bit_length() == 512
        assert DEFAULT_GROUP.p.bit_length() == 2048


class TestBothGroups:
    @BOTH_GROUPS
    def test_sign_verify_and_signature_length(self, group, rng):
        key = schnorr.generate_keypair(group, rng=rng)
        assert 0 < key.x < group.q
        assert pow(key.y, group.q, group.p) == 1
        sig = schnorr.sign(key, b"message", rng=rng)
        assert len(sig) == 2 * 32
        schnorr.verify(key.public, b"message", sig)
        with pytest.raises(SignatureError):
            schnorr.verify(key.public, b"other", sig)

    @BOTH_GROUPS
    def test_verify_batch(self, group, rng):
        keys = [schnorr.generate_keypair(group, rng=rng) for _ in range(2)]
        items = [
            (key.public, message, schnorr.sign(key, message, rng=rng))
            for key, message in zip(keys * 2, (b"a", b"b", b"c", b"d"))
        ]
        items[2] = (items[2][0], b"forged", items[2][2])
        errors = schnorr.verify_batch(items)
        assert [e is None for e in errors] == [True, True, False, True]
        assert str(errors[2]) == "schnorr signature verification failed"

    @BOTH_GROUPS
    def test_ies_round_trip(self, group, rng):
        key = schnorr.generate_keypair(group, rng=rng)
        box = schnorr.encrypt_to(key.public, b"proxy key bytes", rng=rng)
        assert schnorr.decrypt(key, box) == b"proxy key bytes"

    @BOTH_GROUPS
    def test_key_knows_its_group(self, group, rng):
        key = schnorr.generate_keypair(group, rng=rng)
        assert key.public.group is group
        assert key.public.to_wire() == {"p": group.p, "y": key.y}


class TestMembershipChecks:
    @BOTH_GROUPS
    def test_ies_ephemeral_outside_subgroup_rejected(self, group, rng):
        key = schnorr.generate_keypair(group, rng=rng)
        box = schnorr.encrypt_to(key.public, b"secret", rng=rng)
        plen = (group.p.bit_length() + 7) // 8
        forged = _non_member(group).to_bytes(plen, "big") + box[plen:]
        with pytest.raises(CryptoError, match="outside the order-q subgroup"):
            schnorr.decrypt(key, forged)

    def test_ies_ephemeral_out_of_range_rejected(self, key, rng):
        box = schnorr.encrypt_to(key.public, b"secret", rng=rng)
        plen = (TEST_GROUP.p.bit_length() + 7) // 8
        for bad in (0, 1, TEST_GROUP.p - 1):
            with pytest.raises(CryptoError, match="out of range"):
                schnorr.decrypt(key, bad.to_bytes(plen, "big") + box[plen:])

    @BOTH_GROUPS
    def test_register_rejects_key_outside_subgroup(self, group):
        bad = schnorr.SchnorrPublicKey(group_p=group.p, y=_non_member(group))
        before = schnorr.registered_key_count()
        with pytest.raises(CryptoError, match="outside the order-q subgroup"):
            schnorr.register_verification_key(bad)
        assert schnorr.registered_key_count() == before

    @pytest.mark.parametrize("y", [0, 1, TEST_GROUP.p - 1, TEST_GROUP.p + 4])
    def test_out_of_range_public_key_rejected(self, key, rng, y):
        bad = schnorr.SchnorrPublicKey(group_p=TEST_GROUP.p, y=y)
        sig = schnorr.sign(key, b"m", rng=rng)
        with pytest.raises(CryptoError, match="out of range"):
            schnorr.SchnorrPublicKey.from_wire({"p": TEST_GROUP.p, "y": y})
        with pytest.raises(SignatureError, match="out of range"):
            schnorr.verify(bad, b"m", sig)
        with pytest.raises(CryptoError, match="out of range"):
            schnorr.encrypt_to(bad, b"secret", rng=rng)
        with pytest.raises(CryptoError, match="out of range"):
            schnorr.register_verification_key(bad)
        errors = schnorr.verify_batch(
            [(bad, b"m", sig), (key.public, b"m", sig)]
        )
        assert str(errors[0]) == "schnorr public key out of range"
        assert errors[1] is None


BOTH_TABLES = pytest.mark.parametrize(
    "table_type",
    [schnorr.FixedBaseTable, schnorr.CombTable],
    ids=["window", "comb"],
)


class TestPrecomputedTables:
    """Both table layouts compute exactly ``base**e mod p`` — or refuse."""

    @BOTH_GROUPS
    @BOTH_TABLES
    def test_boundary_exponents_are_exact(self, group, table_type):
        table = table_type(group.g, group.p, group.q.bit_length())
        for exponent in (0, 1, group.q - 1, 2**256 - 1):
            assert table.pow(exponent) == pow(group.g, exponent, group.p)

    @BOTH_GROUPS
    @BOTH_TABLES
    @pytest.mark.parametrize("exponent", [2**258, 2**256, -1])
    def test_out_of_width_exponent_refused(self, group, table_type, exponent):
        """Used to be a bare IndexError from the window table; a comb
        would silently have returned the wrong power."""
        table = table_type(group.g, group.p, group.q.bit_length())
        with pytest.raises(CryptoError, match="256-bit width"):
            table.pow(exponent)

    @BOTH_GROUPS
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_comb_equals_native_pow_for_any_base(self, group, data):
        """Subgroup members and arbitrary field elements alike: the comb
        is plain arithmetic, membership is not its business."""
        base = data.draw(st.integers(2, group.p - 2), label="base")
        if data.draw(st.booleans(), label="in subgroup"):
            base = pow(group.g, base, group.p)
        table = schnorr.CombTable(base, group.p, 256)
        exponents = data.draw(
            st.lists(st.integers(0, 2**256 - 1), min_size=1, max_size=4),
            label="exponents",
        )
        for exponent in exponents:
            assert table.pow(exponent) == pow(base, exponent, group.p)

    @BOTH_GROUPS
    def test_comb_of_non_member_is_still_exact(self, group):
        base = _non_member(group)
        table = schnorr.CombTable(base, group.p, 256)
        assert table.pow(group.q) == pow(base, group.q, group.p) != 1

    @BOTH_GROUPS
    def test_build_self_check_catches_a_wrong_witness(self, group):
        with pytest.raises(CryptoError, match="build self-check"):
            schnorr.CombTable(group.g, group.p, 256, witness=(group.q, 2))

    @BOTH_GROUPS
    def test_registered_key_verifies_through_its_comb(self, group, rng):
        key = schnorr.generate_keypair(group, rng=rng)
        sig = schnorr.sign(key, b"message", rng=rng)
        schnorr.clear_key_tables()
        try:
            assert schnorr.register_verification_key(key.public) is True
            assert schnorr.register_verification_key(key.public) is False
            table = schnorr._KEY_TABLES[(group.p, key.y)]
            assert isinstance(table, schnorr.CombTable)
            schnorr.verify(key.public, b"message", sig)
            with pytest.raises(SignatureError, match="verification failed"):
                schnorr.verify(key.public, b"other", sig)
        finally:
            schnorr.clear_key_tables()

    @BOTH_GROUPS
    def test_refused_key_is_remembered_not_retested(
        self, group, monkeypatch
    ):
        """The subgroup test runs once per key; a second registration is
        refused from the LRU, and a refusal never counts as a table."""
        bad = schnorr.SchnorrPublicKey(group_p=group.p, y=_non_member(group))
        subgroup_tests = []

        def counting_pow(base, exponent, modulus):
            if (base, exponent) == (bad.y, group.q):
                subgroup_tests.append(base)
            return pow(base, exponent, modulus)

        monkeypatch.setattr(schnorr, "pow", counting_pow, raising=False)
        schnorr.clear_key_tables()
        try:
            for _ in range(3):
                with pytest.raises(CryptoError, match="order-q subgroup"):
                    schnorr.register_verification_key(bad)
            assert len(subgroup_tests) == 1
            assert schnorr.registered_key_count() == 0
        finally:
            schnorr.clear_key_tables()


class TestUnknownModulus:
    """A key's ``p`` selects a table entry; it is never trusted as a group."""

    MODULI = [23, RFC3526_PRIME_2048, SAFE_PRIME_512]

    @pytest.mark.parametrize("p", MODULI)
    def test_from_wire(self, p):
        with pytest.raises(CryptoError, match="unknown schnorr group"):
            schnorr.SchnorrPublicKey.from_wire({"p": p, "y": 4})

    @pytest.mark.parametrize("p", MODULI)
    def test_verify(self, p):
        bad = schnorr.SchnorrPublicKey(group_p=p, y=4)
        with pytest.raises(SignatureError, match="unknown schnorr group"):
            schnorr.verify(bad, b"m", b"\x00" * 64)

    @pytest.mark.parametrize("p", MODULI)
    def test_verify_batch_reports_per_item_and_continues(self, key, rng, p):
        bad = schnorr.SchnorrPublicKey(group_p=p, y=4)
        sig = schnorr.sign(key, b"m", rng=rng)
        errors = schnorr.verify_batch(
            [(key.public, b"m", sig), (bad, b"m", sig)] * 2
        )
        assert errors[0] is None and errors[2] is None
        for error in (errors[1], errors[3]):
            assert isinstance(error, SignatureError)
            assert str(error) == "unknown schnorr group"

    @pytest.mark.parametrize("p", MODULI)
    def test_encrypt_to(self, p):
        bad = schnorr.SchnorrPublicKey(group_p=p, y=4)
        with pytest.raises(CryptoError, match="unknown schnorr group"):
            schnorr.encrypt_to(bad, b"secret")

    def test_keygen_sign_decrypt_register(self, key):
        with pytest.raises(CryptoError, match="unknown schnorr group"):
            schnorr.generate_keypair(
                SchnorrGroup(p=RFC3526_PRIME_2048, q=RFC3526_PRIME_2048 >> 1, g=2)
            )
        stray = schnorr.SchnorrPrivateKey(group_p=23, x=3, y=4)
        with pytest.raises(CryptoError, match="unknown schnorr group"):
            schnorr.sign(stray, b"m")
        with pytest.raises(CryptoError, match="unknown schnorr group"):
            schnorr.decrypt(stray, b"\x00" * 200)
        with pytest.raises(CryptoError, match="unknown schnorr group"):
            schnorr.register_verification_key(stray.public)
        with pytest.raises(CryptoError, match="unknown schnorr group"):
            _ = stray.public.group
