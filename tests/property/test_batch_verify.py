"""Batch-vs-sequential verification parity: batching may only change speed.

The batched stage 1–2 walk and the Schnorr multi-scalar check must be
observationally identical to one-at-a-time verification: the same chains
accepted, the same chains rejected, with the same exception types and
messages — for valid chains, forged certificates at every position,
swapped messages, and duplicated signatures.  The weighted aggregate
check must also be deterministic under a fixed seed, including the
bisection fallback path.
"""

import dataclasses

import pytest

from repro.clock import SimulatedClock
from repro.core.evaluation import RequestContext
from repro.core.presentation import present
from repro.core.proxy import (
    cascade,
    delegate_cascade,
    grant_public,
)
from repro.core.restrictions import Grantee
from repro.core.vcache import DEFAULT_CONFIG, DISABLED_CONFIG, override
from repro.core.verification import ProxyVerifier, PublicKeyCrypto
from repro.crypto import schnorr
from repro.crypto.rng import Rng
from repro.crypto.schnorr_groups import DEFAULT_GROUP, TEST_GROUP
from repro.crypto.signature import SchnorrSigner, verify_batch
from repro.encoding.identifiers import PrincipalId
from repro.errors import ReproError, SignatureError

START = 1_000_000.0
ALICE = PrincipalId("alice")
CAROL = PrincipalId("carol")
SERVER = PrincipalId("server")

BATCH_OFF = dataclasses.replace(DEFAULT_CONFIG, batch_verify=False)
COLD_ON = dataclasses.replace(DISABLED_CONFIG, batch_verify=True)
COLD_OFF = dataclasses.replace(DISABLED_CONFIG, batch_verify=False)


# ---------------------------------------------------------------------------
# schnorr.verify_batch directly
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def signed_batch():
    """Eight (key, message, signature) triples from two signers."""
    rng = Rng(seed=b"batch-props")
    keys = [schnorr.generate_keypair(TEST_GROUP, rng=rng) for _ in range(2)]
    items = []
    for i in range(8):
        key = keys[i % 2]
        message = b"message-%d" % i
        items.append(
            (key.public, message, schnorr.sign(key, message, rng=rng))
        )
    return items


class TestSchnorrVerifyBatch:
    def test_empty_batch(self):
        errors, probes = schnorr.verify_batch([])
        assert errors == [] and probes == 0

    def test_all_valid(self, signed_batch):
        errors, probes = schnorr.verify_batch(
            signed_batch, rng=Rng(seed=b"w")
        )
        assert errors == [None] * len(signed_batch)
        assert probes == 0

    @pytest.mark.parametrize("position", range(8))
    def test_single_forgery_attributed_exactly(self, signed_batch, position):
        items = list(signed_batch)
        key, message, _ = items[position]
        # A valid signature over a *different* message: forged content.
        items[position] = (key, message, signed_batch[position - 1][2])
        errors, _ = schnorr.verify_batch(items, rng=Rng(seed=b"w"))
        for index, error in enumerate(errors):
            if index == position:
                assert str(error) == "schnorr signature verification failed"
            else:
                assert error is None

    def test_malformed_signatures_get_sequential_messages(self, signed_batch):
        key, message, good = signed_batch[0]
        out_of_range = b"\xff" * len(good)
        items = [
            (key, message, good),
            (key, message, b"\x00"),
            (key, message, out_of_range),
        ]
        errors, _ = schnorr.verify_batch(items, rng=Rng(seed=b"w"))
        assert errors[0] is None
        assert str(errors[1]) == "schnorr signature has wrong length"
        assert str(errors[2]) == "schnorr signature values out of range"
        # Identical to what sequential verify raises.
        for item, error in zip(items[1:], errors[1:]):
            with pytest.raises(SignatureError) as caught:
                schnorr.verify(*item)
            assert str(caught.value) == str(error)

    def test_mixed_groups_verify_together(self):
        rng = Rng(seed=b"mixed-groups")
        small = schnorr.generate_keypair(TEST_GROUP, rng=rng)
        large = schnorr.generate_keypair(DEFAULT_GROUP, rng=rng)
        items = [
            (small.public, b"a", schnorr.sign(small, b"a", rng=rng)),
            (large.public, b"b", schnorr.sign(large, b"b", rng=rng)),
            (small.public, b"c", schnorr.sign(small, b"c", rng=rng)),
        ]
        errors, _ = schnorr.verify_batch(items, rng=Rng(seed=b"w"))
        assert errors == [None, None, None]

    def test_deterministic_under_fixed_seed(self, signed_batch):
        items = list(signed_batch)
        items[3] = (items[3][0], items[3][1], items[4][2])
        runs = []
        for _ in range(2):
            errors, probes = schnorr.verify_batch(items, rng=Rng(seed=b"det"))
            runs.append(([str(e) if e else None for e in errors], probes))
        assert runs[0] == runs[1]

    def test_bisection_repairs_corrupted_table(self, signed_batch):
        """A damaged generator table triggers the aggregate-check fallback:
        bisection recomputes the bad entries natively, so every verdict is
        still correct — and the walk is deterministic under a fixed seed."""
        p = TEST_GROUP.p
        table = schnorr._generator_table(schnorr._params(p))
        original = list(table._rows[0])
        runs = []
        try:
            # Damage every nonzero digit of the low window so any exponent
            # with a nonzero low digit computes a wrong power.
            table._rows[0] = [1] + [
                (entry * 3) % p for entry in original[1:]
            ]
            for _ in range(2):
                errors, probes = schnorr.verify_batch(
                    signed_batch, rng=Rng(seed=b"det")
                )
                runs.append((errors, probes))
        finally:
            table._rows[0] = original
        for errors, probes in runs:
            assert errors == [None] * len(signed_batch)
            assert probes > 0
        assert runs[0][1] == runs[1][1]

    def test_corrupted_table_never_flips_a_single_verify(self, signed_batch):
        """Single-signature verify re-checks failures natively, so a broken
        table cannot reject a valid signature."""
        p = TEST_GROUP.p
        table = schnorr._generator_table(schnorr._params(p))
        original = list(table._rows[0])
        try:
            table._rows[0] = [1] + [
                (entry * 3) % p for entry in original[1:]
            ]
            for key, message, signature in signed_batch:
                schnorr.verify(key, message, signature)  # no raise
        finally:
            table._rows[0] = original

    def test_precompute_toggle_changes_nothing_observable(self, signed_batch):
        previous = schnorr.set_precompute(False)
        try:
            errors, probes = schnorr.verify_batch(
                signed_batch, rng=Rng(seed=b"w")
            )
            assert errors == [None] * len(signed_batch)
            for key, message, signature in signed_batch:
                schnorr.verify(key, message, signature)
        finally:
            schnorr.set_precompute(previous)
        assert probes == 0


def _damage_one_entry(table, exponent):
    """Damage the first comb entry that ``table.pow(exponent)`` reads."""
    for index in range(1, len(table._table)):
        original = table._table[index]
        table._table[index] = original * 3 % table.p
        if table.pow(exponent) != pow(table.base, exponent, table.p):
            return
        table._table[index] = original
    raise AssertionError("no single entry changes this power")


class TestDamagedKeyTable:
    """Twins of the corrupted-generator-table tests for a per-key comb:
    one damaged entry may cost a native re-check, never a verdict."""

    @pytest.fixture
    def damaged(self, signed_batch):
        """A valid triple whose key's comb miscomputes exactly the power
        its verification needs, and a forgery under the same key."""
        key, message, signature = signed_batch[0]
        q = TEST_GROUP.q
        e = int.from_bytes(signature[:32], "big")
        schnorr.clear_key_tables()
        schnorr.register_verification_key(key)
        table = schnorr._KEY_TABLES[(key.group_p, key.y)]
        _damage_one_entry(table, q - e)
        assert table.pow(q - e) != pow(key.y, q - e, TEST_GROUP.p)
        yield (key, message, signature), (key, b"forged", signature)
        schnorr.clear_key_tables()

    def test_valid_signature_still_accepted(self, damaged):
        valid, _ = damaged
        schnorr.verify(*valid)  # no raise: native re-check
        errors, _ = schnorr.verify_batch([valid, valid], rng=Rng(seed=b"w"))
        assert errors == [None, None]

    def test_forgery_still_rejected_with_the_same_message(self, damaged):
        valid, forged = damaged
        with pytest.raises(SignatureError) as sequential:
            schnorr.verify(*forged)
        assert str(sequential.value) == "schnorr signature verification failed"
        errors, _ = schnorr.verify_batch([valid, forged], rng=Rng(seed=b"w"))
        assert errors[0] is None
        assert str(errors[1]) == str(sequential.value)

    def test_precompute_toggle_changes_nothing_observable(self, damaged):
        valid, forged = damaged
        previous = schnorr.set_precompute(False)
        try:
            schnorr.verify(*valid)
            with pytest.raises(
                SignatureError, match="schnorr signature verification failed"
            ):
                schnorr.verify(*forged)
            errors, probes = schnorr.verify_batch(
                [valid, forged], rng=Rng(seed=b"w")
            )
        finally:
            schnorr.set_precompute(previous)
        assert errors[0] is None
        assert str(errors[1]) == "schnorr signature verification failed"
        assert probes == 0


class TestSignatureVerifyBatch:
    def test_wrong_scheme_byte_matches_sequential(self, signed_batch):
        from repro.crypto.signature import SchnorrVerifier

        key, message, raw = signed_batch[0]
        v = SchnorrVerifier(public=key)
        good = b"\x03" + raw
        bad_scheme = b"\x02" + raw
        errors, stats = verify_batch(
            [(v, message, good), (v, message, bad_scheme)],
            rng=Rng(seed=b"w"),
        )
        assert errors[0] is None
        assert str(errors[1]) == "not a Schnorr signature"
        assert stats.signatures == 1


# ---------------------------------------------------------------------------
# Chain-level parity through ProxyVerifier
# ---------------------------------------------------------------------------

def build_bearer_chain(depth, seed=b"batch-bearer"):
    """An all-Schnorr bearer cascade of ``depth`` links."""
    rng = Rng(seed=seed)
    clock = SimulatedClock(START)
    identity = schnorr.generate_keypair(TEST_GROUP, rng=rng)
    proxy = grant_public(
        ALICE, SchnorrSigner(identity), (), START, START + 3600, rng,
        group=TEST_GROUP,
    )
    for _ in range(depth - 1):
        proxy = cascade(proxy, (), START, START + 3600, rng)
    crypto = PublicKeyCrypto(
        directory={ALICE: SchnorrSigner(identity).verifier()}
    )
    return clock, crypto, proxy, None


def build_delegate_chain(depth, seed=b"batch-delegate"):
    """An audit-trail cascade: every link signed by a registered identity."""
    rng = Rng(seed=seed)
    clock = SimulatedClock(START)
    directory = {}
    identity = schnorr.generate_keypair(TEST_GROUP, rng=rng)
    directory[ALICE] = SchnorrSigner(identity).verifier()
    intermediates = [
        PrincipalId(f"relay-{i}") for i in range(depth - 1)
    ]
    first_grantee = intermediates[0] if intermediates else CAROL
    proxy = grant_public(
        ALICE, SchnorrSigner(identity),
        (Grantee(principals=(first_grantee,)),),
        START, START + 3600, rng, group=TEST_GROUP,
    )
    for i, relay in enumerate(intermediates):
        relay_identity = schnorr.generate_keypair(TEST_GROUP, rng=rng)
        directory[relay] = SchnorrSigner(relay_identity).verifier()
        next_grantee = (
            intermediates[i + 1] if i + 1 < len(intermediates) else CAROL
        )
        proxy = delegate_cascade(
            proxy, relay, SchnorrSigner(relay_identity), next_grantee,
            (), START, START + 3600, rng=rng, group=TEST_GROUP,
        )
    return clock, PublicKeyCrypto(directory=directory), proxy, CAROL


def outcome(builder, depth, config, tamper=None, rounds=1):
    """Run verification and normalize the result for comparison."""
    clock, crypto, proxy, claimant = builder(depth)
    certs = proxy.certificates
    if tamper is not None:
        certs = tamper(certs)
    with override(config):
        verifier = ProxyVerifier(server=SERVER, crypto=crypto, clock=clock)
        context = RequestContext(
            server=SERVER, operation="read", claimant=claimant
        )
        results = []
        for _ in range(rounds):
            presented = present(
                proxy, SERVER, clock.now(), "read", claimant=claimant
            )
            presented = dataclasses.replace(presented, certificates=certs)
            try:
                results.append(("ok", verifier.verify(presented, context)))
            except ReproError as exc:
                results.append((type(exc).__name__, str(exc)))
        return results


def forge_link(position):
    """Replace link ``position``'s signature with one over other content."""

    def tamper(certs):
        certs = list(certs)
        donor = certs[(position + 1) % len(certs)]
        certs[position] = dataclasses.replace(
            certs[position], signature=donor.signature
        )
        return tuple(certs)

    return tamper


def flip_signature_byte(position, offset=5):
    def tamper(certs):
        certs = list(certs)
        sig = bytearray(certs[position].signature)
        sig[offset] ^= 0x01
        certs[position] = dataclasses.replace(
            certs[position], signature=bytes(sig)
        )
        return tuple(certs)

    return tamper


def swap_signatures(i, j):
    """Both links keep valid signatures — over each other's messages."""

    def tamper(certs):
        certs = list(certs)
        si, sj = certs[i].signature, certs[j].signature
        certs[i] = dataclasses.replace(certs[i], signature=sj)
        certs[j] = dataclasses.replace(certs[j], signature=si)
        return tuple(certs)

    return tamper


CONFIG_PAIRS = [
    pytest.param(DEFAULT_CONFIG, BATCH_OFF, id="cached"),
    pytest.param(COLD_ON, COLD_OFF, id="cold"),
]


@pytest.mark.parametrize("builder", [build_bearer_chain, build_delegate_chain],
                         ids=["bearer", "delegate"])
@pytest.mark.parametrize("batched,sequential", CONFIG_PAIRS)
@pytest.mark.parametrize("depth", [1, 2, 4, 6])
def test_valid_chain_parity(builder, batched, sequential, depth):
    on = outcome(builder, depth, batched, rounds=2)
    off = outcome(builder, depth, sequential, rounds=2)
    assert on == off
    assert on[0][0] == "ok"


@pytest.mark.parametrize("builder", [build_bearer_chain, build_delegate_chain],
                         ids=["bearer", "delegate"])
@pytest.mark.parametrize("batched,sequential", CONFIG_PAIRS)
@pytest.mark.parametrize("position", range(4))
def test_forged_cert_parity_at_every_position(
    builder, batched, sequential, position
):
    """A signature lifted from another link must be rejected identically —
    same exception type, same message naming the same link."""
    depth = 4
    on = outcome(builder, depth, batched, tamper=forge_link(position))
    off = outcome(builder, depth, sequential, tamper=forge_link(position))
    assert on == off
    assert on[0][0] == "ProxyVerificationError"
    assert f"signature of link {position} invalid" in on[0][1]


@pytest.mark.parametrize("batched,sequential", CONFIG_PAIRS)
@pytest.mark.parametrize("position", range(4))
def test_bitflipped_signature_parity(batched, sequential, position):
    on = outcome(
        build_bearer_chain, 4, batched, tamper=flip_signature_byte(position)
    )
    off = outcome(
        build_bearer_chain, 4, sequential,
        tamper=flip_signature_byte(position),
    )
    assert on == off
    assert on[0][0] == "ProxyVerificationError"


@pytest.mark.parametrize("builder", [build_bearer_chain, build_delegate_chain],
                         ids=["bearer", "delegate"])
@pytest.mark.parametrize("batched,sequential", CONFIG_PAIRS)
def test_swapped_messages_parity(builder, batched, sequential):
    """Two valid signatures attached to each other's certificates: both
    wrong, and the *first* must be the one reported, batched or not."""
    on = outcome(builder, 4, batched, tamper=swap_signatures(1, 3))
    off = outcome(builder, 4, sequential, tamper=swap_signatures(1, 3))
    assert on == off
    assert "signature of link 1 invalid" in on[0][1]


@pytest.mark.parametrize("batched,sequential", CONFIG_PAIRS)
def test_duplicated_signature_parity(batched, sequential):
    """The same signature bytes appearing on two links (valid on the first,
    forged on the second) must reject the second link identically."""

    def tamper(certs):
        certs = list(certs)
        certs[2] = dataclasses.replace(
            certs[2], signature=certs[1].signature
        )
        return tuple(certs)

    on = outcome(build_bearer_chain, 4, batched, tamper=tamper)
    off = outcome(build_bearer_chain, 4, sequential, tamper=tamper)
    assert on == off
    assert "signature of link 2 invalid" in on[0][1]


@pytest.mark.parametrize("batched,sequential", CONFIG_PAIRS)
def test_forged_link_beats_later_non_signature_failure(batched, sequential):
    """Error-ordering parity: a forged signature at link 1 outranks an
    unknown grantor at link 3, exactly as in the sequential walk."""

    def tamper(certs):
        certs = forge_link(1)(certs)
        return certs

    def run(config):
        clock, crypto, proxy, claimant = build_delegate_chain(4)
        # Make link 3's grantor unresolvable; sequential verification
        # never reaches it because link 1's signature fails first.
        crypto.remove_principal(proxy.certificates[3].grantor)
        certs = tamper(proxy.certificates)
        with override(config):
            verifier = ProxyVerifier(
                server=SERVER, crypto=crypto, clock=clock
            )
            presented = present(
                proxy, SERVER, clock.now(), "read", claimant=claimant
            )
            presented = dataclasses.replace(presented, certificates=certs)
            context = RequestContext(
                server=SERVER, operation="read", claimant=claimant
            )
            try:
                verifier.verify(presented, context)
                return ("ok",)
            except ReproError as exc:
                return (type(exc).__name__, str(exc))

    on, off = run(batched), run(sequential)
    assert on == off
    assert "signature of link 1 invalid" in on[1]


def test_identity_keys_get_precompute_tables():
    """The batched walk registers recurring grantor/delegate identity keys
    for fixed-base precomputation on first sight."""
    schnorr.clear_key_tables()
    try:
        results = outcome(build_delegate_chain, 4, DEFAULT_CONFIG)
        assert results[0][0] == "ok"
        # Root grantor + three relay identities.
        assert schnorr.registered_key_count() == 4
    finally:
        schnorr.clear_key_tables()
