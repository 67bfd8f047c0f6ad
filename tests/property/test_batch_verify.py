"""One verification, two entry points, one chain walk.

``schnorr.verify_batch`` and ``signature.verify_batch`` are ``verify``
applied to a list: for any mix of items they report, per index, exactly
what ``verify`` raises — with the precomputed tables on, off, or damaged
(a damaged table may cost a native re-check, never a verdict).  The chain
tests then pin what the single stage 1–2 walk of ``ProxyVerifier``
decides — the verdict, the message naming the first bad link, and what
the chain cache holds afterwards — with the caches on (``cached``) and
off (``cold``): the "parity" in their names is that the verdict is the
same either way.
"""

import contextlib
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.core.verification import (
    ProxyVerifier,
    PublicKeyCrypto,
    VerifiedProxy,
)
from repro.crypto import schnorr
from repro.crypto import signature as sigmod
from repro.crypto.keys import SymmetricKey
from repro.crypto.rng import Rng
from repro.crypto.schnorr_groups import DEFAULT_GROUP, TEST_GROUP
from repro.crypto.signature import (
    HmacSigner,
    SchnorrSigner,
    SchnorrVerifier,
    verify_batch,
)
from repro.encoding.identifiers import PrincipalId
from repro.errors import ReproError, SignatureError
from tests.conftest import RFC3526_PRIME_2048

START = 1_000_000.0
ALICE = PrincipalId("alice")
CAROL = PrincipalId("carol")
SERVER = PrincipalId("server")

FAILED = "schnorr signature verification failed"


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


@pytest.fixture(scope="module")
def labelled_items(signed_batch):
    """``(item, message verify raises or None)`` for every rejection class
    of ``verify``: valid and forged items in both groups, malformed
    signatures, moduli outside the group table and out-of-range ``y``."""
    rng = Rng(seed=b"batch-labels")
    large = schnorr.generate_keypair(DEFAULT_GROUP, rng=rng)
    batch = signed_batch[:4] + [
        (large.public, b"large", schnorr.sign(large, b"large", rng=rng))
    ]
    labelled = []
    for key, message, signature in batch:
        labelled.append(((key, message, signature), None))
        labelled.append(((key, b"forged", signature), FAILED))
    key, message, signature = signed_batch[0]
    labelled += [
        ((key, message, signature[:-1]), "schnorr signature has wrong length"),
        ((key, message, b"\xff" * 64), "schnorr signature values out of range"),
    ]
    p = TEST_GROUP.p
    for modulus in (23, RFC3526_PRIME_2048):
        stray = schnorr.SchnorrPublicKey(group_p=modulus, y=4)
        labelled.append(((stray, message, signature), "unknown schnorr group"))
    for y in (0, 1, p - 1, p + 4):
        stray = schnorr.SchnorrPublicKey(group_p=p, y=y)
        labelled.append(
            ((stray, message, signature), "schnorr public key out of range")
        )
    return labelled


def _messages(errors):
    errors = list(errors)
    for error in errors:
        assert error is None or type(error) is SignatureError
    return [None if error is None else str(error) for error in errors]


def _raised(verify, *args):
    """What one ``verify`` call raises, as ``verify_batch`` reports it."""
    try:
        verify(*args)
    except SignatureError as exc:
        return exc
    return None


@contextlib.contextmanager
def _damaged_generator_row():
    """Every nonzero digit of the small group's low window is wrong, so
    any exponent with a nonzero low digit computes a wrong power."""
    table = schnorr._generator_table(TEST_GROUP)
    original = list(table._rows[0])
    table._rows[0] = [1] + [
        entry * 3 % TEST_GROUP.p for entry in original[1:]
    ]
    try:
        yield
    finally:
        table._rows[0] = original


def _damage_one_entry(table, exponent):
    """Damage the first comb entry that ``table.pow(exponent)`` reads."""
    for index in range(1, len(table._table)):
        original = table._table[index]
        table._table[index] = original * 3 % table.p
        if table.pow(exponent) != pow(table.base, exponent, table.p):
            return
        table._table[index] = original
    raise AssertionError("no single entry changes this power")


def _damage_key_table(item):
    """Give ``item``'s key a comb that miscomputes exactly the power its
    verification needs."""
    key, _, signature = item
    exponent = TEST_GROUP.q - int.from_bytes(signature[:32], "big")
    schnorr.register_verification_key(key)
    table = schnorr._KEY_TABLES[(key.group_p, key.y)]
    _damage_one_entry(table, exponent)
    assert table.pow(exponent) != pow(key.y, exponent, TEST_GROUP.p)


class TestSchnorrVerifyBatch:
    @pytest.mark.parametrize("tables", ["on", "off", "damaged"])
    def test_reports_exactly_what_verify_raises(self, labelled_items, tables):
        """Every per-item check of ``verify`` is made by ``verify_batch``:
        any mix of items gets, per index, the verdict it deserves and the
        message ``verify`` raises — through healthy tables, native
        ``pow()``, and a damaged generator row plus a damaged comb entry
        (valid still accepted, forged still rejected)."""
        items = [item for item, _ in labelled_items]
        expected = [message for _, message in labelled_items]

        @settings(max_examples=25, deadline=None)
        @given(st.lists(st.integers(0, len(items) - 1), max_size=8))
        def check(picks):
            batch = [items[i] for i in picks]
            assert _messages(schnorr.verify_batch(batch)) == [
                expected[i] for i in picks
            ]
            assert _messages(
                _raised(schnorr.verify, *item) for item in batch
            ) == [expected[i] for i in picks]

        schnorr.clear_key_tables()
        previous = schnorr.set_precompute(tables != "off")
        try:
            for (key, _, _), message in labelled_items:
                if message is None:
                    schnorr.register_verification_key(key)
            if tables == "damaged":
                _damage_key_table(items[0])
                with _damaged_generator_row():
                    check()
            else:
                check()
        finally:
            schnorr.set_precompute(previous)
            schnorr.clear_key_tables()

    def test_empty_batch(self):
        assert schnorr.verify_batch([]) == []

    def test_all_valid(self, signed_batch):
        assert schnorr.verify_batch(signed_batch) == [None] * len(signed_batch)

    @pytest.mark.parametrize("position", range(8))
    def test_single_forgery_attributed_exactly(self, signed_batch, position):
        items = list(signed_batch)
        key, message, _ = items[position]
        # A valid signature over a *different* message: forged content.
        items[position] = (key, message, signed_batch[position - 1][2])
        errors = schnorr.verify_batch(items)
        for index, error in enumerate(errors):
            if index == position:
                assert str(error) == FAILED
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
        errors = schnorr.verify_batch(items)
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
        assert schnorr.verify_batch(items) == [None, None, None]

    def test_corrupted_table_never_flips_a_single_verify(self, signed_batch):
        """Verification re-checks failures natively, so a broken generator
        table cannot reject a valid signature through either entry point."""
        with _damaged_generator_row():
            for key, message, signature in signed_batch:
                schnorr.verify(key, message, signature)  # no raise
            errors = schnorr.verify_batch(signed_batch)
        assert errors == [None] * len(signed_batch)

    def test_precompute_toggle_changes_nothing_observable(self, signed_batch):
        previous = schnorr.set_precompute(False)
        try:
            errors = schnorr.verify_batch(signed_batch)
            for key, message, signature in signed_batch:
                schnorr.verify(key, message, signature)
        finally:
            schnorr.set_precompute(previous)
        assert errors == [None] * len(signed_batch)


class TestDamagedKeyTable:
    """Twins of the corrupted-generator-table tests for a per-key comb:
    one damaged entry may cost a native re-check, never a verdict."""

    @pytest.fixture
    def damaged(self, signed_batch):
        """A valid triple whose key's comb miscomputes exactly the power
        its verification needs, and a forgery under the same key."""
        key, message, signature = signed_batch[0]
        schnorr.clear_key_tables()
        _damage_key_table(signed_batch[0])
        yield (key, message, signature), (key, b"forged", signature)
        schnorr.clear_key_tables()

    def test_valid_signature_still_accepted(self, damaged):
        valid, _ = damaged
        schnorr.verify(*valid)  # no raise: native re-check
        assert schnorr.verify_batch([valid, valid]) == [None, None]

    def test_forgery_still_rejected_with_the_same_message(self, damaged):
        valid, forged = damaged
        with pytest.raises(SignatureError) as sequential:
            schnorr.verify(*forged)
        assert str(sequential.value) == FAILED
        errors = schnorr.verify_batch([valid, forged])
        assert errors[0] is None
        assert str(errors[1]) == str(sequential.value)

    def test_precompute_toggle_changes_nothing_observable(self, damaged):
        valid, forged = damaged
        previous = schnorr.set_precompute(False)
        try:
            schnorr.verify(*valid)
            with pytest.raises(SignatureError, match=FAILED):
                schnorr.verify(*forged)
            errors = schnorr.verify_batch([valid, forged])
        finally:
            schnorr.set_precompute(previous)
        assert errors[0] is None
        assert str(errors[1]) == FAILED


# ---------------------------------------------------------------------------
# signature.verify_batch: the same cache traffic and observer events
# ---------------------------------------------------------------------------

def _observed(warm, run):
    """Run under a fresh signature cache with both observers recording.

    ``warm`` checks are verified first, so some of ``run``'s lookups hit.
    Returns everything ``verify`` and ``verify_batch`` must agree on:
    error messages, observer events (order aside — the batch defers its
    Schnorr misses), and what the cache then holds and has counted.
    """
    events = []
    cache = sigmod.SignatureCache()
    previous_cache = sigmod.set_signature_cache(cache)
    previous_observer = sigmod.set_signature_observer(
        lambda scheme, op, seconds, ok: events.append((scheme, op, ok))
    )
    previous_cache_observer = sigmod.set_signature_cache_observer(
        lambda event, scheme: events.append((event, scheme))
    )
    try:
        for verifier, message, signature in warm:
            _raised(verifier.verify, message, signature)
        del events[:]
        errors = run()
    finally:
        sigmod.set_signature_cache_observer(previous_cache_observer)
        sigmod.set_signature_observer(previous_observer)
        sigmod.set_signature_cache(previous_cache)
    return (
        _messages(errors), sorted(events), set(cache._entries), cache.stats()
    )


class TestSignatureVerifyBatch:
    def test_wrong_scheme_byte_matches_sequential(self, signed_batch):
        key, message, raw = signed_batch[0]
        v = SchnorrVerifier(public=key)
        good = b"\x03" + raw
        bad_scheme = b"\x02" + raw
        errors = verify_batch([(v, message, good), (v, message, bad_scheme)])
        assert errors[0] is None
        assert str(errors[1]) == "not a Schnorr signature"

    def test_same_cache_traffic_and_events_as_verify(self, labelled_items):
        """``verify_batch(checks)`` is ``verifier.verify`` per check: the
        same errors, cache hits, misses and positive-only stores, and the
        same observer events, for any mix of schemes and verdicts."""
        hmac = HmacSigner(key=SymmetricKey.generate(rng=Rng(seed=b"twin")))
        checks = [
            (SchnorrVerifier(public=key), message, b"\x03" + signature)
            for (key, message, signature), _ in labelled_items
        ]
        verifier, message, signature = checks[0]
        checks += [
            (verifier, message, b"\x02" + signature[1:]),
            (hmac, b"sealed", hmac.sign(b"sealed")),
            (hmac, b"forged", hmac.sign(b"sealed")),
        ]
        indices = st.integers(0, len(checks) - 1)

        # Picks are unique: a batch looks every check up before it stores
        # any, so a duplicate *inside* one batch is a second miss there
        # and a hit one by one — same verdicts, different hit count.

        @settings(max_examples=25, deadline=None)
        @given(
            st.lists(indices, max_size=8, unique=True),
            st.sets(indices, max_size=4),
        )
        def check(picks, warm):
            batch = [checks[i] for i in picks]
            warm = [checks[i] for i in sorted(warm)]
            assert _observed(warm, lambda: verify_batch(batch)) == _observed(
                warm,
                lambda: [_raised(v.verify, m, s) for v, m, s in batch],
            )

        check()


# ---------------------------------------------------------------------------
# The one chain walk, through ProxyVerifier
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


def outcome(builder, depth, config, tamper=None, rounds=1, revoke=None):
    """Verify ``rounds`` presentations of one chain under ``config``.

    Returns the normalized result of each round and how many links the
    verifier's chain cache holds afterwards (None without a cache).
    ``tamper`` rewrites the certificates on the wire; ``revoke`` names a
    link whose grantor leaves the directory first.
    """
    clock, crypto, proxy, claimant = builder(depth)
    certs = proxy.certificates
    if revoke is not None:
        crypto.remove_principal(certs[revoke].grantor)
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
    cache = verifier.chain_cache
    return results, None if cache is None else len(cache)


def bad_link(position):
    """The one rejection a bad signature at link ``position`` earns."""
    return (
        "ProxyVerificationError",
        f"signature of link {position} invalid: {FAILED}",
    )


def cached_links(config, links):
    """The chain cache holds exactly the links before the first failure."""
    return links if config.enabled else None


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


BUILDERS = pytest.mark.parametrize(
    "builder", [build_bearer_chain, build_delegate_chain],
    ids=["bearer", "delegate"],
)
CONFIGS = pytest.mark.parametrize(
    "config", [DEFAULT_CONFIG, DISABLED_CONFIG], ids=["cached", "cold"]
)


@BUILDERS
@CONFIGS
@pytest.mark.parametrize("depth", [1, 2, 4, 6])
def test_valid_chain_parity(builder, config, depth):
    """Cold on the first round, every link a cache hit on the second
    (with a cache): the same ``VerifiedProxy`` both times."""
    results, cached = outcome(builder, depth, config, rounds=2)
    delegated = builder is build_delegate_chain
    verified = VerifiedProxy(
        grantor=ALICE,
        claimant=CAROL if delegated else None,
        audit_trail=tuple(
            PrincipalId(f"relay-{i}") for i in range(depth - 1)
        ) if delegated else (),
        expires_at=START + 3600,
        bearer=True,
        chain_length=depth,
    )
    assert results == [("ok", verified)] * 2
    assert cached == cached_links(config, depth)


@BUILDERS
@CONFIGS
@pytest.mark.parametrize("position", range(4))
def test_forged_cert_parity_at_every_position(builder, config, position):
    """A signature lifted from another link is rejected by a message
    naming that link, and no link from it onwards is cached."""
    results, cached = outcome(builder, 4, config, tamper=forge_link(position))
    assert results == [bad_link(position)]
    assert cached == cached_links(config, position)


@CONFIGS
@pytest.mark.parametrize("position", range(4))
def test_bitflipped_signature_parity(config, position):
    results, cached = outcome(
        build_bearer_chain, 4, config, tamper=flip_signature_byte(position)
    )
    assert results == [bad_link(position)]
    assert cached == cached_links(config, position)


@BUILDERS
@CONFIGS
def test_swapped_messages_parity(builder, config):
    """Two valid signatures attached to each other's certificates: both
    wrong, and the *first* is the one reported."""
    results, cached = outcome(builder, 4, config, tamper=swap_signatures(1, 3))
    assert results == [bad_link(1)]
    assert cached == cached_links(config, 1)


@CONFIGS
def test_duplicated_signature_parity(config):
    """The same signature bytes on two links (valid on the first, forged
    on the second) reject the second link."""

    def tamper(certs):
        certs = list(certs)
        certs[2] = dataclasses.replace(
            certs[2], signature=certs[1].signature
        )
        return tuple(certs)

    results, cached = outcome(build_bearer_chain, 4, config, tamper=tamper)
    assert results == [bad_link(2)]
    assert cached == cached_links(config, 2)


@CONFIGS
def test_forged_link_beats_later_non_signature_failure(config):
    """The lowest-index failure wins: a forged signature at link 1
    outranks an unknown grantor at link 3, which the walk never reaches.
    Without the forgery the unknown grantor is the verdict, and the three
    links before it are cached."""
    results, cached = outcome(
        build_delegate_chain, 4, config, tamper=forge_link(1), revoke=3
    )
    assert results == [bad_link(1)]
    assert cached == cached_links(config, 1)

    results, cached = outcome(build_delegate_chain, 4, config, revoke=3)
    assert results == [
        (
            "ProxyVerificationError",
            f"grantor {PrincipalId('relay-2')} not in key directory",
        )
    ]
    assert cached == cached_links(config, 3)


def test_identity_keys_get_precompute_tables():
    """The walk registers recurring grantor/delegate identity keys for
    fixed-base precomputation on first sight."""
    schnorr.clear_key_tables()
    try:
        results, _ = outcome(build_delegate_chain, 4, DEFAULT_CONFIG)
        assert results[0][0] == "ok"
        # Root grantor + three relay identities.
        assert schnorr.registered_key_count() == 4
    finally:
        schnorr.clear_key_tables()
