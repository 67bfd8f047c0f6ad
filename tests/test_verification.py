"""The end-server verification engine: the system's trust boundary."""

import dataclasses

import pytest

from repro.clock import SimulatedClock
from repro.core.evaluation import RequestContext
from repro.core.certificate import (
    LINK_ROOT,
    PublicKeyBinding,
    SealedKeyBinding,
    build_certificate,
)
from repro.core.presentation import PresentedProxy, present
from repro.core.proxy import (
    Proxy,
    cascade,
    delegate_cascade,
    grant_conventional,
    grant_hybrid,
    grant_public,
)
from repro.core.restrictions import (
    Authorized,
    AuthorizedEntry,
    Grantee,
    IssuedFor,
    Quota,
)
from repro.core.vcache import DEFAULT_CONFIG, DISABLED_CONFIG
from repro.core.verification import (
    ProxyVerifier,
    PublicKeyCrypto,
    SharedKeyCrypto,
)
from repro.crypto import schnorr
from repro.crypto.keys import SymmetricKey
from repro.crypto.rng import Rng
from repro.crypto.schnorr_groups import TEST_GROUP
from repro.crypto.signature import (
    SchnorrSigner,
    SchnorrVerifier,
    verify_batch,
)
from repro.encoding.identifiers import PrincipalId
from repro.errors import (
    CryptoError,
    ProxyExpiredError,
    ProxyVerificationError,
    ReplayError,
    RestrictionViolation,
)
from repro.obs.telemetry import Telemetry
from tests.conftest import RFC3526_PRIME_2048

ALICE = PrincipalId("alice")
BOB = PrincipalId("bob")
CAROL = PrincipalId("carol")
SERVER = PrincipalId("server")
START = 1000.0


@pytest.fixture
def clock():
    return SimulatedClock(START)


@pytest.fixture
def shared(rng):
    return SymmetricKey.generate(rng=rng)


@pytest.fixture
def verifier(clock, shared):
    return ProxyVerifier(
        server=SERVER,
        crypto=SharedKeyCrypto({ALICE: shared}),
        clock=clock,
    )


def req(**kwargs):
    defaults = dict(server=SERVER, operation="read")
    defaults.update(kwargs)
    return RequestContext(**defaults)


class PrefetchingVerifier(ProxyVerifier):
    """What a handler behind the aio prefetcher sees: every presentation's
    checks have been through ``collect_signature_checks`` and
    ``verify_batch`` before ``verify`` runs.  Nothing but speed may
    depend on that."""

    def verify(self, presented, *args, **kwargs):
        verify_batch(self.collect_signature_checks(presented))
        return super().verify(presented, *args, **kwargs)


class TestBearerVerification:
    def test_simple_bearer(self, clock, shared, verifier, rng):
        p = grant_conventional(ALICE, shared, (), START, START + 100, rng=rng)
        result = verifier.verify(
            present(p, SERVER, clock.now(), "read"), req()
        )
        assert result.grantor == ALICE
        assert result.bearer
        assert result.chain_length == 1
        assert result.audit_trail == ()

    def test_unknown_grantor_rejected(self, clock, verifier, rng):
        other_key = SymmetricKey.generate(rng=rng)
        p = grant_conventional(BOB, other_key, (), START, START + 100, rng=rng)
        with pytest.raises(ProxyVerificationError):
            verifier.verify(present(p, SERVER, clock.now(), "read"), req())

    def test_wrong_shared_key_rejected(self, clock, rng, shared):
        impostor_key = SymmetricKey.generate(rng=rng)
        p = grant_conventional(
            ALICE, impostor_key, (), START, START + 100, rng=rng
        )
        verifier = ProxyVerifier(
            server=SERVER, crypto=SharedKeyCrypto({ALICE: shared}), clock=SimulatedClock(START)
        )
        with pytest.raises(ProxyVerificationError):
            verifier.verify(present(p, SERVER, START, "read"), req())

    def test_expired_proxy_rejected(self, clock, shared, verifier, rng):
        p = grant_conventional(ALICE, shared, (), START, START + 10, rng=rng)
        presented = present(p, SERVER, clock.now(), "read")
        clock.advance(11)
        with pytest.raises(ProxyExpiredError):
            verifier.verify(presented, req())

    def test_future_issue_rejected(self, clock, shared, verifier, rng):
        p = grant_conventional(
            ALICE, shared, (), START + 500, START + 600, rng=rng
        )
        with pytest.raises(ProxyVerificationError):
            verifier.verify(present(p, SERVER, clock.now(), "read"), req())

    def test_empty_chain_rejected(self, verifier):
        with pytest.raises(ProxyVerificationError):
            verifier.verify(
                PresentedProxy(certificates=()), req()
            )

    def test_neither_proof_nor_claimant_rejected(
        self, clock, shared, verifier, rng
    ):
        p = grant_conventional(ALICE, shared, (), START, START + 100, rng=rng)
        presented = present(
            p, SERVER, clock.now(), "read", prove_possession=False
        )
        with pytest.raises(ProxyVerificationError):
            verifier.verify(presented, req())


class TestPossessionProof:
    def test_proof_for_other_server_rejected(
        self, clock, shared, verifier, rng
    ):
        p = grant_conventional(ALICE, shared, (), START, START + 100, rng=rng)
        presented = present(p, PrincipalId("elsewhere"), clock.now(), "read")
        with pytest.raises(ProxyVerificationError):
            verifier.verify(presented, req())

    def test_stale_proof_rejected(self, clock, shared, verifier, rng):
        p = grant_conventional(ALICE, shared, (), START, START + 10_000, rng=rng)
        presented = present(p, SERVER, clock.now(), "read")
        clock.advance(verifier.freshness_window + 1)
        with pytest.raises(ProxyVerificationError):
            verifier.verify(presented, req())

    def test_replayed_proof_rejected(self, clock, shared, verifier, rng):
        """§2/§3.1: an eavesdropped presentation cannot be replayed."""
        p = grant_conventional(ALICE, shared, (), START, START + 100, rng=rng)
        presented = present(p, SERVER, clock.now(), "read")
        verifier.verify(presented, req())
        with pytest.raises(ReplayError):
            verifier.verify(presented, req())

    def test_proof_signed_by_wrong_key_rejected(
        self, clock, shared, verifier, rng
    ):
        p = grant_conventional(ALICE, shared, (), START, START + 100, rng=rng)
        q = grant_conventional(ALICE, shared, (), START, START + 100, rng=rng)
        # Present p's certificates with a proof made using q's proxy key.
        wrong = present(q, SERVER, clock.now(), "read")
        forged = PresentedProxy(
            certificates=p.certificates, proof=wrong.proof
        )
        with pytest.raises(ProxyVerificationError):
            verifier.verify(forged, req())

    def test_digest_binding(self, clock, shared, verifier, rng):
        from repro.core.presentation import request_digest

        p = grant_conventional(ALICE, shared, (), START, START + 100, rng=rng)
        presented = present(p, SERVER, clock.now(), "read", target="a")
        with pytest.raises(ProxyVerificationError):
            verifier.verify(
                presented,
                req(target="b"),
                expected_digest=request_digest("read", "b"),
            )


class TestRestrictionEnforcement:
    def test_authorized_enforced(self, clock, shared, verifier, rng):
        p = grant_conventional(
            ALICE,
            shared,
            (Authorized(entries=(AuthorizedEntry("x", ("read",)),)),),
            START, START + 100, rng=rng,
        )
        verifier.verify(
            present(p, SERVER, clock.now(), "read", target="x"),
            req(target="x"),
        )
        with pytest.raises(RestrictionViolation):
            verifier.verify(
                present(p, SERVER, clock.now(), "write", target="x"),
                req(operation="write", target="x"),
            )

    def test_issued_for_enforced(self, clock, shared, verifier, rng):
        p = grant_conventional(
            ALICE, shared,
            (IssuedFor(servers=(PrincipalId("elsewhere"),)),),
            START, START + 100, rng=rng,
        )
        with pytest.raises(RestrictionViolation):
            verifier.verify(present(p, SERVER, clock.now(), "read"), req())

    def test_quota_enforced_across_links(self, clock, shared, verifier, rng):
        p = grant_conventional(
            ALICE, shared, (Quota(currency="c", limit=100),),
            START, START + 100, rng=rng,
        )
        p2 = cascade(p, (Quota(currency="c", limit=10),), START, START + 100, rng=rng)
        verifier.verify(
            present(p2, SERVER, clock.now(), "read"),
            req(amounts={"c": 10}),
        )
        with pytest.raises(RestrictionViolation):
            verifier.verify(
                present(p2, SERVER, clock.now(), "read"),
                req(amounts={"c": 50}),  # within link 1 but not link 2
            )

    def test_issuer_mode_skips_end_server_restrictions(
        self, clock, shared, verifier, rng
    ):
        p = grant_conventional(
            ALICE, shared,
            (Authorized(entries=(AuthorizedEntry("x", ("read",)),)),),
            START, START + 100, rng=rng,
        )
        # operation not covered by the authorized list, but issuer mode
        # propagates instead of evaluating (§7.9).
        verifier.verify(
            present(p, SERVER, clock.now(), "obtain-ticket"),
            req(operation="obtain-ticket"),
            issuer_mode=True,
        )

    def test_issuer_mode_still_checks_issued_for(
        self, clock, shared, verifier, rng
    ):
        p = grant_conventional(
            ALICE, shared,
            (IssuedFor(servers=(PrincipalId("elsewhere"),)),),
            START, START + 100, rng=rng,
        )
        with pytest.raises(RestrictionViolation):
            verifier.verify(
                present(p, SERVER, clock.now(), "op"),
                req(operation="op"),
                issuer_mode=True,
            )


class TestDelegateVerification:
    def test_named_claimant_passes(self, clock, shared, verifier, rng):
        p = grant_conventional(
            ALICE, shared, (Grantee(principals=(BOB,)),),
            START, START + 100, rng=rng,
        )
        presented = present(
            p, SERVER, clock.now(), "read", prove_possession=False
        )
        result = verifier.verify(presented, req(claimant=BOB))
        assert result.claimant == BOB
        assert not result.bearer

    def test_wrong_claimant_fails(self, clock, shared, verifier, rng):
        p = grant_conventional(
            ALICE, shared, (Grantee(principals=(BOB,)),),
            START, START + 100, rng=rng,
        )
        presented = present(
            p, SERVER, clock.now(), "read", prove_possession=False
        )
        with pytest.raises(RestrictionViolation):
            verifier.verify(presented, req(claimant=CAROL))

    def test_wire_claimant_not_trusted(self, clock, shared, verifier, rng):
        """The attacker-controlled wire claimant must be ignored."""
        p = grant_conventional(
            ALICE, shared, (Grantee(principals=(BOB,)),),
            START, START + 100, rng=rng,
        )
        presented = present(
            p, SERVER, clock.now(), "read",
            prove_possession=False, claimant=BOB,  # asserted, not proven
        )
        # Server-side session layer authenticated nobody:
        with pytest.raises(ProxyVerificationError):
            verifier.verify(presented, req(claimant=None))

    def test_possession_alone_insufficient_for_delegate(
        self, clock, shared, verifier, rng
    ):
        """Stealing a delegate proxy's key doesn't help without identity."""
        p = grant_conventional(
            ALICE, shared, (Grantee(principals=(BOB,)),),
            START, START + 100, rng=rng,
        )
        presented = present(p, SERVER, clock.now(), "read")  # PoP only
        with pytest.raises(RestrictionViolation):
            verifier.verify(presented, req(claimant=None))


class TestCascadeVerification:
    def test_bearer_cascade_chain(self, clock, shared, verifier, rng):
        p = grant_conventional(ALICE, shared, (), START, START + 100, rng=rng)
        p2 = cascade(p, (), START, START + 100, rng=rng)
        p3 = cascade(p2, (), START, START + 100, rng=rng)
        result = verifier.verify(
            present(p3, SERVER, clock.now(), "read"), req()
        )
        assert result.chain_length == 3
        assert result.grantor == ALICE
        assert result.audit_trail == ()  # bearer cascades are anonymous

    def test_old_key_cannot_use_new_chain(self, clock, shared, verifier, rng):
        """After cascading, the original key does not satisfy the new chain."""
        p = grant_conventional(ALICE, shared, (), START, START + 100, rng=rng)
        p2 = cascade(p, (Quota(currency="c", limit=1),), START, START + 100, rng=rng)
        # Proof made with p's key but p2's certificates.
        stale = present(p, SERVER, clock.now(), "read")
        forged = PresentedProxy(
            certificates=p2.certificates, proof=stale.proof
        )
        with pytest.raises(ProxyVerificationError):
            verifier.verify(forged, req())

    def test_truncated_chain_detected(self, clock, shared, verifier, rng):
        """Dropping the re-restricted link leaves a proof that can't verify."""
        p = grant_conventional(ALICE, shared, (), START, START + 100, rng=rng)
        p2 = cascade(p, (Quota(currency="c", limit=1),), START, START + 100, rng=rng)
        # Present only the root cert, but sign with the cascaded key.
        proof_presented = present(p2, SERVER, clock.now(), "read")
        forged = PresentedProxy(
            certificates=p.certificates, proof=proof_presented.proof
        )
        with pytest.raises(ProxyVerificationError):
            verifier.verify(forged, req())

    def test_max_chain_length(self, clock, shared, rng):
        verifier = ProxyVerifier(
            server=SERVER,
            crypto=SharedKeyCrypto({ALICE: shared}),
            clock=clock,
            max_chain_length=3,
        )
        p = grant_conventional(ALICE, shared, (), START, START + 100, rng=rng)
        for _ in range(3):
            p = cascade(p, (), START, START + 100, rng=rng)
        with pytest.raises(ProxyVerificationError):
            verifier.verify(present(p, SERVER, clock.now(), "read"), req())

    def test_delegate_cascade_builds_audit_trail(
        self, clock, shared, verifier, rng
    ):
        """§3.4: delegate cascades record intermediates."""
        bob_identity = schnorr.generate_keypair(TEST_GROUP, rng=rng)
        verifier.crypto.add_shared_key  # (shared-key context)
        # Bob's identity must be resolvable: register a shared key for him.
        bob_shared = SymmetricKey.generate(rng=rng)
        verifier.crypto.add_shared_key(BOB, bob_shared)

        p = grant_conventional(
            ALICE, shared, (Grantee(principals=(BOB,)),),
            START, START + 100, rng=rng,
        )
        from repro.crypto.signature import HmacSigner

        p2 = delegate_cascade(
            p, BOB, HmacSigner(key=bob_shared), CAROL,
            (), START, START + 100, rng=rng, group=TEST_GROUP,
        )
        presented = present(
            p2, SERVER, clock.now(), "read", prove_possession=True
        )
        result = verifier.verify(presented, req(claimant=CAROL))
        assert result.audit_trail == (BOB,)
        assert result.grantor == ALICE


class TestPublicKeyVerification:
    def test_public_chain(self, clock, rng):
        identity = schnorr.generate_keypair(TEST_GROUP, rng=rng)
        crypto = PublicKeyCrypto(
            directory={ALICE: SchnorrSigner(identity).verifier()}
        )
        verifier = ProxyVerifier(server=SERVER, crypto=crypto, clock=clock)
        p = grant_public(
            ALICE, SchnorrSigner(identity), (), START, START + 100,
            rng=rng, group=TEST_GROUP,
        )
        p2 = cascade(p, (), START, START + 100, rng=rng)
        result = verifier.verify(
            present(p2, SERVER, clock.now(), "read"), req()
        )
        assert result.grantor == ALICE

    def test_hybrid_binding(self, clock, rng):
        identity = schnorr.generate_keypair(TEST_GROUP, rng=rng)
        server_key = schnorr.generate_keypair(TEST_GROUP, rng=rng)
        crypto = PublicKeyCrypto(
            directory={ALICE: SchnorrSigner(identity).verifier()},
            own_schnorr=server_key,
        )
        verifier = ProxyVerifier(server=SERVER, crypto=crypto, clock=clock)
        p = grant_hybrid(
            ALICE, SchnorrSigner(identity), SERVER, server_key.public,
            (), START, START + 100, rng=rng,
        )
        result = verifier.verify(
            present(p, SERVER, clock.now(), "read"), req()
        )
        assert result.grantor == ALICE

    def test_hybrid_binding_wrong_server_rejected(self, clock, rng):
        """§6.1: the hybrid proxy key is locked to one end-server."""
        identity = schnorr.generate_keypair(TEST_GROUP, rng=rng)
        server_key = schnorr.generate_keypair(TEST_GROUP, rng=rng)
        crypto = PublicKeyCrypto(
            directory={ALICE: SchnorrSigner(identity).verifier()},
            own_schnorr=server_key,
        )
        verifier = ProxyVerifier(server=SERVER, crypto=crypto, clock=clock)
        p = grant_hybrid(
            ALICE, SchnorrSigner(identity), PrincipalId("elsewhere"),
            server_key.public, (), START, START + 100, rng=rng,
        )
        with pytest.raises(ProxyVerificationError):
            verifier.verify(present(p, SERVER, clock.now(), "read"), req())

    def test_revocation_by_directory_removal(self, clock, rng):
        """§3.1: revoking the grantor's rights kills derived capabilities."""
        identity = schnorr.generate_keypair(TEST_GROUP, rng=rng)
        crypto = PublicKeyCrypto(
            directory={ALICE: SchnorrSigner(identity).verifier()}
        )
        verifier = ProxyVerifier(server=SERVER, crypto=crypto, clock=clock)
        p = grant_public(
            ALICE, SchnorrSigner(identity), (), START, START + 100,
            rng=rng, group=TEST_GROUP,
        )
        verifier.verify(present(p, SERVER, clock.now(), "read"), req())
        crypto.remove_principal(ALICE)
        with pytest.raises(ProxyVerificationError):
            verifier.verify(present(p, SERVER, clock.now(), "read"), req())

    @pytest.mark.parametrize(
        "key_wire",
        [
            {"p": 23, "y": 4},
            {"p": RFC3526_PRIME_2048, "y": 4},
            {"p": TEST_GROUP.p, "y": TEST_GROUP.p - 1},
        ],
        ids=["tiny-modulus", "old-safe-prime", "y-out-of-range"],
    )
    def test_unusable_embedded_key_is_a_normal_rejection(
        self, clock, rng, key_wire
    ):
        """A validly signed link whose embedded proxy key names a modulus
        outside the named-group table (or an out-of-range ``y``) is
        rejected like any bad link — the modulus is never computed in."""
        identity = schnorr.generate_keypair(TEST_GROUP, rng=rng)
        crypto = PublicKeyCrypto(
            directory={ALICE: SchnorrSigner(identity).verifier()}
        )
        verifier = ProxyVerifier(server=SERVER, crypto=crypto, clock=clock)
        cert = build_certificate(
            grantor=ALICE,
            restrictions=(),
            key_binding=PublicKeyBinding(scheme="schnorr", key_wire=key_wire),
            issued_at=START,
            expires_at=START + 100,
            link_kind=LINK_ROOT,
            signer=SchnorrSigner(identity),
            rng=rng,
        )
        forged = Proxy(
            certificates=(cert,),
            proxy_key=schnorr.generate_keypair(TEST_GROUP, rng=rng),
        )
        with pytest.raises(
            ProxyVerificationError, match="unusable schnorr key"
        ):
            verifier.verify(
                present(forged, SERVER, clock.now(), "read"), req()
            )

    @pytest.mark.parametrize("prefetched", [True, False])
    def test_directory_key_outside_subgroup_is_rejected(
        self, clock, rng, prefetched
    ):
        """A published identity key that is not in the order-q subgroup
        never gets a precomputed table and never verifies anything — a
        typed rejection, with or without a prefetch ahead of it."""
        identity = schnorr.generate_keypair(TEST_GROUP, rng=rng)
        stray = schnorr.SchnorrPublicKey(group_p=TEST_GROUP.p, y=2)
        assert pow(stray.y, TEST_GROUP.q, TEST_GROUP.p) != 1
        crypto = PublicKeyCrypto(
            directory={ALICE: SchnorrVerifier(public=stray)}
        )
        telemetry = Telemetry()
        verifier = (PrefetchingVerifier if prefetched else ProxyVerifier)(
            server=SERVER, crypto=crypto, clock=clock, telemetry=telemetry
        )
        p = grant_public(
            ALICE, SchnorrSigner(identity), (), START, START + 100,
            rng=rng, group=TEST_GROUP,
        )
        before = schnorr.registered_key_count()
        with pytest.raises(ProxyVerificationError) as refused:
            verifier.verify(present(p, SERVER, clock.now(), "read"), req())
        assert type(refused.value) is ProxyVerificationError
        assert str(refused.value) == (
            "link 0: grantor key refused: "
            "schnorr public key outside the order-q subgroup"
        )
        assert schnorr.registered_key_count() == before
        outcomes = telemetry.metrics.counter("proxy_verifications_total")
        assert outcomes.value(outcome="ProxyVerificationError") == 1
        assert outcomes.total() == 1


@pytest.mark.parametrize(
    "prefetched", [True, False], ids=["batched", "sequential"]
)
class TestProxyKeyPromotion:
    """A proxy key earns a table when the chain cache shows it recurs.

    The possession proof is the one signature no cache can absorb, so the
    embedded key it is made under gets a comb on the second warm bearer
    presentation — and at no other time, and never at the price of a
    check.  Every case runs through both entry points: ``sequential``
    hands each presentation straight to ``verify``, ``batched`` puts the
    aio prefetcher's ``verify_batch`` pass in front of it."""

    @pytest.fixture(autouse=True)
    def identity(self, rng):
        """ALICE's identity key, registered up front so table counts
        below move only with proxy keys."""
        schnorr.clear_key_tables()
        identity = schnorr.generate_keypair(TEST_GROUP, rng=rng)
        schnorr.register_verification_key(identity.public)
        yield identity
        schnorr.clear_key_tables()

    @staticmethod
    def _verifier(clock, identity, prefetched, config=DEFAULT_CONFIG,
                  telemetry=None):
        crypto = PublicKeyCrypto(
            directory={ALICE: SchnorrSigner(identity).verifier()}
        )
        verifier = (PrefetchingVerifier if prefetched else ProxyVerifier)(
            server=SERVER, crypto=crypto, clock=clock, telemetry=telemetry,
            cache_config=config,
        )
        return verifier, crypto

    @staticmethod
    def _grant(identity, rng, restrictions=(), lifetime=100):
        return grant_public(
            ALICE, SchnorrSigner(identity), restrictions,
            START, START + lifetime, rng=rng, group=TEST_GROUP,
        )

    @staticmethod
    def _has_table(holder):
        """Does this proxy's key (or this identity keypair) hold a table?"""
        key = getattr(holder, "proxy_key", holder).public
        return schnorr._KEY_TABLES.get((key.group_p, key.y)) is not None

    def test_second_warm_presentation_promotes_once(
        self, clock, rng, identity, prefetched
    ):
        telemetry = Telemetry()
        verifier, _ = self._verifier(
            clock, identity, prefetched, telemetry=telemetry
        )
        p = self._grant(identity, rng)
        counts = []
        for _ in range(4):
            verifier.verify(present(p, SERVER, clock.now(), "read"), req())
            counts.append(schnorr.registered_key_count())
        assert counts == [1, 2, 2, 2]
        assert self._has_table(p)
        promoted = telemetry.metrics.counter("vcache.keytable.promoted")
        assert promoted.total() == 1

    def test_delegate_use_never_promotes(
        self, clock, rng, identity, prefetched
    ):
        verifier, _ = self._verifier(clock, identity, prefetched)
        p = self._grant(identity, rng, (Grantee(principals=(CAROL,)),))
        for _ in range(3):
            presented = present(
                p, SERVER, clock.now(), "read",
                claimant=CAROL, prove_possession=False,
            )
            verified = verifier.verify(presented, req(claimant=CAROL))
            assert not verified.bearer
        assert schnorr.registered_key_count() == 1

    def test_without_a_chain_cache_nothing_promotes(
        self, clock, rng, identity, prefetched
    ):
        verifier, _ = self._verifier(
            clock, identity, prefetched, config=DISABLED_CONFIG
        )
        p = self._grant(identity, rng)
        for _ in range(3):
            verifier.verify(present(p, SERVER, clock.now(), "read"), req())
        assert schnorr.registered_key_count() == 1

    def test_failed_presentations_never_promote(
        self, clock, rng, identity, prefetched
    ):
        verifier, crypto = self._verifier(clock, identity, prefetched)
        p = self._grant(identity, rng, lifetime=10)
        verifier.verify(present(p, SERVER, clock.now(), "read"), req())
        # Tampered: a different certificate is a different chain — cold.
        extended = dataclasses.replace(
            p.certificates[0], expires_at=START + 10_000
        )
        tampered = dataclasses.replace(
            present(p, SERVER, clock.now(), "read"), certificates=(extended,)
        )
        with pytest.raises(ProxyVerificationError):
            verifier.verify(tampered, req())
        # Failed walk: the grantor is gone before the cache is consulted.
        crypto.remove_principal(ALICE)
        with pytest.raises(ProxyVerificationError):
            verifier.verify(present(p, SERVER, clock.now(), "read"), req())
        crypto.add_principal(ALICE, SchnorrSigner(identity).verifier())
        # Expired: freshness runs on every link, hot or cold.
        clock.advance(11)
        with pytest.raises(ProxyExpiredError):
            verifier.verify(present(p, SERVER, clock.now(), "read"), req())
        assert schnorr.registered_key_count() == 1
        assert not self._has_table(p)

    def test_every_proof_check_survives_promotion(
        self, clock, rng, identity, prefetched
    ):
        verifier, _ = self._verifier(clock, identity, prefetched)
        p, other = self._grant(identity, rng), self._grant(identity, rng)
        for proxy in (p, other, p, other):
            verifier.verify(
                present(proxy, SERVER, clock.now(), "read"), req()
            )
        assert self._has_table(p) and self._has_table(other)

        good = present(p, SERVER, clock.now(), "read")
        signature = bytearray(good.proof.signature)
        signature[40] ^= 0x01
        bad_proof = dataclasses.replace(
            good, proof=dataclasses.replace(
                good.proof, signature=bytes(signature)
            ),
        )
        with pytest.raises(ProxyVerificationError) as promoted:
            verifier.verify(bad_proof, req())
        stolen = dataclasses.replace(
            good, proof=present(other, SERVER, clock.now(), "read").proof
        )
        with pytest.raises(
            ProxyVerificationError, match="possession proof invalid"
        ):
            verifier.verify(stolen, req())
        verifier.verify(good, req())
        with pytest.raises(ReplayError, match="possession proof replayed"):
            verifier.verify(good, req())

        # The same tampered proof against a verifier with no tables at all.
        schnorr.clear_key_tables()
        native, _ = self._verifier(clock, identity, prefetched)
        with pytest.raises(ProxyVerificationError) as unpromoted:
            native.verify(bad_proof, req())
        assert str(promoted.value) == str(unpromoted.value)
        assert type(promoted.value) is type(unpromoted.value)

    def test_out_of_subgroup_embedded_key_stays_native(
        self, clock, rng, identity, prefetched, monkeypatch
    ):
        """``-g**x`` has order 2q: proofs under it verify whenever the
        challenge is odd, exactly as before promotion existed.  It is
        tested for membership once, never tabulated, and registering it
        by hand is still refused."""
        p_, q = TEST_GROUP.p, TEST_GROUP.q
        honest = schnorr.generate_keypair(TEST_GROUP, rng=rng)
        stray = schnorr.SchnorrPrivateKey(
            group_p=p_, x=honest.x, y=p_ - honest.y
        )
        assert pow(stray.y, q, p_) != 1
        cert = build_certificate(
            grantor=ALICE,
            restrictions=(),
            key_binding=PublicKeyBinding(
                scheme="schnorr", key_wire=stray.public.to_wire()
            ),
            issued_at=START,
            expires_at=START + 100,
            link_kind=LINK_ROOT,
            signer=SchnorrSigner(identity),
            rng=rng,
        )
        proxy = Proxy(certificates=(cert,), proxy_key=stray)

        def present_with_odd_challenge():
            while True:
                presented = present(proxy, SERVER, clock.now(), "read")
                if presented.proof.signature[32] & 1:
                    return presented

        subgroup_tests = []

        def counting_pow(base, exponent, modulus):
            if (base, exponent) == (stray.y, q):
                subgroup_tests.append(base)
            return pow(base, exponent, modulus)

        monkeypatch.setattr(schnorr, "pow", counting_pow, raising=False)
        verifier, _ = self._verifier(clock, identity, prefetched)
        for _ in range(4):
            verified = verifier.verify(present_with_odd_challenge(), req())
            assert verified.bearer
        assert len(subgroup_tests) == 1
        assert schnorr.registered_key_count() == 1
        with pytest.raises(CryptoError, match="order-q subgroup"):
            schnorr.register_verification_key(stray.public)
        assert len(subgroup_tests) == 1

    def test_evicted_proxy_key_is_promoted_again(
        self, clock, rng, identity, prefetched
    ):
        telemetry = Telemetry()
        verifier, _ = self._verifier(
            clock, identity, prefetched, telemetry=telemetry
        )
        p = self._grant(identity, rng)
        for _ in range(2):
            verifier.verify(present(p, SERVER, clock.now(), "read"), req())
        assert self._has_table(p)

        assert schnorr._MAX_KEY_TABLES == 1024
        fillers = [
            schnorr.generate_keypair(TEST_GROUP, rng=rng) for _ in range(1024)
        ]
        # Least recently used first: the identity key, then the proxy key.
        for filler in fillers[:1022]:
            schnorr.register_verification_key(filler.public)
        assert schnorr.registered_key_count() == 1024
        assert self._has_table(identity) and self._has_table(p)
        schnorr.register_verification_key(fillers[1022].public)
        assert not self._has_table(identity) and self._has_table(p)
        schnorr.register_verification_key(fillers[1023].public)
        assert not self._has_table(p) and self._has_table(fillers[0])
        assert schnorr.registered_key_count() == 1024

        # The chain cache is still warm, so the very next presentation
        # rebuilds the table (the walk re-registers ALICE too).
        verifier.verify(present(p, SERVER, clock.now(), "read"), req())
        assert self._has_table(p)
        assert schnorr.registered_key_count() == 1024
        metrics = telemetry.metrics
        assert metrics.counter("vcache.keytable.promoted").total() == 2
        evicted = metrics.counter("vcache.evictions").value(layer="keytable")
        assert evicted == 2


class TestTampering:
    def test_loosened_restriction_rejected(self, clock, shared, verifier, rng):
        p = grant_conventional(
            ALICE, shared, (Quota(currency="c", limit=1),),
            START, START + 100, rng=rng,
        )
        loosened_cert = dataclasses.replace(
            p.certificates[0],
            restrictions=(Quota(currency="c", limit=10**9),),
        )
        forged = PresentedProxy(
            certificates=(loosened_cert,),
            proof=present(p, SERVER, clock.now(), "read").proof,
        )
        with pytest.raises(ProxyVerificationError):
            verifier.verify(forged, req(amounts={"c": 10**6}))

    def test_extended_expiry_rejected(self, clock, shared, verifier, rng):
        p = grant_conventional(ALICE, shared, (), START, START + 10, rng=rng)
        extended_cert = dataclasses.replace(
            p.certificates[0], expires_at=START + 10_000
        )
        forged = PresentedProxy(
            certificates=(extended_cert,),
            proof=present(p, SERVER, clock.now(), "read").proof,
        )
        with pytest.raises(ProxyVerificationError):
            verifier.verify(forged, req())

    def test_swapped_grantor_rejected(self, clock, shared, verifier, rng):
        p = grant_conventional(ALICE, shared, (), START, START + 100, rng=rng)
        renamed = dataclasses.replace(p.certificates[0], grantor=BOB)
        verifier.crypto.add_shared_key(BOB, shared)
        forged = PresentedProxy(
            certificates=(renamed,),
            proof=present(p, SERVER, clock.now(), "read").proof,
        )
        with pytest.raises(ProxyVerificationError):
            verifier.verify(forged, req())


class TestVerifierEdgeCases:
    @pytest.fixture
    def setup(self, rng):
        shared = SymmetricKey.generate(rng=rng)
        clock = SimulatedClock(START)
        verifier = ProxyVerifier(
            server=SERVER, crypto=SharedKeyCrypto({ALICE: shared}), clock=clock
        )
        proxy = grant_conventional(ALICE, shared, (), START, START + 100, rng)
        return shared, clock, verifier, proxy

    def test_sealed_fingerprint_mismatch_rejected(self, setup, rng):
        shared, clock, verifier, proxy = setup
        cert = proxy.certificates[0]
        bad_binding = SealedKeyBinding(
            box=cert.key_binding.box, fingerprint=b"x" * 16
        )
        forged = dataclasses.replace(cert, key_binding=bad_binding)
        presented = PresentedProxy(
            certificates=(forged,),
            proof=present(proxy, SERVER, clock.now(), "read").proof,
        )
        with pytest.raises(ProxyVerificationError):
            verifier.verify(
                presented, RequestContext(server=SERVER, operation="read")
            )

    def test_unknown_public_binding_scheme(self, setup, rng):
        shared, clock, verifier, proxy = setup
        cert = proxy.certificates[0]
        weird = PublicKeyBinding(scheme="post-quantum", key_wire={"n": 1})
        forged = dataclasses.replace(cert, key_binding=weird)
        presented = PresentedProxy(
            certificates=(forged,),
            proof=present(proxy, SERVER, clock.now(), "read").proof,
        )
        with pytest.raises(ProxyVerificationError):
            verifier.verify(
                presented, RequestContext(server=SERVER, operation="read")
            )

    def test_shared_key_crypto_rejects_hybrid(self, setup):
        shared, clock, verifier, proxy = setup
        with pytest.raises(ProxyVerificationError):
            verifier.crypto.decrypt_hybrid("schnorr-ies", b"box")

    def test_public_crypto_rejects_sealed_root(self, rng):
        crypto = PublicKeyCrypto()
        with pytest.raises(ProxyVerificationError):
            crypto.unseal_root_key(ALICE, b"box")

    def test_public_crypto_without_private_keys(self, rng):
        crypto = PublicKeyCrypto()
        with pytest.raises(ProxyVerificationError):
            crypto.decrypt_hybrid("schnorr-ies", b"box")
        with pytest.raises(ProxyVerificationError):
            crypto.decrypt_hybrid("rsa-oaep", b"box")
        with pytest.raises(ProxyVerificationError):
            crypto.decrypt_hybrid("unknown-scheme", b"box")


def test_request_context_copies_are_what_replace_gives():
    base = req(target="a", amounts={"usd": 1})
    link = base.for_link(ALICE, frozenset({BOB}), 5.0)
    assert link == dataclasses.replace(
        base, grantor=ALICE, exercisers=frozenset({BOB}), link_expires_at=5.0
    )
    assert base.grantor is None and base.link_expires_at == float("inf")
    moved = base.with_values(server=BOB, time=3.0)
    assert moved == dataclasses.replace(base, server=BOB, time=3.0)


def test_a_possession_proof_body_is_encoded_once(
    clock, shared, rng, monkeypatch
):
    """The end server checks the proof's signature over its body and keys
    its replay cache on the same bytes: one encode for both."""
    from repro.core import presentation
    from repro.core.presentation import PossessionProof

    p = grant_conventional(ALICE, shared, (), START, START + 100, rng=rng)
    sent = present(p, SERVER, clock.now(), "read").proof
    arrived = PossessionProof.from_wire(sent.to_wire())
    encoded = []
    encode = presentation.encode
    monkeypatch.setattr(
        presentation, "encode", lambda value: encoded.append(value) or encode(value)
    )
    assert arrived.body_bytes() == sent.body_bytes()
    arrived.replay_key()
    assert arrived.body_bytes() is arrived.body_bytes()
    assert len(encoded) == 1
