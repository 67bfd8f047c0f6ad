"""Proxy certificates (Fig. 1/6) and proxy granting/cascading (§2, §3.4)."""

import pytest

from repro.core.certificate import (
    LINK_CASCADE,
    LINK_DELEGATE,
    LINK_ROOT,
    HybridKeyBinding,
    ProxyCertificate,
    PublicKeyBinding,
    SealedKeyBinding,
    build_certificate,
    key_binding_from_wire,
)
from repro.core.chain import describe
from repro.core.proxy import (
    Proxy,
    cascade,
    delegate_cascade,
    grant_conventional,
    grant_hybrid,
    grant_public,
    possession_signer,
)
from repro.core.restrictions import Grantee, Quota
from repro.crypto import schnorr
from repro.crypto.keys import SymmetricKey
from repro.crypto.schnorr_groups import TEST_GROUP
from repro.crypto.signature import HmacSigner, SchnorrSigner
from repro.encoding.identifiers import PrincipalId
from repro.errors import DecodingError, DelegationError, ProxyError

ALICE = PrincipalId("alice")
BOB = PrincipalId("bob")
SERVER = PrincipalId("server")
NOW = 1000.0
LATER = 2000.0


@pytest.fixture
def shared(rng):
    return SymmetricKey.generate(rng=rng)


class TestCertificate:
    def test_build_and_wire_round_trip(self, shared, rng):
        signer = HmacSigner(key=shared)
        binding = SealedKeyBinding(box=b"sealed", fingerprint=b"f" * 16)
        cert = build_certificate(
            ALICE, (Quota(currency="x", limit=1),), binding, NOW, LATER,
            LINK_ROOT, signer, rng=rng,
        )
        again = ProxyCertificate.from_bytes(cert.to_bytes())
        assert again == cert
        signer.verify(again.body_bytes(), again.signature)

    def test_signature_covers_restrictions(self, shared, rng):
        signer = HmacSigner(key=shared)
        binding = SealedKeyBinding(box=b"s", fingerprint=b"f" * 16)
        cert = build_certificate(
            ALICE, (Quota(currency="x", limit=1),), binding, NOW, LATER,
            LINK_ROOT, signer, rng=rng,
        )
        # Rebuild with a loosened restriction but the old signature.
        import dataclasses

        forged = dataclasses.replace(
            cert, restrictions=(Quota(currency="x", limit=10**9),)
        )
        from repro.errors import SignatureError

        with pytest.raises(SignatureError):
            signer.verify(forged.body_bytes(), forged.signature)

    def test_bad_link_kind_rejected(self, shared):
        binding = SealedKeyBinding(box=b"s", fingerprint=b"f" * 16)
        with pytest.raises(ProxyError):
            ProxyCertificate(
                grantor=ALICE,
                restrictions=(),
                key_binding=binding,
                issued_at=NOW,
                expires_at=LATER,
                link_kind="bogus",
                nonce=b"n" * 16,
                signature=b"s",
            )

    def test_expiry_before_issue_rejected(self):
        binding = SealedKeyBinding(box=b"s", fingerprint=b"f" * 16)
        with pytest.raises(ProxyError):
            ProxyCertificate(
                grantor=ALICE,
                restrictions=(),
                key_binding=binding,
                issued_at=LATER,
                expires_at=NOW,
                link_kind=LINK_ROOT,
                nonce=b"n",
                signature=b"s",
            )

    def test_nonce_makes_grants_distinct(self, shared, rng):
        signer = HmacSigner(key=shared)
        binding = SealedKeyBinding(box=b"s", fingerprint=b"f" * 16)
        a = build_certificate(ALICE, (), binding, NOW, LATER, LINK_ROOT, signer, rng=rng)
        b = build_certificate(ALICE, (), binding, NOW, LATER, LINK_ROOT, signer, rng=rng)
        assert a.nonce != b.nonce

    def test_unknown_binding_kind_rejected(self):
        with pytest.raises(DecodingError):
            key_binding_from_wire({"kind": "nope"})

    def test_binding_wire_round_trips(self):
        for binding in (
            PublicKeyBinding(scheme="schnorr", key_wire={"p": 5, "y": 3}),
            SealedKeyBinding(box=b"b", fingerprint=b"f" * 16),
            HybridKeyBinding(
                box=b"b", scheme="schnorr-ies", server=SERVER,
                fingerprint=b"f" * 16,
            ),
        ):
            assert key_binding_from_wire(binding.to_wire()) == binding


class TestGranting:
    def test_conventional_grant_shape(self, shared, rng):
        p = grant_conventional(ALICE, shared, (), NOW, LATER, rng=rng)
        assert p.grantor == ALICE
        assert p.is_bearer
        assert isinstance(p.final.key_binding, SealedKeyBinding)
        assert isinstance(p.proxy_key, SymmetricKey)
        assert p.expires_at == LATER

    def test_conventional_proxy_key_not_in_clear(self, shared, rng):
        """§3.1: the proxy key never appears in the certificate bytes."""
        p = grant_conventional(ALICE, shared, (), NOW, LATER, rng=rng)
        assert p.proxy_key.secret not in p.final.to_bytes()

    def test_public_grant_shape(self, rng):
        identity = schnorr.generate_keypair(TEST_GROUP, rng=rng)
        p = grant_public(
            ALICE, SchnorrSigner(identity), (), NOW, LATER,
            rng=rng, group=TEST_GROUP,
        )
        assert isinstance(p.final.key_binding, PublicKeyBinding)
        assert isinstance(p.proxy_key, schnorr.SchnorrPrivateKey)

    def test_hybrid_grant_shape(self, rng):
        identity = schnorr.generate_keypair(TEST_GROUP, rng=rng)
        server_key = schnorr.generate_keypair(TEST_GROUP, rng=rng)
        p = grant_hybrid(
            ALICE, SchnorrSigner(identity), SERVER, server_key.public,
            (), NOW, LATER, rng=rng,
        )
        binding = p.final.key_binding
        assert isinstance(binding, HybridKeyBinding)
        assert binding.server == SERVER
        # The enclosed key is recoverable only with the server private key.
        recovered = schnorr.decrypt(server_key, binding.box)
        assert recovered == p.proxy_key.secret

    def test_delegate_classification(self, shared, rng):
        p = grant_conventional(
            ALICE, shared, (Grantee(principals=(BOB,)),), NOW, LATER, rng=rng
        )
        assert not p.is_bearer


class TestProxyStructure:
    def test_empty_chain_rejected(self):
        with pytest.raises(ProxyError):
            Proxy(certificates=())

    def test_chain_must_start_with_root(self, shared, rng):
        p = grant_conventional(ALICE, shared, (), NOW, LATER, rng=rng)
        p2 = cascade(p, (), NOW, LATER, rng=rng)
        with pytest.raises(ProxyError):
            Proxy(certificates=(p2.certificates[1],))

    def test_root_only_first(self, shared, rng):
        p = grant_conventional(ALICE, shared, (), NOW, LATER, rng=rng)
        with pytest.raises(ProxyError):
            Proxy(certificates=p.certificates + p.certificates)

    def test_without_key_strips_material(self, shared, rng):
        p = grant_conventional(ALICE, shared, (), NOW, LATER, rng=rng)
        stripped = p.without_key()
        assert stripped.proxy_key is None
        with pytest.raises(ProxyError):
            stripped.pop_signer()

    def test_all_restrictions_union(self, shared, rng):
        p = grant_conventional(
            ALICE, shared, (Quota(currency="a", limit=1),), NOW, LATER, rng=rng
        )
        p2 = cascade(p, (Quota(currency="b", limit=2),), NOW, LATER, rng=rng)
        kinds = [r.to_wire()["currency"] for r in p2.all_restrictions()]
        assert kinds == ["a", "b"]


class TestCascade:
    def test_symmetric_cascade_expiry_tightens(self, shared, rng):
        p = grant_conventional(ALICE, shared, (), NOW, LATER, rng=rng)
        p2 = cascade(p, (), NOW, NOW + 10, rng=rng)
        assert p2.expires_at == NOW + 10
        assert len(p2.certificates) == 2
        assert p2.final.link_kind == LINK_CASCADE

    def test_cascade_generates_fresh_key(self, shared, rng):
        p = grant_conventional(ALICE, shared, (), NOW, LATER, rng=rng)
        p2 = cascade(p, (), NOW, LATER, rng=rng)
        assert p2.proxy_key.secret != p.proxy_key.secret

    def test_schnorr_cascade(self, rng):
        identity = schnorr.generate_keypair(TEST_GROUP, rng=rng)
        p = grant_public(
            ALICE, SchnorrSigner(identity), (), NOW, LATER,
            rng=rng, group=TEST_GROUP,
        )
        p2 = cascade(p, (Quota(currency="x", limit=1),), NOW, LATER, rng=rng)
        assert isinstance(p2.proxy_key, schnorr.SchnorrPrivateKey)
        assert p2.proxy_key.y != p.proxy_key.y

    def test_cascade_without_key_rejected(self, shared, rng):
        p = grant_conventional(ALICE, shared, (), NOW, LATER, rng=rng)
        with pytest.raises(DelegationError):
            cascade(p.without_key(), (), NOW, LATER, rng=rng)

    def test_cascading_delegate_proxy_rejected(self, shared, rng):
        """§3.4: delegate proxies cascade via delegate_cascade only."""
        p = grant_conventional(
            ALICE, shared, (Grantee(principals=(BOB,)),), NOW, LATER, rng=rng
        )
        with pytest.raises(DelegationError):
            cascade(p, (), NOW, LATER, rng=rng)


class TestDelegateCascade:
    def _delegate_proxy(self, shared, rng):
        return grant_conventional(
            ALICE, shared, (Grantee(principals=(BOB,)),), NOW, LATER, rng=rng
        )

    def test_named_intermediate_can_delegate(self, shared, rng):
        p = self._delegate_proxy(shared, rng)
        bob_key = schnorr.generate_keypair(TEST_GROUP, rng=rng)
        p2 = delegate_cascade(
            p, BOB, SchnorrSigner(bob_key), PrincipalId("carol"),
            (), NOW, LATER, rng=rng, group=TEST_GROUP,
        )
        assert p2.final.link_kind == LINK_DELEGATE
        assert p2.final.grantor == BOB  # the audit trail (§3.4)
        grantees = [
            r for r in p2.final.restrictions if isinstance(r, Grantee)
        ]
        assert grantees and grantees[0].principals == (PrincipalId("carol"),)

    def test_unnamed_intermediate_rejected(self, shared, rng):
        p = self._delegate_proxy(shared, rng)
        carol_key = schnorr.generate_keypair(TEST_GROUP, rng=rng)
        with pytest.raises(DelegationError):
            delegate_cascade(
                p, PrincipalId("carol"), SchnorrSigner(carol_key),
                PrincipalId("dave"), (), NOW, LATER, rng=rng,
                group=TEST_GROUP,
            )

    def test_bearer_proxy_cannot_delegate_cascade(self, shared, rng):
        p = grant_conventional(ALICE, shared, (), NOW, LATER, rng=rng)
        bob_key = schnorr.generate_keypair(TEST_GROUP, rng=rng)
        with pytest.raises(DelegationError):
            delegate_cascade(
                p, BOB, SchnorrSigner(bob_key), PrincipalId("carol"),
                (), NOW, LATER, rng=rng, group=TEST_GROUP,
            )


class TestPossessionSigner:
    def test_symmetric(self, rng):
        key = SymmetricKey.generate(rng=rng)
        signer = possession_signer(key)
        signer.verify(b"m", signer.sign(b"m"))

    def test_schnorr(self, rng):
        key = schnorr.generate_keypair(TEST_GROUP, rng=rng)
        signer = possession_signer(key)
        signer.verify(b"m", signer.sign(b"m"))

    def test_unsupported(self):
        with pytest.raises(ProxyError):
            possession_signer("not-a-key")


class TestDescribe:
    def test_describe_notation(self, shared, rng):
        p = grant_conventional(
            ALICE, shared,
            (Quota(currency="c", limit=100), Grantee(principals=(BOB,))),
            0.0, 1000.0, rng=rng,
        )
        bob_shared = SymmetricKey.generate(rng=rng)
        p2 = delegate_cascade(
            p, BOB, HmacSigner(key=bob_shared), PrincipalId("carol"),
            (Quota(currency="c", limit=10),), 0.0, 500.0, rng=rng,
        )
        lines = describe(p2.certificates).splitlines()
        assert len(lines) == 2
        assert "Kproxy1" in lines[0]
        assert str(ALICE) in lines[0]
        assert "delegate" in lines[1]

    def test_describe_cascade_signs_with_previous_key(self, shared, rng):
        p = grant_conventional(ALICE, shared, (), 0.0, 1000.0, rng=rng)
        p2 = cascade(p, (Quota(currency="x", limit=1),), 0.0, 1000.0, rng=rng)
        lines = describe(p2.certificates).splitlines()
        assert "Kproxy1" in lines[1]  # Fig. 4: signed by previous proxy key
