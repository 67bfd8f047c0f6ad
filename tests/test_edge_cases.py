"""Edge cases across subsystems: error paths, malformed inputs, boundaries."""

import dataclasses

import pytest

from repro.clock import SimulatedClock
from repro.core.certificate import (
    HybridKeyBinding,
    PublicKeyBinding,
    SealedKeyBinding,
)
from repro.core.evaluation import RequestContext
from repro.core.presentation import PresentedProxy, present
from repro.core.proxy import grant_conventional
from repro.core.verification import (
    ProxyVerifier,
    PublicKeyCrypto,
    SharedKeyCrypto,
)
from repro.crypto.keys import SymmetricKey
from repro.encoding.identifiers import PrincipalId
from repro.errors import (
    AuthorizationDenied,
    ProxyVerificationError,
    ServiceError,
    UnknownAccountError,
)
from repro.testbed import Realm

ALICE = PrincipalId("alice")
SERVER = PrincipalId("server")
START = 1_000_000.0


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


class TestEndServerEdgeCases:
    @pytest.fixture
    def world(self):
        realm = Realm(seed=b"edge-endserver")
        alice = realm.user("alice")
        fs = realm.file_server("files")
        fs.grant_owner(alice.principal)
        fs.put("doc", b"data")
        return realm, alice, fs

    def test_unknown_session_id(self, world):
        realm, alice, fs = world
        from repro.net.message import raise_if_error

        with pytest.raises(ServiceError):
            raise_if_error(
                realm.network.send(
                    alice.principal, fs.principal, "request",
                    {
                        "operation": "read", "target": "doc",
                        "session_id": b"bogus-session-id", "args": {},
                        "amounts": {},
                    },
                )
            )

    def test_group_proxy_from_wrong_server_rejected(self, world):
        """A group proxy must be granted by the group's own server (§3.3)."""
        realm, alice, fs = world
        from repro.encoding.identifiers import GroupId
        from repro.kerberos.proxy_support import grant_via_credentials
        from repro.core.restrictions import GroupMembership

        impostor_group = GroupId(
            server=realm.principal("real-group-server"), group="staff"
        )
        # alice (not the group server) mints a proxy claiming membership.
        creds = alice.kerberos.get_ticket(fs.principal)
        fake = grant_via_credentials(
            creds,
            (GroupMembership(groups=(impostor_group,)),),
            realm.clock.now(),
        )
        client = alice.client_for(fs.principal)
        with pytest.raises(ProxyVerificationError):
            client.request(
                "read", "doc", group_proxies=[(impostor_group, fake)]
            )

    def test_malformed_request_payload(self, world):
        realm, alice, fs = world
        from repro.net.message import is_error

        reply = realm.network.send(
            alice.principal, fs.principal, "request", {"no": "operation"}
        )
        assert is_error(reply)

    def test_handler_exception_becomes_error_payload(self, world):
        realm, alice, fs = world

        def broken(request):
            raise ServiceError("deliberate")

        fs.register_operation("boom", broken)
        client = alice.client_for(fs.principal)
        with pytest.raises(ServiceError, match="deliberate"):
            client.request("boom")


class TestAccountingEdgeCases:
    @pytest.fixture
    def world(self):
        realm = Realm(seed=b"edge-acct")
        alice = realm.user("alice")
        bank = realm.accounting_server("bank")
        bank.create_account("alice", alice.principal, {"dollars": 10})
        return realm, alice, bank

    def test_transfer_to_missing_account(self, world):
        realm, alice, bank = world
        with pytest.raises(UnknownAccountError):
            alice.accounting_client(bank.principal).transfer(
                "alice", "ghost", "dollars", 1
            )

    def test_bad_target_format(self, world):
        realm, alice, bank = world
        from repro.net.message import raise_if_error

        client = alice.client_for(bank.principal)
        with pytest.raises(ServiceError):
            client.request("balance", target="not-an-account-target")

    def test_deposit_check_drawn_on_self_via_deposit_op(self, world):
        """Same-server checks must use the debit path, not deposit-check."""
        realm, alice, bank = world
        bob = realm.user("bob")
        bank.create_account("bob", bob.principal)
        check = alice.accounting_client(bank.principal).write_check(
            "alice", bob.principal, "dollars", 1
        )
        from repro.errors import CheckError
        from repro.kerberos.proxy_support import endorse

        creds = bob.kerberos.get_ticket(bank.principal)
        endorsed = endorse(
            check.bundle, creds, bank.principal, (),
            realm.clock.now(), check.expires_at,
        )
        client = bob.client_for(bank.principal)
        with pytest.raises(CheckError):
            client.request(
                "deposit-check",
                target="account:bob",
                args={
                    "bundle": endorsed.transferable(),
                    "payor_server": bank.principal.to_wire(),
                    "payor_account": "alice",
                    "currency": "dollars",
                    "amount": 1,
                    "expires_at": check.expires_at,
                    "payee_account": "bob",
                },
            )

    def test_debit_without_proxy_denied(self, world):
        realm, alice, bank = world
        client = alice.client_for(bank.principal)
        with pytest.raises(AuthorizationDenied):
            client.request(
                "debit", target="account:alice",
                args={
                    "currency": "dollars", "amount": 1,
                    "credit_account": "alice",
                },
                amounts={"dollars": 1},
            )

    def test_mismatched_amount_declaration(self, world):
        realm, alice, bank = world
        bob = realm.user("bob")
        bank.create_account("bob", bob.principal)
        check = alice.accounting_client(bank.principal).write_check(
            "alice", bob.principal, "dollars", 5
        )
        from repro.errors import CheckError
        from repro.services.checks import account_target

        client = bob.client_for(bank.principal)
        with pytest.raises(CheckError):
            client.request(
                "debit",
                target=account_target(check.payor_account),
                args={
                    "currency": "dollars",
                    "amount": 5,
                    "credit_account": "bob",
                },
                amounts={"dollars": 3},  # declared != requested
                proxy=check.bundle,
            )


class TestKerberosEdgeCases:
    def test_tgs_proxy_requires_symmetric_key(self):
        """A Schnorr-keyed proxy cannot ride the TGS proxy exchange."""
        realm = Realm(seed=b"edge-krb")
        alice = realm.user("alice")
        bob = realm.user("bob")
        fs = realm.file_server("files")
        tgt = alice.kerberos.login()
        bob.kerberos.login()

        from repro.core.proxy import grant_public
        from repro.crypto import schnorr
        from repro.crypto.schnorr_groups import TEST_GROUP
        from repro.crypto.signature import SchnorrSigner
        from repro.errors import ReproError

        identity = schnorr.generate_keypair(TEST_GROUP)
        pk_proxy = grant_public(
            alice.principal, SchnorrSigner(identity), (),
            realm.clock.now(), realm.clock.now() + 100, group=TEST_GROUP,
        )
        with pytest.raises(ReproError):
            bob.kerberos.redeem_tgs_proxy(
                tgt.ticket, pk_proxy, fs.principal
            )

    def test_cross_tgt_reuse_after_expiry(self):
        from repro.testbed import federation

        realms = federation(["XA.ORG", "XB.ORG"], seed=b"edge-cross")
        alice = realms["XA.ORG"].user("alice")
        srv = realms["XB.ORG"].file_server("srv")
        alice.kerberos.get_ticket(srv.principal)
        # Push past every lifetime; the client must transparently redo the
        # whole chain (login, cross TGT, remote TGS).
        realms["XA.ORG"].clock.advance(9 * 3600)
        creds = alice.kerberos.get_ticket(srv.principal)
        assert creds.expires_at > realms["XA.ORG"].clock.now()


class TestMetricsEdgeCases:
    def test_delta_math(self, rng):
        from repro.net import Network

        clock = SimulatedClock(START)
        network = Network(clock, rng=rng)
        network.register(SERVER, lambda m: {"ok": True})
        s0 = network.metrics.snapshot()
        network.send(ALICE, SERVER, "a", {})
        s1 = network.metrics.snapshot()
        network.send(ALICE, SERVER, "b", {})
        delta01 = s0.delta_to(s1)
        delta12 = network.metrics.delta_since(s1)
        assert delta01.messages == 2
        assert delta12.messages == 2
        assert set(delta12.by_type) == {"b", "b-reply"}

    def test_wire_size_positive_and_monotone(self):
        from repro.net.message import Message

        small = Message(
            source=ALICE, destination=SERVER, msg_type="t", payload={}
        )
        big = Message(
            source=ALICE, destination=SERVER, msg_type="t",
            payload={"data": b"x" * 1000},
        )
        assert 0 < small.wire_size() < big.wire_size()
