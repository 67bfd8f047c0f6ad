"""Print server (quota currency), name server (Fig. 3 message 0),
audit log (§3.4), and workload generators."""

import pytest

from repro.audit import AuditLog
from repro.core.restrictions import Grantee, Quota
from repro.crypto.rng import Rng
from repro.errors import ServiceError
from repro.kerberos.proxy_support import grant_via_credentials
from repro.services.nameserver import lookup
from repro.services.printserver import PAGES
from repro.testbed import Realm
from repro.workloads import (
    Zipf,
    delegation_subsets,
    payment_workload,
)
from repro.encoding.identifiers import PrincipalId


@pytest.fixture
def world():
    realm = Realm(seed=b"print-test")
    alice = realm.user("alice")
    ps = realm.print_server("printer")
    return realm, alice, ps


class TestPrintServer:
    def test_allocate_and_print(self, world):
        realm, alice, ps = world
        client = alice.client_for(ps.principal)
        client.request("allocate", args={"pages": 10})
        out = client.request(
            "print", "report.ps", amounts={PAGES: 4}
        )
        assert out["remaining"] == 6
        assert ps.jobs[0]["pages"] == 4

    def test_insufficient_allocation(self, world):
        realm, alice, ps = world
        client = alice.client_for(ps.principal)
        client.request("allocate", args={"pages": 2})
        with pytest.raises(ServiceError):
            client.request("print", "big.ps", amounts={PAGES: 3})

    def test_quota_restriction_caps_delegated_printing(self, world):
        """§7.4: a quota restriction caps a delegated job."""
        realm, alice, ps = world
        bob = realm.user("bob")
        alice.client_for(ps.principal).request(
            "allocate", args={"pages": 100}
        )
        creds = alice.kerberos.get_ticket(ps.principal)
        proxy = grant_via_credentials(
            creds,
            (Grantee(principals=(bob.principal,)), Quota(currency=PAGES, limit=5)),
            realm.clock.now(),
        )
        client = bob.client_for(ps.principal)
        out = client.request(
            "print", "small.ps", amounts={PAGES: 5}, proxy=proxy
        )
        assert out["remaining"] == 95
        from repro.errors import RestrictionViolation

        with pytest.raises(RestrictionViolation):
            client.request(
                "print", "big.ps", amounts={PAGES: 6}, proxy=proxy
            )

    def test_job_records_owner_and_submitter(self, world):
        realm, alice, ps = world
        bob = realm.user("bob")
        alice.client_for(ps.principal).request("allocate", args={"pages": 10})
        creds = alice.kerberos.get_ticket(ps.principal)
        proxy = grant_via_credentials(
            creds, (Grantee(principals=(bob.principal,)),), realm.clock.now()
        )
        bob.client_for(ps.principal).request(
            "print", "doc.ps", amounts={PAGES: 1}, proxy=proxy
        )
        job = ps.jobs[-1]
        assert job["owner"] == str(alice.principal)
        assert job["submitted_by"] == str(bob.principal)

    def test_zero_pages_rejected(self, world):
        realm, alice, ps = world
        client = alice.client_for(ps.principal)
        with pytest.raises(ServiceError):
            client.request("print", "empty.ps", amounts={})


class TestNameServer:
    def test_lookup_record(self):
        realm = Realm(seed=b"ns-test")
        ns = realm.name_server()
        fs = realm.file_server("files")
        azs = realm.authorization_server("authz")
        ns.publish(fs.principal, authorization_server=azs.principal)
        alice = realm.user("alice")
        record = lookup(
            realm.network, alice.principal, ns.principal, fs.principal
        )
        assert record["authorization_server"] == azs.principal.to_wire()

    def test_missing_record(self):
        realm = Realm(seed=b"ns-test2")
        ns = realm.name_server()
        alice = realm.user("alice")
        with pytest.raises(ServiceError):
            lookup(
                realm.network, alice.principal, ns.principal,
                realm.principal("unknown"),
            )


class TestAuditLog:
    def _verified(self, realm):
        from repro.core.evaluation import RequestContext
        from repro.kerberos.proxy_support import endorse

        alice = realm.user("a-user")
        bob = realm.user("b-user")
        fs = realm.file_server("audit-files")
        creds = alice.kerberos.get_ticket(fs.principal)
        proxy = grant_via_credentials(
            creds, (Grantee(principals=(bob.principal,)),), realm.clock.now()
        )
        carol = realm.user("c-user")
        endorsed = endorse(
            proxy, bob.kerberos.get_ticket(fs.principal), carol.principal,
            (), realm.clock.now(), realm.clock.now() + 100,
        )
        wire = endorsed.presentation(
            fs.principal, realm.clock.now(), "read", claimant=carol.principal
        )
        return fs, carol, alice, bob, fs.acceptor.accept(
            wire,
            RequestContext(
                server=fs.principal, operation="read",
                claimant=carol.principal,
            ),
        )

    def test_records_delegation_chain(self):
        realm = Realm(seed=b"audit-test")
        fs, carol, alice, bob, verified = self._verified(realm)
        log = AuditLog()
        record = log.record(
            realm.clock.now(), fs.principal, verified, "read", "doc/x"
        )
        assert record.grantor == alice.principal
        assert record.intermediates == (bob.principal,)
        assert record.claimant == carol.principal
        assert str(bob.principal) in record.describe()

    def test_involving_queries(self):
        realm = Realm(seed=b"audit-test2")
        fs, carol, alice, bob, verified = self._verified(realm)
        log = AuditLog()
        log.record(realm.clock.now(), fs.principal, verified, "read", None)
        for principal in (alice, bob, carol):
            assert len(log.involving(principal.principal)) == 1
        assert len(log.involving(realm.principal("stranger"))) == 0

    def test_anonymous_uses(self):
        from repro.core.verification import VerifiedProxy

        log = AuditLog()
        log.record(
            0.0,
            Realm(seed=b"x").principal("s"),
            VerifiedProxy(
                grantor=Realm(seed=b"x").principal("g"),
                claimant=None,
                audit_trail=(),
                expires_at=1.0,
                bearer=True,
                chain_length=2,
            ),
            "op",
            None,
        )
        assert len(log.anonymous_uses()) == 1


class TestWorkloads:
    def test_zipf_skews_to_low_ranks(self):
        z = Zipf(100, s=1.2, rng=Rng(seed=b"z"))
        samples = [z.sample() for _ in range(2000)]
        assert all(0 <= s < 100 for s in samples)
        head = sum(1 for s in samples if s < 10)
        assert head > len(samples) * 0.4  # heavy head

    def test_payment_workload(self):
        payments = payment_workload(
            200, n_clients=10, n_merchants=5, rng=Rng(seed=b"p")
        )
        assert len(payments) == 200
        assert all(0 <= p.payor < 10 for p in payments)
        assert all(0 <= p.payee < 5 for p in payments)
        assert all(p.amount >= 1 for p in payments)

    def test_delegation_subsets(self):
        subsets = delegation_subsets(50, 20, subset_size=3, rng=Rng(seed=b"d"))
        assert len(subsets) == 50
        assert all(len(s) == 3 for s in subsets)

    def test_deterministic_with_seed(self):
        a = payment_workload(50, 10, 5, rng=Rng(seed=b"same"))
        b = payment_workload(50, 10, 5, rng=Rng(seed=b"same"))
        assert a == b


class TestNameServerKeys:
    def test_public_key_record(self):
        """§6.1: end-server public keys via the name server."""
        from repro.crypto import schnorr
        from repro.crypto.schnorr_groups import TEST_GROUP

        realm = Realm(seed=b"ns-keys")
        ns = realm.name_server()
        fs = realm.file_server("files")
        key = schnorr.generate_keypair(TEST_GROUP)
        ns.publish(fs.principal, public_key=key.public.to_wire())
        alice = realm.user("alice")
        record = lookup(
            realm.network, alice.principal, ns.principal, fs.principal
        )
        recovered = schnorr.SchnorrPublicKey.from_wire(record["public_key"])
        assert recovered == key.public

    def test_record_overwrite(self):
        realm = Realm(seed=b"ns-overwrite")
        ns = realm.name_server()
        fs = realm.file_server("files")
        a1 = realm.authorization_server("a1")
        a2 = realm.authorization_server("a2")
        ns.publish(fs.principal, authorization_server=a1.principal)
        ns.publish(fs.principal, authorization_server=a2.principal)
        alice = realm.user("alice")
        record = lookup(
            realm.network, alice.principal, ns.principal, fs.principal
        )
        assert record["authorization_server"] == a2.principal.to_wire()


class TestAuditCorners:
    def test_describe_bearer(self):
        from repro.core.verification import VerifiedProxy

        log = AuditLog()
        record = log.record(
            5.0,
            PrincipalId("srv"),
            VerifiedProxy(
                grantor=PrincipalId("g"),
                claimant=None,
                audit_trail=(),
                expires_at=10.0,
                bearer=True,
                chain_length=1,
            ),
            "op",
            None,
        )
        text = record.describe()
        assert "<bearer>" in text
        assert "via" not in text

    def test_len_counts(self):
        from repro.core.verification import VerifiedProxy

        log = AuditLog()
        assert len(log) == 0
        for i in range(3):
            log.record(
                float(i),
                PrincipalId("srv"),
                VerifiedProxy(
                    grantor=PrincipalId("g"),
                    claimant=None,
                    audit_trail=(),
                    expires_at=10.0,
                    bearer=True,
                    chain_length=1,
                ),
                "op",
                None,
            )
        assert len(log) == 3


class TestQuotaByTransfer:
    @pytest.fixture
    def world(self):
        realm = Realm(seed=b"quota-transfer")
        alice = realm.user("alice")
        bank = realm.accounting_server("bank")
        bank.create_account("alice", alice.principal, {PAGES: 50})
        printer_owner = realm.user("printer-owner")
        ps = realm.print_server("printer")
        bank.create_account("printer", ps.principal)
        ps.accounting = ps.principal and None  # set below with identity
        # The print server uses its own Kerberos identity to query/transfer.
        from repro.kerberos.client import KerberosClient
        from repro.services.accounting import AccountingClient

        ps_key = realm.kdc.database.key_of(ps.principal)
        ps_kerberos = KerberosClient(
            ps.principal, ps_key, realm.network, realm.clock
        )
        ps.accounting = AccountingClient(ps_kerberos, bank.principal)
        ps.account_name = "printer"
        return realm, alice, bank, ps

    def test_unfunded_allocation_rejected(self, world):
        realm, alice, bank, ps = world
        client = alice.client_for(ps.principal)
        with pytest.raises(ServiceError):
            client.request("allocate", args={"pages": 10})

    def test_funded_allocation_and_print(self, world):
        realm, alice, bank, ps = world
        alice.accounting_client(bank.principal).transfer(
            "alice", "printer", PAGES, 10
        )
        client = alice.client_for(ps.principal)
        assert client.request("allocate", args={"pages": 10})["allocated"] == 10
        out = client.request("print", "doc.ps", amounts={PAGES: 4})
        assert out["remaining"] == 6

    def test_over_allocation_rejected(self, world):
        realm, alice, bank, ps = world
        alice.accounting_client(bank.principal).transfer(
            "alice", "printer", PAGES, 10
        )
        client = alice.client_for(ps.principal)
        client.request("allocate", args={"pages": 10})
        with pytest.raises(ServiceError):
            client.request("allocate", args={"pages": 1})

    def test_release_returns_funds(self, world):
        """§4: 'transferring the funds back when the resource is released.'"""
        realm, alice, bank, ps = world
        alice.accounting_client(bank.principal).transfer(
            "alice", "printer", PAGES, 10
        )
        client = alice.client_for(ps.principal)
        client.request("allocate", args={"pages": 10})
        client.request(
            "release", args={"pages": 4, "to_account": "alice"}
        )
        assert bank.accounts["alice"].balance(PAGES) == 44
        assert bank.accounts["printer"].balance(PAGES) == 6
        out = client.request("remaining")
        assert out["remaining"] == 6

    def test_cannot_release_more_than_held(self, world):
        realm, alice, bank, ps = world
        client = alice.client_for(ps.principal)
        with pytest.raises(ServiceError):
            client.request(
                "release", args={"pages": 1, "to_account": "alice"}
            )
