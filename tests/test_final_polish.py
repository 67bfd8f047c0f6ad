"""Final coverage polish: name-server keys, audit corners, latency model,
identifier ordering, and service wiring details."""

import pytest

from repro.clock import SimulatedClock
from repro.crypto.rng import Rng
from repro.encoding.identifiers import AccountId, GroupId, PrincipalId
from repro.net.network import LatencyModel
from repro.testbed import Realm


class TestNameServerKeys:
    def test_public_key_record(self):
        """§6.1: end-server public keys via the name server."""
        from repro.crypto import schnorr
        from repro.crypto.schnorr_groups import TEST_GROUP
        from repro.services.nameserver import lookup

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
        from repro.services.nameserver import lookup

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


class TestLatencyModel:
    def test_zero_jitter_deterministic(self):
        model = LatencyModel(base=0.002, jitter=0.0)
        rng = Rng(seed=b"lat")
        assert model.sample(rng) == 0.002

    def test_jitter_bounded(self):
        model = LatencyModel(base=0.001, jitter=0.004)
        rng = Rng(seed=b"lat2")
        for _ in range(100):
            sample = model.sample(rng)
            assert 0.001 <= sample <= 0.005


class TestAuditCorners:
    def test_describe_bearer(self):
        from repro.audit import AuditLog
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
        from repro.audit import AuditLog
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


class TestIdentifierOrdering:
    def test_sortable_collections(self):
        principals = sorted(
            [PrincipalId("b"), PrincipalId("a"), PrincipalId("a", "Z.ORG")]
        )
        assert principals[0].name == "a"
        groups = sorted(
            [
                GroupId(server=PrincipalId("s"), group="y"),
                GroupId(server=PrincipalId("s"), group="x"),
            ]
        )
        assert groups[0].group == "x"
        accounts = sorted(
            [
                AccountId(server=PrincipalId("s"), account="2"),
                AccountId(server=PrincipalId("s"), account="1"),
            ]
        )
        assert accounts[0].account == "1"


class TestRealmWiring:
    def test_print_server_with_accounting_via_testbed(self):
        """End-to-end quota-by-transfer with testbed-constructed parts."""
        from repro.kerberos.client import KerberosClient
        from repro.services.accounting import AccountingClient
        from repro.services.printserver import PAGES

        realm = Realm(seed=b"wiring")
        alice = realm.user("alice")
        bank = realm.accounting_server("bank")
        ps = realm.print_server("printer")
        bank.create_account("alice", alice.principal, {PAGES: 20})
        bank.create_account("printer", ps.principal)
        ps_kerberos = KerberosClient(
            ps.principal,
            realm.kdc.database.key_of(ps.principal),
            realm.network,
            realm.clock,
        )
        ps.accounting = AccountingClient(ps_kerberos, bank.principal)
        ps.account_name = "printer"

        alice.accounting_client(bank.principal).transfer(
            "alice", "printer", PAGES, 5
        )
        client = alice.client_for(ps.principal)
        client.request("allocate", args={"pages": 5})
        out = client.request("print", "memo.ps", amounts={PAGES: 2})
        assert out["remaining"] == 3

    def test_realm_clock_is_shared_by_services(self):
        realm = Realm(seed=b"clock-shared")
        fs = realm.file_server("files")
        bank = realm.accounting_server("bank")
        assert fs.clock is realm.clock
        assert bank.clock is realm.clock

    def test_simulated_time_advances_with_traffic(self):
        realm = Realm(seed=b"time-moves")
        alice = realm.user("alice")
        fs = realm.file_server("files")
        fs.grant_owner(alice.principal)
        fs.put("doc", b"x")
        before = realm.clock.now()
        alice.client_for(fs.principal).request("read", "doc")
        assert realm.clock.now() > before
